//! `smore_serve` — the SMORE network serving daemon.
//!
//! ```text
//! smore_serve --synthetic [--addr 127.0.0.1:7878] [--dim 1024]
//! smore_serve --artifact model.smore [--addr ...]
//!             [--workers N] [--queue-cap N] [--max-sessions-per-shard N]
//!             [--state-dir PATH] [--flush-policy sync|on_evict]
//!             [--io-timeout-ms N] [--duration-secs N] [--seed N]
//!             [--stats-every N]
//! ```
//!
//! `--synthetic` trains the canonical synthetic fleet model in-process
//! (seconds) — the mode CI and the `load_gen` smoke client use.
//! `--artifact` serves a dense `.smore` artifact written by `Smore::save`.
//! `--duration-secs 0` (default) serves until killed. `--stats-every N`
//! dumps the telemetry snapshot (text exposition) to stdout every N
//! seconds. Diagnostics go through the `SMORE_LOG`-leveled logger
//! (default `warn`; set `SMORE_LOG=info` for startup/shutdown chatter,
//! `SMORE_LOG=debug` for per-connection protocol errors).

#![forbid(unsafe_code)]

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smore_obs::{error, info, EventJournal};
use smore_serve::{serve, synthetic, FlushPolicy, ServeConfig};
use smore_stream::ServeEngine;

/// Ring capacity for the engine-attached adaptation journal.
const JOURNAL_CAPACITY: usize = 4096;

/// Where the served model comes from — parsing resolves the
/// `--synthetic` / `--artifact` pair into one typed source, so the
/// serving setup never has to re-derive which flag was given.
enum ModelSource {
    Synthetic,
    Artifact(String),
}

struct Args {
    addr: String,
    source: Option<ModelSource>,
    dim: usize,
    seed: u64,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    max_sessions_per_shard: Option<usize>,
    state_dir: Option<PathBuf>,
    flush_policy: Option<FlushPolicy>,
    io_timeout_ms: Option<u64>,
    duration_secs: u64,
    stats_every_secs: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: smore_serve (--synthetic | --artifact <model.smore>) [--addr HOST:PORT] \
         [--dim N] [--seed N] [--workers N] [--queue-cap N] \
         [--max-sessions-per-shard N] [--state-dir PATH] \
         [--flush-policy sync|on_evict] [--io-timeout-ms N] [--duration-secs N] \
         [--stats-every N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = it.next() else {
        eprintln!("{flag} needs a value");
        usage();
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse '{raw}'");
        usage();
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        source: None,
        dim: 1024,
        seed: 7,
        workers: None,
        queue_cap: None,
        max_sessions_per_shard: None,
        state_dir: None,
        flush_policy: None,
        io_timeout_ms: None,
        duration_secs: 0,
        stats_every_secs: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = parse(&mut it, "--addr"),
            "--synthetic" => set_source(&mut args, ModelSource::Synthetic),
            "--artifact" => {
                let path = parse(&mut it, "--artifact");
                set_source(&mut args, ModelSource::Artifact(path));
            }
            "--dim" => args.dim = parse(&mut it, "--dim"),
            "--seed" => args.seed = parse(&mut it, "--seed"),
            "--workers" => args.workers = Some(parse(&mut it, "--workers")),
            "--queue-cap" => args.queue_cap = Some(parse(&mut it, "--queue-cap")),
            "--max-sessions-per-shard" => {
                args.max_sessions_per_shard = Some(parse(&mut it, "--max-sessions-per-shard"))
            }
            "--state-dir" => {
                args.state_dir = Some(PathBuf::from(parse::<String>(&mut it, "--state-dir")))
            }
            "--flush-policy" => {
                let raw: String = parse(&mut it, "--flush-policy");
                let Ok(policy) = FlushPolicy::parse(&raw) else {
                    eprintln!("--flush-policy: expected 'sync' or 'on_evict', got '{raw}'");
                    usage();
                };
                args.flush_policy = Some(policy);
            }
            "--io-timeout-ms" => args.io_timeout_ms = Some(parse(&mut it, "--io-timeout-ms")),
            "--duration-secs" => args.duration_secs = parse(&mut it, "--duration-secs"),
            "--stats-every" => args.stats_every_secs = parse(&mut it, "--stats-every"),
            "--help" | "-h" => {
                println!(
                    "smore_serve: network serving front-end for the SMORE multi-tenant engine.\n\
                     Speaks the length-prefixed CRC-framed binary protocol in smore_serve::protocol.\n\
                     \n\
                     usage: smore_serve (--synthetic | --artifact <model.smore>) [--addr HOST:PORT]\n\
                            [--dim N] [--seed N] [--workers N] [--queue-cap N]\n\
                            [--max-sessions-per-shard N] [--state-dir PATH]\n\
                            [--flush-policy sync|on_evict] [--io-timeout-ms N]\n\
                            [--duration-secs N] [--stats-every N]\n\
                     \n\
                     --state-dir PATH     durable tenant-state directory: evicted/drained\n\
                                          sessions persist here and survive restarts\n\
                     --flush-policy P     sync (fsync per archive write) or on_evict\n\
                                          (default; fsync deferred to drain)\n\
                     --io-timeout-ms N    per-connection socket read/write timeout\n\
                     --stats-every N      print the telemetry snapshot every N seconds\n\
                     SMORE_LOG=LEVEL      error|warn|info|debug|trace diagnostics (default warn)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    if args.source.is_none() {
        eprintln!("exactly one of --synthetic / --artifact is required");
        usage();
    }
    args
}

fn set_source(args: &mut Args, source: ModelSource) {
    if args.source.is_some() {
        eprintln!("exactly one of --synthetic / --artifact is required");
        usage();
    }
    args.source = Some(source);
}

fn main() {
    let args = parse_args();

    let mut engine = match &args.source {
        Some(ModelSource::Synthetic) => {
            info!(
                "serve",
                "training the synthetic fleet model (seed {}, d = {})...", args.seed, args.dim
            );
            let (_, engine) = synthetic::engine(args.seed, args.dim).unwrap_or_else(|e| {
                error!("serve", "synthetic engine failed: {e}");
                std::process::exit(1);
            });
            engine
        }
        Some(ModelSource::Artifact(path)) => {
            info!("serve", "loading dense artifact {path}...");
            ServeEngine::from_artifact(path, synthetic::streaming_config()).unwrap_or_else(|e| {
                error!("serve", "artifact load failed: {e}");
                std::process::exit(1);
            })
        }
        // parse_args validated the source; stay typed instead of panicking.
        None => usage(),
    };
    // Engine-attached journal: tenant lifecycle events (OOD, drift,
    // enrolments, swaps) and the server's shed events share one ring,
    // scrapeable over the wire.
    engine.set_journal(Arc::new(EventJournal::new(JOURNAL_CAPACITY)));

    let mut config = ServeConfig::default();
    if let Some(w) = args.workers {
        config.workers = w;
    }
    if let Some(q) = args.queue_cap {
        config.queue_capacity = q;
    }
    if let Some(s) = args.max_sessions_per_shard {
        config.max_sessions_per_shard = s;
    }
    if let Some(dir) = args.state_dir {
        config.state_dir = Some(dir);
    }
    if let Some(policy) = args.flush_policy {
        config.flush_policy = policy;
    }
    if let Some(ms) = args.io_timeout_ms {
        config.io_timeout = Some(Duration::from_millis(ms));
    }

    let listener = TcpListener::bind(&args.addr).unwrap_or_else(|e| {
        error!("serve", "cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    let server = serve(Arc::new(engine), listener, config.clone()).unwrap_or_else(|e| {
        error!("serve", "server start failed: {e}");
        std::process::exit(1);
    });
    info!(
        "serve",
        "serving on {} ({} workers, queue {}, state {})",
        server.local_addr(),
        config.workers,
        config.queue_capacity,
        match &config.state_dir {
            Some(dir) => format!("{} ({})", dir.display(), config.flush_policy.name()),
            None => "in-memory".into(),
        }
    );

    // One loop drives both the serve deadline and the periodic stats
    // dump; without either it just sleeps in long slices.
    let deadline =
        (args.duration_secs > 0).then(|| Instant::now() + Duration::from_secs(args.duration_secs));
    let tick = if args.stats_every_secs > 0 {
        Duration::from_secs(args.stats_every_secs)
    } else {
        Duration::from_secs(3600)
    };
    loop {
        let mut sleep = tick;
        if let Some(d) = deadline {
            let now = Instant::now();
            if now >= d {
                break;
            }
            sleep = sleep.min(d - now);
        }
        std::thread::sleep(sleep);
        if args.stats_every_secs > 0 {
            // The stats dump is the binary's requested output, not a
            // diagnostic — it stays on stdout regardless of SMORE_LOG.
            print!("{}", server.stats().render_text());
        }
    }

    let m = server.metrics_arc();
    server.shutdown();
    // ordering: Relaxed — monotone report counters read after shutdown()
    // joined every worker; the joins give the happens-before edge.
    info!(
        "serve",
        "served {} predictions, {} adaptations, {} overloaded, {} protocol errors \
         over {} connections",
        m.served.load(std::sync::atomic::Ordering::Relaxed),
        m.adaptations.load(std::sync::atomic::Ordering::Relaxed),
        m.overloaded.load(std::sync::atomic::Ordering::Relaxed),
        m.protocol_errors.load(std::sync::atomic::Ordering::Relaxed),
        m.connections.load(std::sync::atomic::Ordering::Relaxed),
    );
}
