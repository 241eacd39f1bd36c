//! Load generator for the `smore_serve` network front-end.
//!
//! Simulates a fleet of concurrent tenants (default 1200) multiplexed
//! over a handful of pipelined connections and measures serving
//! throughput and tail latency in two scenarios:
//!
//! - `steady` — every tenant predicts against the shared base snapshot;
//! - `enrolment_storm` — 10% of the fleet drifts at once (held-out-domain
//!   windows streamed as labelled ingests) while the rest keep
//!   predicting; reported latencies are the *steady* tenants' predicts —
//!   the tail they see while the workers run online enrolments next to
//!   them.
//!
//! By default each scenario starts an in-process server (fresh worker
//! state, per-scenario metrics) around one shared trained engine;
//! `--connect ADDR` points the steady scenario at an external
//! `smore_serve` instead (CI smoke-runs the loopback pair this way).
//!
//! ```text
//! cargo run --release --bin load_gen                  # full run, writes BENCH_serve.json
//! cargo run --release --bin load_gen -- --smoke       # seconds-scale CI check, no JSON
//! cargo run --release --bin load_gen -- --connect 127.0.0.1:7878 --smoke
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use smore_data::Dataset;
use smore_obs::{AtomicHistogram, EventJournal, HistogramSnapshot};
use smore_serve::{serve, synthetic, ErrorCode, Response, ServeClient, ServeConfig, StatsSnapshot};
use smore_stream::ServeEngine;
use smore_tensor::Matrix;

struct Args {
    tenants: usize,
    connections: usize,
    requests_per_tenant: usize,
    storm_ingests: usize,
    inflight: usize,
    dim: usize,
    seed: u64,
    workers: usize,
    out: String,
    smoke: bool,
    connect: Option<String>,
    storm: bool,
}

impl Args {
    fn parse() -> Self {
        let mut args = Args {
            tenants: 1200,
            connections: 4,
            requests_per_tenant: 5,
            storm_ingests: 56,
            inflight: 32,
            dim: 1024,
            seed: 7,
            workers: 2,
            out: "BENCH_serve.json".into(),
            smoke: false,
            connect: None,
            storm: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut val = |flag: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--tenants" => args.tenants = val("--tenants").parse().expect("--tenants"),
                "--connections" => {
                    args.connections = val("--connections").parse().expect("--connections")
                }
                "--requests-per-tenant" => {
                    args.requests_per_tenant =
                        val("--requests-per-tenant").parse().expect("--requests-per-tenant")
                }
                "--storm-ingests" => {
                    args.storm_ingests = val("--storm-ingests").parse().expect("--storm-ingests")
                }
                "--inflight" => args.inflight = val("--inflight").parse().expect("--inflight"),
                "--dim" => args.dim = val("--dim").parse().expect("--dim"),
                "--seed" => args.seed = val("--seed").parse().expect("--seed"),
                "--workers" => args.workers = val("--workers").parse().expect("--workers"),
                "--out" => args.out = val("--out"),
                "--smoke" => args.smoke = true,
                "--connect" => args.connect = Some(val("--connect")),
                "--storm" => args.storm = true,
                "--help" | "-h" => {
                    println!(
                        "load_gen: drive a smore_serve front-end with a simulated tenant fleet.\n\
                         \n\
                         --tenants N              fleet size (default 1200)\n\
                         --connections N          pipelined client connections (default 4)\n\
                         --requests-per-tenant N  predicts per steady tenant (default 5)\n\
                         --storm-ingests N        labelled ingests per drifting tenant (default 56)\n\
                         --inflight N             max pipelined requests per connection (default 32)\n\
                         --dim N                  hypervector dimension for --synthetic training\n\
                         --seed N                 fleet seed (default 7)\n\
                         --workers N              in-process server workers (default 2)\n\
                         --out PATH               JSON output (default BENCH_serve.json)\n\
                         --smoke                  tiny fleet, skip the JSON write\n\
                         --connect ADDR           drive an external server (steady traffic)\n\
                         --storm                  with --connect: drive the enrolment storm\n\
                                                  instead (personalizes 10% of the fleet, so\n\
                                                  a --state-dir server accumulates durable\n\
                                                  tenant state)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument '{other}' (try --help)");
                    std::process::exit(2);
                }
            }
        }
        if args.smoke {
            args.tenants = args.tenants.min(64);
            args.connections = args.connections.min(2);
            args.requests_per_tenant = args.requests_per_tenant.min(2);
            args.storm_ingests = args.storm_ingests.min(40);
        }
        args
    }
}

/// One scripted request. `Predict` indexes the fleet dataset; `Ingest`
/// indexes the synthesized 1.5×-hot drift pool (with its oracle label).
enum Op {
    Predict { tenant: u64, window: usize },
    Ingest { tenant: u64, window: usize },
}

/// End-to-end latency histograms shared by every connection thread in a
/// scenario — the same lock-free log2 histograms the server's per-stage
/// telemetry uses, so client- and server-side quantiles come from one
/// nearest-rank implementation.
#[derive(Default)]
struct LatencyHists {
    predict: AtomicHistogram,
    ingest: AtomicHistogram,
}

/// Error tallies from one connection thread (latencies go straight into
/// the scenario's shared [`LatencyHists`]).
#[derive(Default)]
struct ConnStats {
    overloaded: u64,
    rejected: u64,
}

impl ConnStats {
    fn absorb(&mut self, other: ConnStats) {
        self.overloaded += other.overloaded;
        self.rejected += other.rejected;
    }
}

/// Drives one connection through its scripted ops with up to `inflight`
/// requests pipelined, timestamping each request at flush.
fn drive_connection(
    addr: &str,
    ds: &Dataset,
    drift: &[(Matrix, usize)],
    ops: &[Op],
    inflight: usize,
    hists: &LatencyHists,
) -> Result<ConnStats, Box<dyn std::error::Error + Send + Sync>> {
    let mut client = ServeClient::connect(addr)?;
    let mut stats = ConnStats::default();
    let mut pending: HashMap<u64, (Instant, bool)> = HashMap::new();

    let receive_one = |client: &mut ServeClient,
                       pending: &mut HashMap<u64, (Instant, bool)>,
                       stats: &mut ConnStats|
     -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
        let (id, response) = client.recv()?;
        let Some((sent, is_predict)) = pending.remove(&id) else {
            return Err(format!("response for unknown request id {id}").into());
        };
        match response {
            Response::Prediction(_) => {
                let nanos = u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if is_predict {
                    hists.predict.record(nanos);
                } else {
                    hists.ingest.record(nanos);
                }
            }
            Response::Error { code: ErrorCode::Overloaded, .. } => stats.overloaded += 1,
            Response::Error { code, message } => {
                stats.rejected += 1;
                if stats.rejected <= 3 {
                    eprintln!("rejected request: {code:?}: {message}");
                }
            }
            Response::Pong | Response::Stats(_) => {
                return Err("unsolicited pong/stats response".into())
            }
        }
        Ok(())
    };

    for op in ops {
        while pending.len() >= inflight {
            receive_one(&mut client, &mut pending, &mut stats)?;
        }
        let (id, is_predict) = match op {
            Op::Predict { tenant, window } => {
                (client.send_predict(*tenant, ds.window(*window))?, true)
            }
            Op::Ingest { tenant, window } => {
                let (w, label) = &drift[*window];
                (client.send_ingest(*tenant, w, Some(*label as u32))?, false)
            }
        };
        client.flush()?;
        pending.insert(id, (Instant::now(), is_predict));
    }
    while !pending.is_empty() {
        receive_one(&mut client, &mut pending, &mut stats)?;
    }
    Ok(stats)
}

/// Runs one scenario: splits `ops` round-robin across connections, drives
/// them concurrently, merges the stats.
fn run_scenario(
    addr: &str,
    ds: &Dataset,
    drift: &[(Matrix, usize)],
    ops: Vec<Vec<Op>>,
    inflight: usize,
) -> (ConnStats, LatencyHists, f64) {
    let t0 = Instant::now();
    let mut merged = ConnStats::default();
    let hists = LatencyHists::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter()
            .map(|conn_ops| {
                let hists = &hists;
                scope.spawn(move || drive_connection(addr, ds, drift, conn_ops, inflight, hists))
            })
            .collect();
        for handle in handles {
            match handle.join().expect("connection thread never panics") {
                Ok(stats) => merged.absorb(stats),
                Err(e) => {
                    eprintln!("connection failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    (merged, hists, wall)
}

fn quantile_ms(snap: &HistogramSnapshot, q: f64) -> f64 {
    snap.quantile(q) as f64 / 1e6
}

struct ScenarioResult {
    name: &'static str,
    requests: usize,
    wall_secs: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    overloaded: u64,
    adaptations: u64,
    /// The server's per-stage latency histograms at scenario end
    /// (nanoseconds), scraped from its telemetry registry.
    stages: Vec<(String, HistogramSnapshot)>,
}

impl ScenarioResult {
    fn from_stats(
        name: &'static str,
        stats: &ConnStats,
        hists: &LatencyHists,
        wall_secs: f64,
        server_stats: &StatsSnapshot,
    ) -> Self {
        // Storm reports the steady tenants' predict tail; steady scenarios
        // have no ingests at all.
        let predict = hists.predict.snapshot();
        let ingest = hists.ingest.snapshot();
        let requests = (predict.count + ingest.count) as usize;
        Self {
            name,
            requests,
            wall_secs,
            p50_ms: quantile_ms(&predict, 0.50),
            p95_ms: quantile_ms(&predict, 0.95),
            p99_ms: quantile_ms(&predict, 0.99),
            overloaded: stats.overloaded,
            adaptations: server_stats.counter("adaptations").unwrap_or(0),
            stages: server_stats.stages.clone(),
        }
    }

    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / self.wall_secs.max(1e-12)
    }

    fn report(&self) {
        println!(
            "  {:<20} {:>6} req in {:>6.2}s = {:>8.0} req/s | predict p50 {:>7.3} ms  \
             p95 {:>7.3} ms  p99 {:>7.3} ms | overloaded {} | adaptations {}",
            self.name,
            self.requests,
            self.wall_secs,
            self.throughput_rps(),
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.overloaded,
            self.adaptations,
        );
    }

    fn json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|(name, h)| {
                format!(
                    "        \"{}\": {{ \"count\": {}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \
                     \"p99_ms\": {:.4}, \"sum_ms\": {:.3} }}",
                    name,
                    h.count,
                    quantile_ms(h, 0.50),
                    quantile_ms(h, 0.95),
                    quantile_ms(h, 0.99),
                    h.sum as f64 / 1e6,
                )
            })
            .collect();
        format!(
            "    {{\n      \"name\": \"{}\",\n      \"requests\": {},\n      \
             \"wall_secs\": {:.3},\n      \"throughput_rps\": {:.1},\n      \"predict_p50_ms\": {:.4},\n      \
             \"predict_p95_ms\": {:.4},\n      \"predict_p99_ms\": {:.4},\n      \"overloaded\": {},\n      \
             \"adaptations\": {},\n      \
             \"server_stages\": {{\n{}\n      }}\n    }}",
            self.name,
            self.requests,
            self.wall_secs,
            self.throughput_rps(),
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.overloaded,
            self.adaptations,
            stages.join(",\n"),
        )
    }
}

/// Scripted steady traffic: every tenant sends `requests_per_tenant`
/// predicts of in-distribution windows, interleaved across the fleet.
fn steady_ops(args: &Args, train_windows: &[usize]) -> Vec<Vec<Op>> {
    let mut per_conn: Vec<Vec<Op>> = (0..args.connections).map(|_| Vec::new()).collect();
    for round in 0..args.requests_per_tenant {
        for tenant in 0..args.tenants {
            let w = train_windows[(tenant * 13 + round * 7) % train_windows.len()];
            per_conn[tenant % args.connections]
                .push(Op::Predict { tenant: tenant as u64, window: w });
        }
    }
    per_conn
}

/// Scripted storm: the first 10% of tenants stream the 1.5×-hot drift
/// pool as labelled ingests (the enrolment storm); the rest keep
/// predicting. Each drifting tenant walks the pool sequentially from a
/// tenant-specific offset — enrolment needs a *sustained* drifted stream,
/// not scattered samples.
fn storm_ops(args: &Args, train_windows: &[usize], drift_len: usize) -> Vec<Vec<Op>> {
    let drifting = (args.tenants / 10).max(1);
    let mut per_conn: Vec<Vec<Op>> = (0..args.connections).map(|_| Vec::new()).collect();
    let rounds = args.storm_ingests.max(args.requests_per_tenant);
    for round in 0..rounds {
        for tenant in 0..args.tenants {
            let conn = tenant % args.connections;
            if tenant < drifting {
                if round < args.storm_ingests {
                    let w = (tenant * 11 + round) % drift_len;
                    per_conn[conn].push(Op::Ingest { tenant: tenant as u64, window: w });
                }
            } else if round < args.requests_per_tenant {
                let w = train_windows[(tenant * 13 + round * 7) % train_windows.len()];
                per_conn[conn].push(Op::Predict { tenant: tenant as u64, window: w });
            }
        }
    }
    per_conn
}

fn in_process(
    engine: &Arc<ServeEngine>,
    args: &Args,
    ds: &Dataset,
    drift: &[(Matrix, usize)],
    ops: Vec<Vec<Op>>,
) -> (ConnStats, LatencyHists, f64, StatsSnapshot) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let config = ServeConfig { workers: args.workers, ..ServeConfig::default() };
    let server = serve(Arc::clone(engine), listener, config).expect("server starts");
    let addr = server.local_addr().to_string();
    let (stats, hists, wall) = run_scenario(&addr, ds, drift, ops, args.inflight);
    let server_stats = server.stats();
    server.shutdown();
    (stats, hists, wall, server_stats)
}

fn write_json(path: &str, args: &Args, results: &[ScenarioResult]) -> std::io::Result<()> {
    let scenarios: Vec<String> = results.iter().map(ScenarioResult::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"dataset\": \"serve-fleet\",\n  \"dim\": {},\n  \
         \"tenants\": {},\n  \"drifting_tenants\": {},\n  \"connections\": {},\n  \"workers\": {},\n  \
         \"inflight_per_connection\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        args.dim,
        args.tenants,
        (args.tenants / 10).max(1),
        args.connections,
        args.workers,
        args.inflight,
        scenarios.join(",\n"),
    );
    std::fs::write(path, json)
}

fn main() {
    let args = Args::parse();
    println!(
        "load_gen: {} tenants over {} connections (inflight {}), dim {}, seed {}",
        args.tenants, args.connections, args.inflight, args.dim, args.seed
    );

    let ds = synthetic::dataset(args.seed).expect("fleet dataset generates");
    let train_windows: Vec<usize> =
        (0..ds.len()).filter(|&i| ds.domain(i) != synthetic::DRIFT_DOMAIN).collect();
    let drift_pool =
        synthetic::drift_stream(&ds, 256, args.seed ^ 0xD1F7).expect("drift pool synthesizes");

    if let Some(addr) = &args.connect {
        // External server: its config is whatever it was started with.
        // `--storm` swaps the steady
        // script for the enrolment storm, personalizing 10% of the fleet —
        // the traffic the CI kill/restart smoke uses to land durable
        // tenant state in a `--state-dir` server before killing it.
        let (name, ops) = if args.storm {
            println!("driving external server at {addr} (enrolment storm)");
            let mut ops = storm_ops(&args, &train_windows, drift_pool.len());
            // Churn wave after the storm: one ingest per steady tenant
            // materializes a session, pushing the personalized drifting
            // tenants out through the LRU — against a `--state-dir`
            // server their deltas land in the durable archive, which the
            // kill/restart smoke depends on having on disk before the
            // kill.
            let drifting = (args.tenants / 10).max(1);
            for tenant in drifting..args.tenants {
                ops[tenant % args.connections]
                    .push(Op::Ingest { tenant: tenant as u64, window: tenant % drift_pool.len() });
            }
            ("remote_storm", ops)
        } else {
            println!("driving external server at {addr}");
            ("remote_steady", steady_ops(&args, &train_windows))
        };
        let (stats, hists, wall) = run_scenario(addr, &ds, &drift_pool, ops, args.inflight);
        // Scrape the server's telemetry over the wire: the snapshot must
        // decode (versioned frame) and account for at least the
        // requests this run just received.
        let mut client = ServeClient::connect(addr).expect("stats connection");
        let remote = client.stats().expect("wire stats snapshot decodes");
        let result = ScenarioResult::from_stats(name, &stats, &hists, wall, &remote);
        result.report();
        let answered = hists.predict.snapshot().count + hists.ingest.snapshot().count;
        let served = remote.counter("requests_served").unwrap_or(0);
        println!(
            "server stats: served {served}, {} stage histograms, journal pushed {}",
            remote.stages.len(),
            remote.journal.pushed
        );
        assert!(
            served >= answered,
            "server reports {served} served but this run received {answered} predictions"
        );
        if args.storm {
            assert!(
                result.adaptations > 0,
                "the storm must fire enrolments on the remote server (same --seed fleet?)"
            );
        }
        if stats.rejected > 0 {
            eprintln!(
                "{} requests were rejected — is the server on the same fleet recipe?",
                stats.rejected
            );
            std::process::exit(1);
        }
        return;
    }

    println!("training the shared fleet engine...");
    let t0 = Instant::now();
    let (_, mut engine) = synthetic::engine(args.seed, args.dim).expect("fleet engine trains");
    // Big enough that a full enrolment storm never wraps the ring — the
    // storm assertion below demands exact event accounting.
    engine.set_journal(Arc::new(EventJournal::new(32_768)));
    let engine = Arc::new(engine);
    println!("trained in {:.1}s", t0.elapsed().as_secs_f64());

    let mut results = Vec::new();
    {
        let ops = steady_ops(&args, &train_windows);
        let (stats, hists, wall, server_stats) = in_process(&engine, &args, &ds, &drift_pool, ops);
        let result = ScenarioResult::from_stats("steady", &stats, &hists, wall, &server_stats);
        result.report();
        results.push(result);
    }
    {
        let ops = storm_ops(&args, &train_windows, drift_pool.len());
        let (stats, hists, wall, server_stats) = in_process(&engine, &args, &ds, &drift_pool, ops);
        let result =
            ScenarioResult::from_stats("enrolment_storm", &stats, &hists, wall, &server_stats);
        result.report();
        assert!(result.adaptations > 0, "the storm must actually fire enrolments");
        // Telemetry must account for the storm it just watched: every
        // enrolment the engine reports appears in the journal (exact when
        // nothing wrapped or was dropped under contention).
        let enrolments = result.adaptations;
        let journal = &server_stats.journal;
        let finished = journal.count_of(smore_serve::EventKind::EnrollFinished);
        if journal.dropped == 0 && journal.pushed <= journal.capacity as u64 {
            assert_eq!(
                finished as u64, enrolments,
                "journal holds {finished} enroll_finished events but the server reports \
                 {enrolments} adaptations"
            );
        } else {
            assert!(finished > 0, "a wrapped journal must still hold recent enrolments");
        }
        results.push(result);
    }

    if args.smoke {
        println!("smoke mode: skipping the JSON write");
        return;
    }
    match write_json(&args.out, &args, &results) {
        Ok(()) => println!("wrote {}", args.out),
        Err(e) => {
            eprintln!("cannot write {}: {e}", args.out);
            std::process::exit(1);
        }
    }
}
