//! Smoke client for an external `smore_serve` daemon.
//!
//! Drives a fixed fleet of synthetic tenants — the daemon's
//! `--synthetic` recipe at its default seed — over pipelined
//! connections, then scrapes the daemon's `Stats` and checks it against
//! what this run saw. Two scripts:
//!
//! - steady (default): every tenant predicts against the shared base;
//! - `--storm`: a tenth of the fleet streams drifted windows as labelled
//!   ingests until it enrols online while the rest keep predicting, then
//!   a churn wave (one ingest per steady tenant) evicts the personalized
//!   tenants — into the state dir of a `--state-dir` daemon.
//!
//! Checks: the `Stats` scrape decodes; the daemon counts at least the
//! replies this run received; the storm fires enrolments, and the
//! journal holds one `enroll_finished` event per enrolment the daemon
//! counts (at least one once the ring has wrapped or dropped events).
//! A failed connection, a reply that is an error other than
//! `Overloaded`, or a failed check exits 1; a usage error exits 2. The
//! smoke prints counts only: serving throughput and latency are
//! servebench's (`servebench/README.md`).
//!
//! ```text
//! smore_serve --synthetic --addr 127.0.0.1:7878 &
//! cargo run --release -p smore_bench --bin load_gen -- --connect 127.0.0.1:7878 [--storm]
//! ```

#![forbid(unsafe_code)]

use std::collections::HashSet;

use smore_data::Dataset;
use smore_serve::{synthetic, ErrorCode, EventKind, Response, ServeClient};
use smore_tensor::Matrix;

/// The fleet's dataset seed: `smore_serve`'s default seed, so every
/// window comes from the recipe the daemon trained on.
const SEED: u64 = 7;
/// Tenants in the fleet.
const TENANTS: usize = 64;
/// Pipelined client connections; tenants are dealt round-robin.
const CONNECTIONS: usize = 2;
/// Requests in flight per connection.
const INFLIGHT: usize = 32;
/// Predicts per steady tenant.
const PREDICTS_PER_TENANT: usize = 2;
/// Labelled ingests per drifting tenant in the storm.
const STORM_INGESTS: usize = 40;
/// Tenants `0..DRIFTING` drift in the storm.
const DRIFTING: usize = TENANTS / 10;

const USAGE: &str = "usage: load_gen --connect HOST:PORT [--storm]";

type BoxError = Box<dyn std::error::Error + Send + Sync>;

struct Args {
    connect: String,
    storm: bool,
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut connect = None;
    let mut storm = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => {
                let Some(addr) = it.next() else {
                    eprintln!("--connect needs a value");
                    usage();
                };
                connect = Some(addr);
            }
            "--storm" => storm = true,
            "--help" | "-h" => {
                println!(
                    "load_gen: smoke-test a running smore_serve daemon on the synthetic fleet.\n\
                     \n\
                     {USAGE}\n\
                     \n\
                     --connect ADDR  the daemon to drive (steady predicts on the shared base)\n\
                     --storm         drive the enrolment storm and churn wave instead: a tenth\n\
                     \x20               of the fleet personalizes and is evicted, so a\n\
                     \x20               daemon with a state dir lands durable tenant state"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("--connect is required");
        usage();
    };
    Args { connect, storm }
}

/// One scripted request. `Predict` indexes the fleet dataset; `Ingest`
/// indexes the synthesized drift pool (with its oracle label).
enum Op {
    Predict { tenant: u64, window: usize },
    Ingest { tenant: u64, window: usize },
}

/// Reply tallies from the connection threads.
#[derive(Default)]
struct Tally {
    predictions: u64,
    overloaded: u64,
    rejected: u64,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.predictions += other.predictions;
        self.overloaded += other.overloaded;
        self.rejected += other.rejected;
    }
}

/// Drives one connection through its scripted ops with up to
/// [`INFLIGHT`] requests pipelined.
fn drive_connection(
    addr: &str,
    ds: &Dataset,
    drift: &[(Matrix, usize)],
    ops: &[Op],
) -> Result<Tally, BoxError> {
    let mut client = ServeClient::connect(addr)?;
    let mut tally = Tally::default();
    let mut pending = HashSet::new();

    let receive_one = |client: &mut ServeClient,
                       pending: &mut HashSet<u64>,
                       tally: &mut Tally|
     -> Result<(), BoxError> {
        let (id, response) = client.recv()?;
        if !pending.remove(&id) {
            return Err(format!("response for unknown request id {id}").into());
        }
        match response {
            Response::Prediction(_) => tally.predictions += 1,
            Response::Error { code: ErrorCode::Overloaded, .. } => tally.overloaded += 1,
            Response::Error { code, message } => {
                tally.rejected += 1;
                if tally.rejected <= 3 {
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
        while pending.len() >= INFLIGHT {
            receive_one(&mut client, &mut pending, &mut tally)?;
        }
        let id = match op {
            Op::Predict { tenant, window } => client.send_predict(*tenant, ds.window(*window))?,
            Op::Ingest { tenant, window } => {
                let (w, label) = &drift[*window];
                client.send_ingest(*tenant, w, Some(*label as u32))?
            }
        };
        client.flush()?;
        pending.insert(id);
    }
    while !pending.is_empty() {
        receive_one(&mut client, &mut pending, &mut tally)?;
    }
    Ok(tally)
}

/// Drives every connection's ops concurrently and merges the tallies.
fn run_script(
    addr: &str,
    ds: &Dataset,
    drift: &[(Matrix, usize)],
    ops: &[Vec<Op>],
) -> Result<Tally, BoxError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter()
            .map(|conn_ops| scope.spawn(move || drive_connection(addr, ds, drift, conn_ops)))
            .collect();
        let mut merged = Tally::default();
        for handle in handles {
            let tally = handle.join().map_err(|_| "connection thread panicked")?;
            merged.absorb(tally.map_err(|e| format!("connection failed: {e}"))?);
        }
        Ok(merged)
    })
}

/// The `round`-th in-distribution window `tenant` predicts on.
fn predict_op(tenant: usize, round: usize, train_windows: &[usize]) -> Op {
    let window = train_windows[(tenant * 13 + round * 7) % train_windows.len()];
    Op::Predict { tenant: tenant as u64, window }
}

/// Steady traffic: every tenant sends [`PREDICTS_PER_TENANT`] predicts,
/// interleaved across the fleet.
fn steady_ops(train_windows: &[usize]) -> Vec<Vec<Op>> {
    let mut per_conn: Vec<Vec<Op>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for round in 0..PREDICTS_PER_TENANT {
        for tenant in 0..TENANTS {
            per_conn[tenant % CONNECTIONS].push(predict_op(tenant, round, train_windows));
        }
    }
    per_conn
}

/// The storm: tenants `0..DRIFTING` stream the drift pool as labelled
/// ingests while the rest keep predicting. Each drifting tenant walks the
/// pool sequentially from its own offset — enrolment needs a sustained
/// drifted stream, not scattered samples. A churn wave follows: one
/// ingest per steady tenant opens a session for it, which pushes the
/// personalized tenants out through the LRU, so a `--state-dir` daemon
/// holds their state on disk when the storm ends.
fn storm_ops(train_windows: &[usize], drift_len: usize) -> Vec<Vec<Op>> {
    let mut per_conn: Vec<Vec<Op>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for round in 0..STORM_INGESTS.max(PREDICTS_PER_TENANT) {
        for tenant in 0..TENANTS {
            let conn = &mut per_conn[tenant % CONNECTIONS];
            if tenant < DRIFTING {
                if round < STORM_INGESTS {
                    let window = (tenant * 11 + round) % drift_len;
                    conn.push(Op::Ingest { tenant: tenant as u64, window });
                }
            } else if round < PREDICTS_PER_TENANT {
                conn.push(predict_op(tenant, round, train_windows));
            }
        }
    }
    for tenant in DRIFTING..TENANTS {
        per_conn[tenant % CONNECTIONS]
            .push(Op::Ingest { tenant: tenant as u64, window: tenant % drift_len });
    }
    per_conn
}

fn run(args: &Args) -> Result<(), BoxError> {
    let ds = synthetic::dataset(SEED)?;
    let train_windows: Vec<usize> =
        (0..ds.len()).filter(|&i| ds.domain(i) != synthetic::DRIFT_DOMAIN).collect();
    let drift = synthetic::drift_stream(&ds, 256, SEED ^ 0xD1F7)?;
    let (script, ops) = if args.storm {
        ("enrolment storm", storm_ops(&train_windows, drift.len()))
    } else {
        ("steady", steady_ops(&train_windows))
    };
    println!(
        "load_gen: {TENANTS} tenants over {CONNECTIONS} connections (inflight {INFLIGHT}), \
         {script} against {}",
        args.connect
    );
    let tally = run_script(&args.connect, &ds, &drift, &ops)?;

    let remote = ServeClient::connect(&args.connect)?
        .stats()
        .map_err(|e| format!("the Stats scrape failed: {e}"))?;
    let served = remote.counter("requests_served").unwrap_or(0);
    let adaptations = remote.counter("adaptations").unwrap_or(0);
    let journal = &remote.journal;
    let finished = journal.count_of(EventKind::EnrollFinished) as u64;
    println!(
        "replies: {} predictions, {} overloaded, {} rejected | server: served {served}, \
         adaptations {adaptations} | journal: enroll_finished {finished}, pushed {} of \
         capacity {}, dropped {}",
        tally.predictions,
        tally.overloaded,
        tally.rejected,
        journal.pushed,
        journal.capacity,
        journal.dropped,
    );

    if served < tally.predictions {
        return Err(format!(
            "server reports {served} served but this run received {} predictions",
            tally.predictions
        )
        .into());
    }
    if args.storm {
        if adaptations == 0 {
            return Err("the storm fired no enrolments (is the daemon on seed 7?)".into());
        }
        // Exact while the ring has neither wrapped nor dropped an event.
        let exact = journal.dropped == 0 && journal.pushed <= journal.capacity as u64;
        if exact && finished != adaptations {
            return Err(format!(
                "journal holds {finished} enroll_finished events but the server reports \
                 {adaptations} adaptations"
            )
            .into());
        }
        if finished == 0 {
            return Err("a wrapped journal must still hold recent enrolments".into());
        }
    }
    if tally.rejected > 0 {
        return Err(format!(
            "{} requests were rejected (is the daemon on seed 7?)",
            tally.rejected
        )
        .into());
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("load_gen: {e}");
        std::process::exit(1);
    }
}
