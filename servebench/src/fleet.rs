//! The product's set-up, as a user pays it: train the synthetic fleet
//! engine, start the server, wait until it answers. Plus the fabricated
//! `churn` archive, which is built outside the timed set-up.

use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smore_data::Dataset;
use smore_serve::{serve, synthetic, FlushPolicy, ServeClient, ServeConfig, ServerHandle};
use smore_stream::{ServeEngine, StateDir};

use crate::stats::median;
use crate::workload::Workload;
use crate::BoxResult;

/// Hypervector dimension of the served model.
pub const DIM: usize = 4096;
/// Seed of the trained fleet: the product under test is the same model
/// on every run; `--seed` varies only the traffic.
pub const FLEET_SEED: u64 = 7;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Resident sessions per shard: `churn`'s cap sits far below its
/// archive; `storm`'s evicts drifting tenants once they are done, so
/// memory does not grow with the number that personalized.
pub fn session_cap(workload: Workload) -> Option<usize> {
    match workload {
        Workload::Steady => None,
        Workload::Storm => Some(8),
        Workload::Churn => Some(32),
    }
}
/// How long a server may take to answer or finish its recovery scan.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// The server configuration: defaults, except the state dir and the
/// workload's session cap.
fn config(workload: Workload, state_dir: Option<&Path>) -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        state_dir: state_dir.map(Path::to_path_buf),
        max_sessions_per_shard: session_cap(workload).unwrap_or(defaults.max_sessions_per_shard),
        ..defaults
    }
}

/// Starts a server over `engine` and returns once it answers a ping and,
/// with a state dir, once its recovery scan has indexed `recover` files.
pub fn start(
    engine: &Arc<ServeEngine>,
    workload: Workload,
    state_dir: Option<&Path>,
    recover: u64,
) -> BoxResult<ServerHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let server = serve(Arc::clone(engine), listener, config(workload, state_dir))?;
    let deadline = Instant::now() + READY_TIMEOUT;
    ServeClient::connect(server.local_addr())?.ping()?;
    if state_dir.is_some() {
        while server.stats().counter("state_recovered").unwrap_or(0) < recover {
            if Instant::now() > deadline {
                server.shutdown();
                return Err(format!("the server did not recover {recover} tenants in time").into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(server)
}

/// The last set-up's engine and running server, with set-up timings.
pub struct Setup {
    /// The fleet dataset the engine was trained on.
    pub ds: Dataset,
    /// The serving engine.
    pub engine: Arc<ServeEngine>,
    /// The running server.
    pub server: ServerHandle,
    /// Median wall time of train + serve-until-ready.
    pub setup_s: f64,
    /// Median wall time of training (train, quantize, calibrate).
    pub train_s: f64,
    /// Median wall time from trained engine to an answering server.
    pub ready_s: f64,
}

/// Runs the product's set-up [`SETUP_REPS`] times and keeps the last
/// server running.
pub fn set_up(workload: Workload, state_dir: Option<&Path>, recover: u64) -> BoxResult<Setup> {
    let mut totals = Vec::with_capacity(SETUP_REPS);
    let mut trains = Vec::with_capacity(SETUP_REPS);
    let mut readies = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, server)) = last.take() {
            ServerHandle::shutdown(server);
        }
        let t0 = Instant::now();
        let (ds, engine) = synthetic::engine(FLEET_SEED, DIM)?;
        let engine = Arc::new(engine);
        let trained = Instant::now();
        let server = start(&engine, workload, state_dir, recover)?;
        let ready = Instant::now();
        totals.push((ready - t0).as_secs_f64());
        trains.push((trained - t0).as_secs_f64());
        readies.push((ready - trained).as_secs_f64());
        last = Some((ds, engine, server));
    }
    let (ds, engine, server) = last.ok_or("no set-up ran")?;
    let med = |v: &mut Vec<f64>| median(v).unwrap_or(0.0);
    Ok(Setup {
        ds,
        engine,
        server,
        setup_s: med(&mut totals),
        train_s: med(&mut trains),
        ready_s: med(&mut readies),
    })
}

/// Personalizes one tenant on a separately trained copy of the fleet and
/// writes its `DeltaV1` bytes under tenant ids `0..tenants` into `dir`.
/// Returns the bytes and the archive's build time.
pub fn churn_archive(dir: &Path, tenants: u64) -> BoxResult<(Vec<u8>, f64)> {
    let (ds, engine) = synthetic::engine(FLEET_SEED, DIM)?;
    let mut session = engine.session_for(u64::MAX);
    for (window, label) in synthetic::drift_stream(&ds, 256, FLEET_SEED ^ 0xC4)? {
        session.ingest_labelled(&window, label)?;
        if session.is_personalized() {
            break;
        }
    }
    let bytes = session.suspend().ok_or("the drift stream did not personalize the tenant")?;
    let t0 = Instant::now();
    let mut state = StateDir::open(dir, FlushPolicy::OnEvict, |_| true)?;
    for tenant in 0..tenants {
        state.write(tenant, &bytes)?;
    }
    // Make the archive durable now, so its writeback does not land in
    // the measured phase.
    state.flush()?;
    Ok((bytes, t0.elapsed().as_secs_f64()))
}
