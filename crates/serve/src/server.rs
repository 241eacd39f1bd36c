//! The serving front-end: accept loop, per-tenant sharding, per-job
//! serving and admission control.
//!
//! # Architecture
//!
//! ```text
//!            ┌──────────────┐   bounded sync_channel   ┌──────────────┐
//! TCP ──────▶│ conn reader  │──── hash(tenant) % W ───▶│  worker 0    │
//!            │ (one/conn)   │                          │  sessions:   │
//!            │              │◀──── encoded frames ─────│  tenant →    │
//!            └─────┬────────┘      (reply channel)     │  TenantSession│
//!                  ▼                                   └──────────────┘
//!            ┌──────────────┐                          ┌──────────────┐
//!            │ conn writer  │                          │  worker 1…W  │
//!            └──────────────┘                          └──────────────┘
//! ```
//!
//! - **Sharding.** Every tenant id hashes to exactly one worker, so that
//!   tenant's [`TenantSession`](smore_stream::TenantSession) — OOD
//!   buffer, drift detector, serve scratch, personal delta — lives on one
//!   thread for its whole lifetime: core-local state, no locks, no
//!   cross-thread migration.
//! - **Bounded residency.** Each worker keeps its sessions in a
//!   [`SessionStore`] capped by [`ServeConfig::max_sessions_per_shard`]
//!   and [`ServeConfig::max_delta_bytes_per_shard`]: least-recently-used
//!   tenants are evicted — personalized ones suspend to compact `DeltaV1`
//!   delta artifacts — and lazily rehydrated on their next request. A
//!   tenant-id scan can no longer grow a worker's memory without bound.
//! - **Per-job serving.** A worker serves its queue one job at a time, in
//!   arrival order, through one [`ServeScratch`]. A predict for a tenant
//!   with no personal state — the overwhelming majority in a real fleet —
//!   is answered straight from the *shared base snapshot*; personalized
//!   tenants and ingests go through their own sessions. SMORE builds a
//!   test-time model per window, so requests from different tenants share
//!   no work and nothing is gained by holding one back for another.
//! - **Backpressure.** Worker queues are bounded `sync_channel`s. When a
//!   shard's queue is full the connection thread answers
//!   [`ErrorCode::Overloaded`] immediately instead of buffering without
//!   bound — admission control at the door, not OOM later.
//! - **Isolation.** A request the model refuses (bad shape, bad label)
//!   answers [`ErrorCode::Rejected`] with the model's message; a frame
//!   the protocol refuses answers [`ErrorCode::Malformed`] /
//!   [`ErrorCode::TooLarge`] / [`ErrorCode::UnknownTag`]. The connection
//!   — and every other tenant — keeps serving through all of them.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smore::{PredictTimings, QuantizedSmore, ServeScratch, SmoreError};
use smore_obs::{
    debug, error, warn, Event, EventJournal, EventKind, Stage, StageSet, StatsSnapshot,
};
use smore_stream::{FlushPolicy, ServeEngine, SessionStore, StateDir};
use smore_tensor::Matrix;

use crate::protocol::{
    decode_request, encode_response, read_frame, ErrorCode, FrameRead, Request, Response,
    WirePrediction, UNKNOWN_REQUEST_ID,
};
use crate::telemetry::Telemetry;
use crate::Result;

/// Capacity of the journal `serve` creates when the engine has none
/// attached (power of two; holds a full enrolment storm's events).
const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

fn nanos_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Tuning knobs for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (shard) count. Each worker owns the sessions of the tenants
    /// that hash to it.
    pub workers: usize,
    /// Bounded depth of each worker's queue — the admission-control
    /// limit. A full queue answers `Overloaded`.
    pub queue_capacity: usize,
    /// Resident [`TenantSession`](smore_stream::TenantSession)s each
    /// worker keeps before LRU-evicting — the bound that fixes the old
    /// grow-forever session map.
    pub max_sessions_per_shard: usize,
    /// Resident personalized-state bytes each worker keeps before
    /// LRU-evicting (evicted tenants park as compact delta artifacts and
    /// rehydrate on their next request).
    pub max_delta_bytes_per_shard: usize,
    /// Durable tenant-state directory. When set, each worker backs its
    /// eviction archive with per-tenant files here
    /// ([`smore_stream::StateDir`]), recovers them on startup, and
    /// [`ServerHandle::shutdown`] drains every resident personalized
    /// session to it — restart → bit-exact predictions. `None` keeps the
    /// PR 8 in-memory archive (state dies with the process).
    pub state_dir: Option<PathBuf>,
    /// When archive writes are fsynced (only meaningful with
    /// [`state_dir`](Self::state_dir); see [`FlushPolicy`]).
    pub flush_policy: FlushPolicy,
    /// Socket read/write timeout applied to every accepted connection,
    /// so a stalled peer cannot pin a connection thread forever; the
    /// connection is closed when it trips. `None` (default) never times
    /// out — PR 7 wire behaviour.
    pub io_timeout: Option<Duration>,
    /// Fault-injection hooks for the chaos harness. Default: all off.
    pub chaos: ChaosConfig,
}

/// Deterministic fault-injection hooks ([`ServeConfig::chaos`]) — the
/// levers `crates/serve/tests/chaos.rs` pulls. All off by default; a
/// production config never sets them.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Panic the owning worker when it serves a job for this tenant —
    /// exercises the supervision/respawn path.
    pub panic_on_tenant: Option<u64>,
    /// Sleep this long before serving each job — makes queues back up
    /// deterministically to exercise `Overloaded` retry paths.
    pub stall_per_job: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, usize::from);
        Self {
            workers: cores.max(2),
            queue_capacity: 256,
            max_sessions_per_shard: 4096,
            max_delta_bytes_per_shard: 64 << 20,
            state_dir: None,
            flush_policy: FlushPolicy::default(),
            io_timeout: None,
            chaos: ChaosConfig::default(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<()> {
        if self.workers == 0 || self.queue_capacity == 0 {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "workers ({}) and queue_capacity ({}) must both be >= 1",
                    self.workers, self.queue_capacity
                ),
            });
        }
        if self.max_sessions_per_shard == 0 {
            return Err(SmoreError::InvalidConfig {
                what: "max_sessions_per_shard must be >= 1".into(),
            });
        }
        if self.io_timeout == Some(Duration::ZERO) {
            return Err(SmoreError::InvalidConfig {
                what: "io_timeout must be positive (use None to disable)".into(),
            });
        }
        Ok(())
    }
}

/// Monotone counters exported by a running server (all `Relaxed`; read
/// them for reporting, not synchronization).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests answered with a prediction.
    pub served: AtomicU64,
    /// Requests refused by admission control.
    pub overloaded: AtomicU64,
    /// Frames answered with a protocol error.
    pub protocol_errors: AtomicU64,
    /// Online enrolments fired by ingests.
    pub adaptations: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Telemetry scrapes answered.
    pub stats_requests: AtomicU64,
    /// Resident sessions evicted by the per-shard LRU layer.
    pub sessions_evicted: AtomicU64,
    /// Evicted sessions rehydrated from their archived deltas.
    pub sessions_hydrated: AtomicU64,
    /// Worker threads that panicked and were respawned by supervision.
    pub worker_panics: AtomicU64,
    /// Personalized sessions suspended to the state dir by graceful
    /// drain.
    pub sessions_drained: AtomicU64,
    /// Tenant-state files recovered from the state dir by directory
    /// scans (startup and worker respawns).
    pub state_recovered: AtomicU64,
    /// Tenant-state files quarantined — torn, corrupt or unresumable.
    pub state_quarantined: AtomicU64,
    /// Archive writes the state dir refused; the state fell back to
    /// memory.
    pub state_write_failures: AtomicU64,
}

impl ServerMetrics {
    fn bump(counter: &AtomicU64) {
        // ordering: Relaxed — independent monotone report counters; no
        // reader infers anything about other memory from their values.
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One queued unit of work for a shard worker.
struct Job {
    request_id: u64,
    tenant_id: u64,
    kind: JobKind,
    reply: Sender<Outgoing>,
    /// When admission control accepted the job — `queue_wait` starts here.
    accepted: Instant,
}

enum JobKind {
    Predict(Matrix),
    Ingest { label: Option<u32>, window: Matrix },
}

/// What a connection's writer thread writes: an encoded response frame, or
/// a `Stats` scrape to answer once every frame queued before it is written
/// and timed.
enum Outgoing {
    Frame(Vec<u8>),
    Stats { request_id: u64 },
}

fn response_frame(request_id: u64, response: &Response) -> Outgoing {
    Outgoing::Frame(encode_response(request_id, response))
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Self::shutdown).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<ServerMetrics>,
    telemetry: Arc<Telemetry>,
    stop: Arc<AtomicBool>,
    /// Whether workers run the graceful drain phase when they observe
    /// `stop` — cleared by [`abort`](Self::abort) to simulate a crash.
    drain: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (resolves `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Shared handle to the live server counters.
    pub fn metrics_arc(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time telemetry snapshot: counters, occupancy gauges,
    /// per-stage latency histograms and the adaptation journal tail —
    /// the same aggregation a wire [`Request::Stats`] scrape receives.
    ///
    /// [`Request::Stats`]: crate::protocol::Request::Stats
    pub fn stats(&self) -> StatsSnapshot {
        self.telemetry.snapshot(&self.metrics)
    }

    /// Stops accepting, drains the workers and joins every server thread.
    /// Established connections are closed as their reader threads observe
    /// the stop flag or EOF. With [`ServeConfig::state_dir`] set, each
    /// worker first serves its already-queued jobs, then suspends every
    /// resident personalized session to the state dir and fsyncs — a
    /// restart over the same directory rehydrates them bit-exactly.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Stops the server **without** the graceful drain phase — the
    /// crash-simulation path for the fault-injection harness (threads of
    /// a live process cannot be `SIGKILL`ed individually). Sessions still
    /// resident are *not* suspended to the state dir; only state already
    /// evicted (and flushed, per [`FlushPolicy`]) survives — exactly the
    /// durability a real unclean kill leaves behind.
    pub fn abort(mut self) {
        // ordering: SeqCst — rare control-plane flag; the total order with
        // the `stop` store below makes "drain cleared before stop observed"
        // trivially true on every worker, and the cost is off the hot path.
        self.drain.store(false, Ordering::SeqCst);
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // ordering: SeqCst — control-plane stop flag, set once at shutdown;
        // SeqCst keeps every thread's view of stop/drain totally ordered.
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept loop awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Starts serving `engine` on `listener` with `config`. Returns
/// immediately; serving happens on background threads until
/// [`ServerHandle::shutdown`].
///
/// # Errors
///
/// [`SmoreError::InvalidConfig`] for a zero worker count or queue
/// capacity; [`SmoreError::Io`] when
/// [`ServeConfig::state_dir`] cannot be created;
/// [`SmoreError::Resource`] when the OS refuses a server thread (every
/// already-spawned thread is stopped and joined before returning).
pub fn serve(
    engine: Arc<ServeEngine>,
    listener: TcpListener,
    config: ServeConfig,
) -> Result<ServerHandle> {
    config.validate()?;
    if let Some(dir) = &config.state_dir {
        // Fail fast on an uncreatable state dir; per-write failures later
        // degrade to the in-memory overflow instead of failing startup.
        std::fs::create_dir_all(dir).map_err(|e| SmoreError::io(dir.display().to_string(), &e))?;
    }
    let addr = listener.local_addr().map_err(|e| SmoreError::io("listener", &e))?;
    let metrics = Arc::new(ServerMetrics::default());
    let stop = Arc::new(AtomicBool::new(false));
    let drain = Arc::new(AtomicBool::new(true));
    // Share the engine's journal when one was attached (set_journal before
    // Arc-wrapping) so tenant lifecycle events and the server's shed
    // events land in one ring; otherwise run a server-local journal.
    let journal = engine
        .journal()
        .cloned()
        .unwrap_or_else(|| Arc::new(EventJournal::new(DEFAULT_JOURNAL_CAPACITY)));
    let telemetry = Arc::new(Telemetry::new(config.workers, journal));

    // A failed spawn unwinds everything spawned so far: stop flag up,
    // queues dropped (workers drain out on Disconnected), threads joined
    // — the caller gets a typed error and no orphan threads.
    let unwind = |worker_handles: Vec<JoinHandle<()>>,
                  queues: Vec<SyncSender<Job>>,
                  stop: &Arc<AtomicBool>| {
        // ordering: SeqCst — control-plane stop flag (see stop_and_join).
        stop.store(true, Ordering::SeqCst);
        drop(queues);
        for handle in worker_handles {
            let _ = handle.join();
        }
    };

    let mut worker_handles = Vec::with_capacity(config.workers);
    let mut queues: Vec<SyncSender<Job>> = Vec::with_capacity(config.workers);
    for shard in 0..config.workers {
        let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
        queues.push(tx);
        let engine = Arc::clone(&engine);
        let metrics = Arc::clone(&metrics);
        let telemetry = Arc::clone(&telemetry);
        let worker_stop = Arc::clone(&stop);
        let worker_drain = Arc::clone(&drain);
        let cfg = config.clone();
        let spawned =
            std::thread::Builder::new().name(format!("smore-worker-{shard}")).spawn(move || {
                supervise_worker(
                    &engine,
                    &rx,
                    &cfg,
                    &metrics,
                    &telemetry,
                    shard,
                    &worker_stop,
                    &worker_drain,
                );
            });
        match spawned {
            Ok(handle) => worker_handles.push(handle),
            Err(e) => {
                unwind(worker_handles, queues, &stop);
                return Err(SmoreError::resource(format!("spawning worker thread {shard}"), &e));
            }
        }
    }

    let accept_metrics = Arc::clone(&metrics);
    let accept_telemetry = Arc::clone(&telemetry);
    let accept_stop = Arc::clone(&stop);
    let io_timeout = config.io_timeout;
    let accept_thread = std::thread::Builder::new().name("smore-accept".into()).spawn(move || {
        // Dropping `queues` when this loop exits closes every worker
        // queue once in-flight jobs (which hold clones) finish.
        let queues = queues;
        for stream in listener.incoming() {
            // ordering: SeqCst — pairs with the SeqCst stop store in
            // stop_and_join; once per accepted connection, not hot.
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            // A stalled peer trips these and the connection closes
            // instead of pinning its threads forever.
            if let Some(timeout) = io_timeout {
                let _ = stream.set_read_timeout(Some(timeout));
                let _ = stream.set_write_timeout(Some(timeout));
            }
            ServerMetrics::bump(&accept_metrics.connections);
            let queues = queues.clone();
            let metrics = Arc::clone(&accept_metrics);
            let telemetry = Arc::clone(&accept_telemetry);
            let stop = Arc::clone(&accept_stop);
            let _ = std::thread::Builder::new()
                .name("smore-conn".into())
                .spawn(move || connection_loop(stream, &queues, &metrics, &telemetry, &stop));
        }
    });
    let accept_thread = match accept_thread {
        Ok(handle) => handle,
        Err(e) => {
            // `queues` moved into the failed closure and is already gone.
            unwind(worker_handles, Vec::new(), &stop);
            return Err(SmoreError::resource("spawning the accept thread", &e));
        }
    };

    Ok(ServerHandle {
        addr,
        metrics,
        telemetry,
        stop,
        drain,
        accept_thread: Some(accept_thread),
        workers: worker_handles,
    })
}

/// Stable tenant → shard assignment.
fn shard_of(tenant_id: u64, workers: usize) -> usize {
    let mut h = DefaultHasher::new();
    tenant_id.hash(&mut h);
    (h.finish() % workers as u64) as usize
}

/// One connection: a reader loop on this thread plus a writer thread
/// draining the reply channel. Responses come from whichever worker
/// served each request; the reply channel serializes them onto the
/// socket.
fn connection_loop(
    stream: TcpStream,
    queues: &[SyncSender<Job>],
    metrics: &Arc<ServerMetrics>,
    telemetry: &Arc<Telemetry>,
    stop: &Arc<AtomicBool>,
) {
    let Ok(write_half) = stream.try_clone() else { return };
    let (reply_tx, reply_rx): (Sender<Outgoing>, Receiver<Outgoing>) = mpsc::channel();
    let writer_metrics = Arc::clone(metrics);
    let writer_telemetry = Arc::clone(telemetry);
    let writer = match std::thread::Builder::new()
        .name("smore-conn-writer".into())
        .spawn(move || writer_loop(write_half, reply_rx, &writer_metrics, &writer_telemetry))
    {
        Ok(handle) => handle,
        Err(e) => {
            // Thread exhaustion: shed this connection (the peer sees a
            // clean close and can retry) instead of killing the server.
            warn!("serve", "dropping a connection: cannot spawn its writer thread: {e}");
            return;
        }
    };

    let mut reader = BufReader::new(stream);
    loop {
        // ordering: SeqCst — pairs with the SeqCst stop store in
        // stop_and_join; once per frame, dwarfed by the socket read.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let frame = match read_frame(&mut reader) {
            Ok(FrameRead::Closed) | Err(_) => break,
            Ok(FrameRead::Oversized { declared }) => {
                ServerMetrics::bump(&metrics.protocol_errors);
                let resp = Response::Error {
                    code: ErrorCode::TooLarge,
                    message: format!(
                        "declared frame length {declared} exceeds the {} byte cap",
                        crate::protocol::MAX_FRAME_LEN
                    ),
                };
                if reply_tx.send(response_frame(UNKNOWN_REQUEST_ID, &resp)).is_err() {
                    break;
                }
                continue;
            }
            Ok(FrameRead::Runt { declared }) => {
                ServerMetrics::bump(&metrics.protocol_errors);
                let resp = Response::Error {
                    code: ErrorCode::Malformed,
                    message: format!("declared frame length {declared} cannot hold a message"),
                };
                if reply_tx.send(response_frame(UNKNOWN_REQUEST_ID, &resp)).is_err() {
                    break;
                }
                continue;
            }
            Ok(FrameRead::Payload(payload)) => payload,
        };

        let decode_span = telemetry.conn.time(Stage::Decode);
        let decoded = decode_request(&frame);
        let nanos = decode_span.stop();
        let (request_id, request) = match decoded {
            Ok(decoded) => decoded,
            Err(bad) => {
                ServerMetrics::bump(&metrics.protocol_errors);
                debug!("serve", "protocol error after {nanos} ns decode: {}", bad.message);
                let resp = Response::Error { code: bad.code, message: bad.message };
                if reply_tx.send(response_frame(bad.request_id, &resp)).is_err() {
                    break;
                }
                continue;
            }
        };

        let (tenant_id, kind) = match request {
            Request::Ping => {
                if reply_tx.send(response_frame(request_id, &Response::Pong)).is_err() {
                    break;
                }
                continue;
            }
            Request::Stats => {
                // Answered by this connection's writer, like Ping bypassing
                // the workers: a scrape must get through even when every
                // worker queue is full.
                ServerMetrics::bump(&metrics.stats_requests);
                if reply_tx.send(Outgoing::Stats { request_id }).is_err() {
                    break;
                }
                continue;
            }
            Request::Predict { tenant_id, window } => (tenant_id, JobKind::Predict(window)),
            Request::Ingest { tenant_id, label, window } => {
                (tenant_id, JobKind::Ingest { label, window })
            }
        };

        let shard = shard_of(tenant_id, queues.len());
        let job =
            Job { request_id, tenant_id, kind, reply: reply_tx.clone(), accepted: Instant::now() };
        // smore-lint: allow(panic_path) shard = hash % queues.len(), always in range
        match queues[shard].try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                // Admission control: answer now, buffer nothing.
                ServerMetrics::bump(&metrics.overloaded);
                telemetry.journal.push(Event {
                    kind: EventKind::OverloadShed,
                    tenant: tenant_id,
                    step: 0,
                    a: shard as u64,
                    b: queues.len() as u64,
                    nanos: 0,
                });
                let resp = Response::Error {
                    code: ErrorCode::Overloaded,
                    message: format!("shard {shard} queue is full; retry with backoff"),
                };
                if job.reply.send(response_frame(request_id, &resp)).is_err() {
                    break;
                }
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping our reply sender lets the writer drain in-flight worker
    // responses and exit once the last job's clone is gone.
    drop(reply_tx);
    let _ = writer.join();
}

fn writer_loop(
    stream: TcpStream,
    replies: Receiver<Outgoing>,
    metrics: &ServerMetrics,
    telemetry: &Telemetry,
) {
    let mut writer = BufWriter::new(stream);
    let mut next = replies.recv().ok();
    while let Some(first) = next.take() {
        // One reply span per write burst: everything already queued goes
        // out under one buffered write + flush. A Stats scrape ends the
        // burst and is taken only after the burst is timed, so it counts
        // every reply its client has already received.
        let mut frames = 0u64;
        let mut scrape = None;
        let burst = Instant::now();
        let mut queued = Some(first);
        while let Some(out) = queued {
            match out {
                Outgoing::Frame(frame) => {
                    if writer.write_all(&frame).is_err() {
                        return;
                    }
                    frames += 1;
                }
                Outgoing::Stats { request_id } => {
                    scrape = Some(request_id);
                    break;
                }
            }
            queued = replies.try_recv().ok();
        }
        if writer.flush().is_err() {
            return;
        }
        if let Some(mean) = nanos_of(burst.elapsed()).checked_div(frames) {
            telemetry.conn.record_n(Stage::Reply, mean, frames);
        }
        next = match scrape {
            Some(request_id) => {
                let snapshot = telemetry.snapshot(metrics).encode();
                Some(response_frame(request_id, &Response::Stats(snapshot)))
            }
            None => replies.recv().ok(),
        };
    }
}

/// Renders a panic payload for the supervision log line.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The failure-domain boundary around one shard: runs [`worker_loop`]
/// under `catch_unwind`; a panic loses only the job being served and that
/// worker's *resident* sessions (their last archived state, if any, is
/// re-scanned from the state dir) — the queue, the jobs waiting in it and
/// every other shard survive, and the loop respawns the worker in place.
/// Each panic is counted, journalled and logged.
#[allow(clippy::too_many_arguments)]
fn supervise_worker(
    engine: &Arc<ServeEngine>,
    queue: &Receiver<Job>,
    config: &ServeConfig,
    metrics: &Arc<ServerMetrics>,
    telemetry: &Arc<Telemetry>,
    shard: usize,
    stop: &Arc<AtomicBool>,
    drain: &Arc<AtomicBool>,
) {
    let mut respawns = 0u64;
    loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(engine, queue, config, metrics, telemetry, shard, stop, drain);
        }));
        match run {
            Ok(()) => break,
            Err(payload) => {
                respawns += 1;
                ServerMetrics::bump(&metrics.worker_panics);
                telemetry.journal.push(Event {
                    kind: EventKind::WorkerPanic,
                    tenant: 0,
                    step: 0,
                    a: shard as u64,
                    b: respawns,
                    nanos: 0,
                });
                error!(
                    "serve",
                    "worker {shard} panicked ({}); respawning with its queue intact",
                    panic_message(payload.as_ref())
                );
                // ordering: SeqCst — pairs with the SeqCst stop store in
                // stop_and_join; read once per (rare) worker respawn.
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // A deterministic crash loop must not spin a core.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Builds the shard's session store: persistent over
/// [`ServeConfig::state_dir`] when set (with this shard's ownership
/// filter, so a restart with a different worker count still assigns
/// every recovered file to exactly one worker), in-memory otherwise —
/// including as the degraded fallback when the state dir cannot be
/// opened, because serving beats durability.
fn open_store(engine: &Arc<ServeEngine>, config: &ServeConfig, shard: usize) -> SessionStore {
    let caps = (config.max_sessions_per_shard, config.max_delta_bytes_per_shard);
    if let Some(dir) = &config.state_dir {
        let workers = config.workers;
        match StateDir::open(dir, config.flush_policy, move |tenant| {
            shard_of(tenant, workers) == shard
        }) {
            Ok(state) => {
                return SessionStore::new_persistent(Arc::clone(engine), caps.0, caps.1, state)
                    // smore-lint: allow(panic_path) caps were validated by ServeConfig::validate before any worker spawned
                    .expect("serve() validated the session caps");
            }
            Err(e) => {
                error!(
                    "serve",
                    "worker {shard} cannot open state dir {} ({e}); \
                     serving with a volatile in-memory archive",
                    dir.display()
                );
            }
        }
    }
    SessionStore::new(Arc::clone(engine), caps.0, caps.1)
        // smore-lint: allow(panic_path) caps were validated by ServeConfig::validate before any worker spawned
        .expect("serve() validated the session caps")
}

/// Store counters already forwarded into [`ServerMetrics`] — the store's
/// counters are cumulative per instance, so the worker forwards diffs.
#[derive(Default)]
struct ForwardedCounters {
    evictions: u64,
    hydrations: u64,
    recovered: u64,
    quarantined: u64,
    write_failures: u64,
}

fn forward_store_counters(
    seen: &mut ForwardedCounters,
    sessions: &SessionStore,
    metrics: &ServerMetrics,
) {
    let forward = |counter: &AtomicU64, now: u64, seen: &mut u64| {
        // ordering: Relaxed — monotone report counter; `seen` lives on the
        // single owning worker, so the saturating diff can never race, and
        // readers only aggregate the values.
        counter.fetch_add(now.saturating_sub(*seen), Ordering::Relaxed);
        *seen = now;
    };
    forward(&metrics.sessions_evicted, sessions.evictions(), &mut seen.evictions);
    forward(&metrics.sessions_hydrated, sessions.hydrations(), &mut seen.hydrations);
    forward(&metrics.state_recovered, sessions.state_recovered(), &mut seen.recovered);
    forward(&metrics.state_quarantined, sessions.state_quarantined(), &mut seen.quarantined);
    forward(
        &metrics.state_write_failures,
        sessions.state_write_failures(),
        &mut seen.write_failures,
    );
}

/// Occupancy gauges: overwrite this shard's slots, walking only the
/// *resident* sessions — an evicted session stops counting the moment
/// it leaves the store, so the gauges can never go stale on session
/// drop. A pass walks up to a shard's whole session cap, so the worker
/// runs it when its queue drains and every [`PUBLISH_EVERY`] jobs, not
/// per request.
fn refresh_gauges(telemetry: &Telemetry, shard: usize, sessions: &SessionStore) {
    // smore-lint: allow(panic_path) telemetry allocates one gauge slot per shard at startup
    let gauges = &telemetry.gauges[shard];
    let mut personalized = 0u64;
    let mut buffered = 0u64;
    let mut ood_micros = 0u64;
    for session in sessions.sessions() {
        personalized += u64::from(session.is_personalized());
        buffered += session.buffered() as u64;
        ood_micros += (f64::from(session.recent_ood_fraction()) * 1e6) as u64;
    }
    // ordering: Relaxed — last-writer-wins occupancy gauges with a single
    // writer (the owning worker); `archived_bytes` included, since the
    // store keeps its own accounting and this is a plain overwrite. A
    // scrape may see a mid-refresh mix, which is fine for reporting.
    gauges.sessions.store(sessions.len() as u64, Ordering::Relaxed);
    gauges.personalized.store(personalized, Ordering::Relaxed);
    gauges.buffered_windows.store(buffered, Ordering::Relaxed);
    gauges.ood_fraction_micros.store(ood_micros, Ordering::Relaxed);
    gauges.archived_tenants.store(sessions.archived_tenants() as u64, Ordering::Relaxed);
    gauges.archived_bytes.store(sessions.archived_bytes() as u64, Ordering::Relaxed);
    gauges.resident_delta_bytes.store(sessions.resident_delta_bytes() as u64, Ordering::Relaxed);
}

/// Jobs a busy worker serves between two publications of its store
/// counters and occupancy gauges; an idle one publishes as soon as its
/// queue drains.
const PUBLISH_EVERY: usize = 32;

/// Forwards the store's counters and refreshes the shard's gauges.
fn publish(
    seen: &mut ForwardedCounters,
    sessions: &SessionStore,
    metrics: &ServerMetrics,
    telemetry: &Telemetry,
    shard: usize,
) {
    forward_store_counters(seen, sessions, metrics);
    refresh_gauges(telemetry, shard, sessions);
}

/// One shard: owns every hashed-here tenant's session and serves its
/// queue one job at a time, in arrival order. On shutdown (with `drain`
/// still set) it serves the jobs already queued, then suspends every
/// resident session to the state dir so nothing personalized is lost.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    engine: &Arc<ServeEngine>,
    queue: &Receiver<Job>,
    config: &ServeConfig,
    metrics: &Arc<ServerMetrics>,
    telemetry: &Arc<Telemetry>,
    shard: usize,
    stop: &Arc<AtomicBool>,
    drain: &Arc<AtomicBool>,
) {
    let mut sessions = open_store(engine, config, shard);
    let mut scratch = ServeScratch::new();
    let base = engine.base_snapshot();
    // smore-lint: allow(panic_path) telemetry allocates one stage set per shard at startup
    let stages = &telemetry.shards[shard];
    let mut serve_one = |job: Job, sessions: &mut SessionStore| {
        stages.record(Stage::QueueWait, nanos_of(job.accepted.elapsed()));
        inject_chaos(&config.chaos, job.tenant_id, shard);
        serve_job(&base, sessions, &mut scratch, job, metrics, stages);
    };
    let mut seen = ForwardedCounters::default();
    // Publish recovery results immediately — a restarted server must show
    // honest `state_recovered` gauges before any traffic arrives.
    publish(&mut seen, &sessions, metrics, telemetry, shard);
    let mut unpublished = 0usize;

    loop {
        // ordering: SeqCst — pairs with the SeqCst stop store in
        // stop_and_join; one load per job, dwarfed by serving it.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let job = match queue.try_recv() {
            Ok(job) => job,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                if unpublished > 0 {
                    publish(&mut seen, &sessions, metrics, telemetry, shard);
                    unpublished = 0;
                }
                // Block with a timeout so shutdown never deadlocks on queue
                // senders still held by live connection threads.
                match queue.recv_timeout(Duration::from_millis(25)) {
                    Ok(job) => job,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        serve_one(job, &mut sessions);
        unpublished += 1;
        if unpublished == PUBLISH_EVERY {
            publish(&mut seen, &sessions, metrics, telemetry, shard);
            unpublished = 0;
        }
    }

    // Graceful drain: finish the work already admitted, then suspend
    // every resident session so a restart over the state dir rehydrates
    // them bit-exactly. Skipped by `ServerHandle::abort` (crash
    // simulation) and pointless without persistence.
    // ordering: SeqCst — reads the flag abort() cleared with SeqCst; the
    // total order with `stop` guarantees an abort is never mistaken for a
    // graceful drain.
    if drain.load(Ordering::SeqCst) && sessions.persists() {
        while let Ok(job) = queue.try_recv() {
            serve_one(job, &mut sessions);
        }
        match sessions.drain() {
            Ok(persisted) => {
                // ordering: Relaxed — monotone report counter (see bump).
                metrics.sessions_drained.fetch_add(persisted as u64, Ordering::Relaxed);
            }
            Err(e) => {
                error!("serve", "worker {shard} drain flush failed: {e}");
            }
        }
    }
    publish(&mut seen, &sessions, metrics, telemetry, shard);
}

/// Applies the [`ChaosConfig`] hooks to the job about to be served.
fn inject_chaos(chaos: &ChaosConfig, tenant_id: u64, shard: usize) {
    if chaos.panic_on_tenant == Some(tenant_id) {
        // smore-lint: allow(panic_path) deliberate fault injection for the supervision harness; production configs never set it
        panic!("chaos: injected panic serving tenant {tenant_id} on shard {shard}");
    }
    if let Some(stall) = chaos.stall_per_job {
        std::thread::sleep(stall);
    }
}

fn prediction_response(p: &smore::Prediction, buffered: bool, adapted: bool) -> Response {
    Response::Prediction(WirePrediction {
        label: p.label as u32,
        is_ood: p.is_ood,
        delta_max: p.delta_max,
        best_domain: p.best_domain as u32,
        buffered,
        adapted,
    })
}

fn model_error_response(err: &SmoreError) -> Response {
    Response::Error { code: ErrorCode::Rejected, message: err.to_string() }
}

/// Serves one job and sends its reply. A predict for a tenant with no
/// personal state is answered from the shared `base` through the worker
/// scratch; every other job goes through the tenant's session. An
/// evicted-but-personalized tenant has *archived* state, so only a
/// tenant that is neither resident-personalized nor archived is truly on
/// the base.
fn serve_job(
    base: &QuantizedSmore,
    sessions: &mut SessionStore,
    scratch: &mut ServeScratch,
    job: Job,
    metrics: &ServerMetrics,
    stages: &StageSet,
) {
    let Job { request_id, tenant_id, kind, reply, .. } = job;
    let on_base = matches!(kind, JobKind::Predict(_))
        && match sessions.get(tenant_id) {
            Some(s) => !s.is_personalized(),
            None => !sessions.has_archived(tenant_id),
        };
    let (response, timings) = match kind {
        JobKind::Predict(window) if on_base => match base.predict_window_with(&window, scratch) {
            Ok(p) => (prediction_response(p, false, false), Some(scratch.timings())),
            Err(e) => (model_error_response(&e), None),
        },
        kind => serve_session(sessions, tenant_id, kind, metrics),
    };
    // Timings come back exactly when a prediction was served.
    if let Some(t) = timings {
        ServerMetrics::bump(&metrics.served);
        stages.record(Stage::Encode, t.encode_nanos);
        stages.record(Stage::Score, t.score_nanos);
    }
    let _ = reply.send(response_frame(request_id, &response));
}

/// Serves one job through `tenant_id`'s session. The store makes the
/// session resident first (fresh off the base, or rehydrated from its
/// archived delta), runs the closure, then re-enforces the residency caps
/// against the other tenants.
fn serve_session(
    sessions: &mut SessionStore,
    tenant_id: u64,
    kind: JobKind,
    metrics: &ServerMetrics,
) -> (Response, Option<PredictTimings>) {
    let served = sessions.with_session(tenant_id, |session| {
        let response = match kind {
            JobKind::Predict(window) => match session.predict_window(&window) {
                Ok(p) => prediction_response(p, false, false),
                Err(e) => model_error_response(&e),
            },
            JobKind::Ingest { label, window } => {
                let outcome = match label {
                    Some(l) => session.ingest_labelled(&window, l as usize),
                    None => session.ingest(&window),
                };
                match outcome {
                    Ok(o) => {
                        if o.adapted.is_some() {
                            ServerMetrics::bump(&metrics.adaptations);
                        }
                        prediction_response(&o.prediction, o.buffered, o.adapted.is_some())
                    }
                    Err(e) => model_error_response(&e),
                }
            }
        };
        let timings = matches!(response, Response::Prediction(_)).then(|| session.last_timings());
        (response, timings)
    });
    // Rehydration failed (corrupt archive, base mismatch): a typed refusal
    // for this tenant; every other tenant keeps serving.
    served.unwrap_or_else(|e| (model_error_response(&e), None))
}
