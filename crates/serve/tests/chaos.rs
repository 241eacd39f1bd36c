//! Fault-injection harness: every failure domain the server claims to
//! isolate, exercised over real loopback sockets.
//!
//! Each test kills, corrupts, starves or stalls exactly one component
//! and asserts the blast radius stays contained: no hangs, typed errors
//! instead of panics, and gauges that report what actually happened —
//! `worker_panics`, `state_recovered`, `state_quarantined` and
//! `state_write_failures` must tell the truth after every scenario.

use std::collections::HashSet;
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use smore_data::Dataset;
use smore_obs::EventJournal;
use smore_serve::{
    serve, synthetic, ChaosConfig, ErrorCode, EventKind, FlushPolicy, Response, RetryPolicy,
    ServeClient, ServeConfig, ServerHandle, StatsSnapshot, WirePrediction,
};
use smore_stream::ServeEngine;
use smore_tensor::Matrix;

/// One trained fleet shared by every chaos scenario (training dominates
/// wall-clock; the engine is immutable — all mutable tenant state lives
/// in each server's workers, which is exactly what these tests destroy).
fn fleet() -> &'static (Dataset, Arc<ServeEngine>) {
    static FLEET: OnceLock<(Dataset, Arc<ServeEngine>)> = OnceLock::new();
    FLEET.get_or_init(|| {
        let (ds, mut engine) = synthetic::engine(11, 512).expect("synthetic fleet trains");
        engine.set_journal(Arc::new(EventJournal::new(4096)));
        (ds, Arc::new(engine))
    })
}

fn start(config: ServeConfig) -> (ServerHandle, Dataset) {
    let (ds, engine) = fleet();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = serve(Arc::clone(engine), listener, config).expect("server starts");
    (server, ds.clone())
}

/// A scratch state directory unique to one scenario, wiped on entry so
/// reruns never inherit stale tenant files.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smore-chaos-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch state dir");
    dir
}

/// Drives the calibrated drift stream through wire ingest until the
/// tenant enrols, then returns the probe window a bit-exactness check
/// can replay later.
fn personalize(client: &mut ServeClient, ds: &Dataset, tenant: u64) -> Vec<(Matrix, usize)> {
    let drift = synthetic::drift_stream(ds, 160, 42).expect("drift stream");
    let mut adapted = false;
    for (window, label) in &drift {
        if client.ingest(tenant, window, Some(*label as u32)).expect("wire ingest").adapted {
            adapted = true;
            break;
        }
    }
    assert!(adapted, "drift stream must personalize tenant {tenant}");
    drift
}

fn assert_bit_exact(before: &WirePrediction, after: &WirePrediction, what: &str) {
    assert_eq!(after.label, before.label, "{what}: label");
    assert_eq!(after.best_domain, before.best_domain, "{what}: best domain");
    assert_eq!(after.delta_max, before.delta_max, "{what}: delta_max must be bit-exact");
}

/// Workers publish counters after replying, once their queue drains, so a
/// scrape can race a few jobs behind — poll until the condition holds (or
/// fail loudly).
fn scrape_until(
    client: &mut ServeClient,
    what: &str,
    cond: impl Fn(&StatsSnapshot) -> bool,
) -> StatsSnapshot {
    for _ in 0..500 {
        let stats = client.stats().expect("stats scrape");
        if cond(&stats) {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stats never reflected: {what}");
}

#[test]
fn graceful_shutdown_suspends_sessions_and_restart_is_bit_exact() {
    let dir = scratch_dir("graceful");
    let config = ServeConfig {
        workers: 2,
        state_dir: Some(dir.clone()),
        flush_policy: FlushPolicy::OnEvict,
        ..ServeConfig::default()
    };

    let (server, ds) = start(config.clone());
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let tenant = 7u64;
    let drift = personalize(&mut client, &ds, tenant);
    let probe = &drift[0].0;
    let before = client.predict(tenant, probe).expect("personalized predict");
    drop(client);

    // Graceful drain: every resident personalized session must land in
    // the state dir (fsynced — OnEvict defers the sync to exactly here).
    let metrics = server.metrics_arc();
    server.shutdown();
    // ordering: Relaxed — read after shutdown() joined every worker.
    assert!(
        metrics.sessions_drained.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "drain must suspend the personalized session"
    );

    // A restart over the same directory recovers the tenant before any
    // traffic and serves it bit-exactly.
    let (restarted, _) = start(config);
    let mut client = ServeClient::connect(restarted.local_addr()).expect("reconnect");
    let stats = scrape_until(&mut client, "recovery scan after graceful restart", |s| {
        s.counter("state_recovered").unwrap_or(0) >= 1
    });
    assert_eq!(stats.counter("state_quarantined"), Some(0));
    let after = client.predict(tenant, probe).expect("post-restart predict");
    assert_bit_exact(&before, &after, "graceful restart");
    restarted.shutdown();
}

#[test]
fn kill_without_shutdown_recovers_evicted_state_from_disk() {
    // Satellite crash-recovery scenario, over the wire: with `sync`
    // flushing, whatever eviction pushed to disk survives an unclean
    // kill (abort = no drain, exactly what SIGKILL leaves behind).
    let dir = scratch_dir("kill");
    let config = ServeConfig {
        workers: 1,
        max_sessions_per_shard: 2,
        state_dir: Some(dir.clone()),
        flush_policy: FlushPolicy::Sync,
        ..ServeConfig::default()
    };

    let (server, ds) = start(config.clone());
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let tenant = 5u64;
    let drift = personalize(&mut client, &ds, tenant);
    let probe = &drift[0].0;
    let before = client.predict(tenant, probe).expect("personalized predict");

    // Churn other tenants through the 2-session shard until the
    // personalized tenant is evicted — its delta hits disk fsynced.
    for t in 100..110u64 {
        client.ingest(t, ds.window(t as usize % ds.len()), None).expect("churn ingest");
    }
    scrape_until(&mut client, "eviction of the personalized tenant", |s| {
        s.counter("sessions_evicted").unwrap_or(0) >= 1
    });
    drop(client);
    server.abort();

    // The unclean kill lost every resident session; the evicted one is
    // on disk and must come back bit-exactly.
    let (restarted, _) = start(config);
    let mut client = ServeClient::connect(restarted.local_addr()).expect("reconnect");
    let stats = scrape_until(&mut client, "recovery scan after unclean kill", |s| {
        s.counter("state_recovered").unwrap_or(0) >= 1
    });
    assert!(
        stats.gauge("tenants_archived").unwrap_or(0.0) >= 1.0,
        "the recovered tenant must be reported archived until its first request"
    );
    let after = client.predict(tenant, probe).expect("post-kill predict");
    assert_bit_exact(&before, &after, "crash recovery");
    scrape_until(&mut client, "rehydration from the recovered file", |s| {
        s.counter("sessions_hydrated").unwrap_or(0) >= 1
    });
    restarted.shutdown();
}

#[test]
fn worker_panic_is_supervised_and_serving_continues() {
    // One worker with an injected panic on tenant 666: the supervisor
    // must respawn it with the queue intact, journal the crash, and keep
    // every other tenant serving.
    let (server, ds) = start(ServeConfig {
        workers: 1,
        chaos: ChaosConfig { panic_on_tenant: Some(666), ..ChaosConfig::default() },
        ..ServeConfig::default()
    });

    // The victim request is fired pipelined on its own connection and
    // never awaited — its reply sender dies with the panicking worker.
    let mut victim = ServeClient::connect(server.local_addr()).expect("victim connect");
    victim.send_predict(666, ds.window(0)).expect("queue the poisoned request");
    victim.flush().expect("flush");

    // A healthy tenant on a separate connection must keep getting
    // answers from the respawned worker.
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let p = client.predict(1, ds.window(3)).expect("predict after the panic");
    assert!(p.label < 4);
    let stats = scrape_until(&mut client, "supervised worker panic", |s| {
        s.counter("worker_panics").unwrap_or(0) >= 1
    });
    assert!(
        stats.journal.events.iter().any(|e| e.kind == EventKind::WorkerPanic),
        "the crash must land in the journal"
    );
    // The poisoned tenant keeps poisoning — and the supervisor keeps
    // absorbing it — without taking the healthy tenant down.
    victim.send_predict(666, ds.window(1)).expect("queue a second poisoned request");
    victim.flush().expect("flush");
    let p = client.predict(2, ds.window(5)).expect("predict after the second panic");
    assert!(p.label < 4);
    scrape_until(&mut client, "second supervised panic", |s| {
        s.counter("worker_panics").unwrap_or(0) >= 2
    });
    drop(victim);
    server.shutdown();
}

#[test]
fn worker_panic_loses_only_its_own_request() {
    // The victim's request sits in the middle of a pipelined burst from 40
    // other tenants on one connection to one worker. The panic may cost
    // the victim its reply, but no request queued around it.
    let victim = 666u64;
    let (server, ds) = start(ServeConfig {
        workers: 1,
        chaos: ChaosConfig { panic_on_tenant: Some(victim), ..ChaosConfig::default() },
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    // A lost reply must fail the test, not hang it.
    client.set_io_timeout(Some(Duration::from_secs(10))).expect("client io timeout");

    let mut pending = HashSet::new();
    for i in 0..41usize {
        let tenant = if i == 20 { victim } else { 1000 + i as u64 };
        let id = client.send_predict(tenant, ds.window(i % ds.len())).expect("queue predict");
        if tenant != victim {
            pending.insert(id);
        }
    }
    client.flush().expect("flush");
    while !pending.is_empty() {
        let (id, response) = client.recv().unwrap_or_else(|e| {
            panic!("{} requests around the victim lost their replies: {e}", pending.len())
        });
        assert!(pending.remove(&id), "unexpected reply for request {id}: {response:?}");
        assert!(matches!(response, Response::Prediction(_)), "request {id} got {response:?}");
    }
    let stats = client.stats().expect("stats scrape");
    assert_eq!(stats.counter("worker_panics"), Some(1));
    server.shutdown();
}

#[test]
fn unwritable_state_dir_degrades_to_memory_not_death() {
    // The disk vanishes under a running server: archive writes must fail
    // typed (counted, journaled) while serving continues from the
    // in-memory overflow — availability over durability.
    let dir = scratch_dir("diskfull");
    let (server, ds) = start(ServeConfig {
        workers: 1,
        max_sessions_per_shard: 2,
        state_dir: Some(dir.clone()),
        flush_policy: FlushPolicy::Sync,
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let tenant = 9u64;
    let drift = personalize(&mut client, &ds, tenant);
    let probe = &drift[0].0;
    let before = client.predict(tenant, probe).expect("personalized predict");

    // Yank the directory out from under the store. chmod cannot simulate
    // this for root, so the dir is replaced by a plain file — every
    // subsequent create in it fails with a real io::Error.
    fs::remove_dir_all(&dir).expect("yank state dir");
    fs::write(&dir, b"disk gone").expect("park a file at the dir path");

    for t in 300..310u64 {
        client.ingest(t, ds.window(t as usize % ds.len()), None).expect("churn ingest");
    }
    let stats = scrape_until(&mut client, "archive write failure", |s| {
        s.counter("state_write_failures").unwrap_or(0) >= 1
    });
    assert!(stats.counter("sessions_evicted").unwrap_or(0) >= 1);

    // The failed write fell back to the in-memory overflow: the tenant
    // rehydrates bit-exactly even though its disk is gone.
    let after = client.predict(tenant, probe).expect("predict with the disk gone");
    assert_bit_exact(&before, &after, "memory-overflow rehydration");

    // The graceful drain's write fails too: the session stays in memory,
    // which the process exit loses, so it is not counted as drained.
    let metrics = server.metrics_arc();
    server.shutdown();
    // ordering: Relaxed — read after shutdown() joined every worker.
    assert_eq!(
        metrics.sessions_drained.load(std::sync::atomic::Ordering::Relaxed),
        0,
        "a session whose drain write failed never reached the state dir"
    );
    let _ = fs::remove_file(&dir);
}

#[test]
fn torn_and_foreign_state_files_are_quarantined_not_trusted() {
    // A state dir seeded with wreckage a real crash leaves behind: a
    // garbage `.smore`, a torn `.tmp`, and a foreign file. The recovery
    // scan must quarantine the first two (never delete), skip the third,
    // and serve the affected tenant fresh.
    let dir = scratch_dir("torn");
    fs::write(dir.join("tenant-5.smore"), b"not a smore artifact at all").expect("seed garbage");
    fs::write(dir.join("tenant-6.tmp"), b"torn mid-write").expect("seed torn tmp");
    fs::write(dir.join("README.txt"), b"operator notes").expect("seed foreign file");

    let (server, ds) =
        start(ServeConfig { workers: 1, state_dir: Some(dir.clone()), ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let stats = scrape_until(&mut client, "quarantine of the seeded wreckage", |s| {
        s.counter("state_quarantined").unwrap_or(0) >= 2
    });
    assert_eq!(stats.counter("state_recovered"), Some(0));

    // Quarantined artifacts are renamed aside for forensics, not deleted.
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("state dir listing")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().filter(|n| n.ends_with(".quarantine")).count() >= 2,
        "wreckage must be parked as .quarantine files, got {names:?}"
    );
    assert!(names.iter().any(|n| n == "README.txt"), "foreign files must be left alone");

    // The tenant whose file was garbage starts fresh and serves.
    let p = client.predict(5, ds.window(2)).expect("fresh serve after quarantine");
    assert!(p.label < 4);
    server.shutdown();
}

#[test]
fn stalled_reader_is_disconnected_without_stalling_the_server() {
    // A client that opens a connection, sends half a frame, and goes
    // silent: the io timeout must reap it instead of pinning a reader
    // thread forever, and healthy traffic must never notice.
    let (server, ds) = start(ServeConfig {
        workers: 1,
        io_timeout: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    });

    let mut staller = TcpStream::connect(server.local_addr()).expect("staller connects");
    staller.write_all(&[0x01, 0x02]).expect("half a length prefix");
    staller.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");

    // Healthy requests keep flowing while the staller sits silent.
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    for i in 0..5 {
        client.predict(i, ds.window(i as usize)).expect("healthy predict");
    }

    // The server must close the stalled connection within the timeout
    // bound — observed as EOF on the staller's socket, not a hang.
    let t0 = Instant::now();
    let mut buf = [0u8; 64];
    let n = staller.read(&mut buf).expect("read until server closes");
    assert_eq!(n, 0, "the server must close the stalled connection, not answer it");
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "the stalled connection must be reaped promptly, took {:?}",
        t0.elapsed()
    );
    // The io timeout reaps idle keep-alives too (the first client sat
    // silent during the wait above) — a fresh connection serves fine.
    let mut fresh = ServeClient::connect(server.local_addr()).expect("reconnect");
    fresh.predict(99, ds.window(7)).expect("healthy predict after the reap");
    server.shutdown();
}

#[test]
fn overload_retry_rides_out_a_burst() {
    // A saturated one-deep queue with an injected per-job stall: plain
    // sends get honest `Overloaded` errors; the retrying client backs
    // off with jitter and lands its request once the burst drains.
    let (server, ds) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        chaos: ChaosConfig {
            stall_per_job: Some(Duration::from_millis(1)),
            ..ChaosConfig::default()
        },
        ..ServeConfig::default()
    });

    let mut burst = ServeClient::connect(server.local_addr()).expect("burst connect");
    let total = 300usize;
    for i in 0..total {
        burst.send_predict(i as u64, ds.window(i % ds.len())).expect("queue predict");
    }
    burst.flush().expect("flush");

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let policy = RetryPolicy {
        attempts: 50,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(20),
    };
    let p = client.predict_retrying(500, ds.window(11), policy).expect("retry rides out burst");
    assert!(p.label < 4);

    // Every burst request still gets exactly one answer — shed or served.
    let mut shed = 0usize;
    for _ in 0..total {
        match burst.recv().expect("every request gets exactly one response").1 {
            Response::Prediction(_) => {}
            Response::Error { code: ErrorCode::Overloaded, .. } => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(shed > 0, "a 300-deep burst into a queue of 1 must shed");
    // ordering: Relaxed — every shed was observed via its reply above.
    assert!(server.metrics().overloaded.load(std::sync::atomic::Ordering::Relaxed) > 0);
    server.shutdown();
}
