//! End-to-end serving over real loopback sockets: wire predictions must
//! match direct in-process serving, drifting tenants must personalize
//! through `Ingest`, and admission control must answer `Overloaded`
//! instead of buffering without bound.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use smore_data::Dataset;
use smore_obs::EventJournal;
use smore_serve::{
    serve, synthetic, ErrorCode, EventKind, Response, ServeClient, ServeConfig, ServerHandle,
    StatsSnapshot,
};
use smore_stream::ServeEngine;

/// One trained fleet shared by every test in this file (training
/// dominates test wall-clock; the engine itself is immutable — tenant
/// state lives in each server's workers). The attached journal is
/// likewise shared: every server started from this fleet pushes its
/// adaptation events into the same ring.
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

#[test]
fn wire_predictions_match_direct_serving() {
    let (server, ds) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (_, engine) = fleet();
    let base = engine.base_snapshot();

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");
    for (i, idx) in (0..ds.len()).step_by(17).enumerate() {
        let window = ds.window(idx);
        let direct = base.predict_window(window).expect("direct predict");
        let wire = client.predict(i as u64, window).expect("wire predict");
        assert_eq!(wire.label as usize, direct.label, "window {idx}");
        assert_eq!(wire.is_ood, direct.is_ood, "window {idx}");
        assert_eq!(wire.best_domain as usize, direct.best_domain, "window {idx}");
        assert!((wire.delta_max - direct.delta_max).abs() < 1e-6, "window {idx}");
        assert!(!wire.buffered && !wire.adapted, "stateless predicts never touch a session");
    }
    // ordering: Relaxed — the predict round-trips above already ordered
    // the counter bumps before this read.
    assert!(server.metrics().served.load(std::sync::atomic::Ordering::Relaxed) > 0);
    server.shutdown();
}

#[test]
fn pipelined_burst_across_tenants_matches_base_predictions() {
    // One pipelined burst from 64 tenants spread over two shards: every
    // request is served on its own, and each answer must equal the
    // in-process base prediction for its window.
    let (server, ds) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let (_, engine) = fleet();
    let base = engine.base_snapshot();

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let total = 64usize;
    let mut expected = HashMap::new();
    for i in 0..total {
        let window = ds.window((i * 7) % ds.len());
        let id = client.send_predict(1000 + i as u64, window).expect("queue predict");
        expected.insert(id, base.predict_window(window).expect("direct predict"));
    }
    client.flush().expect("flush");
    for _ in 0..total {
        let (id, response) = client.recv().expect("response");
        let direct = expected.remove(&id).expect("one reply per request id");
        let Response::Prediction(wire) = response else {
            panic!("request {id} got {response:?}");
        };
        assert_eq!(wire.label as usize, direct.label, "request {id}");
        assert_eq!(wire.is_ood, direct.is_ood, "request {id}");
        assert_eq!(wire.best_domain as usize, direct.best_domain, "request {id}");
        assert_eq!(wire.delta_max, direct.delta_max, "request {id}");
    }
    server.shutdown();
}

#[test]
fn drifting_tenant_personalizes_through_wire_ingest() {
    let (server, ds) = start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Feed the tenant the calibrated drift stream (1.5×-hot held-out
    // windows) with oracle labels — exactly what a drifted deployment
    // streams back. Sustained low δ_max must fire enrolment.
    let drift = synthetic::drift_stream(&ds, 160, 42).expect("drift stream");
    assert!(drift.len() >= 64, "need a real drift stream");

    let tenant = 77u64;
    let mut adapted = false;
    for (window, label) in &drift {
        let p = client.ingest(tenant, window, Some(*label as u32)).expect("wire ingest");
        if p.adapted {
            adapted = true;
            break;
        }
    }
    assert!(adapted, "a tenant streaming drifted windows must trigger enrolment");
    // ordering: Relaxed — the adapted reply already ordered the bump.
    assert!(server.metrics().adaptations.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    // The enrolment the wire reported must be visible in the scraped
    // journal, attributed to this tenant.
    let stats = client.stats().expect("stats scrape");
    let finished = stats.journal.count_of(EventKind::EnrollFinished);
    assert!(finished >= 1, "the journal must record the enrolment just observed");
    assert!(
        stats
            .journal
            .events
            .iter()
            .any(|e| e.kind == EventKind::EnrollFinished && e.tenant == tenant),
        "the enrolment event must carry the drifting tenant's id"
    );

    // The personalized tenant keeps serving (now through its own session).
    let p = client.predict(tenant, &drift[0].0).expect("post-adaptation predict");
    assert!(p.label < 4);
    server.shutdown();
}

#[test]
fn stats_snapshot_accounts_for_served_requests() {
    let (server, ds) = start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let total = 40u64;
    for i in 0..total {
        client.predict(i, ds.window(i as usize % ds.len())).expect("wire predict");
    }

    // Scrape over the wire: the versioned snapshot frame must decode and
    // its totals must equal what this client just observed.
    let stats = client.stats().expect("stats scrape decodes");
    assert_eq!(
        stats.counter("requests_served"),
        Some(total),
        "served counter must match the predicts answered"
    );
    assert_eq!(stats.counter("stats_requests"), Some(1));
    assert_eq!(stats.counter("protocol_errors"), Some(0));
    assert_eq!(stats.gauge("workers"), Some(2.0));

    // Per-stage histograms: every predict passes once through each
    // worker stage, so the stage counts reconcile with the counter.
    for stage in ["encode", "score", "queue_wait"] {
        let h = stats.stage(stage).unwrap_or_else(|| panic!("stage {stage} present"));
        assert_eq!(h.count, total, "stage {stage} must see every predict exactly once");
        assert!(h.quantile(0.50) <= h.quantile(0.99), "stage {stage} quantiles ordered");
    }
    // Requests are served one by one: the snapshot exports exactly the
    // five pipeline stages, and no batch-coalescing counters.
    let stages: Vec<&str> = stats.stages.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(stages, ["decode", "queue_wait", "encode", "score", "reply"]);
    assert!(
        stats.counters.iter().all(|(name, _)| !name.contains("coalesc")),
        "no coalescing counters: {:?}",
        stats.counters
    );
    // Decode also sees the Stats frame itself; Reply counts only what the
    // writer has flushed by scrape time (>= the answered predicts).
    let decode = stats.stage("decode").expect("decode stage");
    assert!(decode.count >= total, "decode must time every inbound frame");
    assert!(decode.sum > 0, "decode nanos must accumulate");
    let reply = stats.stage("reply").expect("reply stage");
    assert!(reply.count >= total, "every answered predict was written before the scrape");

    // The in-process handle sees the same registry the wire serves.
    let local = server.stats();
    assert_eq!(local.counter("requests_served"), Some(total));
    server.shutdown();
}

#[test]
fn stats_never_shed_under_overload() {
    // Same saturation setup as the overload test: the Stats request must
    // be answered on its connection even while workers shed.
    let (server, ds) =
        start(ServeConfig { workers: 1, queue_capacity: 1, ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let total = 300usize;
    for i in 0..total {
        client.send_predict(i as u64, ds.window(i % ds.len())).expect("queue predict");
    }
    client.flush().expect("flush");
    let mut diag = ServeClient::connect(server.local_addr()).expect("second connection");
    let stats = diag.stats().expect("an overloaded server still answers its own diagnosis");
    assert!(stats.counter("requests_served").is_some());
    for _ in 0..total {
        client.recv().expect("every request still gets exactly one response");
    }

    // Shed events landed in the shared journal (this config must shed).
    let after = diag.stats().expect("second scrape");
    if after.counter("overloaded").unwrap_or(0) > 0 {
        assert!(
            after.journal.count_of(EventKind::OverloadShed) > 0
                || after.journal.pushed > after.journal.capacity as u64,
            "shed requests must be journaled"
        );
    }
    server.shutdown();
}

#[test]
fn full_queue_answers_overloaded_not_oom() {
    // One worker and a queue of one: a pipelined burst must
    // overflow admission control and get explicit Overloaded responses
    // while every request still gets exactly one answer.
    let (server, ds) =
        start(ServeConfig { workers: 1, queue_capacity: 1, ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let total = 400usize;
    for i in 0..total {
        client.send_predict(i as u64, ds.window(i % ds.len())).expect("queue predict");
    }
    client.flush().expect("flush");

    let mut predictions = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..total {
        match client.recv().expect("every request gets exactly one response").1 {
            Response::Prediction(_) => predictions += 1,
            Response::Error { code: ErrorCode::Overloaded, .. } => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(predictions + overloaded, total);
    assert!(overloaded > 0, "a 400-deep burst into a queue of 1 must trip admission control");
    assert!(predictions > 0, "admission control must shed load, not stop serving");
    // ordering: Relaxed — every burst reply was received before this.
    assert_eq!(
        server.metrics().overloaded.load(std::sync::atomic::Ordering::Relaxed),
        overloaded as u64
    );
    server.shutdown();
}

/// Workers publish gauges after replying, once their queue drains, so a
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
fn session_churn_is_bounded_archived_and_rehydrated_on_the_wire() {
    // A shard capped at 8 resident sessions: tenant churn beyond the cap
    // must evict (never grow without bound), a personalized tenant must be
    // archived rather than lost, and its next request must rehydrate it —
    // all of it visible in one stats scrape.
    let (server, ds) =
        start(ServeConfig { workers: 1, max_sessions_per_shard: 8, ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Personalize tenant 5 through wire ingest (the calibrated drift
    // stream from the adaptation test).
    let drift = synthetic::drift_stream(&ds, 160, 42).expect("drift stream");
    let tenant = 5u64;
    let mut adapted = false;
    for (window, label) in &drift {
        if client.ingest(tenant, window, Some(*label as u32)).expect("wire ingest").adapted {
            adapted = true;
            break;
        }
    }
    assert!(adapted, "drift stream must personalize the tenant");
    let probe = &drift[0].0;
    let before = client.predict(tenant, probe).expect("personalized predict");

    // Churn 100 other tenants through the shard via the stateful path.
    for t in 100..200u64 {
        client.ingest(t, ds.window(t as usize % ds.len()), None).expect("churn ingest");
    }
    let stats = scrape_until(&mut client, "eviction of the personalized tenant", |s| {
        s.counter("sessions_evicted").unwrap_or(0) >= 1
            && s.gauge("tenants_archived").unwrap_or(0.0) >= 1.0
    });
    // The leak fix: the resident gauge respects the cap under churn. The
    // stale-gauge fix: evicted sessions stop counting the moment they
    // leave, so personalized drops to zero while the tenant is archived.
    assert!(
        stats.gauge("tenant_sessions").expect("sessions gauge") <= 8.0,
        "resident sessions must stay within the shard cap"
    );
    assert_eq!(stats.gauge("tenants_personalized"), Some(0.0));
    assert!(stats.gauge("archived_delta_bytes").expect("archive gauge") > 0.0);
    assert!(stats.journal.count_of(EventKind::SessionEvicted) >= 1);

    // The evicted tenant's next request transparently rehydrates it, and
    // the rehydrated overlay serves bit-identically.
    let after = client.predict(tenant, probe).expect("rehydrated predict");
    assert_eq!(after.label, before.label);
    assert_eq!(after.best_domain, before.best_domain);
    assert_eq!(after.delta_max, before.delta_max, "rehydration must be bit-exact");
    let stats = scrape_until(&mut client, "rehydration of the archived tenant", |s| {
        s.counter("sessions_hydrated").unwrap_or(0) >= 1 && s.gauge("tenants_archived") == Some(0.0)
    });
    assert_eq!(stats.gauge("archived_delta_bytes"), Some(0.0));
    assert_eq!(stats.gauge("tenants_personalized"), Some(1.0));
    assert!(stats.journal.count_of(EventKind::SessionHydrated) >= 1);
    server.shutdown();
}

#[test]
fn tenants_shard_across_workers_and_share_the_base() {
    let (server, ds) = start(ServeConfig { workers: 3, ..ServeConfig::default() });
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    // 32 tenants spread across 3 shards all serve the same base snapshot:
    // identical windows give identical predictions regardless of shard.
    let window = ds.window(3);
    let reference = client.predict(0, window).expect("tenant 0");
    for tenant in 1..32u64 {
        let p = client.predict(tenant, window).expect("tenant predict");
        assert_eq!(p.label, reference.label, "tenant {tenant}");
        assert_eq!(p.delta_max, reference.delta_max, "tenant {tenant}");
    }
    server.shutdown();
}
