//! The server's telemetry registry: per-shard stage histograms,
//! connection-thread stages, worker occupancy gauges and the shared
//! adaptation journal, aggregated on scrape into one
//! [`StatsSnapshot`].
//!
//! Recording is contention-free by construction: each worker writes only
//! its own shard's [`StageSet`] and [`ShardGauges`]; connection and
//! writer threads share one `conn` stage set whose histograms are
//! lock-free atomics. Aggregation (histogram merging, gauge summing)
//! happens only when a scrape asks for it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smore_obs::{EventJournal, Stage, StageSet, StatsSnapshot};

use crate::server::ServerMetrics;

/// Per-shard occupancy gauges, overwritten by the owning worker whenever
/// its queue drains and every 32 jobs in between (monotone counters live
/// in [`ServerMetrics`]).
#[derive(Debug, Default)]
pub(crate) struct ShardGauges {
    /// Tenant sessions materialised on this shard.
    pub(crate) sessions: AtomicU64,
    /// Sessions serving a personal (post-enrolment) snapshot.
    pub(crate) personalized: AtomicU64,
    /// Windows currently buffered for enrolment across the shard.
    pub(crate) buffered_windows: AtomicU64,
    /// Sum over this shard's sessions of their recent OOD fraction, in
    /// millionths — integer so the hot path never touches floats; the
    /// scrape divides by the session count.
    pub(crate) ood_fraction_micros: AtomicU64,
    /// Evicted tenants parked as archived delta artifacts on this shard.
    pub(crate) archived_tenants: AtomicU64,
    /// Bytes those archived deltas occupy.
    pub(crate) archived_bytes: AtomicU64,
    /// Resident personalized-state bytes counted against the shard's
    /// eviction budget.
    pub(crate) resident_delta_bytes: AtomicU64,
}

/// All telemetry state for one running server (see the module docs).
#[derive(Debug)]
pub(crate) struct Telemetry {
    /// One stage set per worker shard: `queue_wait`, `encode`, `score`.
    pub(crate) shards: Vec<StageSet>,
    /// Connection-side stages shared across connections: `decode` on the
    /// reader threads, `reply` on the writer threads.
    pub(crate) conn: StageSet,
    pub(crate) gauges: Vec<ShardGauges>,
    /// The adaptation journal — the engine's, when one was attached with
    /// [`smore_stream::ServeEngine::set_journal`], so tenant lifecycle
    /// events and the server's `overload_shed` events land in one ring.
    pub(crate) journal: Arc<EventJournal>,
}

impl Telemetry {
    pub(crate) fn new(workers: usize, journal: Arc<EventJournal>) -> Self {
        Self {
            shards: (0..workers).map(|_| StageSet::new()).collect(),
            conn: StageSet::new(),
            gauges: (0..workers).map(|_| ShardGauges::default()).collect(),
            journal,
        }
    }

    /// Aggregates every shard into one self-describing snapshot.
    pub(crate) fn snapshot(&self, metrics: &ServerMetrics) -> StatsSnapshot {
        let mut snap = StatsSnapshot::new();
        // ordering: Relaxed — read-only scrape of monotone counters; the
        // snapshot promises no cross-counter consistency to scrapers.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        snap.counters = vec![
            ("requests_served".into(), load(&metrics.served)),
            ("overloaded".into(), load(&metrics.overloaded)),
            ("protocol_errors".into(), load(&metrics.protocol_errors)),
            ("adaptations".into(), load(&metrics.adaptations)),
            ("connections".into(), load(&metrics.connections)),
            ("stats_requests".into(), load(&metrics.stats_requests)),
            ("sessions_evicted".into(), load(&metrics.sessions_evicted)),
            ("sessions_hydrated".into(), load(&metrics.sessions_hydrated)),
            ("worker_panics".into(), load(&metrics.worker_panics)),
            ("sessions_drained".into(), load(&metrics.sessions_drained)),
            ("state_recovered".into(), load(&metrics.state_recovered)),
            ("state_quarantined".into(), load(&metrics.state_quarantined)),
            ("state_write_failures".into(), load(&metrics.state_write_failures)),
        ];

        let mut sessions = 0u64;
        let mut personalized = 0u64;
        let mut buffered = 0u64;
        let mut ood_micros = 0u64;
        let mut archived = 0u64;
        let mut archived_bytes = 0u64;
        let mut resident_delta_bytes = 0u64;
        for g in &self.gauges {
            sessions += load(&g.sessions);
            personalized += load(&g.personalized);
            buffered += load(&g.buffered_windows);
            ood_micros += load(&g.ood_fraction_micros);
            archived += load(&g.archived_tenants);
            archived_bytes += load(&g.archived_bytes);
            resident_delta_bytes += load(&g.resident_delta_bytes);
        }
        let ood_recent =
            if sessions == 0 { 0.0 } else { ood_micros as f64 / 1e6 / sessions as f64 };
        snap.gauges = vec![
            ("tenant_sessions".into(), sessions as f64),
            ("tenants_personalized".into(), personalized as f64),
            ("buffered_windows".into(), buffered as f64),
            ("ood_fraction_recent".into(), ood_recent),
            ("workers".into(), self.shards.len() as f64),
            ("tenants_archived".into(), archived as f64),
            ("archived_delta_bytes".into(), archived_bytes as f64),
            ("resident_delta_bytes".into(), resident_delta_bytes as f64),
        ];

        for stage in Stage::ALL {
            let mut merged = self.conn.histogram(stage).snapshot();
            for shard in &self.shards {
                merged.merge(&shard.histogram(stage).snapshot());
            }
            snap.stages.push((stage.name().to_string(), merged));
        }

        snap.journal = self.journal.snapshot();
        snap
    }
}
