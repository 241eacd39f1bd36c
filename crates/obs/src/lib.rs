//! # smore_obs — serving telemetry for the SMORE stack.
//!
//! Std-only, zero-third-party-dependency observability primitives,
//! designed so the serving hot path pays atomic adds — never a lock, never
//! a heap allocation:
//!
//! - [`AtomicHistogram`]: a log2-bucketed latency histogram over relaxed
//!   `AtomicU64` counters. Recording a sample is one relaxed atomic add on
//!   the bucket array (plus one on the running sum); snapshots report
//!   count, sum and nearest-rank quantiles through the same
//!   [`smore::metrics::nearest_rank_index`] helper every other quantile
//!   consumer in the workspace uses.
//! - [`Stage`] / [`StageSet`] / [`StageTimer`]: named spans over the
//!   serving request pipeline (frame decode → queue wait → encode → score →
//!   reply write), one histogram per stage.
//! - [`EventJournal`]: a fixed-capacity lock-free ring of structured
//!   adaptation [`Event`]s (OOD windows, drift firings, enrolments,
//!   snapshot swaps, personalization, overload sheds) with per-tenant
//!   attribution. Writers never block and never tear; readers detect and
//!   discard in-flight slots.
//! - [`log`]: a leveled, `SMORE_LOG`-gated structured logger
//!   ([`error!`](crate::error), [`warn!`](crate::warn), …) replacing
//!   scattered `eprintln!`s on serving paths.
//! - [`StatsSnapshot`]: a versioned, self-describing stats frame
//!   (counters, gauges, per-stage histograms, journal tail) encoded with
//!   [`smore::wire`] for the serving protocol's `Stats` request, plus a
//!   Prometheus-style text exposition.
//!
//! The crate deliberately knows nothing about servers or tenant sessions:
//! counters and gauges are named `(String, value)` pairs, so `smore_serve`
//! and `smore_stream` own their vocabularies and `smore_obs` stays a leaf
//! dependency (it depends only on `smore` for the quantile helper and the
//! wire format).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod journal;
pub mod log;
mod snapshot;
mod stage;

pub use hist::{bucket_bounds, bucket_of, AtomicHistogram, HistogramSnapshot, NUM_BUCKETS};
pub use journal::{Event, EventJournal, EventKind, JournalSnapshot};
pub use log::Level;
pub use snapshot::{StatsSnapshot, STATS_VERSION};
pub use stage::{Stage, StageSet, StageTimer};
