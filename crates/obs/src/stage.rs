//! Named spans over the serving request pipeline.
//!
//! A request travels `Decode → QueueWait → Encode → Score → Reply`: the
//! connection thread times frame decoding, the job then waits in its shard
//! queue, the worker encodes and scores it, and the writer thread
//! serialises the response. [`StageSet`] keeps one [`AtomicHistogram`] per
//! stage; spans are recorded either directly in nanoseconds
//! ([`StageSet::record`]) or through the RAII [`StageTimer`] guard
//! ([`StageSet::time`]), which records on drop so early returns and `?`
//! exits are still measured.

use std::time::Instant;

use crate::hist::{AtomicHistogram, HistogramSnapshot};

/// One stage of the serving request pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wire-frame decoding on the connection thread (CRC check, request
    /// parse, window validation) — excludes blocking socket reads.
    Decode,
    /// Time between shard-queue admission and worker dequeue.
    QueueWait,
    /// Window standardisation + packed hypervector encoding.
    Encode,
    /// Descriptor similarity, OOD verdict, ensemble weighting and
    /// per-class scoring.
    Score,
    /// Response serialisation + socket write on the writer thread.
    Reply,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::Decode, Stage::QueueWait, Stage::Encode, Stage::Score, Stage::Reply];

    /// Stable snake_case name (used as the wire / exposition key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::QueueWait => "queue_wait",
            Stage::Encode => "encode",
            Stage::Score => "score",
            Stage::Reply => "reply",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::QueueWait => 1,
            Stage::Encode => 2,
            Stage::Score => 3,
            Stage::Reply => 4,
        }
    }
}

/// One latency histogram per pipeline [`Stage`].
///
/// # Example
///
/// ```
/// use smore_obs::{Stage, StageSet};
///
/// let stages = StageSet::new();
/// {
///     let _span = stages.time(Stage::Decode); // records on drop
/// }
/// stages.record(Stage::Score, 42_000); // nanoseconds, recorded directly
/// let snaps = stages.snapshot();
/// assert_eq!(snaps.len(), Stage::ALL.len());
/// assert_eq!(snaps[3].1.count, 1);
/// ```
#[derive(Debug, Default)]
pub struct StageSet {
    hists: [AtomicHistogram; 5],
}

impl StageSet {
    /// A set of empty histograms.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying histogram for one stage.
    #[must_use]
    pub fn histogram(&self, stage: Stage) -> &AtomicHistogram {
        &self.hists[stage.index()] // smore-lint: allow(panic_path) Stage::index() enumerates exactly the 5 variants
    }

    /// Records one span of `nanos` nanoseconds against `stage`.
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.hists[stage.index()].record(nanos); // smore-lint: allow(panic_path) Stage::index() enumerates exactly the 5 variants
    }

    /// Records `n` spans of the same duration — how the writer charges
    /// each frame of a reply burst the burst's mean.
    pub fn record_n(&self, stage: Stage, nanos: u64, n: u64) {
        self.hists[stage.index()].record_n(nanos, n); // smore-lint: allow(panic_path) Stage::index() enumerates exactly the 5 variants
    }

    /// Starts an RAII span over `stage`; the elapsed time is recorded when
    /// the returned [`StageTimer`] drops (or explicitly via
    /// [`StageTimer::stop`]).
    #[must_use]
    pub fn time(&self, stage: Stage) -> StageTimer<'_> {
        StageTimer { hist: Some(self.histogram(stage)), start: Instant::now() }
    }

    /// Snapshots every stage histogram, in [`Stage::ALL`] order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(Stage, HistogramSnapshot)> {
        Stage::ALL.iter().map(|&s| (s, self.histogram(s).snapshot())).collect()
    }
}

/// An RAII span: measures from construction to drop and records the
/// elapsed nanoseconds into its stage histogram exactly once.
#[derive(Debug)]
pub struct StageTimer<'a> {
    hist: Option<&'a AtomicHistogram>,
    start: Instant,
}

impl StageTimer<'_> {
    /// Ends the span now, returning the recorded nanoseconds.
    pub fn stop(mut self) -> u64 {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(h) = self.hist.take() {
            h.record(nanos);
        }
        nanos
    }

    /// Abandons the span without recording (e.g. a decode that turned out
    /// to be a liveness ping not worth charging to the pipeline).
    pub fn cancel(mut self) {
        self.hist = None;
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["decode", "queue_wait", "encode", "score", "reply"]);
        for (i, &s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn timer_records_on_drop_stop_and_not_on_cancel() {
        let set = StageSet::new();
        {
            let _t = set.time(Stage::Decode);
        }
        let nanos = set.time(Stage::Decode).stop();
        set.time(Stage::Decode).cancel();
        let snap = set.histogram(Stage::Decode).snapshot();
        assert_eq!(snap.count, 2, "drop + stop record, cancel does not");
        assert!(snap.sum >= nanos);
    }

    #[test]
    fn record_n_charges_batches() {
        let set = StageSet::new();
        set.record_n(Stage::Encode, 1_000, 32);
        let snap = set.histogram(Stage::Encode).snapshot();
        assert_eq!(snap.count, 32);
        assert_eq!(snap.sum, 32_000);
    }
}
