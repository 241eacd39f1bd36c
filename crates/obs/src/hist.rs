//! Lock-free log2-bucketed histograms.
//!
//! ## Bucket layout
//!
//! Values below 16 get one exact bucket each (buckets `0..16`). Every
//! larger value lands in one of 16 linear sub-buckets of its power-of-two
//! octave: with `msb` the index of the leading one bit, the sub-bucket is
//! the next four bits below it, so bucket width is `2^(msb-4)` and the
//! relative quantization error is at most 1/16 (6.25%). Octaves are
//! contiguous — `bucket = (msb - 3) * 16 + sub` — giving
//! [`NUM_BUCKETS`]` = 976` buckets covering the whole `u64` range in
//! 7.6 KiB of counters per histogram.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution bits per octave (16 linear sub-buckets).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count: 16 exact small-value buckets plus 16 sub-buckets
/// for each of the 60 octaves `2^4..2^63`.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// The bucket index a value is recorded into.
#[must_use]
pub fn bucket_of(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let sub = (value >> (msb - SUB_BITS)) & (SUB - 1);
    ((msb - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Inclusive `(lower, upper)` value bounds of a bucket.
///
/// # Panics
///
/// Panics if `bucket >= `[`NUM_BUCKETS`].
#[must_use]
pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
    assert!(bucket < NUM_BUCKETS, "bucket {bucket} out of range");
    let b = bucket as u64;
    if b < SUB {
        return (b, b);
    }
    let msb = b / SUB + SUB_BITS as u64 - 1;
    let sub = b % SUB;
    let width = 1u64 << (msb - u64::from(SUB_BITS));
    let lower = (1u64 << msb) + sub * width;
    (lower, lower + (width - 1))
}

/// A fixed-size, lock-free latency histogram.
///
/// [`record`](Self::record) is wait-free: one relaxed atomic add on the
/// bucket counter and one on the running sum — no locks, no allocation, no
/// contention point beyond cache-line sharing of hot buckets. Aggregation
/// happens at [`snapshot`](Self::snapshot) time (the rare path), which
/// walks the bucket array once; per-shard histograms are merged by merging
/// their snapshots.
///
/// # Example
///
/// ```
/// let h = smore_obs::AtomicHistogram::new();
/// for v in [10u64, 20, 30, 40, 50] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert_eq!(snap.sum, 150);
/// assert!(snap.quantile(0.5) >= 30);
/// ```
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; NUM_BUCKETS]> =
            // smore-lint: allow(panic_path) the vec above is built with exactly NUM_BUCKETS entries
            buckets.into_boxed_slice().try_into().expect("NUM_BUCKETS entries");
        Self { buckets, sum: AtomicU64::new(0) }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        // ordering: Relaxed — independent monotone counters; the snapshot
        // contract tolerates samples landing mid-walk, so no recorder
        // ordering is needed.
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed); // smore-lint: allow(panic_path) bucket_of clamps to NUM_BUCKETS - 1
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records `n` samples of the same value — how a mean cost is charged
    /// to each of `n` events (e.g. the serving writer's reply burst, one
    /// mean write time per frame).
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        // ordering: Relaxed — same contract as `record`.
        self.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed); // smore-lint: allow(panic_path) bucket_of clamps to NUM_BUCKETS - 1
        self.sum.fetch_add(value.saturating_mul(n), Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    ///
    /// Concurrent recorders keep running; the snapshot is internally
    /// consistent to within the samples that land mid-walk.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: Relaxed — the snapshot is documented as consistent
        // only to within mid-walk samples; no bucket-to-bucket or
        // bucket-to-sum ordering is promised, so no fences are needed.
        let mut buckets: Vec<u64> =
            self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count = buckets.iter().sum();
        // Trim trailing zeros — snapshots travel over the wire.
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramSnapshot { count, sum: self.sum.load(Ordering::Relaxed), buckets }
    }
}

/// A point-in-time histogram: trailing-zero-trimmed bucket counts plus the
/// exact sample count and sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all recorded values.
    pub sum: u64,
    /// Bucket counts, trimmed after the last non-zero bucket (index `i`
    /// covers the value range [`bucket_bounds`]`(i)`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The nearest-rank `q`-quantile, reported as the **upper bound** of
    /// the bucket holding the rank-selected sample — so the report never
    /// understates the true sample quantile and overstates it by at most
    /// one bucket width (≤ 6.25% relative).
    ///
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = smore::metrics::nearest_rank_index(self.count as usize, q) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_bounds(i).1;
            }
        }
        // Unreachable when count == Σ buckets; safe fallback under racing
        // snapshot reads.
        self.buckets.len().checked_sub(1).map_or(0, |i| bucket_bounds(i).1)
    }

    /// Mean of the recorded samples (0 when empty). Exact — computed from
    /// the running sum, not bucket midpoints.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds another snapshot's counts into this one — how per-shard
    /// histograms aggregate on scrape.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut expected_lower = 0u64;
        for b in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(lo, expected_lower, "bucket {b} lower bound");
            assert!(hi >= lo);
            expected_lower = hi.wrapping_add(1);
        }
        // The last bucket ends exactly at u64::MAX.
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn bucket_of_matches_bounds() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            1000,
            4095,
            4096,
            123_456_789,
            u64::from(u32::MAX),
            1 << 40,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in probes {
            let b = bucket_of(v);
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= v && v <= hi, "value {v} not inside bucket {b} [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_bounded() {
        for v in [100u64, 999, 123_456, 9_999_999, 1 << 50] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            let width = hi - lo;
            assert!(
                (width as f64) <= (lo as f64) / 16.0 + 1.0,
                "bucket for {v} too wide: [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn quantiles_upper_bound_true_samples_within_a_bucket() {
        let h = AtomicHistogram::new();
        let mut samples: Vec<u64> = (0..1000).map(|i| (i * 37 + 11) % 100_000).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, samples.iter().sum::<u64>());
        for q in [0.5, 0.95, 0.99] {
            let truth = samples[smore::metrics::nearest_rank_index(samples.len(), q)];
            let reported = snap.quantile(q);
            assert!(reported >= truth, "q={q}: reported {reported} < true {truth}");
            assert_eq!(
                bucket_of(reported),
                bucket_of(truth),
                "q={q}: reported {reported} left the true sample's bucket ({truth})"
            );
        }
    }

    #[test]
    fn record_n_and_merge() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record_n(500, 10);
        a.record_n(0, 0); // no-op
        b.record(7);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.count, 11);
        assert_eq!(snap.sum, 5007);
        assert_eq!(snap.quantile(0.0), 7);
        assert!(snap.quantile(0.99) >= 500);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let snap = AtomicHistogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.buckets.is_empty());
    }
}
