//! The bit-packed multi-sensor n-gram encoder.
//!
//! [`PackedNgramEncoder`] mirrors [`smore_hdc::encoder::MultiSensorEncoder`]
//! (paper §3.3, Fig. 3) in the binary domain:
//!
//! 1. **Vector quantisation** looks up a *packed* codeword from a
//!    discretized level grid. The codewords are the sign-packed images of
//!    the dense encoder's own `LevelMemory` codewords (which are bipolar,
//!    so packing is lossless) — the only approximation relative to the
//!    dense encoder is snapping the continuous `α` to the grid.
//! 2. **Temporal n-gram binding** is XOR under bit-rotation.
//! 3. **Bundling** accumulates integer per-dimension counters — the exact
//!    value the dense encoder accumulates in `f32`, since every product of
//!    bipolar codewords is `±1`.
//! 4. **Spatial integration** multiplies each sensor's counter vector by
//!    its signature sign and sums across sensors — again exactly the dense
//!    arithmetic, in integers.
//!
//! Because the integer accumulator reproduces the dense accumulator
//! exactly (up to `α` discretization), thresholding it at zero yields the
//! *sign of the dense encoding* — which is what every downstream packed
//! similarity needs.
//! [`encode_counts_into`](PackedNgramEncoder::encode_counts_into) exposes
//! the raw counters so callers can apply an affine offset (e.g.
//! mean-centring) before thresholding.
//!
//! # The word-parallel hot path
//!
//! The serving encode path performs the four stages above at 64 dimensions
//! per instruction with zero steady-state allocations:
//!
//! - **Incremental sliding n-gram binding.** The bound product of the
//!   window ending at step `t` is `P_t = c_t ⊕ ρ(c_{t−1}) ⊕ … ⊕
//!   ρ^{n−1}(c_{t−n+1})`. Because the rotation `ρ` distributes over XOR,
//!   the next window's product follows from the previous one as
//!
//!   ```text
//!   P_{t+1} = ρ(P_t ⊕ ρ^{n−1}(c_{t−n+1})) ⊕ c_{t+1}
//!   ```
//!
//!   — retire the oldest codeword (already at its final rotation, looked
//!   up from a precomputed ρ^{n−1}-rotated codebook), advance every
//!   surviving element one rotation in a single word-level shift, and fold
//!   in the newest codeword: 2 XOR sweeps + 1 rotate per step, instead of
//!   the `n−1` rotates + `n−1` XORs of a from-scratch fold.
//!
//! - **SWAR bit-sliced bundling.** Counter bundling goes through a
//!   [`BitSliceAccumulator`]: a carry-save-adder plane stack that counts
//!   all 64 bits of a word simultaneously (XOR = sum bit, AND = carry),
//!   folded into `i32` counters at the end of the window (and every 255
//!   steps within longer ones). Signature integration rides along — the
//!   per-dimension sign flip `G_s[i] · P[i]` is one XOR fused into the
//!   accumulator read ([`BitSliceAccumulator::absorb_bound`]), so no
//!   per-sensor counter pass or post-hoc signature multiply remains.
//!
//! - **Caller-owned scratch.** [`EncoderScratch`] owns the ring, product,
//!   rotation and counter buffers; the `*_into` entry points
//!   ([`encode_counts_into`](PackedNgramEncoder::encode_counts_into),
//!   [`encode_window_into`](PackedNgramEncoder::encode_window_into)) reuse
//!   it across calls so steady-state encoding never touches the heap.
//!
//! The pre-optimisation recompute path is retained as
//! [`encode_counts_reference`](PackedNgramEncoder::encode_counts_reference);
//! the two are bit-exactly equal (property-tested in
//! `tests/proptests.rs`).

// smore-lint: allow-file(panic_path) bit-kernel indices are all derived from words_for(dim) and exhaustively property-tested against the dense encoder

use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder, ValueRange};
use smore_hdc::HdcError;
use smore_tensor::Matrix;

use crate::hypervector::{rotate_words_into, words_for, BitSliceAccumulator, PackedHypervector};
use crate::Result;

/// Caller-owned scratch space for the allocation-free encode path.
///
/// Holds the sliding-window ring, the running n-gram product, a rotation
/// buffer, the SWAR bundling planes and the output counters. Buffers are
/// (re)sized lazily on each encode, so one scratch can serve encoders of
/// different dimensionalities; in steady state (same encoder, repeated
/// calls) no resize — and therefore no allocation — occurs.
///
/// # Example
///
/// ```
/// use smore_hdc::encoder::EncoderConfig;
/// use smore_packed::{EncoderScratch, PackedHypervector, PackedNgramEncoder};
/// use smore_tensor::Matrix;
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let cfg = EncoderConfig { dim: 256, sensors: 2, ..EncoderConfig::default() };
/// let encoder = PackedNgramEncoder::new(cfg)?;
/// let mut scratch = EncoderScratch::new();
/// let mut query = PackedHypervector::zeros(256);
/// for phase in 0..4 {
///     let w = Matrix::from_fn(16, 2, |t, s| ((t + s) as f32 * 0.4 + phase as f32).sin());
///     encoder.encode_window_into(&w, &mut scratch, &mut query)?; // no allocation
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EncoderScratch {
    /// Level indices of the last `n` time steps.
    ring: Vec<usize>,
    /// Running n-gram product `P_t` (packed words).
    prod: Vec<u64>,
    /// Rotation double-buffer for the sliding advance.
    rot: Vec<u64>,
    /// SWAR carry-save bundling planes (signature folded in).
    acc: BitSliceAccumulator,
    /// Signed output counters (the packed mirror of the dense accumulator).
    counts: Vec<i32>,
}

impl EncoderScratch {
    /// An empty scratch; buffers are sized by the first encode call.
    pub fn new() -> Self {
        Self {
            ring: Vec::new(),
            prod: Vec::new(),
            rot: Vec::new(),
            acc: BitSliceAccumulator::new(0),
            counts: Vec::new(),
        }
    }

    /// The counters produced by the most recent
    /// [`encode_counts_into`](PackedNgramEncoder::encode_counts_into).
    pub fn counts(&self) -> &[i32] {
        &self.counts
    }

    /// Sizes every buffer for one encode; a no-op (and allocation-free)
    /// when the shape already matches.
    fn prepare(&mut self, dim: usize, ngram: usize) {
        let nw = words_for(dim);
        self.ring.clear();
        self.ring.resize(ngram, 0);
        self.prod.clear();
        self.prod.resize(nw, 0);
        self.rot.clear();
        self.rot.resize(nw, 0);
        if self.acc.dim() == dim {
            self.acc.reset();
        } else {
            self.acc = BitSliceAccumulator::new(dim);
        }
        self.counts.clear();
        self.counts.resize(dim, 0);
    }
}

impl Default for EncoderScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Bit-packed mirror of the dense multi-sensor encoder.
///
/// # Example
///
/// ```
/// use smore_hdc::encoder::EncoderConfig;
/// use smore_packed::{EncoderScratch, PackedNgramEncoder};
/// use smore_tensor::Matrix;
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let cfg = EncoderConfig { dim: 512, sensors: 2, ..EncoderConfig::default() };
/// let encoder = PackedNgramEncoder::new(cfg)?;
/// let window = Matrix::from_fn(16, 2, |t, s| ((t + s) as f32 * 0.4).sin());
/// let mut scratch = EncoderScratch::new();
/// encoder.encode_counts_into(&window, &mut scratch)?;
/// // One counter per dimension, bit-exact to the recompute reference.
/// assert_eq!(scratch.counts(), encoder.encode_counts_reference(&window)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedNgramEncoder {
    config: EncoderConfig,
    /// `[sensor][level]` packed codewords on the discretized `α` grid.
    codebooks: Vec<Vec<PackedHypervector>>,
    /// The same codewords pre-rotated by `ρ^{n−1}` — the retirement
    /// operand of the sliding-bind recurrence. Empty for unigrams.
    codebooks_rot: Vec<Vec<PackedHypervector>>,
    /// Packed sensor signatures `G_i`.
    signatures: Vec<PackedHypervector>,
}

impl PackedNgramEncoder {
    /// Builds the packed encoder by constructing (and discarding) the dense
    /// encoder for the same configuration, then packing its codebooks.
    ///
    /// # Errors
    ///
    /// Propagates the dense encoder's configuration validation.
    pub fn new(config: EncoderConfig) -> Result<Self> {
        let dense = MultiSensorEncoder::new(config)?;
        Self::from_dense(&dense)
    }

    /// Packs the codebooks of an existing dense encoder, guaranteeing that
    /// both encoders draw from identical random anchors (and therefore
    /// agree wherever `α` lands exactly on the level grid).
    ///
    /// # Errors
    ///
    /// Propagates codebook access errors (internal wiring only).
    pub fn from_dense(dense: &MultiSensorEncoder) -> Result<Self> {
        let config = dense.config();
        let grid = config.levels.max(2);
        let mut codebooks = Vec::with_capacity(config.sensors);
        for s in 0..config.sensors {
            let memory = dense.level_memory(s)?;
            let levels: Vec<PackedHypervector> = (0..grid)
                .map(|l| {
                    let alpha = l as f32 / (grid - 1) as f32;
                    PackedHypervector::from_dense(&memory.encode(alpha))
                })
                .collect();
            codebooks.push(levels);
        }
        let signatures = (0..config.sensors)
            .map(|s| Ok(PackedHypervector::from_dense(dense.signature_memory().signature(s)?)))
            .collect::<Result<Vec<_>>>()?;
        // ρ^{n−1}-rotated copies feed the sliding-bind retirement step
        // without a per-step rotate; unigrams never retire anything.
        let codebooks_rot = if config.ngram > 1 {
            codebooks
                .iter()
                .map(|levels| levels.iter().map(|c| c.rotate(config.ngram - 1)).collect())
                .collect()
        } else {
            Vec::new()
        };
        Ok(Self { config: config.clone(), codebooks, codebooks_rot, signatures })
    }

    /// Reassembles an encoder from raw parts — the artifact-load path, the
    /// inverse of the [`codebooks`](Self::codebooks) /
    /// [`codebooks_rot`](Self::codebooks_rot) /
    /// [`signatures`](Self::signatures) accessors. No codebook is derived
    /// or re-rotated: the caller-provided words are served verbatim, which
    /// is what makes artifact loading bit-exact (and fast — no dense
    /// encoder is ever built).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when any shape disagrees with
    /// `config`: codebook/signature count vs `sensors`, level count vs the
    /// `levels` grid, per-vector dimensionality vs `dim`, a missing (or
    /// spurious) pre-rotated codebook for the configured `ngram`, or a
    /// [`ValueRange::Global`] range list of the wrong length.
    pub fn from_parts(
        config: EncoderConfig,
        codebooks: Vec<Vec<PackedHypervector>>,
        codebooks_rot: Vec<Vec<PackedHypervector>>,
        signatures: Vec<PackedHypervector>,
    ) -> Result<Self> {
        if config.dim == 0 || config.sensors == 0 || config.ngram == 0 {
            return Err(HdcError::InvalidConfig {
                what: "encoder dim, sensors and ngram must all be positive".into(),
            });
        }
        if let ValueRange::Global(ranges) = &config.range {
            if ranges.len() != config.sensors {
                return Err(HdcError::InvalidConfig {
                    what: format!(
                        "global range has {} pairs for {} sensors",
                        ranges.len(),
                        config.sensors
                    ),
                });
            }
        }
        let grid = config.levels.max(2);
        let check_books = |books: &[Vec<PackedHypervector>], what: &str| -> Result<()> {
            if books.len() != config.sensors {
                return Err(HdcError::InvalidConfig {
                    what: format!(
                        "{what}: {} codebooks for {} sensors",
                        books.len(),
                        config.sensors
                    ),
                });
            }
            for levels in books {
                if levels.len() != grid {
                    return Err(HdcError::InvalidConfig {
                        what: format!("{what}: {} levels on a {grid}-level grid", levels.len()),
                    });
                }
                if let Some(bad) = levels.iter().find(|c| c.dim() != config.dim) {
                    return Err(HdcError::InvalidConfig {
                        what: format!("{what}: codeword dim {} != {}", bad.dim(), config.dim),
                    });
                }
            }
            Ok(())
        };
        check_books(&codebooks, "codebooks")?;
        if config.ngram > 1 {
            check_books(&codebooks_rot, "pre-rotated codebooks")?;
        } else if !codebooks_rot.is_empty() {
            return Err(HdcError::InvalidConfig {
                what: "unigram encoders carry no pre-rotated codebooks".into(),
            });
        }
        if signatures.len() != config.sensors || signatures.iter().any(|s| s.dim() != config.dim) {
            return Err(HdcError::InvalidConfig {
                what: format!(
                    "{} signatures (dim {:?}) for {} sensors of dim {}",
                    signatures.len(),
                    signatures.first().map(PackedHypervector::dim),
                    config.sensors,
                    config.dim
                ),
            });
        }
        Ok(Self { config, codebooks, codebooks_rot, signatures })
    }

    /// The encoder configuration (shared with the dense encoder).
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The packed per-sensor quantisation codebooks (`[sensor][level]`) —
    /// raw access for model artifacts; see [`from_parts`](Self::from_parts).
    pub fn codebooks(&self) -> &[Vec<PackedHypervector>] {
        &self.codebooks
    }

    /// The ρ^{n−1}-pre-rotated codebooks feeding the sliding-bind
    /// retirement step (empty for unigram encoders).
    pub fn codebooks_rot(&self) -> &[Vec<PackedHypervector>] {
        &self.codebooks_rot
    }

    /// The packed per-sensor signatures `G_i`.
    pub fn signatures(&self) -> &[PackedHypervector] {
        &self.signatures
    }

    /// Hyperdimensional dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of discrete quantisation levels on the packed grid.
    pub fn grid_levels(&self) -> usize {
        self.codebooks.first().map_or(0, Vec::len)
    }

    /// Bytes held by all packed codebooks (including the ρ^{n−1}-rotated
    /// sliding-bind copies) and signatures.
    pub fn storage_bytes(&self) -> usize {
        self.codebooks
            .iter()
            .chain(&self.codebooks_rot)
            .flat_map(|levels| levels.iter().map(PackedHypervector::storage_bytes))
            .sum::<usize>()
            + self.signatures.iter().map(PackedHypervector::storage_bytes).sum::<usize>()
    }

    /// Validates the window shape shared by every encode entry point,
    /// returning the number of time steps.
    fn check_window(&self, window: &Matrix) -> Result<usize> {
        let (t_total, cols) = window.shape();
        if cols != self.config.sensors {
            return Err(HdcError::DimensionMismatch {
                expected: self.config.sensors,
                actual: cols,
            });
        }
        if t_total < self.config.ngram {
            return Err(HdcError::InvalidConfig {
                what: format!(
                    "window of {t_total} steps is shorter than the n-gram size {}",
                    self.config.ngram
                ),
            });
        }
        Ok(t_total)
    }

    /// Encodes one window into the raw integer accumulator held in
    /// `scratch` (read it back through [`EncoderScratch::counts`]) — the
    /// packed mirror of the dense encoder's pre-normalisation sum.
    /// `counts[i]` equals the dense accumulator value at dimension `i`
    /// exactly, up to the `α` grid snap.
    ///
    /// This is the word-parallel hot path (sliding n-gram binding + SWAR
    /// bundling, see the module docs); with a warm `scratch` it performs
    /// no allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as the dense
    /// [`encode_window`](MultiSensorEncoder::encode_window): one column per
    /// sensor, at least `ngram` time steps.
    pub fn encode_counts_into(&self, window: &Matrix, scratch: &mut EncoderScratch) -> Result<()> {
        self.check_window(window)?;
        let d = self.config.dim;
        let n = self.config.ngram;
        let grid = self.grid_levels();
        scratch.prepare(d, n);

        for (s, codebook) in self.codebooks.iter().enumerate() {
            let (lo, hi) = self.sensor_range(window, s);
            let span = hi - lo;
            let sig = self.signatures[s].words();
            for (t, y) in window.col(s).enumerate() {
                let level = quantize_level(y, lo, span, grid);
                let slot = t % n;
                // The codeword retiring from the previous product (only
                // meaningful once the ring has wrapped, t ≥ n).
                let outgoing = scratch.ring[slot];
                scratch.ring[slot] = level;
                if t + 1 < n {
                    continue;
                }
                if n == 1 {
                    // Unigrams: the product *is* the codeword; bundle it
                    // with the signature folded in.
                    scratch.acc.absorb_bound(codebook[level].words(), sig);
                    continue;
                }
                if t + 1 == n {
                    // Seed the first product with a from-scratch fold:
                    // element at step t−j gets rotation ρ^j.
                    scratch.prod.copy_from_slice(codebook[level].words());
                    for j in 1..n {
                        rotate_words_into(
                            codebook[scratch.ring[(t - j) % n]].words(),
                            d,
                            j % d,
                            &mut scratch.rot,
                        );
                        xor_words(&mut scratch.prod, &scratch.rot);
                    }
                } else {
                    // Slide: P ← ρ(P ⊕ ρ^{n−1}(c_out)) ⊕ c_in.
                    xor_words(&mut scratch.prod, self.codebooks_rot[s][outgoing].words());
                    rotate_words_into(&scratch.prod, d, 1, &mut scratch.rot);
                    std::mem::swap(&mut scratch.prod, &mut scratch.rot);
                    xor_words(&mut scratch.prod, codebook[level].words());
                }
                scratch.acc.absorb_bound(&scratch.prod, sig);
            }
        }
        scratch.acc.counts_into(&mut scratch.counts);
        Ok(())
    }

    /// The pre-optimisation reference encoder: recomputes every n-gram
    /// product from scratch (`n−1` rotates + XORs per step) and bundles
    /// bit by bit. Kept as the ground truth the word-parallel path is
    /// property-tested against; serving code should never call it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`encode_counts_into`](Self::encode_counts_into).
    pub fn encode_counts_reference(&self, window: &Matrix) -> Result<Vec<i32>> {
        let t_total = self.check_window(window)?;
        let d = self.config.dim;
        let n = self.config.ngram;
        let grid = self.grid_levels();
        let mut acc = vec![0i32; d];
        let mut sensor_counts = vec![0i32; d];
        // Ring buffer of the last n level indices; scratch packed buffers
        // for the n-gram product and the rotated operand.
        let mut ring = vec![0usize; n];
        let mut prod = PackedHypervector::zeros(d);
        let mut rot = PackedHypervector::zeros(d);

        for (s, codebook) in self.codebooks.iter().enumerate() {
            let (lo, hi) = self.sensor_range(window, s);
            let span = hi - lo;
            sensor_counts.iter_mut().for_each(|c| *c = 0);
            for t in 0..t_total {
                ring[t % n] = quantize_level(window.get(t, s), lo, span, grid);
                if t + 1 >= n {
                    // n-gram ending at step t: element at step t-j gets
                    // rotation j (ρ^j), folded in by XOR binding.
                    prod.words_mut().copy_from_slice(codebook[ring[t % n]].words());
                    for j in 1..n {
                        codebook[ring[(t - j) % n]].rotate_into(j % d.max(1), &mut rot);
                        prod.xor_assign(&rot)?;
                    }
                    // Counter bundling: +1 for a +1 bit, −1 for a −1 bit.
                    accumulate_words(&mut sensor_counts, prod.words(), d);
                }
            }
            // Spatial integration: acc += G_s ∗ counts_s, where binding a
            // signed counter with a ±1 signature is sign multiplication.
            let signature = &self.signatures[s];
            for (w, &word) in signature.words().iter().enumerate() {
                let base = w * crate::hypervector::WORD_BITS;
                let bits = crate::hypervector::WORD_BITS.min(d - base);
                for b in 0..bits {
                    let sign = 1 - 2 * ((word >> b) & 1) as i32;
                    acc[base + b] += sign * sensor_counts[base + b];
                }
            }
        }
        Ok(acc)
    }

    /// Encodes one window into a packed hypervector by majority threshold
    /// (positive accumulator → `+1`, ties → `+1`), reusing caller-owned
    /// scratch and output buffers — the zero-allocation serving encode.
    ///
    /// `out` is resized (once) if its dimensionality disagrees.
    ///
    /// # Errors
    ///
    /// Same conditions as [`encode_counts_into`](Self::encode_counts_into).
    pub fn encode_window_into(
        &self,
        window: &Matrix,
        scratch: &mut EncoderScratch,
        out: &mut PackedHypervector,
    ) -> Result<()> {
        self.encode_counts_into(window, scratch)?;
        if out.dim() != self.config.dim {
            *out = PackedHypervector::zeros(self.config.dim);
        }
        let counts = &scratch.counts;
        out.fill_with(|i| counts[i] < 0);
        Ok(())
    }

    fn sensor_range(&self, window: &Matrix, sensor: usize) -> (f32, f32) {
        match &self.config.range {
            ValueRange::PerWindow => {
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for v in window.col(sensor) {
                    if v.is_finite() {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
                if !lo.is_finite() || !hi.is_finite() {
                    (0.0, 0.0)
                } else {
                    (lo, hi)
                }
            }
            ValueRange::Global(ranges) => ranges[sensor],
        }
    }
}

/// Snaps a raw sample onto the discretized `α` level grid (NaN and
/// zero-span windows land mid-grid, matching the dense encoder).
#[inline]
fn quantize_level(y: f32, lo: f32, span: f32, grid: usize) -> usize {
    let alpha = if span > 1e-12 { (y - lo) / span } else { 0.5 };
    let alpha = if alpha.is_finite() { alpha.clamp(0.0, 1.0) } else { 0.5 };
    ((alpha * (grid - 1) as f32).round() as usize).min(grid - 1)
}

/// `dst[w] ^= src[w]` — the word-level XOR bind over raw buffers.
#[inline]
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// `counts[i] += ±1` from packed sign bits (bit 1 ⇔ −1), bit by bit —
/// reference-path bundling only.
#[inline]
fn accumulate_words(counts: &mut [i32], words: &[u64], dim: usize) {
    for (w, &word) in words.iter().enumerate() {
        let base = w * crate::hypervector::WORD_BITS;
        let bits = crate::hypervector::WORD_BITS.min(dim - base);
        for b in 0..bits {
            counts[base + b] += 1 - 2 * ((word >> b) & 1) as i32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_hdc::memory::Quantization;

    fn test_config(dim: usize, sensors: usize) -> EncoderConfig {
        EncoderConfig { dim, sensors, ..EncoderConfig::default() }
    }

    fn sine_window(t_total: usize, sensors: usize, phase: f32) -> Matrix {
        Matrix::from_fn(t_total, sensors, |t, s| (t as f32 * 0.37 + s as f32 * 1.3 + phase).sin())
    }

    /// One window's counters through a fresh scratch.
    fn counts(enc: &PackedNgramEncoder, w: &Matrix) -> Result<Vec<i32>> {
        let mut scratch = EncoderScratch::new();
        enc.encode_counts_into(w, &mut scratch)?;
        Ok(scratch.counts().to_vec())
    }

    /// One window's majority-thresholded hypervector through fresh buffers.
    fn encode(enc: &PackedNgramEncoder, w: &Matrix) -> Result<PackedHypervector> {
        let mut out = PackedHypervector::zeros(enc.dim());
        enc.encode_window_into(w, &mut EncoderScratch::new(), &mut out)?;
        Ok(out)
    }

    #[test]
    fn construction_mirrors_dense_validation() {
        assert!(PackedNgramEncoder::new(test_config(0, 1)).is_err());
        assert!(PackedNgramEncoder::new(test_config(64, 0)).is_err());
        let enc = PackedNgramEncoder::new(test_config(256, 2)).unwrap();
        assert_eq!(enc.dim(), 256);
        assert_eq!(enc.config().sensors, 2);
        assert_eq!(enc.grid_levels(), enc.config().levels);
        assert!(enc.storage_bytes() > 0);
    }

    #[test]
    fn encode_validates_window_shape() {
        let enc = PackedNgramEncoder::new(test_config(128, 2)).unwrap();
        let mut scratch = EncoderScratch::new();
        assert!(enc.encode_counts_into(&sine_window(10, 3, 0.0), &mut scratch).is_err());
        assert!(enc.encode_counts_into(&sine_window(2, 2, 0.0), &mut scratch).is_err());
        assert!(encode(&enc, &sine_window(10, 3, 0.0)).is_err());
    }

    #[test]
    fn packed_signs_match_dense_encoding_with_levelflip() {
        // Under LevelFlip quantisation the dense encoder reads the same
        // discrete codewords as the packed one, so the packed counters must
        // reproduce the dense accumulator signs *exactly*.
        let mut cfg = test_config(512, 2);
        cfg.quantization = Quantization::LevelFlip;
        cfg.normalize = false;
        let dense = MultiSensorEncoder::new(cfg).unwrap();
        let packed = PackedNgramEncoder::from_dense(&dense).unwrap();
        let w = sine_window(24, 2, 0.3);
        let dense_hv = dense.encode_window(&w).unwrap();
        let packed_counts = counts(&packed, &w).unwrap();
        for (i, (&dv, &c)) in dense_hv.as_slice().iter().zip(&packed_counts).enumerate() {
            assert_eq!(dv, c as f32, "accumulator mismatch at dim {i}");
        }
    }

    #[test]
    fn packed_signs_track_dense_encoding_with_interpolate() {
        // Continuous α snaps to the 64-level grid, so a small fraction of
        // dims may disagree — but the overwhelming majority must match.
        let cfg = test_config(2048, 2);
        let dense = MultiSensorEncoder::new(cfg).unwrap();
        let packed = PackedNgramEncoder::from_dense(&dense).unwrap();
        let w = sine_window(30, 2, 0.0);
        let dense_hv = dense.encode_window(&w).unwrap();
        let packed_hv = encode(&packed, &w).unwrap();
        let dense_signs = PackedHypervector::from_dense(&dense_hv);
        let agreement = 1.0 - dense_signs.hamming(&packed_hv).unwrap() as f32 / 2048.0;
        assert!(agreement > 0.9, "sign agreement {agreement} too low");
    }

    #[test]
    fn sliding_swar_path_matches_reference_recompute() {
        // The word-parallel serving path and the retained reference path
        // must agree bit-exactly: same counters, every configuration.
        for (dim, sensors, ngram) in
            [(512, 2, 3), (192, 1, 1), (70, 2, 2), (130, 3, 5), (64, 1, 4), (256, 2, 6)]
        {
            let mut cfg = test_config(dim, sensors);
            cfg.ngram = ngram;
            let enc = PackedNgramEncoder::new(cfg).unwrap();
            let w = sine_window(ngram + 17, sensors, 0.2);
            assert_eq!(
                counts(&enc, &w).unwrap(),
                enc.encode_counts_reference(&w).unwrap(),
                "dim {dim}, sensors {sensors}, ngram {ngram}"
            );
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_encodes() {
        // One scratch across many windows — and across encoders of
        // different shapes — produces the same hypervectors as fresh
        // allocations.
        let enc_a = PackedNgramEncoder::new(test_config(256, 2)).unwrap();
        let enc_b = PackedNgramEncoder::new(test_config(192, 1)).unwrap();
        let mut scratch = EncoderScratch::new();
        let mut out_a = PackedHypervector::zeros(256);
        let mut out_b = PackedHypervector::zeros(1);
        for i in 0..5 {
            let wa = sine_window(20, 2, i as f32 * 0.4);
            enc_a.encode_window_into(&wa, &mut scratch, &mut out_a).unwrap();
            assert_eq!(out_a, encode(&enc_a, &wa).unwrap(), "window {i}");
            let wb = sine_window(12, 1, i as f32 * 0.7);
            enc_b.encode_window_into(&wb, &mut scratch, &mut out_b).unwrap();
            assert_eq!(out_b, encode(&enc_b, &wb).unwrap(), "window {i}");
            assert_eq!(out_b.dim(), 192, "output resized to the encoder's dim");
        }
        assert_eq!(scratch.counts().len(), 192);
    }

    #[test]
    fn encoding_is_deterministic_and_seed_sensitive() {
        let a = PackedNgramEncoder::new(test_config(256, 1)).unwrap();
        let b = PackedNgramEncoder::new(test_config(256, 1)).unwrap();
        let w = sine_window(12, 1, 0.5);
        assert_eq!(encode(&a, &w).unwrap(), encode(&b, &w).unwrap());
        let mut cfg = test_config(256, 1);
        cfg.seed = 999;
        let c = PackedNgramEncoder::new(cfg).unwrap();
        assert_ne!(encode(&a, &w).unwrap(), encode(&c, &w).unwrap());
    }

    #[test]
    fn similar_windows_encode_closer_than_distinct_ones() {
        let enc = PackedNgramEncoder::new(test_config(4096, 2)).unwrap();
        let h = encode(&enc, &sine_window(30, 2, 0.0)).unwrap();
        let h_close = encode(&enc, &sine_window(30, 2, 0.02)).unwrap();
        let far = Matrix::from_fn(30, 2, |t, s| if (t / 3 + s) % 2 == 0 { 1.0 } else { -1.0 });
        let h_far = encode(&enc, &far).unwrap();
        let sim_close = h.similarity(&h_close).unwrap();
        let sim_far = h.similarity(&h_far).unwrap();
        assert!(sim_close > sim_far + 0.1, "close={sim_close}, far={sim_far}");
    }

    #[test]
    fn nan_and_constant_windows_encode_finitely() {
        let enc = PackedNgramEncoder::new(test_config(256, 1)).unwrap();
        let mut w = sine_window(10, 1, 0.0);
        w.set(4, 0, f32::NAN);
        encode(&enc, &w).unwrap();
        let constant = Matrix::filled(10, 1, 3.5);
        encode(&enc, &constant).unwrap();
    }

    #[test]
    fn global_range_mode_is_respected() {
        let mut cfg = test_config(512, 1);
        cfg.range = ValueRange::Global(vec![(-1.0, 1.0)]);
        let enc = PackedNgramEncoder::new(cfg).unwrap();
        let small = Matrix::from_fn(12, 1, |t, _| 0.1 * (t as f32 * 0.5).sin());
        let large = Matrix::from_fn(12, 1, |t, _| 0.9 * (t as f32 * 0.5).sin());
        let hs = encode(&enc, &small).unwrap();
        let hl = encode(&enc, &large).unwrap();
        assert!(hs.similarity(&hl).unwrap() < 0.995, "amplitude must matter under global range");
    }
}
