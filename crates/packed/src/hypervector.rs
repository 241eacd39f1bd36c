//! Bit-packed binary hypervectors: one `u64` word carries 64 dimensions.
//!
//! A [`PackedHypervector`] is the sign quantization of a dense bipolar
//! hypervector. The bit convention is **bit = 1 ⇔ −1, bit = 0 ⇔ +1**, so
//! element-wise multiplication of signs (binding) becomes XOR — the parity
//! of negative factors — and the dot product of two sign vectors follows
//! from the Hamming distance `h` as `d − 2h`. Relative to the dense `f32`
//! representation this is a 32× memory reduction, and similarity drops from
//! `3d` floating-point operations to `d/64` XOR+popcount word operations.

// smore-lint: allow-file(panic_path) word indices are all bounded by words_for(dim); the kernels are property-tested bit-for-bit against dense arithmetic

use smore_hdc::{HdcError, Hypervector};

use crate::Result;

/// Dimensions carried per storage word.
pub(crate) const WORD_BITS: usize = 64;

/// Number of `u64` words needed for `dim` dimensions.
#[inline]
pub fn words_for(dim: usize) -> usize {
    dim.div_ceil(WORD_BITS)
}

/// A sign-quantized hypervector stored as packed bits (64 dims per word).
///
/// Unused padding bits in the final word are always zero, which every
/// operation preserves; Hamming distances therefore never count padding.
///
/// # Example
///
/// ```
/// use smore_packed::PackedHypervector;
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let a = PackedHypervector::from_signs(&[1.0, -1.0, 1.0, 1.0]);
/// let b = PackedHypervector::from_signs(&[-1.0, -1.0, 1.0, -1.0]);
/// assert_eq!(a.hamming(&b)?, 2);
/// // Binding is XOR and self-inverse: (a ⊕ b) ⊕ a = b.
/// let mut bound = a.clone();
/// bound.xor_assign(&b)?;
/// bound.xor_assign(&a)?;
/// assert_eq!(bound, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedHypervector {
    words: Vec<u64>,
    dim: usize,
}

impl PackedHypervector {
    /// The all-`+1` hypervector (every bit zero) of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self { words: vec![0u64; words_for(dim)], dim }
    }

    /// Sign-quantizes a dense slice: strictly negative values set the bit
    /// (−1), everything else — positive, zero and non-finite — clears it
    /// (+1).
    pub fn from_signs(values: &[f32]) -> Self {
        let mut out = Self::zeros(values.len());
        for (i, &v) in values.iter().enumerate() {
            if v < 0.0 {
                out.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
            }
        }
        out
    }

    /// Sign-quantizes a dense [`Hypervector`].
    pub fn from_dense(hv: &Hypervector) -> Self {
        Self::from_signs(hv.as_slice())
    }

    /// Reconstructs a packed hypervector from its raw storage words — the
    /// artifact-load path, the inverse of [`words`](Self::words).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when the word count does not
    /// match `dim` or the final word violates the zero-padding invariant
    /// (both indicate corrupted or foreign bytes, not a usable vector).
    pub fn from_words(dim: usize, words: Vec<u64>) -> Result<Self> {
        if words.len() != words_for(dim) {
            return Err(HdcError::InvalidConfig {
                what: format!(
                    "{} storage words cannot carry {dim} dimensions (need {})",
                    words.len(),
                    words_for(dim)
                ),
            });
        }
        let tail_bits = dim % WORD_BITS;
        if tail_bits != 0 && words[words.len() - 1] >> tail_bits != 0 {
            return Err(HdcError::InvalidConfig {
                what: format!("padding bits beyond dimension {dim} must be zero"),
            });
        }
        Ok(Self { words, dim })
    }

    /// Expands back to a dense bipolar hypervector (`bit → ∓1`).
    pub fn to_dense(&self) -> Hypervector {
        Hypervector::from_vec((0..self.dim).map(|i| if self.get(i) { -1.0 } else { 1.0 }).collect())
    }

    /// Dimensionality (bits in use, not storage capacity).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed storage words (LSB-first within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable storage words — crate-internal so the zero-padding invariant
    /// of the final word cannot be violated from outside.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Bytes of storage held by the packed representation.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Reads bit `i` (`true` ⇔ −1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.dim, "bit {i} out of range for dim {}", self.dim);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Overwrites every bit from a per-dimension predicate (`true` ⇔ −1),
    /// building each storage word in a register before one store — the
    /// allocation-free way to re-threshold an existing hypervector (e.g.
    /// from an accumulator's counters). Padding bits stay zero.
    pub fn fill_with(&mut self, mut neg: impl FnMut(usize) -> bool) {
        let dim = self.dim;
        for (w, word) in self.words.iter_mut().enumerate() {
            let base = w * WORD_BITS;
            let bits = WORD_BITS.min(dim - base);
            let mut acc = 0u64;
            for b in 0..bits {
                acc |= u64::from(neg(base + b)) << b;
            }
            *word = acc;
        }
    }

    /// Binding in place, `self ⊕= other`: element-wise sign multiplication
    /// is word-wise XOR.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn xor_assign(&mut self, other: &Self) -> Result<()> {
        self.check_dim(other)?;
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        Ok(())
    }

    /// Hamming distance: number of disagreeing dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    #[inline]
    pub fn hamming(&self, other: &Self) -> Result<usize> {
        self.check_dim(other)?;
        Ok(self.words.iter().zip(&other.words).map(|(&a, &b)| (a ^ b).count_ones() as usize).sum())
    }

    /// Dot product of the underlying sign vectors: `d − 2·hamming`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    #[inline]
    pub fn dot(&self, other: &Self) -> Result<i64> {
        Ok(self.dim as i64 - 2 * self.hamming(other)? as i64)
    }

    /// Cosine-equivalent similarity `1 − 2h/d ∈ [−1, 1]`.
    ///
    /// For sign vectors (equal norm `√d`) this *is* their exact cosine, so
    /// packed similarities obey the same contract as
    /// [`Hypervector::cosine`]. Zero-dimensional inputs return `0.0` (the
    /// neutral value, matching the dense convention for zero vectors).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    #[inline]
    pub fn similarity(&self, other: &Self) -> Result<f32> {
        self.check_dim(other)?;
        if self.dim == 0 {
            return Ok(0.0);
        }
        Ok(1.0 - 2.0 * self.hamming(other)? as f32 / self.dim as f32)
    }

    /// Permutation `ρ^k`: circular shift of the `d`-bit ring so that bit
    /// `i` moves to `(i + k) mod d` — the exact analog of
    /// [`Hypervector::permute`] (the value of the final dimension moves to
    /// the first position for `k = 1`).
    pub fn rotate(&self, k: usize) -> Self {
        let mut out = Self::zeros(self.dim);
        self.rotate_into(k, &mut out);
        out
    }

    /// [`rotate`](Self::rotate) into an existing buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.dim() != self.dim()`.
    pub fn rotate_into(&self, k: usize, out: &mut Self) {
        assert_eq!(out.dim, self.dim, "rotate_into: dimension mismatch");
        rotate_words_into(&self.words, self.dim, k, &mut out.words);
    }

    fn check_dim(&self, other: &Self) -> Result<()> {
        if self.dim != other.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: other.dim });
        }
        Ok(())
    }
}

/// Rotates the `dim`-bit ring held in `src` by `k` positions into `out`
/// (bit `i` moves to `(i + k) mod dim`), preserving the zero-padding
/// invariant of the final word. Operates on raw word buffers so encoder
/// scratch space can rotate without materialising [`PackedHypervector`]s.
///
/// # Panics
///
/// Panics if `src` and `out` are not both `words_for(dim)` long.
pub(crate) fn rotate_words_into(src: &[u64], dim: usize, k: usize, out: &mut [u64]) {
    assert_eq!(src.len(), words_for(dim), "rotate_words_into: bad source length");
    assert_eq!(out.len(), src.len(), "rotate_words_into: bad output length");
    if dim == 0 {
        return;
    }
    let k = k % dim;
    if k == 0 {
        out.copy_from_slice(src);
        return;
    }
    if dim.is_multiple_of(WORD_BITS) {
        let nw = src.len();
        let wshift = k / WORD_BITS;
        let bshift = k % WORD_BITS;
        if wshift == 0 {
            // Sub-word rotation (the sliding-bind hot case, k = 1): each
            // output word is its own word shifted up, topped up from the
            // previous word — no index arithmetic in the loop.
            let mut prev = src[nw - 1];
            for (o, &cur) in out.iter_mut().zip(src) {
                *o = (cur << bshift) | (prev >> (WORD_BITS - bshift));
                prev = cur;
            }
        } else {
            // Word-rotate fast path: output word w takes its high bits from
            // source word (w − k/64) and its low bits from the word before.
            for (w, o) in out.iter_mut().enumerate() {
                let hi = src[(w + nw - wshift) % nw];
                *o = if bshift == 0 {
                    hi
                } else {
                    let lo = src[(w + nw - wshift - 1) % nw];
                    (hi << bshift) | (lo >> (WORD_BITS - bshift))
                };
            }
        }
    } else {
        // Ragged dimensions: bit-by-bit fallback (correctness over
        // speed; every production dimensionality is word-aligned).
        out.iter_mut().for_each(|w| *w = 0);
        for i in 0..dim {
            if (src[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1 {
                let j = (i + k) % dim;
                out[j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
            }
        }
    }
}

/// Bit-plane counters per position: `planes[w * CSA_PLANES + j]` holds bit
/// `j` of the running 1-bit count for every dimension in word `w`. Eight
/// planes absorb up to `2^8 − 1` words between flushes.
const CSA_PLANES: usize = 8;

/// Words absorbable before the plane counters would overflow.
const CSA_CAPACITY: u32 = (1 << CSA_PLANES) - 1;

/// Word-parallel (SWAR) majority bundling through a carry-save-adder plane
/// stack.
///
/// The per-dimension count of absorbed 1-bits is kept *bit-sliced* across
/// eight planes: absorbing a word is a binary increment of 64 independent
/// counters at once (`XOR` for the sum bit, `AND` for the carry). The
/// planes hold up to 255 absorbs; at that capacity, and in
/// [`counts_into`](Self::counts_into), they are folded into ordinary `i32`
/// totals, so arbitrarily many vectors can be bundled.
///
/// Counter convention: a `+1` bit (0) contributes `+1` and a `−1` bit (1)
/// contributes `−1`, so thresholding the counters at zero (ties → `+1`)
/// yields the majority sign.
///
/// # Example
///
/// ```
/// use smore_packed::{BitSliceAccumulator, PackedHypervector};
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let a = PackedHypervector::from_signs(&[1.0, 1.0, -1.0]);
/// let b = PackedHypervector::from_signs(&[1.0, -1.0, -1.0]);
/// let mut swar = BitSliceAccumulator::new(3);
/// let mut per_bit = vec![0i32; 3];
/// for hv in [&a, &b] {
///     swar.absorb(hv)?;
///     for (i, c) in per_bit.iter_mut().enumerate() {
///         *c += if hv.get(i) { -1 } else { 1 };
///     }
/// }
/// let mut counts = vec![0i32; 3];
/// swar.counts_into(&mut counts);
/// assert_eq!(counts, per_bit);
/// assert_eq!(counts, [2, 0, -2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSliceAccumulator {
    /// Word-major plane stack: `CSA_PLANES` counter bits per storage word.
    planes: Vec<u64>,
    /// Flushed per-dimension totals of absorbed 1-bits.
    ones: Vec<i32>,
    /// Words absorbed since the last flush (bounded by [`CSA_CAPACITY`]).
    pending: u32,
    /// Total words absorbed since the last reset.
    absorbed: i32,
    dim: usize,
}

impl BitSliceAccumulator {
    /// A zeroed accumulator of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            planes: vec![0u64; words_for(dim) * CSA_PLANES],
            ones: vec![0i32; dim],
            pending: 0,
            absorbed: 0,
            dim,
        }
    }

    /// Dimensionality of the accumulator.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Clears all state for reuse without reallocating.
    pub fn reset(&mut self) {
        self.planes.iter_mut().for_each(|w| *w = 0);
        self.ones.iter_mut().for_each(|c| *c = 0);
        self.pending = 0;
        self.absorbed = 0;
    }

    /// Absorbs one packed hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when dimensions differ.
    pub fn absorb(&mut self, hv: &PackedHypervector) -> Result<()> {
        if hv.dim() != self.dim {
            return Err(HdcError::DimensionMismatch { expected: self.dim, actual: hv.dim() });
        }
        self.absorb_stream(hv.words().iter().copied());
        Ok(())
    }

    /// Absorbs the *binding* `a ⊕ b` of two word buffers without
    /// materialising it — the fused signature-integration primitive: binding
    /// a ±1 bundle element with a ±1 signature is a per-dimension sign
    /// flip, i.e. one XOR folded into the bundling read.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not both `words_for(dim)` long.
    pub fn absorb_bound(&mut self, a: &[u64], b: &[u64]) {
        let nw = words_for(self.dim);
        assert_eq!(a.len(), nw, "absorb_bound: bad operand length");
        assert_eq!(b.len(), nw, "absorb_bound: bad operand length");
        self.absorb_stream(a.iter().zip(b).map(|(&x, &y)| x ^ y));
    }

    /// The shared absorb core: one binary increment of 64 bit-sliced
    /// counters per word — XOR is the sum bit, AND the carry into the next
    /// plane.
    fn absorb_stream(&mut self, words: impl Iterator<Item = u64>) {
        if self.pending == CSA_CAPACITY {
            self.flush();
        }
        for (w, word) in words.enumerate() {
            let mut carry = word;
            let base = w * CSA_PLANES;
            let mut j = 0usize;
            while carry != 0 {
                debug_assert!(j < CSA_PLANES, "plane overflow despite capacity flush");
                let slot = &mut self.planes[base + j];
                let next = *slot & carry;
                *slot ^= carry;
                carry = next;
                j += 1;
            }
        }
        self.pending += 1;
        self.absorbed += 1;
    }

    /// Folds the pending plane counters into the integer `ones` totals and
    /// zeroes the planes. Called at capacity and by
    /// [`counts_into`](Self::counts_into).
    fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        // Only planes that can be non-zero for `pending` absorbed words.
        let used = (u32::BITS - self.pending.leading_zeros()) as usize;
        let nw = words_for(self.dim);
        for w in 0..nw {
            let base_bit = w * WORD_BITS;
            for (j, plane) in
                self.planes[w * CSA_PLANES..w * CSA_PLANES + used].iter_mut().enumerate()
            {
                let mut word = *plane;
                *plane = 0;
                let weight = 1i32 << j;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    self.ones[base_bit + b] += weight;
                    word &= word - 1;
                }
            }
        }
        self.pending = 0;
    }

    /// Writes the signed majority counters (`absorbed − 2·ones`, one per
    /// dimension) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim`.
    pub fn counts_into(&mut self, out: &mut [i32]) {
        assert_eq!(out.len(), self.dim, "counts_into: bad output length");
        self.flush();
        for (o, &ones) in out.iter_mut().zip(&self.ones) {
            *o = self.absorbed - 2 * ones;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_tensor::init;

    fn random_packed(seed: u64, dim: usize) -> PackedHypervector {
        PackedHypervector::from_signs(&init::bipolar_vec(&mut init::rng(seed), dim))
    }

    /// `a ⊕ b` through the in-place binding.
    fn bind(a: &PackedHypervector, b: &PackedHypervector) -> PackedHypervector {
        let mut out = a.clone();
        out.xor_assign(b).unwrap();
        out
    }

    /// The per-bit reference for [`BitSliceAccumulator`]: one counter per
    /// dimension, `+1` for every clear bit and `−1` for every set bit.
    fn per_bit_counts<'a>(
        dim: usize,
        hvs: impl IntoIterator<Item = &'a PackedHypervector>,
    ) -> Vec<i32> {
        let mut counts = vec![0i32; dim];
        for hv in hvs {
            for (i, c) in counts.iter_mut().enumerate() {
                *c += if hv.get(i) { -1 } else { 1 };
            }
        }
        counts
    }

    /// Reads the accumulator's counters into a fresh buffer.
    fn counts_of(acc: &mut BitSliceAccumulator) -> Vec<i32> {
        let mut counts = vec![0i32; acc.dim()];
        acc.counts_into(&mut counts);
        counts
    }

    /// Majority threshold as the encoder applies it: negative → −1, ties
    /// and positives → +1.
    fn majority(counts: &[i32]) -> PackedHypervector {
        let mut out = PackedHypervector::zeros(counts.len());
        out.fill_with(|i| counts[i] < 0);
        out
    }

    #[test]
    fn round_trip_preserves_signs() {
        let dense = init::normal_vec(&mut init::rng(1), 300);
        let packed = PackedHypervector::from_signs(&dense);
        let back = packed.to_dense();
        for (i, (&v, &b)) in dense.iter().zip(back.as_slice()).enumerate() {
            if v < 0.0 {
                assert_eq!(b, -1.0, "dim {i}");
            } else {
                assert_eq!(b, 1.0, "dim {i}");
            }
        }
    }

    #[test]
    fn padding_bits_stay_zero() {
        // 70 dims → 2 words, 58 padding bits in the second word.
        let a = random_packed(2, 70);
        let b = random_packed(3, 70);
        let bound = bind(&a, &b);
        assert_eq!(bound.words()[1] >> 6, 0, "padding must stay clear");
        assert!(bound.hamming(&a).unwrap() <= 70);
    }

    #[test]
    fn xor_bind_is_self_inverse_and_commutative() {
        let a = random_packed(4, 512);
        let b = random_packed(5, 512);
        let ab = bind(&a, &b);
        assert_eq!(ab, bind(&b, &a));
        assert_eq!(bind(&ab, &a), b);
        assert_eq!(bind(&ab, &b), a);
    }

    #[test]
    fn similarity_matches_dense_cosine_of_signs() {
        let a = random_packed(6, 4096);
        let b = random_packed(7, 4096);
        let dense_sim = a.to_dense().cosine(&b.to_dense()).unwrap();
        let packed_sim = a.similarity(&b).unwrap();
        assert!((dense_sim - packed_sim).abs() < 1e-5);
        assert_eq!(a.similarity(&a).unwrap(), 1.0);
        assert_eq!(a.dot(&a).unwrap(), 4096);
    }

    #[test]
    fn rotate_matches_dense_permute() {
        for dim in [64usize, 128, 192, 70, 5] {
            let a = random_packed(8, dim);
            for k in [0usize, 1, 3, 63, 64, 65, dim - 1, dim, dim + 2] {
                let packed_rot = a.rotate(k);
                let dense_rot = PackedHypervector::from_dense(&a.to_dense().permute(k));
                assert_eq!(packed_rot, dense_rot, "dim {dim}, k {k}");
                assert_eq!(packed_rot.rotate(dim - k % dim), a, "dim {dim}, k {k} inverse");
            }
        }
    }

    #[test]
    fn rotate_into_avoids_allocation_and_matches() {
        let a = random_packed(9, 256);
        let mut out = PackedHypervector::zeros(256);
        a.rotate_into(5, &mut out);
        assert_eq!(out, a.rotate(5));
        a.rotate_into(0, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn rotate_is_near_orthogonal_for_random_vectors() {
        let a = random_packed(10, 4096);
        let sim = a.rotate(1).similarity(&a).unwrap();
        assert!(sim.abs() < 0.1, "ρH should be nearly orthogonal to H, got {sim}");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = PackedHypervector::zeros(64);
        let b = PackedHypervector::zeros(128);
        assert!(matches!(
            a.clone().xor_assign(&b),
            Err(HdcError::DimensionMismatch { expected: 64, actual: 128 })
        ));
        assert!(a.hamming(&b).is_err());
        assert!(a.similarity(&b).is_err());
        let mut acc = BitSliceAccumulator::new(64);
        assert!(matches!(
            acc.absorb(&b),
            Err(HdcError::DimensionMismatch { expected: 64, actual: 128 })
        ));
    }

    #[test]
    fn majority_bundle_is_similar_to_members() {
        let a = random_packed(11, 4096);
        let b = random_packed(12, 4096);
        let c = random_packed(13, 4096);
        let outsider = random_packed(14, 4096);
        let mut acc = BitSliceAccumulator::new(4096);
        for hv in [&a, &b, &c] {
            acc.absorb(hv).unwrap();
        }
        let bundle = majority(&counts_of(&mut acc));
        for hv in [&a, &b, &c] {
            assert!(bundle.similarity(hv).unwrap() > 0.3);
        }
        assert!(bundle.similarity(&outsider).unwrap().abs() < 0.1);
    }

    #[test]
    fn ties_resolve_to_plus_one() {
        // A vector and its negation cancel in every dimension: every
        // counter is exactly zero, and the zero threshold maps it to +1.
        let dim = 70;
        let a = random_packed(15, dim);
        let mut all_negative = PackedHypervector::zeros(dim);
        all_negative.fill_with(|_| true);
        let mut acc = BitSliceAccumulator::new(dim);
        acc.absorb(&a).unwrap();
        acc.absorb(&bind(&a, &all_negative)).unwrap();
        let counts = counts_of(&mut acc);
        assert!(counts.iter().all(|&c| c == 0), "{counts:?}");
        assert_eq!(majority(&counts), PackedHypervector::zeros(dim));
    }

    #[test]
    fn bit_accessors_and_storage() {
        let mut a = PackedHypervector::zeros(70);
        a.fill_with(|i| i == 69);
        assert!(a.get(69));
        assert!(!a.get(0));
        assert_eq!(a.words(), [0, 1 << 5]);
        assert_eq!(a.storage_bytes(), 16);
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert!(PackedHypervector::zeros(0).words().is_empty());
    }

    #[test]
    fn bit_slice_accumulator_matches_per_bit_counts() {
        for dim in [64usize, 256, 70, 5, 192] {
            let hvs: Vec<PackedHypervector> =
                (0..10).map(|seed| random_packed(seed, dim)).collect();
            let mut swar = BitSliceAccumulator::new(dim);
            for hv in &hvs {
                swar.absorb(hv).unwrap();
            }
            assert_eq!(counts_of(&mut swar), per_bit_counts(dim, &hvs), "dim {dim}");
        }
    }

    #[test]
    fn bit_slice_accumulator_flushes_past_capacity() {
        // 600 absorbs force two automatic capacity flushes (capacity 255).
        let dim = 128;
        let hvs: Vec<PackedHypervector> = (0..600).map(|seed| random_packed(seed, dim)).collect();
        let mut swar = BitSliceAccumulator::new(dim);
        for hv in &hvs {
            swar.absorb(hv).unwrap();
        }
        assert_eq!(counts_of(&mut swar), per_bit_counts(dim, &hvs));
    }

    #[test]
    fn bit_slice_accumulator_bound_absorb_folds_signature() {
        let dim = 256;
        let a = random_packed(30, dim);
        let sig = random_packed(31, dim);
        let mut swar = BitSliceAccumulator::new(dim);
        swar.absorb_bound(a.words(), sig.words());
        assert_eq!(counts_of(&mut swar), per_bit_counts(dim, [&bind(&a, &sig)]));
    }

    #[test]
    fn bit_slice_accumulator_reset_reuses_storage() {
        let dim = 192;
        let mut swar = BitSliceAccumulator::new(dim);
        swar.absorb(&random_packed(40, dim)).unwrap();
        swar.reset();
        assert_eq!(swar.dim(), dim);
        let mut counts = vec![1i32; dim];
        swar.counts_into(&mut counts);
        assert!(counts.iter().all(|&c| c == 0), "reset clears all counters");
        // After a reset the accumulator counts like a fresh one.
        let hv = random_packed(42, dim);
        swar.absorb(&hv).unwrap();
        assert_eq!(counts_of(&mut swar), per_bit_counts(dim, [&hv]));
        assert!(swar.absorb(&random_packed(41, 64)).is_err(), "dim mismatch still reported");
    }

    #[test]
    fn fill_with_packs_words_and_preserves_padding() {
        let mut a = PackedHypervector::zeros(70);
        a.fill_with(|i| i % 3 == 0);
        for i in 0..70 {
            assert_eq!(a.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(a.words()[1] >> 6, 0, "padding must stay clear");
        a.fill_with(|_| false);
        assert_eq!(a, PackedHypervector::zeros(70));
    }

    #[test]
    fn empty_vectors_are_neutral() {
        let a = PackedHypervector::zeros(0);
        assert_eq!(a.similarity(&a).unwrap(), 0.0);
        assert_eq!(a.rotate(3), a);
        assert_eq!(a.to_dense().dim(), 0);
    }
}
