//! Item, level and signature memories: the seeded random codebooks of HDC.
//!
//! An HDC encoder is defined by the random hypervectors it assigns to the
//! atomic entities of its input space. This module provides three such
//! codebooks, all deterministic in their construction seed:
//!
//! - [`ItemMemory`] — one random bipolar hypervector per discrete symbol.
//! - [`LevelMemory`] — the vector-quantisation codebook of the paper's §3.3:
//!   hypervectors for continuous values between a minimum and maximum,
//!   with a spectrum of similarity between the `H_min` and `H_max` anchors.
//! - [`SignatureMemory`] — one random signature hypervector `G_i` per
//!   sensor, used to spatially integrate multi-sensor data (§3.3).

use rand::Rng;
use smore_tensor::init;

use crate::{HdcError, Hypervector, Result};

/// A codebook of random bipolar hypervectors for discrete symbols.
///
/// # Example
///
/// ```
/// use smore_hdc::memory::ItemMemory;
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let memory = ItemMemory::new(16, 1024, 42)?;
/// let a = memory.item(0)?;
/// let b = memory.item(1)?;
/// assert!(a.cosine(b)?.abs() < 0.2, "distinct items are nearly orthogonal");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ItemMemory {
    items: Vec<Hypervector>,
    dim: usize,
}

impl ItemMemory {
    /// Creates a memory of `count` random bipolar hypervectors of size `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `count` or `dim` is zero.
    pub fn new(count: usize, dim: usize, seed: u64) -> Result<Self> {
        if count == 0 || dim == 0 {
            return Err(HdcError::InvalidConfig {
                what: format!(
                    "ItemMemory requires count > 0 and dim > 0 (got count={count}, dim={dim})"
                ),
            });
        }
        let mut rng = init::rng(seed);
        let items =
            (0..count).map(|_| Hypervector::from_vec(init::bipolar_vec(&mut rng, dim))).collect();
        Ok(Self { items, dim })
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the memory is empty (never true for a constructed memory).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Dimensionality of the stored hypervectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the hypervector for symbol `index`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] when `index` exceeds the count.
    pub fn item(&self, index: usize) -> Result<&Hypervector> {
        self.items
            .get(index)
            .ok_or(HdcError::LabelOutOfRange { label: index, num_classes: self.items.len() })
    }

    /// Regenerates the given dimensions of every item with fresh random bits.
    ///
    /// This is the primitive DOMINO uses to discard and regenerate
    /// domain-variant dimensions. Dimensions outside the valid range are
    /// ignored.
    pub fn regenerate_dims(&mut self, dims: &[usize], seed: u64) {
        let mut rng = init::rng(seed);
        for &d in dims {
            if d >= self.dim {
                continue;
            }
            for item in &mut self.items {
                item.as_mut_slice()[d] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            }
        }
    }
}

/// Quantisation strategy for continuous signal values (paper §3.3).
///
/// Both modes pick, one dimension at a time, `H_max[d]` or `H_min[d]` with
/// the same per-dimension thresholds; they differ only in the `α` the
/// select runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quantization {
    /// Paper-literal vector quantisation: the hypervector for a value sits
    /// on the similarity spectrum between the `H_min` and `H_max` anchors.
    /// Each dimension `d` carries a fixed random threshold `u_d ∈ (0, 1)`;
    /// `H(α)[d]` takes `H_max[d]` when `α ≥ u_d` and `H_min[d]` otherwise,
    /// so codes stay bipolar (binding-safe) while the expected similarity to
    /// `H_min` decays linearly in `α = (y − y_min)/(y_max − y_min)`. This is
    /// the continuum limit of the level ladder (one level per dimension).
    ///
    /// A naive arithmetic lerp `H_min + α (H_max − H_min)` would zero the
    /// disagreeing dimensions near `α = 0.5` and collapse every n-gram
    /// product that touches a mid-range sample — bipolar thresholding is
    /// what keeps the temporal binding informative.
    #[default]
    Interpolate,
    /// Thermometer-style level encoding: `levels` discrete codewords where
    /// level `i+1` is derived from level `i` by flipping a fixed fraction of
    /// positions toward `H_max`, giving gradually decaying similarity and a
    /// full-rank codebook. Used by the encoding-mode ablation.
    ///
    /// `α` snaps to the nearest level `l` of `L`, and level `l` takes
    /// `H_max` on the `cut = ⌊l·dim/(L−1)⌋` dimensions of lowest threshold
    /// and `H_min` on the rest. No codeword is stored: the select runs at
    /// the threshold of the last dimension the level flips, which picks
    /// exactly those `cut` dimensions while thresholds are distinct, that
    /// is for `dim ≤ 2^23`.
    LevelFlip,
}

/// The vector-quantisation codebook between a pair of random anchors.
///
/// Maps a normalised value `α ∈ [0, 1]` to a hypervector whose similarity to
/// the `H_min`/`H_max` anchors follows the spectrum the paper describes.
/// Values outside `[0, 1]` are clamped. The memory holds only the two
/// anchors and one threshold per dimension; every codeword of either
/// [`Quantization`] mode is a per-dimension select between the anchors.
///
/// # Example
///
/// ```
/// use smore_hdc::memory::{LevelMemory, Quantization};
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let memory = LevelMemory::new(2048, 32, Quantization::Interpolate, 7)?;
/// let low = memory.encode(0.0);
/// let mid = memory.encode(0.5);
/// let high = memory.encode(1.0);
/// // similarity decays smoothly from H_min to H_max
/// assert!(low.cosine(&mid)? > low.cosine(&high)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMemory {
    h_min: Hypervector,
    h_max: Hypervector,
    /// Per-dimension flip threshold `u_d ∈ (0, 1)`: dimension `d` reads
    /// from `H_max` once the select's `α ≥ u_d`. The dimension at rank `r`
    /// of a seeded permutation has `u_d = (r + 0.5) / dim`.
    thresholds: Vec<f32>,
    /// Codewords on the `LevelFlip` grid.
    levels: usize,
    mode: Quantization,
    dim: usize,
}

impl LevelMemory {
    /// Creates a level memory of dimension `dim`.
    ///
    /// `levels` is the number of [`Quantization::LevelFlip`] codewords, the
    /// first `H_min` and the last `H_max`. [`Quantization::Interpolate`] is
    /// continuous and ignores it. Neither mode stores a codeword, so the
    /// memory costs two anchors and `dim` thresholds whatever `levels` is.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `dim == 0` or `levels < 2`.
    pub fn new(dim: usize, levels: usize, mode: Quantization, seed: u64) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::InvalidConfig { what: "LevelMemory requires dim > 0".into() });
        }
        if levels < 2 {
            return Err(HdcError::InvalidConfig {
                what: format!("LevelMemory requires at least 2 levels, got {levels}"),
            });
        }
        let mut rng = init::rng(seed);
        let h_min = Hypervector::from_vec(init::bipolar_vec(&mut rng, dim));
        let h_max = Hypervector::from_vec(init::bipolar_vec(&mut rng, dim));

        // A random permutation ranks the dimensions: the one at rank r
        // switches to H_max once α ≥ (r + 0.5) / dim, so Interpolate is the
        // LevelFlip ladder's continuum limit (one level per dimension) and
        // codes stay bipolar.
        let mut order: Vec<usize> = (0..dim).collect();
        // Fisher-Yates with the seeded RNG.
        for i in (1..dim).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut thresholds = vec![0.0f32; dim];
        for (rank, &pos) in order.iter().enumerate() {
            thresholds[pos] = (rank as f32 + 0.5) / dim as f32;
        }

        Ok(Self { h_min, h_max, thresholds, levels, mode, dim })
    }

    /// Dimensionality of the codebook.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The quantisation mode.
    pub fn mode(&self) -> Quantization {
        self.mode
    }

    /// Number of discrete levels on the `LevelFlip` grid.
    pub fn num_levels(&self) -> usize {
        self.levels
    }

    /// The `H_min` anchor.
    pub fn h_min(&self) -> &Hypervector {
        &self.h_min
    }

    /// The `H_max` anchor.
    pub fn h_max(&self) -> &Hypervector {
        &self.h_max
    }

    /// Encodes a normalised value `alpha ∈ [0, 1]` (clamped) to a hypervector.
    pub fn encode(&self, alpha: f32) -> Hypervector {
        let mut out = vec![0.0f32; self.dim];
        self.encode_into(alpha, &mut out);
        Hypervector::from_vec(out)
    }

    /// Writes the encoding of `alpha` into an existing buffer (no allocation).
    ///
    /// Each dimension `d` reads `H_max[d]` when the select's `α ≥ u_d` and
    /// `H_min[d]` otherwise. The choice is made without a branch: the
    /// comparison becomes an all-ones or all-zeros mask that takes the
    /// anchor's bits, so the codewords are bit for bit those of a
    /// per-dimension `if`, and the call's time depends on neither `alpha`
    /// nor the thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn encode_into(&self, alpha: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "encode_into: buffer dimension mismatch");
        let alpha = self.select_alpha(alpha);
        for (((o, &lo), &hi), &thr) in out
            .iter_mut()
            .zip(self.h_min.as_slice())
            .zip(self.h_max.as_slice())
            .zip(&self.thresholds)
        {
            // The thresholds are random, so a branch would mispredict on about half the dims.
            let m = 0u32.wrapping_sub(u32::from(alpha >= thr));
            *o = f32::from_bits((hi.to_bits() & m) | (lo.to_bits() & !m));
        }
    }

    /// The `α` the per-dimension select runs at. `alpha` is clamped to
    /// `[0, 1]`, and NaN or ±∞ reads as 0.5. `Interpolate` selects at that
    /// value. `LevelFlip` rounds it to level `l` and selects at the
    /// threshold of rank `cut − 1`, with `cut = ⌊l·dim/(levels−1)⌋`, or at
    /// 0 when `cut` is 0: every threshold is above 0.
    fn select_alpha(&self, alpha: f32) -> f32 {
        let alpha = if alpha.is_finite() { alpha.clamp(0.0, 1.0) } else { 0.5 };
        match self.mode {
            Quantization::Interpolate => alpha,
            Quantization::LevelFlip => {
                let steps = self.levels - 1;
                let level = ((alpha * steps as f32).round() as usize).min(steps);
                // u128: levels is not bounded by memory, so l·dim can
                // exceed usize; the quotient is at most dim.
                let cut = (level as u128 * self.dim as u128 / steps as u128) as usize;
                match cut.checked_sub(1) {
                    Some(rank) => (rank as f32 + 0.5) / self.dim as f32,
                    None => 0.0,
                }
            }
        }
    }

    /// Regenerates the given dimensions of both anchors (DOMINO).
    ///
    /// The thresholds stay as they are, so every codeword of either mode
    /// follows the new anchors: `encode(0.0)` is still `H_min` and
    /// `encode(1.0)` still `H_max`.
    pub fn regenerate_dims(&mut self, dims: &[usize], seed: u64) {
        let mut rng = init::rng(seed);
        for &d in dims {
            if d >= self.dim {
                continue;
            }
            self.h_min.as_mut_slice()[d] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            self.h_max.as_mut_slice()[d] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
    }
}

/// Per-sensor signature hypervectors `G_i` for spatial integration (§3.3).
///
/// The encoder binds each sensor's temporal hypervector with its signature
/// and bundles across sensors: `Σ_i G_i ∗ H_i`. Signatures are random and
/// bipolar, so different sensors land in nearly orthogonal subspaces.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureMemory {
    inner: ItemMemory,
}

impl SignatureMemory {
    /// Creates signatures for `sensors` sensors of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `sensors` or `dim` is zero.
    pub fn new(sensors: usize, dim: usize, seed: u64) -> Result<Self> {
        Ok(Self { inner: ItemMemory::new(sensors, dim, seed)? })
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the memory is empty (never true for a constructed memory).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Dimensionality of the signatures.
    pub fn dim(&self) -> usize {
        self.inner.dim()
    }

    /// Returns the signature `G_i` for sensor `i`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] for an unknown sensor.
    pub fn signature(&self, sensor: usize) -> Result<&Hypervector> {
        self.inner.item(sensor)
    }

    /// Regenerates the given dimensions of every signature (DOMINO).
    pub fn regenerate_dims(&mut self, dims: &[usize], seed: u64) {
        self.inner.regenerate_dims(dims, seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_memory_deterministic_and_orthogonal() {
        let a = ItemMemory::new(8, 2048, 11).unwrap();
        let b = ItemMemory::new(8, 2048, 11).unwrap();
        assert_eq!(a, b);
        let sim = a.item(0).unwrap().cosine(a.item(1).unwrap()).unwrap();
        assert!(sim.abs() < 0.1);
    }

    #[test]
    fn item_memory_validates() {
        assert!(ItemMemory::new(0, 8, 0).is_err());
        assert!(ItemMemory::new(8, 0, 0).is_err());
        let m = ItemMemory::new(2, 8, 0).unwrap();
        assert!(m.item(2).is_err());
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn item_memory_regenerate_changes_only_listed_dims() {
        let mut m = ItemMemory::new(4, 64, 5).unwrap();
        let before: Vec<Hypervector> = (0..4).map(|i| m.item(i).unwrap().clone()).collect();
        m.regenerate_dims(&[0, 7], 99);
        for (i, was) in before.iter().enumerate() {
            let after = m.item(i).unwrap();
            for d in 0..64 {
                if d != 0 && d != 7 {
                    assert_eq!(
                        after.as_slice()[d],
                        was.as_slice()[d],
                        "dim {d} of item {i} changed"
                    );
                }
                assert!(after.as_slice()[d] == 1.0 || after.as_slice()[d] == -1.0);
            }
        }
        // Out-of-range dims are ignored.
        m.regenerate_dims(&[1000], 1);
    }

    #[test]
    fn interpolate_endpoints_are_anchors() {
        let m = LevelMemory::new(512, 8, Quantization::Interpolate, 3).unwrap();
        assert_eq!(&m.encode(0.0), m.h_min());
        assert_eq!(&m.encode(1.0), m.h_max());
    }

    #[test]
    fn interpolate_similarity_spectrum() {
        let m = LevelMemory::new(4096, 8, Quantization::Interpolate, 4).unwrap();
        let sims: Vec<f32> =
            (0..=10).map(|i| m.encode(i as f32 / 10.0).cosine(m.h_min()).unwrap()).collect();
        for w in sims.windows(2) {
            assert!(w[1] <= w[0] + 1e-4, "similarity to H_min must decay monotonically: {sims:?}");
        }
        assert!(sims[0] > 0.99 && sims[10] < 0.1);
    }

    #[test]
    fn levelflip_endpoints_and_monotonicity() {
        let m = LevelMemory::new(4096, 16, Quantization::LevelFlip, 5).unwrap();
        assert_eq!(&m.encode(0.0), m.h_min());
        assert_eq!(&m.encode(1.0), m.h_max());
        let sims: Vec<f32> =
            (0..16).map(|i| m.encode(i as f32 / 15.0).cosine(m.h_min()).unwrap()).collect();
        for w in sims.windows(2) {
            assert!(w[1] <= w[0] + 0.05, "LevelFlip similarity must decay: {sims:?}");
        }
    }

    #[test]
    fn levelflip_codewords_are_bipolar() {
        let m = LevelMemory::new(256, 8, Quantization::LevelFlip, 6).unwrap();
        for i in 0..8 {
            let hv = m.encode(i as f32 / 7.0);
            assert!(hv.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
        }
    }

    #[test]
    fn encode_clamps_and_handles_nan() {
        let m = LevelMemory::new(64, 4, Quantization::Interpolate, 7).unwrap();
        assert_eq!(m.encode(-3.0), m.encode(0.0));
        assert_eq!(m.encode(42.0), m.encode(1.0));
        let nan_hv = m.encode(f32::NAN);
        assert!(nan_hv.is_finite());
    }

    #[test]
    fn encode_into_matches_encode() {
        let m = LevelMemory::new(128, 8, Quantization::Interpolate, 8).unwrap();
        let mut buf = vec![0.0f32; 128];
        m.encode_into(0.3, &mut buf);
        assert_eq!(buf, m.encode(0.3).into_vec());
    }

    #[test]
    fn level_memory_validates() {
        assert!(LevelMemory::new(0, 4, Quantization::Interpolate, 0).is_err());
        assert!(LevelMemory::new(8, 1, Quantization::Interpolate, 0).is_err());
    }

    #[test]
    fn level_memory_regenerate_consistent() {
        let mut m = LevelMemory::new(64, 8, Quantization::LevelFlip, 9).unwrap();
        m.regenerate_dims(&[3], 100);
        // Ladder endpoints still match the anchors after regeneration.
        assert_eq!(&m.encode(0.0), m.h_min());
        assert_eq!(&m.encode(1.0), m.h_max());
        // All codewords remain bipolar.
        for i in 0..8 {
            let hv = m.encode(i as f32 / 7.0);
            assert!(hv.as_slice().iter().all(|&x| x == 1.0 || x == -1.0));
        }
    }

    #[test]
    fn levelflip_follows_anchors_regenerated_from_equal_values() {
        let (dim, levels) = (64, 8);
        let mut m = LevelMemory::new(dim, levels, Quantization::LevelFlip, 9).unwrap();
        let d = (0..dim).find(|&d| m.h_min().as_slice()[d] == m.h_max().as_slice()[d]).unwrap();
        // A seed whose redraw of dim d gives two different anchors.
        let seed = (0..)
            .find(|&s| {
                let mut probe = m.clone();
                probe.regenerate_dims(&[d], s);
                probe.h_min().as_slice()[d] != probe.h_max().as_slice()[d]
            })
            .unwrap();
        m.regenerate_dims(&[d], seed);
        assert_eq!(&m.encode(0.0), m.h_min());
        assert_eq!(&m.encode(1.0), m.h_max());
        // Level l reads H_max exactly on the dims of threshold rank < cut.
        let rank = |x: usize| m.thresholds.iter().filter(|&&t| t < m.thresholds[x]).count();
        for l in 0..levels {
            let cut = l * dim / (levels - 1);
            let code = m.encode(l as f32 / (levels - 1) as f32);
            for x in 0..dim {
                let want = if rank(x) < cut { m.h_max() } else { m.h_min() };
                assert_eq!(code.as_slice()[x], want.as_slice()[x], "level {l}, dim {x}");
            }
        }
    }

    #[test]
    fn signature_memory_basics() {
        let s = SignatureMemory::new(3, 512, 10).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 512);
        let g0 = s.signature(0).unwrap();
        let g1 = s.signature(1).unwrap();
        assert!(g0.cosine(g1).unwrap().abs() < 0.2);
        assert!(s.signature(3).is_err());
    }

    #[test]
    fn different_seeds_give_different_codebooks() {
        let a = LevelMemory::new(256, 8, Quantization::Interpolate, 1).unwrap();
        let b = LevelMemory::new(256, 8, Quantization::Interpolate, 2).unwrap();
        assert_ne!(a.h_min(), b.h_min());
    }
}
