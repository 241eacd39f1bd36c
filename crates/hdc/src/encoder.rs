//! The multi-sensor time series encoder `Ω` (paper §3.3, Fig. 3).
//!
//! A window of raw samples — `T` time steps by `m` sensors — is mapped into
//! hyperdimensional space in four stages:
//!
//! 1. **Vector quantisation**: each sensor value is mapped to a hypervector
//!    with a spectrum of similarity between random `H_min`/`H_max` anchors
//!    ([`crate::memory::LevelMemory`]).
//! 2. **Temporal sorting**: the hypervector for time step `t` inside an
//!    n-gram is permuted `ρ^{n-1-k}` times so order is preserved.
//! 3. **Binding** folds each n-gram into one hypervector; the n-grams of a
//!    window are bundled into the sensor hypervector `H_i`.
//! 4. **Spatial integration**: each sensor hypervector is bound with its
//!    random signature `G_i` and bundled: `Σ_i G_i ∗ H_i`.
//!
//! Encoding is deterministic given the [`EncoderConfig::seed`].

use smore_tensor::{parallel, vecops, Matrix};

use crate::memory::{LevelMemory, Quantization, SignatureMemory};
use crate::ngram::mul_shifted;
use crate::{HdcError, Hypervector, Result};

/// How raw values are normalised into the quantiser's `[0, 1]` range.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ValueRange {
    /// Paper-literal: each sensor is normalised by the minimum and maximum
    /// value it takes *within the current window* (Fig. 3 assigns `H_max`
    /// and `H_min` to the extreme samples of the window). Makes windows
    /// amplitude-invariant, which also removes per-subject gain shifts.
    #[default]
    PerWindow,
    /// Fixed per-sensor `(low, high)` ranges fitted on training data; values
    /// outside the range are clamped. Used by the encoding-mode ablation.
    Global(Vec<(f32, f32)>),
}

/// Configuration for [`MultiSensorEncoder`].
///
/// # Example
///
/// ```
/// use smore_hdc::encoder::EncoderConfig;
///
/// let cfg = EncoderConfig { dim: 4096, sensors: 6, ..EncoderConfig::default() };
/// assert_eq!(cfg.ngram, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Hyperdimensional space dimensionality `d` (paper default: 8k).
    pub dim: usize,
    /// Number of sensors `m` (columns of each window).
    pub sensors: usize,
    /// n-gram size for temporal binding (the paper illustrates trigrams).
    pub ngram: usize,
    /// Number of discrete levels for [`Quantization::LevelFlip`].
    pub levels: usize,
    /// Quantisation strategy.
    pub quantization: Quantization,
    /// Value normalisation strategy.
    pub range: ValueRange,
    /// Whether encoded hypervectors are normalised to unit norm.
    pub normalize: bool,
    /// Master seed for all codebooks.
    pub seed: u64,
}

impl Default for EncoderConfig {
    /// Paper defaults: `d = 8192`, trigram, per-window quantisation.
    fn default() -> Self {
        Self {
            dim: 8192,
            sensors: 1,
            ngram: 3,
            levels: 64,
            quantization: Quantization::default(),
            range: ValueRange::default(),
            normalize: true,
            seed: 0x5304E,
        }
    }
}

/// The encoder `Ω : I → X` mapping raw multi-sensor windows to hypervectors.
///
/// # Example
///
/// ```
/// use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
/// use smore_tensor::Matrix;
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// let encoder = MultiSensorEncoder::new(EncoderConfig {
///     dim: 1024,
///     sensors: 3,
///     ..EncoderConfig::default()
/// })?;
/// let window = Matrix::from_fn(16, 3, |t, s| ((t + s) as f32 * 0.4).sin());
/// let hv = encoder.encode_window(&window)?;
/// assert_eq!(hv.dim(), 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiSensorEncoder {
    config: EncoderConfig,
    level_memories: Vec<LevelMemory>,
    signatures: SignatureMemory,
}

/// One worker's encode buffers: the n-gram ring (`ngram` slots of `dim`),
/// the running n-gram product and one sensor's bundle.
struct Scratch {
    ring: Vec<f32>,
    prod: Vec<f32>,
    local: Vec<f32>,
}

impl MultiSensorEncoder {
    /// Builds the encoder codebooks from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when `dim`, `sensors` or `ngram`
    /// is zero, when `levels < 2`, or when a [`ValueRange::Global`] range
    /// does not provide exactly one `(low, high)` pair per sensor or has
    /// `low >= high`.
    pub fn new(config: EncoderConfig) -> Result<Self> {
        if config.dim == 0 {
            return Err(HdcError::InvalidConfig { what: "encoder dim must be positive".into() });
        }
        if config.sensors == 0 {
            return Err(HdcError::InvalidConfig {
                what: "encoder needs at least one sensor".into(),
            });
        }
        if config.ngram == 0 {
            return Err(HdcError::InvalidConfig { what: "n-gram size must be positive".into() });
        }
        if let ValueRange::Global(ranges) = &config.range {
            if ranges.len() != config.sensors {
                return Err(HdcError::InvalidConfig {
                    what: format!(
                        "global range needs one (low, high) pair per sensor: got {} pairs for {} sensors",
                        ranges.len(),
                        config.sensors
                    ),
                });
            }
            let not_increasing =
                |lo: &f32, hi: &f32| !matches!(lo.partial_cmp(hi), Some(std::cmp::Ordering::Less));
            if let Some((lo, hi)) = ranges.iter().find(|(lo, hi)| not_increasing(lo, hi)) {
                return Err(HdcError::InvalidConfig {
                    what: format!("global range requires low < high, got ({lo}, {hi})"),
                });
            }
        }
        let level_memories = (0..config.sensors)
            .map(|s| {
                LevelMemory::new(
                    config.dim,
                    config.levels,
                    config.quantization,
                    config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(s as u64 + 1),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let signatures =
            SignatureMemory::new(config.sensors, config.dim, config.seed ^ 0xC0FF_EE00)?;
        Ok(Self { config, level_memories, signatures })
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Hyperdimensional dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of sensors `m`.
    pub fn sensors(&self) -> usize {
        self.config.sensors
    }

    /// The quantisation codebook of sensor `s` — exposed so alternative
    /// backends (e.g. the bit-packed encoder of `smore_packed`) can derive
    /// their codebooks from the exact same random anchors instead of
    /// replicating the per-sensor seed derivation.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::LabelOutOfRange`] for an unknown sensor.
    pub fn level_memory(&self, sensor: usize) -> Result<&LevelMemory> {
        self.level_memories.get(sensor).ok_or(HdcError::LabelOutOfRange {
            label: sensor,
            num_classes: self.level_memories.len(),
        })
    }

    /// The per-sensor signature memory (see [`level_memory`](Self::level_memory)).
    pub fn signature_memory(&self) -> &SignatureMemory {
        &self.signatures
    }

    /// Encodes one window (`T` rows of time steps, `m` columns of sensors):
    /// the one-row case of [`encode_batch`](Self::encode_batch).
    ///
    /// # Errors
    ///
    /// - [`HdcError::DimensionMismatch`] when the window does not have one
    ///   column per sensor.
    /// - [`HdcError::InvalidConfig`] when the window has fewer time steps
    ///   than the n-gram size.
    pub fn encode_window(&self, window: &Matrix) -> Result<Hypervector> {
        let mut out = vec![0.0f32; self.config.dim];
        self.encode_into(window, &mut out, &mut self.scratch())?;
        Ok(Hypervector::from_vec(out))
    }

    /// Encodes a batch of windows into a `(batch, dim)` matrix, in parallel.
    ///
    /// The output matrix is allocated once. Each worker encodes its
    /// contiguous run of windows straight into their rows, reusing one set
    /// of n-gram ring, product and per-sensor buffers, so the batch is
    /// never held twice. Row `i` is bit-identical to
    /// [`encode_window`](Self::encode_window) of window `i` at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// The [`encode_window`](Self::encode_window) error of the
    /// lowest-index malformed window (all windows must share the sensor
    /// count and satisfy the n-gram length requirement).
    pub fn encode_batch(&self, windows: &[Matrix], threads: usize) -> Result<Matrix> {
        let mut out = Matrix::zeros(windows.len(), self.config.dim);
        let mut rows: Vec<(&mut [f32], Result<()>)> =
            out.as_mut_slice().chunks_mut(self.config.dim).map(|row| (row, Ok(()))).collect();
        parallel::par_chunks_indexed(&mut rows, threads, |start, chunk| {
            let mut scratch = self.scratch();
            for ((row, result), window) in chunk.iter_mut().zip(&windows[start..]) {
                *result = self.encode_into(window, row, &mut scratch);
            }
        });
        rows.into_iter().try_for_each(|(_, result)| result)?;
        Ok(out)
    }

    fn scratch(&self) -> Scratch {
        let (d, n) = (self.config.dim, self.config.ngram);
        Scratch { ring: vec![0.0; n * d], prod: vec![0.0; d], local: vec![0.0; d] }
    }

    /// Encodes one window into `out` (`dim` long, zeroed) through
    /// `scratch`: the routine behind both [`encode_window`](Self::encode_window)
    /// and [`encode_batch`](Self::encode_batch).
    fn encode_into(&self, window: &Matrix, out: &mut [f32], scratch: &mut Scratch) -> Result<()> {
        let (t_total, cols) = window.shape();
        if cols != self.config.sensors {
            return Err(HdcError::DimensionMismatch {
                expected: self.config.sensors,
                actual: cols,
            });
        }
        let (d, n) = (self.config.dim, self.config.ngram);
        if t_total < n {
            return Err(HdcError::InvalidConfig {
                what: format!("window of {t_total} steps is shorter than the n-gram size {n}"),
            });
        }
        let Scratch { ring, prod, local } = scratch;
        for (s, level_memory) in self.level_memories.iter().enumerate() {
            let (lo, hi) = self.sensor_range(window, s);
            let span = hi - lo;
            // Per-sensor accumulation happens in a local buffer, then gets
            // signature-bound into the window accumulator. Ring slot t % n
            // holds the quantised hypervector of step t.
            local.fill(0.0);
            for (t, y) in window.col(s).enumerate() {
                let alpha = if span > 1e-12 { (y - lo) / span } else { 0.5 };
                level_memory.encode_into(alpha, &mut ring[(t % n) * d..][..d]);
                if t + 1 >= n {
                    // n-gram ending at step t: element at step t-j gets shift j.
                    prod.copy_from_slice(&ring[(t % n) * d..][..d]);
                    for j in 1..n {
                        mul_shifted(prod, &ring[((t - j) % n) * d..][..d], j % d);
                    }
                    for (a, &p) in local.iter_mut().zip(prod.iter()) {
                        *a += p;
                    }
                }
            }
            // Spatial integration: out += G_s ∗ H_s.
            let signature = self.signatures.signature(s)?;
            for ((a, &l), &g) in out.iter_mut().zip(local.iter()).zip(signature.as_slice()) {
                *a += l * g;
            }
        }
        if self.config.normalize {
            vecops::normalize(out);
        }
        Ok(())
    }

    /// Regenerates the listed dimensions of every codebook with fresh random
    /// values — the DOMINO primitive for discarding domain-variant
    /// dimensions.
    pub fn regenerate_dims(&mut self, dims: &[usize], seed: u64) {
        for (s, lm) in self.level_memories.iter_mut().enumerate() {
            lm.regenerate_dims(dims, seed.wrapping_add(s as u64));
        }
        self.signatures.regenerate_dims(dims, seed ^ 0xABCD);
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

#[cfg(test)]
mod tests {
    use super::*;
    use smore_tensor::vecops;

    fn test_config(dim: usize, sensors: usize) -> EncoderConfig {
        EncoderConfig { dim, sensors, ..EncoderConfig::default() }
    }

    fn sine_window(t_total: usize, sensors: usize, phase: f32) -> Matrix {
        Matrix::from_fn(t_total, sensors, |t, s| (t as f32 * 0.37 + s as f32 * 1.3 + phase).sin())
    }

    #[test]
    fn encoder_validates_config() {
        assert!(MultiSensorEncoder::new(test_config(0, 1)).is_err());
        assert!(MultiSensorEncoder::new(test_config(64, 0)).is_err());
        let mut cfg = test_config(64, 2);
        cfg.ngram = 0;
        assert!(MultiSensorEncoder::new(cfg).is_err());
        let mut cfg = test_config(64, 2);
        cfg.range = ValueRange::Global(vec![(0.0, 1.0)]);
        assert!(MultiSensorEncoder::new(cfg).is_err(), "wrong number of range pairs");
        let mut cfg = test_config(64, 1);
        cfg.range = ValueRange::Global(vec![(1.0, 1.0)]);
        assert!(MultiSensorEncoder::new(cfg).is_err(), "low must be < high");
    }

    #[test]
    fn encode_window_shape_and_norm() {
        let enc = MultiSensorEncoder::new(test_config(512, 2)).unwrap();
        let hv = enc.encode_window(&sine_window(20, 2, 0.0)).unwrap();
        assert_eq!(hv.dim(), 512);
        assert!((hv.norm() - 1.0).abs() < 1e-5, "default config normalises");
    }

    #[test]
    fn encode_window_rejects_bad_inputs() {
        let enc = MultiSensorEncoder::new(test_config(128, 2)).unwrap();
        // Wrong sensor count.
        assert!(enc.encode_window(&sine_window(10, 3, 0.0)).is_err());
        // Too short for the trigram.
        assert!(enc.encode_window(&sine_window(2, 2, 0.0)).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = MultiSensorEncoder::new(test_config(256, 2)).unwrap();
        let b = MultiSensorEncoder::new(test_config(256, 2)).unwrap();
        let w = sine_window(12, 2, 0.5);
        assert_eq!(a.encode_window(&w).unwrap(), b.encode_window(&w).unwrap());
    }

    #[test]
    fn different_seeds_give_different_codes() {
        let a = MultiSensorEncoder::new(test_config(256, 1)).unwrap();
        let mut cfg = test_config(256, 1);
        cfg.seed = 999;
        let b = MultiSensorEncoder::new(cfg).unwrap();
        let w = sine_window(12, 1, 0.0);
        let ha = a.encode_window(&w).unwrap();
        let hb = b.encode_window(&w).unwrap();
        assert!(ha.cosine(&hb).unwrap() < 0.9);
    }

    #[test]
    fn similar_windows_are_similar_distinct_windows_are_not() {
        let enc = MultiSensorEncoder::new(test_config(4096, 2)).unwrap();
        let w = sine_window(30, 2, 0.0);
        let w_close = sine_window(30, 2, 0.02);
        let w_far = Matrix::from_fn(30, 2, |t, s| {
            // Square-ish wave with a very different temporal profile.
            if (t / 3 + s) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let h = enc.encode_window(&w).unwrap();
        let h_close = enc.encode_window(&w_close).unwrap();
        let h_far = enc.encode_window(&w_far).unwrap();
        let sim_close = h.cosine(&h_close).unwrap();
        let sim_far = h.cosine(&h_far).unwrap();
        assert!(
            sim_close > sim_far + 0.1,
            "nearby windows should encode closer: close={sim_close}, far={sim_far}"
        );
    }

    #[test]
    fn sensor_permutation_changes_code() {
        // Swapping the two sensor columns must give a different code because
        // of the per-sensor signatures. Bundling leaves a common-mode floor
        // (~0.7 between arbitrary windows), so the check is a drop below
        // identity rather than orthogonality.
        let enc = MultiSensorEncoder::new(test_config(4096, 2)).unwrap();
        let w = Matrix::from_fn(20, 2, |t, s| {
            if s == 0 {
                (t as f32 * 0.37).sin()
            } else {
                (t % 5) as f32 / 4.0 * 2.0 - 1.0
            }
        });
        let swapped = Matrix::from_fn(20, 2, |t, s| w.get(t, 1 - s));
        let h = enc.encode_window(&w).unwrap();
        let h_swapped = enc.encode_window(&swapped).unwrap();
        assert!(h.cosine(&h_swapped).unwrap() < 0.9);
    }

    #[test]
    fn constant_window_encodes_finite() {
        let enc = MultiSensorEncoder::new(test_config(256, 1)).unwrap();
        let w = Matrix::filled(10, 1, 3.5);
        let hv = enc.encode_window(&w).unwrap();
        assert!(hv.is_finite());
        assert!(hv.norm() > 0.0, "constant window still produces a code");
    }

    #[test]
    fn nan_samples_do_not_poison_encoding() {
        let enc = MultiSensorEncoder::new(test_config(256, 1)).unwrap();
        let mut w = sine_window(10, 1, 0.0);
        w.set(4, 0, f32::NAN);
        let hv = enc.encode_window(&w).unwrap();
        assert!(hv.is_finite(), "NaN input must map to a finite code");
    }

    #[test]
    fn global_range_mode_uses_fixed_anchors() {
        let mut cfg = test_config(1024, 1);
        cfg.range = ValueRange::Global(vec![(-1.0, 1.0)]);
        let enc = MultiSensorEncoder::new(cfg).unwrap();
        // Same shape at different amplitudes should now produce different
        // codes (amplitude is preserved by a global range).
        let small = Matrix::from_fn(12, 1, |t, _| 0.1 * (t as f32 * 0.5).sin());
        let large = Matrix::from_fn(12, 1, |t, _| 0.9 * (t as f32 * 0.5).sin());
        let hs = enc.encode_window(&small).unwrap();
        let hl = enc.encode_window(&large).unwrap();
        assert!(hs.cosine(&hl).unwrap() < 0.995);

        // Per-window mode erases pure amplitude differences entirely.
        let enc_pw = MultiSensorEncoder::new(test_config(1024, 1)).unwrap();
        let hs = enc_pw.encode_window(&small).unwrap();
        let hl = enc_pw.encode_window(&large).unwrap();
        assert!((hs.cosine(&hl).unwrap() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn encode_batch_matches_single_and_parallel_agree() {
        let enc = MultiSensorEncoder::new(test_config(256, 2)).unwrap();
        let windows: Vec<Matrix> = (0..9).map(|i| sine_window(15, 2, i as f32 * 0.3)).collect();
        let batch1 = enc.encode_batch(&windows, 1).unwrap();
        let batch4 = enc.encode_batch(&windows, 4).unwrap();
        assert_eq!(batch1, batch4);
        for (i, w) in windows.iter().enumerate() {
            let single = enc.encode_window(w).unwrap();
            assert_eq!(batch1.row(i), single.as_slice());
        }
        let empty = enc.encode_batch(&[], 4).unwrap();
        assert_eq!(empty.shape(), (0, 256));
    }

    #[test]
    fn regenerate_dims_changes_codes_only_partially() {
        let mut enc = MultiSensorEncoder::new(test_config(2048, 1)).unwrap();
        let w = sine_window(12, 1, 0.0);
        let before = enc.encode_window(&w).unwrap();
        enc.regenerate_dims(&(0..200).collect::<Vec<_>>(), 77);
        let after = enc.encode_window(&w).unwrap();
        let sim = vecops::cosine(before.as_slice(), after.as_slice());
        assert!(sim > 0.5, "regenerating 10% of dims should keep codes mostly similar, got {sim}");
        assert_ne!(before, after);
    }

    #[test]
    fn ngram_size_is_respected() {
        for n in [1usize, 2, 4, 5] {
            let mut cfg = test_config(256, 1);
            cfg.ngram = n;
            let enc = MultiSensorEncoder::new(cfg).unwrap();
            let hv = enc.encode_window(&sine_window(10, 1, 0.0)).unwrap();
            assert!(hv.is_finite());
            assert!(hv.norm() > 0.0, "n={n}");
        }
    }
}
