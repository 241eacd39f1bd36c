//! The unified serving interface: one trait over every inference backend.
//!
//! [`Smore`](crate::Smore) (dense f32),
//! [`QuantizedSmore`](crate::QuantizedSmore) (bit-packed) and
//! [`DeltaSmore`](crate::DeltaSmore) (a packed base chained with a
//! tenant's delta) share one prediction surface, so no bench, example or
//! test matches on the backend it happens to hold. [`Predictor`] is that
//! contract: encode a raw window, run Algorithm 1, report a
//! [`Prediction`], all through a shared caller-owned [`ServeScratch`] so
//! the hot path stays allocation-free regardless of backend.

use smore_packed::{EncoderScratch, PackedHypervector};
use smore_tensor::Matrix;

use crate::smore_model::Prediction;
use crate::Result;

/// Caller-owned scratch for the serving hot path, shared by every
/// [`Predictor`] backend.
///
/// Bundles every buffer one prediction needs — the scaled window, the
/// packed encoder's [`EncoderScratch`] and query, the dense query vector,
/// the similarity / ensemble-weight / per-class-score vectors and the
/// output [`Prediction`] — so `predict_window_with` performs no heap
/// allocation in steady state. Buffers size themselves lazily on first use
/// and survive a change of model (an enrolled domain merely grows the
/// similarity vectors once). One scratch can serve different backends (and
/// different models) interleaved; it just re-sizes on the first call of
/// each shape.
///
/// # Example
///
/// ```no_run
/// # fn main() -> Result<(), smore::SmoreError> {
/// # let quantized: smore::QuantizedSmore = unimplemented!();
/// # let windows: Vec<smore_tensor::Matrix> = vec![];
/// let mut scratch = smore::ServeScratch::new();
/// for w in &windows {
///     let p = quantized.predict_window_with(w, &mut scratch)?; // no allocation
///     println!("label {}", p.label);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeScratch {
    /// Packed-encoder scratch (ring, product, SWAR planes, counters).
    pub(crate) encoder: EncoderScratch,
    /// The channel-standardised window.
    pub(crate) scaled: Matrix,
    /// The packed query hypervector (quantized backends).
    pub(crate) query: PackedHypervector,
    /// The encoded-and-centred dense query (dense backend).
    pub(crate) dense_query: Vec<f32>,
    /// Descriptor similarities `δ(Q, U_k)`.
    pub(crate) sims: Vec<f32>,
    /// Eq. 3 ensemble weights.
    pub(crate) weights: Vec<f32>,
    /// Materialised ensembled class hypervector (dense backend).
    pub(crate) ensemble: Vec<f32>,
    /// Per-class ensemble scores of the last prediction.
    pub(crate) scores: Vec<f32>,
    /// The last prediction, exposed through [`prediction`](Self::prediction).
    pub(crate) prediction: Prediction,
    /// Per-stage wall time of the last prediction, exposed through
    /// [`timings`](Self::timings).
    pub(crate) timings: PredictTimings,
}

/// Per-stage wall time of one prediction, split at the encode/score
/// boundary of Algorithm 1.
///
/// Populated by [`QuantizedSmore`](crate::QuantizedSmore)'s
/// `predict_window_with` (the serving backend); the dense reference
/// pipeline leaves it zeroed. Telemetry layers read it from
/// [`ServeScratch::timings`] after each call — three `Instant::now()`
/// reads per prediction, negligible against the tens of microseconds a
/// packed predict costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictTimings {
    /// Nanoseconds spent standardising + encoding the window into a packed
    /// query (including the SWAR bundling and sign threshold).
    pub encode_nanos: u64,
    /// Nanoseconds spent on descriptor similarities, ensemble weighting and
    /// per-class scoring.
    pub score_nanos: u64,
}

impl ServeScratch {
    /// An empty scratch; buffers are sized by the first prediction.
    pub fn new() -> Self {
        Self {
            encoder: EncoderScratch::new(),
            scaled: Matrix::default(),
            query: PackedHypervector::zeros(0),
            dense_query: Vec::new(),
            sims: Vec::new(),
            weights: Vec::new(),
            ensemble: Vec::new(),
            scores: Vec::new(),
            prediction: empty_prediction(),
            timings: PredictTimings::default(),
        }
    }

    /// The prediction produced by the most recent `predict_window_with`
    /// call through this scratch.
    pub fn prediction(&self) -> &Prediction {
        &self.prediction
    }

    /// Per-class ensemble scores of the most recent prediction (empty
    /// before the first call).
    pub fn scores(&self) -> &[f32] {
        &self.scores
    }

    /// Encode/score wall time of the most recent quantized prediction
    /// (zeroed for backends that do not instrument their stages).
    pub fn timings(&self) -> PredictTimings {
        self.timings
    }
}

impl Default for ServeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// A structurally valid placeholder [`Prediction`] (overwritten before any
/// caller observes it).
pub(crate) fn empty_prediction() -> Prediction {
    Prediction {
        label: 0,
        is_ood: false,
        delta_max: 0.0,
        best_domain: 0,
        domain_similarities: Vec::new(),
    }
}

/// One inference surface over every SMORE serving backend.
///
/// Implemented by [`Smore`](crate::Smore) (dense reference pipeline),
/// [`QuantizedSmore`](crate::QuantizedSmore) (bit-packed serving) and
/// [`DeltaSmore`](crate::DeltaSmore) (base + tenant delta, chained), so
/// benches, examples and tests can hold a `&dyn Predictor` instead of
/// matching on the backend.
///
/// The two required entry points reuse a caller-owned [`ServeScratch`];
/// the provided wrappers allocate per call and exist for convenience
/// paths. Implementations with a faster batch strategy (thread-parallel
/// chunking) override [`predict_batch`](Self::predict_batch).
///
/// # Example
///
/// ```
/// use smore::{Predictor, Smore, SmoreConfig};
/// use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
///
/// # fn main() -> Result<(), smore::SmoreError> {
/// let ds = generate(&GeneratorConfig {
///     domains: vec![
///         DomainSpec { subjects: vec![0], windows: 20 },
///         DomainSpec { subjects: vec![1], windows: 20 },
///     ],
///     ..GeneratorConfig::default()
/// })
/// .map_err(smore::SmoreError::from)?;
/// let mut model = Smore::new(
///     SmoreConfig::builder()
///         .dim(256)
///         .channels(ds.meta().channels)
///         .num_classes(ds.meta().num_classes)
///         .epochs(3)
///         .build()?,
/// )?;
/// let all: Vec<usize> = (0..ds.len()).collect();
/// model.fit_indices(&ds, &all)?;
/// let quantized = model.quantize()?;
///
/// // Dense and packed backends behind the same interface.
/// let backends: Vec<&dyn Predictor> = vec![&model, &quantized];
/// let mut scratch = smore::ServeScratch::new();
/// for backend in backends {
///     let p = backend.predict_window_with(ds.window(0), &mut scratch)?;
///     assert!(p.label < backend.num_classes());
/// }
/// # Ok(())
/// # }
/// ```
pub trait Predictor {
    /// Number of activity classes `n` this model scores.
    fn num_classes(&self) -> usize;

    /// Predicts one window through caller-owned scratch — the
    /// allocation-free hot path. The returned reference points into
    /// `scratch` (also readable later through [`ServeScratch::prediction`]);
    /// clone it to keep the prediction past the next call.
    ///
    /// # Errors
    ///
    /// Backend-specific: encoder errors for malformed windows, and
    /// [`crate::SmoreError::NotFitted`] for an untrained dense model.
    fn predict_window_with<'s>(
        &self,
        window: &Matrix,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s Prediction>;

    /// Computes the per-class ensemble scores (Algorithm 1's similarity to
    /// the per-query test-time model `M_T`) for one window into `scores`
    /// (cleared and refilled to [`num_classes`](Self::num_classes)
    /// entries). The prediction label is the argmax of these scores;
    /// callers that need calibrated margins, top-k, or score-level fusion
    /// read them directly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`predict_window_with`](Self::predict_window_with).
    fn score_into(
        &self,
        window: &Matrix,
        scratch: &mut ServeScratch,
        scores: &mut Vec<f32>,
    ) -> Result<()>;

    /// Predicts one window — the allocating convenience wrapper.
    ///
    /// # Errors
    ///
    /// Same conditions as [`predict_window_with`](Self::predict_window_with).
    fn predict_window(&self, window: &Matrix) -> Result<Prediction> {
        let mut scratch = ServeScratch::new();
        Ok(self.predict_window_with(window, &mut scratch)?.clone())
    }

    /// Predicts a batch of windows. The provided implementation serves
    /// them sequentially through one scratch; backends with a parallel
    /// batch path override it.
    ///
    /// # Errors
    ///
    /// Stops at (and propagates) the first failing window.
    fn predict_batch(&self, windows: &[Matrix]) -> Result<Vec<Prediction>> {
        let mut scratch = ServeScratch::new();
        windows.iter().map(|w| Ok(self.predict_window_with(w, &mut scratch)?.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Smore, SmoreConfig};
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};

    fn fitted_pair() -> (smore_data::Dataset, Smore, crate::QuantizedSmore) {
        let ds = generate(&GeneratorConfig {
            name: "predictor-test".into(),
            num_classes: 3,
            channels: 2,
            window_len: 16,
            sample_rate_hz: 25.0,
            domains: vec![
                DomainSpec { subjects: vec![0], windows: 30 },
                DomainSpec { subjects: vec![1], windows: 30 },
            ],
            shift_severity: 0.6,
            seed: 11,
        })
        .unwrap();
        let mut model = Smore::new(
            SmoreConfig::builder()
                .dim(512)
                .channels(2)
                .num_classes(3)
                .epochs(5)
                .threads(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        let all: Vec<usize> = (0..ds.len()).collect();
        model.fit_indices(&ds, &all).unwrap();
        let q = model.quantize().unwrap();
        (ds, model, q)
    }

    #[test]
    fn trait_and_inherent_paths_agree_per_backend() {
        let (ds, dense, quantized) = fitted_pair();
        let mut scratch = ServeScratch::new();
        for i in 0..6 {
            let w = ds.window(i);
            // Through the trait object...
            for backend in [&dense as &dyn Predictor, &quantized as &dyn Predictor] {
                let via_trait = backend.predict_window_with(w, &mut scratch).unwrap().clone();
                assert_eq!(via_trait, backend.predict_window(w).unwrap());
                assert_eq!(scratch.prediction(), &via_trait);
                assert_eq!(
                    via_trait.label,
                    smore_tensor::vecops::argmax(scratch.scores()).unwrap()
                );
            }
            // ...equals the backend's own inherent surface.
            assert_eq!(
                Predictor::predict_window(&dense, w).unwrap(),
                dense.predict_window(w).unwrap()
            );
            assert_eq!(
                Predictor::predict_window(&quantized, w).unwrap(),
                quantized.predict_window(w).unwrap()
            );
        }
    }

    #[test]
    fn score_into_matches_prediction_argmax_and_num_classes() {
        let (ds, dense, quantized) = fitted_pair();
        let mut scratch = ServeScratch::new();
        let mut scores = Vec::new();
        for backend in [&dense as &dyn Predictor, &quantized as &dyn Predictor] {
            assert_eq!(backend.num_classes(), 3);
            for i in [0usize, 7, 31] {
                let w = ds.window(i);
                backend.score_into(w, &mut scratch, &mut scores).unwrap();
                assert_eq!(scores.len(), 3);
                assert!(scores.iter().all(|s| s.is_finite()));
                let p = backend.predict_window(w).unwrap();
                assert_eq!(p.label, smore_tensor::vecops::argmax(&scores).unwrap());
            }
        }
    }

    #[test]
    fn trait_batch_agrees_with_parallel_override() {
        let (ds, dense, quantized) = fitted_pair();
        let windows: Vec<Matrix> = (0..10).map(|i| ds.window(i).clone()).collect();
        for backend in [&dense as &dyn Predictor, &quantized as &dyn Predictor] {
            let batch = backend.predict_batch(&windows).unwrap();
            assert_eq!(batch.len(), windows.len());
            for (i, w) in windows.iter().enumerate() {
                assert_eq!(batch[i], backend.predict_window(w).unwrap());
            }
        }
    }

    #[test]
    fn unfitted_dense_model_reports_through_the_trait() {
        let model =
            Smore::new(SmoreConfig::builder().dim(128).channels(2).num_classes(3).build().unwrap())
                .unwrap();
        let backend: &dyn Predictor = &model;
        let mut scratch = ServeScratch::new();
        assert!(matches!(
            backend.predict_window_with(&Matrix::zeros(16, 2), &mut scratch),
            Err(crate::SmoreError::NotFitted)
        ));
    }
}
