//! The unified serving interface: one trait over every inference backend.
//!
//! [`Smore`](crate::Smore) (dense f32),
//! [`QuantizedSmore`](crate::QuantizedSmore) (bit-packed) and
//! [`DeltaSmore`](crate::DeltaSmore) (a packed base chained with a
//! tenant's delta) share one prediction surface, so no bench, example or
//! test matches on the backend it happens to hold. [`Predictor`] is that
//! surface and the only one: the backends have no inherent predict, score
//! or evaluate methods. Each implements the scratch entry points — encode a
//! raw window, run Algorithm 1, report a [`Prediction`] through a shared
//! caller-owned [`ServeScratch`] so the hot path stays allocation-free —
//! and the trait builds the allocating, batch and evaluation wrappers on
//! them once.

use std::time::Instant;

use smore_data::Dataset;
use smore_packed::{EncoderScratch, PackedHypervector};
use smore_tensor::{parallel, Matrix};

use crate::config::SmoreConfig;
use crate::smore_model::{EvalReport, Prediction};
use crate::{Result, SmoreError};

/// Caller-owned scratch for the serving hot path, shared by every
/// [`Predictor`] backend.
///
/// Bundles every buffer one prediction needs — the scaled window, the
/// packed encoder's [`EncoderScratch`] and query, the dense query vector,
/// the similarity / ensemble-weight / per-class-score vectors and the
/// output [`Prediction`] — so [`Predictor::predict_window_with`] performs
/// no heap allocation in steady state. Buffers size themselves lazily on
/// first use and survive a change of model (an enrolled domain merely
/// grows the similarity vectors once). One scratch can serve different
/// backends (and different models) interleaved; it just re-sizes on the
/// first call of each shape.
///
/// # Example
///
/// ```no_run
/// use smore::Predictor;
///
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
/// Populated by [`Predictor::predict_window_with`] on the packed backends
/// ([`QuantizedSmore`](crate::QuantizedSmore) and
/// [`DeltaSmore`](crate::DeltaSmore), the serving path); the dense
/// reference pipeline leaves it zeroed. Telemetry layers read it from
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

    /// The prediction produced by the most recent
    /// [`Predictor::predict_window_with`] call through this scratch.
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
fn empty_prediction() -> Prediction {
    Prediction {
        label: 0,
        is_ood: false,
        delta_max: 0.0,
        best_domain: 0,
        domain_similarities: Vec::new(),
    }
}

/// One inference surface over every SMORE serving backend — the only
/// prediction API the models expose.
///
/// Implemented by [`Smore`](crate::Smore) (dense reference pipeline),
/// [`QuantizedSmore`](crate::QuantizedSmore) (bit-packed serving) and
/// [`DeltaSmore`](crate::DeltaSmore) (base + tenant delta, chained), so
/// benches, examples and tests can hold a `&dyn Predictor` instead of
/// matching on the backend.
///
/// A backend implements three methods: [`config`](Self::config) and the
/// two scratch entry points, [`predict_window_with`](Self::predict_window_with)
/// and [`score_into`](Self::score_into), which reuse a caller-owned
/// [`ServeScratch`]. Everything else is written once, here:
/// [`num_classes`](Self::num_classes), the allocating
/// [`predict_window`](Self::predict_window), the thread-parallel
/// [`predict_batch`](Self::predict_batch) (one scratch per chunk of
/// `config().threads`), [`evaluate`](Self::evaluate) and
/// [`evaluate_indices`](Self::evaluate_indices).
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
///     assert_eq!(backend.evaluate_indices(&ds, &all)?.samples, ds.len());
/// }
/// # Ok(())
/// # }
/// ```
pub trait Predictor: Sync {
    /// The configuration this model scores with: shape, `δ*`, Eq. 3
    /// weight power and the batch thread count.
    fn config(&self) -> &SmoreConfig;

    /// Predicts one window through caller-owned scratch — the
    /// allocation-free hot path. The returned reference points into `scratch`
    /// (also readable later through [`ServeScratch::prediction`]); clone it
    /// to keep the prediction past the next call.
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

    /// Number of activity classes `n` this model scores.
    fn num_classes(&self) -> usize {
        self.config().num_classes
    }

    /// Predicts one window — the allocating convenience wrapper.
    ///
    /// # Errors
    ///
    /// Same conditions as [`predict_window_with`](Self::predict_window_with).
    fn predict_window(&self, window: &Matrix) -> Result<Prediction> {
        let mut scratch = ServeScratch::new();
        Ok(self.predict_window_with(window, &mut scratch)?.clone())
    }

    /// Predicts a batch of windows in parallel over `config().threads`
    /// chunks; every chunk reuses one [`ServeScratch`], so the per-window
    /// cost is one [`predict_window_with`](Self::predict_window_with) plus
    /// one output clone.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-index failing window.
    fn predict_batch(&self, windows: &[Matrix]) -> Result<Vec<Prediction>> {
        let mut out: Vec<Result<Prediction>> =
            (0..windows.len()).map(|_| Ok(empty_prediction())).collect();
        parallel::par_chunks_indexed(&mut out, self.config().threads, |start, chunk| {
            let mut scratch = ServeScratch::new();
            for (slot, window) in chunk.iter_mut().zip(windows.iter().skip(start)) {
                *slot = self.predict_window_with(window, &mut scratch).cloned();
            }
        });
        out.into_iter().collect()
    }

    /// Predicts and scores a labelled evaluation set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`predict_batch`](Self::predict_batch), plus
    /// [`crate::SmoreError::InvalidConfig`] for an empty set or mismatched
    /// label counts.
    fn evaluate(&self, windows: &[Matrix], labels: &[usize]) -> Result<EvalReport> {
        if windows.len() != labels.len() || windows.is_empty() {
            return Err(SmoreError::InvalidConfig {
                what: format!("{} windows but {} labels", windows.len(), labels.len()),
            });
        }
        let t0 = Instant::now();
        let predictions = self.predict_batch(windows)?;
        let infer_seconds = t0.elapsed().as_secs_f64();
        let correct = predictions.iter().zip(labels).filter(|(p, &l)| p.label == l).count();
        let ood = predictions.iter().filter(|p| p.is_ood).count();
        Ok(EvalReport {
            accuracy: correct as f32 / windows.len() as f32,
            samples: windows.len(),
            ood_fraction: ood as f32 / windows.len() as f32,
            infer_seconds,
        })
    }

    /// [`evaluate`](Self::evaluate) on the rows of `dataset` selected by
    /// `indices`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`evaluate`](Self::evaluate).
    fn evaluate_indices(&self, dataset: &Dataset, indices: &[usize]) -> Result<EvalReport> {
        let (windows, labels, _) = dataset.gather(indices);
        self.evaluate(&windows, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaSmore, QuantizedSmore, Smore, SmoreConfig, SnapshotDelta};
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
    use smore_tensor::vecops::argmax;

    /// A fitted dense model, its quantization and a delta with one
    /// enrolled domain over it.
    struct Fixture {
        ds: Dataset,
        dense: Smore,
        quantized: QuantizedSmore,
        delta: SnapshotDelta,
    }

    impl Fixture {
        fn new() -> Self {
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
            let mut dense = Smore::new(
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
            dense.fit_indices(&ds, &all).unwrap();
            let quantized = dense.quantize().unwrap();
            let (w, l, _) = ds.gather(&(40..60).collect::<Vec<_>>());
            let prep = dense.prepare_domain(&w, &l, &[]).unwrap();
            let mut delta = SnapshotDelta::new(&quantized);
            delta.enroll_domain(&quantized, &prep.model, &prep.descriptor, 7).unwrap();
            Self { ds, dense, quantized, delta }
        }

        /// Sets the batch thread count of every backend.
        fn set_threads(&mut self, threads: usize) {
            self.dense.config.threads = threads;
            self.quantized.config.threads = threads;
        }

        /// Runs `check(name, backend, domains served)` on the three
        /// backends, each behind `&dyn Predictor`.
        fn for_each_backend(&self, mut check: impl FnMut(&str, &dyn Predictor, usize)) {
            let chained = DeltaSmore::new(&self.quantized, self.delta.domains());
            check("dense", &self.dense, 2);
            check("quantized", &self.quantized, 2);
            check("chained", &chained, 3);
        }
    }

    #[test]
    fn batch_matches_the_scratch_path_per_backend_and_thread_count() {
        let mut fx = Fixture::new();
        let (windows, _, _) = fx.ds.gather(&(0..10).map(|i| i * 5).collect::<Vec<_>>());
        for threads in [1, 4] {
            fx.set_threads(threads);
            fx.for_each_backend(|name, backend, domains| {
                let batch = backend.predict_batch(&windows).unwrap();
                assert_eq!(batch.len(), windows.len(), "{name} at {threads} threads");
                let mut scratch = ServeScratch::new();
                for (w, expected) in windows.iter().zip(&batch) {
                    let p = backend.predict_window_with(w, &mut scratch).unwrap().clone();
                    assert_eq!(&p, expected, "{name} at {threads} threads");
                    assert_eq!(scratch.prediction(), expected);
                    assert_eq!(p.label, argmax(scratch.scores()).unwrap());
                    assert_eq!(p.domain_similarities.len(), domains, "{name}");
                    assert_eq!(&backend.predict_window(w).unwrap(), expected);
                }
            });
        }
    }

    #[test]
    fn evaluate_counts_batch_labels_and_rejects_bad_inputs() {
        let mut fx = Fixture::new();
        let indices: Vec<usize> = (0..12).map(|i| i * 5).collect();
        let (windows, labels, _) = fx.ds.gather(&indices);
        for threads in [1, 4] {
            fx.set_threads(threads);
            fx.for_each_backend(|name, backend, _| {
                let batch = backend.predict_batch(&windows).unwrap();
                let correct = batch.iter().zip(&labels).filter(|(p, &l)| p.label == l).count();
                let ood = batch.iter().filter(|p| p.is_ood).count();
                let n = windows.len() as f32;
                for report in [
                    backend.evaluate(&windows, &labels).unwrap(),
                    backend.evaluate_indices(&fx.ds, &indices).unwrap(),
                ] {
                    assert_eq!(report.samples, windows.len(), "{name} at {threads} threads");
                    assert_eq!(report.accuracy, correct as f32 / n, "{name} at {threads} threads");
                    assert_eq!(report.ood_fraction, ood as f32 / n, "{name} at {threads} threads");
                }
                for (w, l) in [(&windows[..0], &labels[..0]), (&windows[..2], &labels[..1])] {
                    assert!(
                        matches!(backend.evaluate(w, l), Err(SmoreError::InvalidConfig { .. })),
                        "{name}: {} windows, {} labels",
                        w.len(),
                        l.len()
                    );
                }
            });
        }
    }

    #[test]
    fn score_into_matches_prediction_argmax_and_num_classes() {
        let fx = Fixture::new();
        let mut scratch = ServeScratch::new();
        let mut scores = Vec::new();
        fx.for_each_backend(|name, backend, _| {
            assert_eq!(backend.num_classes(), 3);
            for i in [0usize, 7, 31] {
                let w = fx.ds.window(i);
                backend.score_into(w, &mut scratch, &mut scores).unwrap();
                assert_eq!(scores.len(), 3, "{name}");
                assert!(scores.iter().all(|s| s.is_finite()), "{name}");
                let p = backend.predict_window(w).unwrap();
                assert_eq!(p.label, argmax(&scores).unwrap(), "{name}");
            }
        });
    }

    #[test]
    fn unfitted_dense_model_reports_through_the_trait() {
        let model =
            Smore::new(SmoreConfig::builder().dim(128).channels(2).num_classes(3).build().unwrap())
                .unwrap();
        let backend: &dyn Predictor = &model;
        let mut scratch = ServeScratch::new();
        let window = Matrix::zeros(16, 2);
        assert!(matches!(
            backend.predict_window_with(&window, &mut scratch),
            Err(SmoreError::NotFitted)
        ));
        assert!(matches!(
            backend.score_into(&window, &mut scratch, &mut Vec::new()),
            Err(SmoreError::NotFitted)
        ));
        assert!(matches!(backend.predict_batch(&[window]), Err(SmoreError::NotFitted)));
    }
}
