//! The adaptive HDC classifier of the paper's §3.4 (Eq. 1–2).
//!
//! A model `M` holds one class hypervector `C_t` per class. Training bundles
//! encoded samples into their class hypervectors with *adaptive* weights:
//! a sample that is already well represented (high cosine similarity) adds
//! almost nothing, while a novel pattern is added with weight close to one.
//! On a misprediction the wrongly winning class is pushed away by the same
//! rule:
//!
//! ```text
//! C_j ← C_j + η (1 − δ(H, C_j)) H      (true class j)
//! C_i ← C_i − η (1 − δ(H, C_i)) H      (mispredicted class i)
//! ```
//!
//! This classifier is the shared engine behind SMORE's domain-specific
//! models, BaselineHD and DOMINO.

use smore_tensor::{parallel, vecops, Matrix};

use crate::{HdcError, Result};

/// Configuration for [`HdcClassifier`].
#[derive(Debug, Clone, PartialEq)]
pub struct HdcClassifierConfig {
    /// Hypervector dimensionality `d`.
    pub dim: usize,
    /// Number of classes `n`.
    pub num_classes: usize,
    /// Learning rate `η` of the adaptive update rule.
    pub learning_rate: f32,
    /// Maximum number of refinement epochs over the training set.
    pub epochs: usize,
}

impl Default for HdcClassifierConfig {
    /// `d = 8192`, 2 classes, `η = 0.05`, 20 epochs.
    fn default() -> Self {
        Self { dim: 8192, num_classes: 2, learning_rate: 0.05, epochs: 20 }
    }
}

/// Checks `config` without building a model: `dim` and `num_classes`
/// positive, the learning rate in `(0, 1]`, `epochs` positive.
fn validate(config: &HdcClassifierConfig) -> Result<()> {
    if config.dim == 0 {
        return Err(HdcError::InvalidConfig { what: "classifier dim must be positive".into() });
    }
    if config.num_classes == 0 {
        return Err(HdcError::InvalidConfig { what: "classifier needs at least one class".into() });
    }
    if !(config.learning_rate > 0.0 && config.learning_rate <= 1.0) {
        return Err(HdcError::InvalidConfig {
            what: format!("learning rate must be in (0, 1], got {}", config.learning_rate),
        });
    }
    if config.epochs == 0 {
        return Err(HdcError::InvalidConfig { what: "epochs must be positive".into() });
    }
    Ok(())
}

/// Report returned by [`HdcClassifier::fit`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FitReport {
    /// Number of refinement epochs actually run (early-stops when an epoch
    /// makes no update).
    pub epochs_run: usize,
    /// Training accuracy measured at the end of each epoch.
    pub train_accuracy: Vec<f32>,
    /// Number of corrective updates applied in each epoch.
    pub updates_per_epoch: Vec<usize>,
}

/// An HDC classifier: one class hypervector per class (paper §3.4).
///
/// # Example
///
/// ```
/// use smore_hdc::model::{HdcClassifier, HdcClassifierConfig};
/// use smore_tensor::{init, Matrix};
///
/// # fn main() -> Result<(), smore_hdc::HdcError> {
/// // Two well-separated random class prototypes plus noise.
/// let mut rng = init::rng(3);
/// let protos = init::bipolar_matrix(&mut rng, 2, 512);
/// let mut samples = Matrix::zeros(40, 512);
/// let mut labels = Vec::new();
/// for i in 0..40 {
///     let class = i % 2;
///     let noise = init::normal_vec(&mut rng, 512);
///     for j in 0..512 {
///         samples.set(i, j, protos.get(class, j) + 0.5 * noise[j]);
///     }
///     labels.push(class);
/// }
/// let mut model = HdcClassifier::new(HdcClassifierConfig {
///     dim: 512,
///     num_classes: 2,
///     ..HdcClassifierConfig::default()
/// })?;
/// model.fit(&samples, &labels)?;
/// assert_eq!(model.predict_one(samples.row(0))?, labels[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HdcClassifier {
    class_hvs: Matrix,
    config: HdcClassifierConfig,
}

impl HdcClassifier {
    /// Creates a classifier with zeroed class hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when `dim` or `num_classes` is
    /// zero, the learning rate is not in `(0, 1]`, or `epochs` is zero.
    pub fn new(config: HdcClassifierConfig) -> Result<Self> {
        validate(&config)?;
        Ok(Self { class_hvs: Matrix::zeros(config.num_classes, config.dim), config })
    }

    /// Wraps an existing `(num_classes, dim)` matrix of class hypervectors —
    /// the constructor used by test-time model ensembling (Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] for an empty matrix.
    pub fn from_class_hypervectors(class_hvs: Matrix) -> Result<Self> {
        if class_hvs.rows() == 0 || class_hvs.cols() == 0 {
            return Err(HdcError::InvalidConfig {
                what: "class hypervector matrix must be non-empty".into(),
            });
        }
        let config = HdcClassifierConfig {
            dim: class_hvs.cols(),
            num_classes: class_hvs.rows(),
            ..HdcClassifierConfig::default()
        };
        Ok(Self { class_hvs, config })
    }

    /// [`from_class_hypervectors`](Self::from_class_hypervectors) with
    /// explicit training hyper-parameters — used when a pre-initialised
    /// model will be trained further (e.g. SMORE's shared-initialisation
    /// domain models).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] for an empty matrix or invalid
    /// hyper-parameters.
    pub fn from_class_hypervectors_with(
        class_hvs: Matrix,
        learning_rate: f32,
        epochs: usize,
    ) -> Result<Self> {
        let mut model = Self::from_class_hypervectors(class_hvs)?;
        model.config.learning_rate = learning_rate;
        model.config.epochs = epochs;
        validate(&model.config)?;
        Ok(model)
    }

    /// The classifier configuration.
    pub fn config(&self) -> &HdcClassifierConfig {
        &self.config
    }

    /// Hypervector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of classes `n`.
    pub fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    /// The `(num_classes, dim)` matrix of class hypervectors.
    pub fn class_hypervectors(&self) -> &Matrix {
        &self.class_hvs
    }

    /// Cosine similarity scores `δ(H, C_t)` of a sample against every class.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the sample dimension
    /// differs from the model's.
    pub fn scores(&self, sample: &[f32]) -> Result<Vec<f32>> {
        self.check_dim(sample)?;
        Ok((0..self.config.num_classes)
            .map(|c| vecops::cosine(sample, self.class_hvs.row(c)))
            .collect())
    }

    /// Predicts the class with the highest cosine similarity.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on a dimension mismatch.
    pub fn predict_one(&self, sample: &[f32]) -> Result<usize> {
        let scores = self.scores(sample)?;
        Ok(vecops::argmax(&scores).unwrap_or(0))
    }

    /// Predicts a whole `(batch, dim)` matrix in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the batch width differs
    /// from the model dimension.
    pub fn predict_batch(&self, samples: &Matrix, threads: usize) -> Result<Vec<usize>> {
        if samples.cols() != self.config.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.config.dim,
                actual: samples.cols(),
            });
        }
        let mut out = vec![0usize; samples.rows()];
        parallel::par_chunks_indexed(&mut out, threads, |start, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                let scores: Vec<f32> = (0..self.config.num_classes)
                    .map(|c| vecops::cosine(samples.row(start + k), self.class_hvs.row(c)))
                    .collect();
                *o = vecops::argmax(&scores).unwrap_or(0);
            }
        });
        Ok(out)
    }

    /// Single-pass bootstrap: adds a sample to its class with adaptive
    /// weight `1 − δ(H, C_label)` (how OnlineHD builds its initial model).
    ///
    /// # Errors
    ///
    /// - [`HdcError::DimensionMismatch`] on a dimension mismatch.
    /// - [`HdcError::LabelOutOfRange`] for an invalid label.
    pub fn bootstrap_one(&mut self, sample: &[f32], label: usize) -> Result<()> {
        self.check_dim(sample)?;
        self.check_label(label)?;
        let delta = vecops::cosine(sample, self.class_hvs.row(label));
        let w = 1.0 - delta;
        vecops::axpy(w, sample, self.class_hvs.row_mut(label));
        Ok(())
    }

    /// One adaptive update (Eq. 2). Returns `true` when the sample was
    /// mispredicted and the model changed.
    ///
    /// # Errors
    ///
    /// - [`HdcError::DimensionMismatch`] on a dimension mismatch.
    /// - [`HdcError::LabelOutOfRange`] for an invalid label.
    pub fn update_one(&mut self, sample: &[f32], label: usize) -> Result<bool> {
        self.check_dim(sample)?;
        self.check_label(label)?;
        let scores = self.scores(sample)?;
        let predicted = vecops::argmax(&scores).unwrap_or(0);
        if predicted == label {
            return Ok(false);
        }
        let eta = self.config.learning_rate;
        let w_true = eta * (1.0 - scores[label]);
        let w_pred = eta * (1.0 - scores[predicted]);
        vecops::axpy(w_true, sample, self.class_hvs.row_mut(label));
        vecops::axpy(-w_pred, sample, self.class_hvs.row_mut(predicted));
        Ok(true)
    }

    /// One *streaming* adaptive update (the paper's Eq. 1–2 fused for
    /// online data): the sample is always bundled into its class with the
    /// adaptive weight `1 − δ(H, C_label)`, and when the model currently
    /// mispredicts it the wrongly winning class is additionally pushed away
    /// with `η (1 − δ(H, C_pred))`. Unlike [`fit`](Self::fit) this touches
    /// the model exactly once per sample and never iterates — the
    /// single-pass variant for latency-critical loops that cannot hold a
    /// buffer. When a buffered batch *is* available (e.g.
    /// `smore::Smore::enroll_domain`), the multi-epoch [`fit`](Self::fit)
    /// is measurably more accurate (~10 points on the streaming-enrolment
    /// calibration scenario) and remains the default. Returns `true` when
    /// the sample was mispredicted before the update.
    ///
    /// # Errors
    ///
    /// - [`HdcError::DimensionMismatch`] on a dimension mismatch.
    /// - [`HdcError::LabelOutOfRange`] for an invalid label.
    pub fn adapt_one(&mut self, sample: &[f32], label: usize) -> Result<bool> {
        self.check_dim(sample)?;
        self.check_label(label)?;
        let scores = self.scores(sample)?;
        let predicted = vecops::argmax(&scores).unwrap_or(0);
        let w_true = 1.0 - scores[label];
        if w_true.is_finite() && w_true > 0.0 {
            vecops::axpy(w_true, sample, self.class_hvs.row_mut(label));
        }
        if predicted == label {
            return Ok(false);
        }
        let w_pred = self.config.learning_rate * (1.0 - scores[predicted]);
        if w_pred.is_finite() && w_pred > 0.0 {
            vecops::axpy(-w_pred, sample, self.class_hvs.row_mut(predicted));
        }
        Ok(true)
    }

    /// Streams a labelled micro-batch through [`adapt_one`](Self::adapt_one)
    /// in arrival order, returning the number of samples that were
    /// mispredicted when they arrived.
    ///
    /// # Errors
    ///
    /// Propagates the per-sample errors of [`adapt_one`](Self::adapt_one),
    /// plus a length-mismatch error when `labels` disagrees with the batch.
    pub fn adapt_batch(&mut self, samples: &Matrix, labels: &[usize]) -> Result<usize> {
        if samples.rows() != labels.len() {
            return Err(HdcError::Tensor(smore_tensor::TensorError::LengthMismatch {
                expected: samples.rows(),
                actual: labels.len(),
            }));
        }
        let mut mispredicted = 0usize;
        for (i, &label) in labels.iter().enumerate() {
            if self.adapt_one(samples.row(i), label)? {
                mispredicted += 1;
            }
        }
        Ok(mispredicted)
    }

    /// Trains on a `(batch, dim)` matrix with labels: one bootstrap pass
    /// followed by up to `epochs` corrective passes (early-stopping when an
    /// epoch makes no update).
    ///
    /// # Errors
    ///
    /// - [`HdcError::EmptyInput`] when the batch is empty.
    /// - [`HdcError::Tensor`] wrapping a shape error when `labels` disagrees
    ///   with the batch, plus the per-sample errors of
    ///   [`update_one`](Self::update_one).
    pub fn fit(&mut self, samples: &Matrix, labels: &[usize]) -> Result<FitReport> {
        if samples.rows() == 0 {
            return Err(HdcError::EmptyInput { what: "training samples" });
        }
        if samples.rows() != labels.len() {
            return Err(HdcError::Tensor(smore_tensor::TensorError::LengthMismatch {
                expected: samples.rows(),
                actual: labels.len(),
            }));
        }
        for (i, &label) in labels.iter().enumerate() {
            self.bootstrap_one(samples.row(i), label)?;
        }
        let mut report = FitReport::default();
        for _ in 0..self.config.epochs {
            let mut updates = 0usize;
            for (i, &label) in labels.iter().enumerate() {
                if self.update_one(samples.row(i), label)? {
                    updates += 1;
                }
            }
            report.epochs_run += 1;
            report.updates_per_epoch.push(updates);
            let correct = labels
                .iter()
                .enumerate()
                .filter(|&(i, &l)| {
                    self.predict_one(samples.row(i)).map(|p| p == l).unwrap_or(false)
                })
                .count();
            report.train_accuracy.push(correct as f32 / labels.len() as f32);
            if updates == 0 {
                break;
            }
        }
        Ok(report)
    }

    /// Builds the similarity-weighted ensemble of Eq. 3:
    /// `M_T = Σ_k w_k · M_k`.
    ///
    /// All models must agree in shape; weights may be any non-negative
    /// similarity scores (the caller decides thresholding).
    ///
    /// # Errors
    ///
    /// - [`HdcError::EmptyInput`] when `models` is empty.
    /// - [`HdcError::InvalidConfig`] when `weights` disagrees in length or
    ///   the models disagree in shape.
    pub fn ensemble(models: &[&HdcClassifier], weights: &[f32]) -> Result<HdcClassifier> {
        let first = *models.first().ok_or(HdcError::EmptyInput { what: "ensemble models" })?;
        if models.len() != weights.len() {
            return Err(HdcError::InvalidConfig {
                what: format!("{} models but {} weights", models.len(), weights.len()),
            });
        }
        let shape = first.class_hvs.shape();
        let mut acc = Matrix::zeros(shape.0, shape.1);
        for (m, &w) in models.iter().zip(weights) {
            if m.class_hvs.shape() != shape {
                return Err(HdcError::InvalidConfig {
                    what: format!(
                        "ensemble member shape {:?} differs from {:?}",
                        m.class_hvs.shape(),
                        shape
                    ),
                });
            }
            acc.axpy(w, &m.class_hvs)?;
        }
        HdcClassifier::from_class_hypervectors(acc)
    }

    fn check_dim(&self, sample: &[f32]) -> Result<()> {
        if sample.len() != self.config.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.config.dim,
                actual: sample.len(),
            });
        }
        Ok(())
    }

    fn check_label(&self, label: usize) -> Result<()> {
        if label >= self.config.num_classes {
            return Err(HdcError::LabelOutOfRange { label, num_classes: self.config.num_classes });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_tensor::init;

    fn toy_config(dim: usize, classes: usize) -> HdcClassifierConfig {
        HdcClassifierConfig { dim, num_classes: classes, learning_rate: 0.1, epochs: 30 }
    }

    /// Samples clustered around `classes` random bipolar prototypes.
    fn clustered(
        seed: u64,
        n: usize,
        dim: usize,
        classes: usize,
        noise: f32,
    ) -> (Matrix, Vec<usize>) {
        let mut rng = init::rng(seed);
        let protos = init::bipolar_matrix(&mut rng, classes, dim);
        let mut samples = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            let eps = init::normal_vec(&mut rng, dim);
            for (j, &e) in eps.iter().enumerate() {
                samples.set(i, j, protos.get(c, j) + noise * e);
            }
            labels.push(c);
        }
        (samples, labels)
    }

    #[test]
    fn config_validation() {
        assert!(HdcClassifier::new(toy_config(0, 2)).is_err());
        assert!(HdcClassifier::new(toy_config(8, 0)).is_err());
        let mut c = toy_config(8, 2);
        c.learning_rate = 0.0;
        assert!(HdcClassifier::new(c).is_err());
        let mut c = toy_config(8, 2);
        c.learning_rate = 1.5;
        assert!(HdcClassifier::new(c).is_err());
        let mut c = toy_config(8, 2);
        c.epochs = 0;
        assert!(HdcClassifier::new(c).is_err());
    }

    #[test]
    fn fit_learns_separable_clusters() {
        let (samples, labels) = clustered(1, 60, 1024, 3, 0.8);
        let mut model = HdcClassifier::new(toy_config(1024, 3)).unwrap();
        let report = model.fit(&samples, &labels).unwrap();
        assert!(report.epochs_run >= 1);
        let acc = *report.train_accuracy.last().unwrap();
        assert!(acc > 0.95, "training accuracy {acc} too low");
    }

    #[test]
    fn fit_early_stops_when_converged() {
        let (samples, labels) = clustered(2, 30, 512, 2, 0.1);
        let mut model = HdcClassifier::new(toy_config(512, 2)).unwrap();
        let report = model.fit(&samples, &labels).unwrap();
        assert!(report.epochs_run < 30, "easy data should converge early");
        assert_eq!(*report.updates_per_epoch.last().unwrap(), 0);
    }

    #[test]
    fn update_one_is_noop_on_correct_prediction() {
        let (samples, labels) = clustered(3, 20, 256, 2, 0.2);
        let mut model = HdcClassifier::new(toy_config(256, 2)).unwrap();
        model.fit(&samples, &labels).unwrap();
        let before = model.class_hypervectors().clone();
        let changed = model.update_one(samples.row(0), labels[0]).unwrap();
        assert!(!changed);
        assert_eq!(model.class_hypervectors(), &before);
    }

    #[test]
    fn update_one_moves_toward_true_class() {
        let mut model = HdcClassifier::new(toy_config(64, 2)).unwrap();
        let mut rng = init::rng(4);
        let h = init::bipolar_vec(&mut rng, 64);
        // Put the sample's pattern into the *wrong* class first.
        model.bootstrap_one(&h, 1).unwrap();
        let changed = model.update_one(&h, 0).unwrap();
        assert!(changed);
        let scores = model.scores(&h).unwrap();
        // After one corrective update, true-class similarity increased.
        assert!(scores[0] > 0.0);
    }

    #[test]
    fn adaptive_weight_shrinks_for_known_patterns() {
        let mut model = HdcClassifier::new(toy_config(128, 1)).unwrap();
        let mut rng = init::rng(5);
        let h = init::bipolar_vec(&mut rng, 128);
        model.bootstrap_one(&h, 0).unwrap();
        let after_first = model.class_hypervectors().row(0).to_vec();
        model.bootstrap_one(&h, 0).unwrap();
        let after_second = model.class_hypervectors().row(0).to_vec();
        // Second addition of the identical pattern contributes ~nothing.
        let first_norm = smore_tensor::vecops::norm(&after_first);
        let diff: Vec<f32> = after_second.iter().zip(&after_first).map(|(a, b)| a - b).collect();
        assert!(smore_tensor::vecops::norm(&diff) < 0.05 * first_norm);
    }

    #[test]
    fn adapt_one_learns_online() {
        let (samples, labels) = clustered(11, 40, 512, 2, 0.5);
        let mut model = HdcClassifier::new(toy_config(512, 2)).unwrap();
        // Stream every sample through exactly once.
        let misses = model.adapt_batch(&samples, &labels).unwrap();
        assert!(misses < samples.rows(), "online pass should start predicting correctly");
        let correct = (0..samples.rows())
            .filter(|&i| model.predict_one(samples.row(i)).unwrap() == labels[i])
            .count();
        assert!(correct as f32 / labels.len() as f32 > 0.9, "online accuracy {correct}/40");
    }

    #[test]
    fn adapt_one_reports_mispredictions_and_validates() {
        let mut model = HdcClassifier::new(toy_config(64, 2)).unwrap();
        let mut rng = init::rng(12);
        let h = init::bipolar_vec(&mut rng, 64);
        // Zero model predicts class 0 by argmax convention; label 1 is a miss.
        assert!(model.adapt_one(&h, 1).unwrap());
        // The identical pattern is now well represented: no misprediction.
        assert!(!model.adapt_one(&h, 1).unwrap());
        assert!(model.adapt_one(&h[..32], 0).is_err());
        assert!(model.adapt_one(&h, 9).is_err());
        let bad = Matrix::zeros(3, 64);
        assert!(model.adapt_batch(&bad, &[0, 1]).is_err());
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        let mut model = HdcClassifier::new(toy_config(32, 2)).unwrap();
        let empty = Matrix::zeros(0, 32);
        assert!(matches!(model.fit(&empty, &[]), Err(HdcError::EmptyInput { .. })));
        let samples = Matrix::zeros(3, 32);
        assert!(model.fit(&samples, &[0, 1]).is_err(), "label count mismatch");
        assert!(model.fit(&samples, &[0, 1, 5]).is_err(), "label out of range");
    }

    #[test]
    fn predict_batch_matches_predict_one() {
        let (samples, labels) = clustered(6, 25, 256, 3, 0.5);
        let mut model = HdcClassifier::new(toy_config(256, 3)).unwrap();
        model.fit(&samples, &labels).unwrap();
        let batch = model.predict_batch(&samples, 4).unwrap();
        for (i, &predicted) in batch.iter().enumerate() {
            assert_eq!(predicted, model.predict_one(samples.row(i)).unwrap());
        }
    }

    #[test]
    fn scores_shape_and_dimension_check() {
        let model = HdcClassifier::new(toy_config(16, 4)).unwrap();
        let s = model.scores(&[0.0; 16]).unwrap();
        assert_eq!(s.len(), 4);
        assert!(model.scores(&[0.0; 8]).is_err());
        assert!(model.predict_one(&[0.0; 8]).is_err());
        let bad = Matrix::zeros(2, 8);
        assert!(model.predict_batch(&bad, 1).is_err());
    }

    #[test]
    fn ensemble_weighted_sum() {
        let mut a = HdcClassifier::new(toy_config(4, 2)).unwrap();
        let mut b = HdcClassifier::new(toy_config(4, 2)).unwrap();
        a.class_hvs = Matrix::from_vec(2, 4, vec![1.0; 8]).unwrap();
        b.class_hvs = Matrix::from_vec(2, 4, vec![2.0; 8]).unwrap();
        let e = HdcClassifier::ensemble(&[&a, &b], &[0.5, 0.25]).unwrap();
        assert!(e.class_hypervectors().as_slice().iter().all(|&x| (x - 1.0).abs() < 1e-6));
    }

    #[test]
    fn ensemble_validates() {
        let a = HdcClassifier::new(toy_config(4, 2)).unwrap();
        let b = HdcClassifier::new(toy_config(8, 2)).unwrap();
        assert!(HdcClassifier::ensemble(&[], &[]).is_err());
        assert!(HdcClassifier::ensemble(&[&a], &[0.5, 0.5]).is_err());
        assert!(HdcClassifier::ensemble(&[&a, &b], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn from_class_hypervectors_roundtrip() {
        let m = Matrix::from_vec(3, 8, (0..24).map(|x| x as f32).collect()).unwrap();
        let model = HdcClassifier::from_class_hypervectors(m.clone()).unwrap();
        assert_eq!(model.num_classes(), 3);
        assert_eq!(model.dim(), 8);
        assert_eq!(model.class_hypervectors(), &m);
        assert!(HdcClassifier::from_class_hypervectors(Matrix::zeros(0, 4)).is_err());
    }

    #[test]
    fn from_class_hypervectors_with_sets_hyperparameters() {
        let m = Matrix::from_vec(2, 4, vec![0.5; 8]).unwrap();
        let model = HdcClassifier::from_class_hypervectors_with(m, 0.2, 7).unwrap();
        assert_eq!(model.config().learning_rate, 0.2);
        assert_eq!(model.config().epochs, 7);
        // Invalid hyper-parameters are rejected.
        let m = Matrix::from_vec(2, 4, vec![0.5; 8]).unwrap();
        assert!(HdcClassifier::from_class_hypervectors_with(m.clone(), 0.0, 7).is_err());
        assert!(HdcClassifier::from_class_hypervectors_with(m.clone(), 1.5, 7).is_err());
        assert!(HdcClassifier::from_class_hypervectors_with(m, 0.2, 0).is_err());
    }

    #[test]
    fn shared_init_model_continues_training() {
        // A model seeded from existing prototypes must keep refining.
        let (samples, labels) = clustered(8, 30, 256, 2, 0.6);
        let mut base = HdcClassifier::new(toy_config(256, 2)).unwrap();
        base.fit(&samples, &labels).unwrap();
        let mut specialised =
            HdcClassifier::from_class_hypervectors_with(base.class_hypervectors().clone(), 0.1, 10)
                .unwrap();
        let report = specialised.fit(&samples, &labels).unwrap();
        assert!(report.epochs_run >= 1);
        let acc = *report.train_accuracy.last().unwrap();
        assert!(acc > 0.9, "specialised model accuracy {acc}");
    }

    #[test]
    fn single_class_model_always_predicts_zero() {
        let (samples, _) = clustered(7, 10, 64, 1, 0.3);
        let labels = vec![0usize; 10];
        let mut model = HdcClassifier::new(toy_config(64, 1)).unwrap();
        model.fit(&samples, &labels).unwrap();
        assert!(model.predict_batch(&samples, 2).unwrap().iter().all(|&p| p == 0));
    }
}
