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
/// [`fit`](Self::fit) is the one training entry point. Training and
/// scoring share one kernel: a sample's dot with every class, four classes
/// per pass over the dimension, each dot its own `f64` sum. A cosine then
/// takes the sample's and the class's squared norms; `fit` sums each of
/// those once and keeps them, instead of once per class per call. Every sum
/// runs in index order, as in [`vecops::cosine`], so scores and trained
/// bits equal those of per-class `vecops::cosine` calls.
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
        self.check_dim(sample.len())?;
        let mut dots = vec![0.0f64; self.config.num_classes];
        class_dots([sample], &self.class_hvs, &mut dots);
        let mut scores = vec![0.0f32; self.config.num_classes];
        cosines_into(&dots, dot(sample, sample), &class_sq_norms(&self.class_hvs), &mut scores);
        Ok(scores)
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

    /// Predicts a whole `(batch, dim)` matrix in parallel. The class norms
    /// are summed once per call, and each worker scores its rows two per
    /// kernel pass.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] when the batch width differs
    /// from the model dimension.
    pub fn predict_batch(&self, samples: &Matrix, threads: usize) -> Result<Vec<usize>> {
        self.check_dim(samples.cols())?;
        let class_norms = class_sq_norms(&self.class_hvs);
        let mut out = vec![0usize; samples.rows()];
        parallel::par_chunks_indexed(&mut out, threads, |start, chunk| {
            let sample_norms: Vec<f64> =
                samples.iter_rows().skip(start).take(chunk.len()).map(|x| dot(x, x)).collect();
            self.predict_rows(samples, start, &sample_norms, &class_norms, chunk);
        });
        Ok(out)
    }

    /// Trains on a `(batch, dim)` matrix with labels: one bootstrap pass
    /// followed by up to `epochs` corrective passes (early-stopping when an
    /// epoch makes no update).
    ///
    /// - **Bootstrap** (how OnlineHD builds its initial model): each sample
    ///   in turn is added to its class with weight `1 − δ(H, C_label)`.
    /// - **Corrective epochs** (Eq. 1–2): a sample the model mispredicts is
    ///   added to its true class with weight `η (1 − δ(H, C_true))` and
    ///   subtracted from the winning class with weight `η (1 − δ(H, C_pred))`.
    ///   `FitReport::train_accuracy` is measured on the model as it stands
    ///   at the end of each epoch, and training stops after an epoch with no
    ///   update.
    ///
    /// Every input is validated before the first write, so a rejected call
    /// leaves the model unchanged.
    ///
    /// Scores come from the blocked dot kernel and cached squared norms:
    /// each sample's `Σx²` is summed once per call, and each class's `Σc²`
    /// once at the start (the model may be seeded) and again, from the
    /// written values and in the same pass, whenever its row is written.
    /// Never updating a norm algebraically keeps every sum in index order,
    /// as [`vecops::cosine`] sums it, so the trained bits equal those of a
    /// loop that calls `vecops::cosine` and `vecops::axpy` per class.
    ///
    /// # Errors
    ///
    /// - [`HdcError::EmptyInput`] when the batch is empty.
    /// - [`HdcError::Tensor`] wrapping a shape error when `labels` disagrees
    ///   with the batch.
    /// - [`HdcError::DimensionMismatch`] when the batch width differs from
    ///   the model dimension.
    /// - [`HdcError::LabelOutOfRange`] for the first invalid label.
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
        self.check_dim(samples.cols())?;
        let classes = self.config.num_classes;
        if let Some(&label) = labels.iter().find(|&&l| l >= classes) {
            return Err(HdcError::LabelOutOfRange { label, num_classes: classes });
        }
        let sample_norms: Vec<f64> = samples.iter_rows().map(|x| dot(x, x)).collect();
        let mut class_norms = class_sq_norms(&self.class_hvs);
        for (i, &label) in labels.iter().enumerate() {
            let x = samples.row(i);
            let row = self.class_hvs.row_mut(label);
            let w = 1.0 - cosine_from(dot(x, row), sample_norms[i], class_norms[label]);
            class_norms[label] = axpy_sq_norm(w, x, row);
        }
        let eta = self.config.learning_rate;
        let mut dots = vec![0.0f64; classes];
        let mut scores = vec![0.0f32; classes];
        let mut predicted = vec![0usize; labels.len()];
        let mut report = FitReport::default();
        for _ in 0..self.config.epochs {
            let mut updates = 0usize;
            for (i, &label) in labels.iter().enumerate() {
                let x = samples.row(i);
                class_dots([x], &self.class_hvs, &mut dots);
                cosines_into(&dots, sample_norms[i], &class_norms, &mut scores);
                let predicted = vecops::argmax(&scores).unwrap_or(0);
                if predicted == label {
                    continue;
                }
                let w_true = eta * (1.0 - scores[label]);
                let w_pred = eta * (1.0 - scores[predicted]);
                class_norms[label] = axpy_sq_norm(w_true, x, self.class_hvs.row_mut(label));
                class_norms[predicted] =
                    axpy_sq_norm(-w_pred, x, self.class_hvs.row_mut(predicted));
                updates += 1;
            }
            report.epochs_run += 1;
            report.updates_per_epoch.push(updates);
            self.predict_rows(samples, 0, &sample_norms, &class_norms, &mut predicted);
            let correct = predicted.iter().zip(labels).filter(|(p, l)| p == l).count();
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

    fn check_dim(&self, len: usize) -> Result<()> {
        if len != self.config.dim {
            return Err(HdcError::DimensionMismatch { expected: self.config.dim, actual: len });
        }
        Ok(())
    }

    /// Predicts `out.len()` consecutive rows of `samples` from row `start`,
    /// given their squared norms and the classes'. Rows go two per kernel
    /// pass; a last odd row goes alone.
    fn predict_rows(
        &self,
        samples: &Matrix,
        start: usize,
        sample_norms: &[f64],
        class_norms: &[f64],
        out: &mut [usize],
    ) {
        let classes = self.config.num_classes;
        let mut dots = vec![0.0f64; 2 * classes];
        let mut scores = vec![0.0f32; classes];
        for (k, (pair, norms)) in out.chunks_mut(2).zip(sample_norms.chunks(2)).enumerate() {
            let row = start + 2 * k;
            if pair.len() == 2 {
                class_dots([samples.row(row), samples.row(row + 1)], &self.class_hvs, &mut dots);
            } else {
                class_dots([samples.row(row)], &self.class_hvs, &mut dots[..classes]);
            }
            for ((p, &na), dots) in pair.iter_mut().zip(norms).zip(dots.chunks(classes)) {
                cosines_into(dots, na, class_norms, &mut scores);
                *p = vecops::argmax(&scores).unwrap_or(0);
            }
        }
    }
}

/// Class rows per pass of [`class_dots`] over the dimension.
const BLOCK: usize = 4;

/// `Σ_i a_i b_i` in `f64`, summed in index order: the dot that
/// [`vecops::cosine`] sums, and, with `b = a`, its squared norm.
fn dot(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        acc += (x as f64) * (y as f64);
    }
    acc
}

/// The rows of the class block that starts at `start`. A partial last
/// block repeats its last row; [`class_dots`] drops those sums.
fn block_rows(class_hvs: &Matrix, start: usize) -> [&[f32]; BLOCK] {
    let last = class_hvs.rows() - 1;
    std::array::from_fn(|k| class_hvs.row((start + k).min(last)))
}

/// The one scoring kernel: `dots[s * C + c] = Σ_i xs[s]_i C_ci` for every
/// sample `s` and class `c`, in one pass over the dimension per block of
/// [`BLOCK`] classes. Every dot is its own `f64` accumulator summed in
/// index order, so each equals the dot of [`vecops::cosine`] bit for bit;
/// the blocks only run independent sums side by side.
fn class_dots<const S: usize>(xs: [&[f32]; S], class_hvs: &Matrix, dots: &mut [f64]) {
    let (classes, dim) = class_hvs.shape();
    let xs = xs.map(|x| &x[..dim]);
    for start in (0..classes).step_by(BLOCK) {
        let [r0, r1, r2, r3] = block_rows(class_hvs, start).map(|r| &r[..dim]);
        let mut acc = [[0.0f64; BLOCK]; S];
        // Spelled out per class, with no closure or iterator adaptor per
        // element: unoptimised test builds run this loop too.
        for i in 0..dim {
            let c = [r0[i] as f64, r1[i] as f64, r2[i] as f64, r3[i] as f64];
            for s in 0..S {
                let x = xs[s][i] as f64;
                acc[s][0] += x * c[0];
                acc[s][1] += x * c[1];
                acc[s][2] += x * c[2];
                acc[s][3] += x * c[3];
            }
        }
        let take = BLOCK.min(classes - start);
        for (out, acc) in dots.chunks_mut(classes).zip(&acc) {
            out[start..start + take].copy_from_slice(&acc[..take]);
        }
    }
}

/// `Σ_i C_ci²` of every class row, each summed as [`vecops::cosine`] sums
/// it. Rows go [`BLOCK`] per pass, so [`HdcClassifier::scores`], which has
/// no cached norms, reads the classes twice per call rather than once per
/// class.
fn class_sq_norms(class_hvs: &Matrix) -> Vec<f64> {
    let (classes, dim) = class_hvs.shape();
    let mut norms = vec![0.0f64; classes];
    for start in (0..classes).step_by(BLOCK) {
        let [r0, r1, r2, r3] = block_rows(class_hvs, start).map(|r| &r[..dim]);
        let mut acc = [0.0f64; BLOCK];
        for i in 0..dim {
            let c = [r0[i] as f64, r1[i] as f64, r2[i] as f64, r3[i] as f64];
            acc[0] += c[0] * c[0];
            acc[1] += c[1] * c[1];
            acc[2] += c[2] * c[2];
            acc[3] += c[3] * c[3];
        }
        let take = BLOCK.min(classes - start);
        norms[start..start + take].copy_from_slice(&acc[..take]);
    }
    norms
}

/// The last step of [`vecops::cosine`], from its three sums.
fn cosine_from(dot: f64, na: f64, nb: f64) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())) as f32
}

/// `scores[c] = δ(H, C_c)` from the sample's dots and the squared norms.
fn cosines_into(dots: &[f64], na: f64, class_norms: &[f64], scores: &mut [f32]) {
    for ((s, &dot), &nb) in scores.iter_mut().zip(dots).zip(class_norms) {
        *s = cosine_from(dot, na, nb);
    }
}

/// `row += alpha · x` as [`vecops::axpy`] writes it, returning the written
/// row's `Σc²` summed in index order in the same pass.
fn axpy_sq_norm(alpha: f32, x: &[f32], row: &mut [f32]) -> f64 {
    let mut acc = 0.0f64;
    for (y, &xi) in row.iter_mut().zip(x) {
        *y += alpha * xi;
        acc += (*y as f64) * (*y as f64);
    }
    acc
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
    fn fit_moves_a_pattern_from_the_wrong_class_to_its_label() {
        let mut rng = init::rng(4);
        let h = init::bipolar_vec(&mut rng, 256);
        // Class 1 starts close to the sample's pattern, class 0 far from it.
        let mut seeded = init::bipolar_matrix(&mut rng, 2, 256);
        seeded.row_mut(1).iter_mut().zip(&h).for_each(|(c, &x)| *c = 0.5 * *c + x);
        let mut model = HdcClassifier::from_class_hypervectors_with(seeded, 0.1, 30).unwrap();
        let samples = Matrix::from_vec(1, 256, h.clone()).unwrap();
        let report = model.fit(&samples, &[0]).unwrap();
        // The bootstrap leaves class 1 winning; corrective epochs pull the
        // pattern into class 0 and push it out of class 1 until it flips.
        assert_eq!(report.updates_per_epoch[0], 1);
        assert_eq!(report.updates_per_epoch.last(), Some(&0));
        assert_eq!(model.predict_one(&h).unwrap(), 0);
    }

    #[test]
    fn adaptive_weight_shrinks_for_known_patterns() {
        let mut model = HdcClassifier::new(toy_config(128, 1)).unwrap();
        let mut rng = init::rng(5);
        let h = Matrix::from_vec(1, 128, init::bipolar_vec(&mut rng, 128)).unwrap();
        // One class: the bootstrap is the only write.
        model.fit(&h, &[0]).unwrap();
        let after_first = model.class_hypervectors().row(0).to_vec();
        model.fit(&h, &[0]).unwrap();
        let after_second = model.class_hypervectors().row(0).to_vec();
        // Second addition of the identical pattern contributes ~nothing.
        let first_norm = smore_tensor::vecops::norm(&after_first);
        let diff: Vec<f32> = after_second.iter().zip(&after_first).map(|(a, b)| a - b).collect();
        assert!(smore_tensor::vecops::norm(&diff) < 0.05 * first_norm);
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        let mut model = HdcClassifier::new(toy_config(32, 2)).unwrap();
        let empty = Matrix::zeros(0, 32);
        assert!(matches!(model.fit(&empty, &[]), Err(HdcError::EmptyInput { .. })));
        // Non-zero samples: a partial write before the rejection would show
        // in the class hypervectors.
        let (samples, _) = clustered(9, 3, 32, 2, 0.3);
        let unchanged = |model: &HdcClassifier| {
            model.class_hypervectors().as_slice().iter().all(|x| x.to_bits() == 0)
        };
        assert!(model.fit(&samples, &[0, 1]).is_err(), "label count mismatch");
        assert!(unchanged(&model));
        assert!(matches!(
            model.fit(&samples, &[0, 1, 5]),
            Err(HdcError::LabelOutOfRange { label: 5, num_classes: 2 })
        ));
        assert!(unchanged(&model), "rows before the bad label must not be bundled");
        let (narrow, _) = clustered(9, 3, 16, 2, 0.3);
        assert!(matches!(
            model.fit(&narrow, &[0, 1, 0]),
            Err(HdcError::DimensionMismatch { expected: 32, actual: 16 })
        ));
        assert!(unchanged(&model));
        // A seeded model keeps its bits too.
        model.fit(&samples, &[0, 1, 0]).unwrap();
        let before: Vec<u32> =
            model.class_hypervectors().as_slice().iter().map(|x| x.to_bits()).collect();
        assert!(model.fit(&samples, &[1, 0, 2]).is_err());
        let after: Vec<u32> =
            model.class_hypervectors().as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(before, after);
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
