//! Evaluation pipeline: a uniform protocol for every algorithm in the
//! paper's comparison, plus leave-one-domain-out and k-fold drivers.
//!
//! SMORE, BaselineHD, DOMINO, TENT and MDANs all implement
//! [`WindowClassifier`], so the benchmark harness can evaluate each table
//! and figure with identical data handling and timing methodology.

use std::time::Instant;

use smore_data::{split, Dataset};
use smore_tensor::Matrix;

use crate::config::SmoreConfig;
use crate::predictor::Predictor;
use crate::smore_model::Smore;

/// Boxed error used at the pipeline boundary so algorithms from different
/// crates can flow through one trait.
pub type BoxError = Box<dyn std::error::Error + Send + Sync + 'static>;

/// Task description handed to classifiers at fit time.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskMeta {
    /// Number of activity classes.
    pub num_classes: usize,
    /// Number of *training* domains (after holding one out).
    pub num_domains: usize,
    /// Sensor channels per window.
    pub channels: usize,
    /// Time steps per window.
    pub window_len: usize,
}

/// A trainable multi-sensor window classifier under the shared evaluation
/// protocol.
///
/// `fit_with_target` additionally receives the *unlabelled* target-domain
/// windows, which domain-adaptation algorithms (TENT, MDANs) are entitled
/// to use; the default implementation ignores them, which is the honest
/// behaviour for source-only methods (BaselineHD, DOMINO, SMORE).
pub trait WindowClassifier {
    /// Short display name used in benchmark tables.
    fn name(&self) -> &str;

    /// Trains on labelled, domain-tagged windows.
    ///
    /// # Errors
    ///
    /// Implementations surface their own configuration/shape errors.
    fn fit(
        &mut self,
        windows: &[Matrix],
        labels: &[usize],
        domains: &[usize],
        meta: &TaskMeta,
    ) -> std::result::Result<(), BoxError>;

    /// Trains with access to unlabelled target windows (DA privilege).
    ///
    /// # Errors
    ///
    /// Implementations surface their own configuration/shape errors.
    fn fit_with_target(
        &mut self,
        windows: &[Matrix],
        labels: &[usize],
        domains: &[usize],
        meta: &TaskMeta,
        _target_windows: &[Matrix],
    ) -> std::result::Result<(), BoxError> {
        self.fit(windows, labels, domains, meta)
    }

    /// Predicts class labels for a batch of windows.
    ///
    /// Takes `&mut self` because test-time-adapting algorithms (TENT)
    /// update their parameters while predicting, and network layers cache
    /// activations.
    ///
    /// # Errors
    ///
    /// Implementations surface their own prediction errors.
    fn predict(&mut self, windows: &[Matrix]) -> std::result::Result<Vec<usize>, BoxError>;
}

impl WindowClassifier for Smore {
    fn name(&self) -> &str {
        "SMORE"
    }

    fn fit(
        &mut self,
        windows: &[Matrix],
        labels: &[usize],
        domains: &[usize],
        _meta: &TaskMeta,
    ) -> std::result::Result<(), BoxError> {
        Smore::fit(self, windows, labels, domains)?;
        Ok(())
    }

    fn predict(&mut self, windows: &[Matrix]) -> std::result::Result<Vec<usize>, BoxError> {
        Ok(self.predict_batch(windows)?.into_iter().map(|p| p.label).collect())
    }
}

/// Builds a SMORE classifier for a dataset's task shape — the convenience
/// entry point the harness uses.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn smore_for(dataset: &Dataset, dim: usize, delta_star: f32) -> crate::Result<Smore> {
    Smore::new(
        SmoreConfig::builder()
            .dim(dim)
            .channels(dataset.meta().channels)
            .num_classes(dataset.meta().num_classes)
            .delta_star(delta_star)
            .build()?,
    )
}

/// Outcome of one leave-one-domain-out run.
#[derive(Debug, Clone, PartialEq)]
pub struct LodoOutcome {
    /// The held-out (target) domain.
    pub held_out: usize,
    /// Accuracy on the held-out domain.
    pub accuracy: f32,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
    /// Wall-clock inference seconds over the whole held-out domain.
    pub infer_seconds: f64,
    /// Number of training windows.
    pub n_train: usize,
    /// Number of evaluated windows.
    pub n_test: usize,
}

/// Trains `classifier` on all domains except `held_out` and evaluates on
/// the held-out domain (paper §4.2: the accuracy of "Domain k").
///
/// # Errors
///
/// Propagates split errors and classifier errors.
pub fn run_lodo(
    dataset: &Dataset,
    classifier: &mut dyn WindowClassifier,
    held_out: usize,
) -> std::result::Result<LodoOutcome, BoxError> {
    let (train_idx, test_idx) = split::lodo(dataset, held_out)?;
    let (train_w, train_l, train_d) = dataset.gather(&train_idx);
    let (test_w, test_l, _) = dataset.gather(&test_idx);
    let meta = TaskMeta {
        num_classes: dataset.meta().num_classes,
        num_domains: dataset.meta().num_domains - 1,
        channels: dataset.meta().channels,
        window_len: dataset.meta().window_len,
    };

    let t0 = Instant::now();
    classifier.fit_with_target(&train_w, &train_l, &train_d, &meta, &test_w)?;
    let train_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let predictions = classifier.predict(&test_w)?;
    let infer_seconds = t1.elapsed().as_secs_f64();

    let accuracy = crate::metrics::accuracy(&predictions, &test_l)?;
    Ok(LodoOutcome {
        held_out,
        accuracy,
        train_seconds,
        infer_seconds,
        n_train: train_idx.len(),
        n_test: test_idx.len(),
    })
}

/// Runs [`run_lodo`] for every domain, constructing a fresh classifier per
/// run via `make` (models must not leak state across folds).
///
/// # Errors
///
/// Propagates the first failing run.
pub fn run_lodo_all(
    dataset: &Dataset,
    mut make: impl FnMut() -> std::result::Result<Box<dyn WindowClassifier>, BoxError>,
) -> std::result::Result<Vec<LodoOutcome>, BoxError> {
    (0..dataset.meta().num_domains)
        .map(|held_out| {
            let mut classifier = make()?;
            run_lodo(dataset, classifier.as_mut(), held_out)
        })
        .collect()
}

/// Mean accuracy across LODO outcomes.
pub fn mean_accuracy(outcomes: &[LodoOutcome]) -> f32 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().map(|o| o.accuracy).sum::<f32>() / outcomes.len() as f32
}

/// Runs standard shuffled k-fold cross-validation (the leaky protocol of
/// Figure 1b) and returns the per-fold accuracies.
///
/// # Errors
///
/// Propagates split and classifier errors.
pub fn run_kfold(
    dataset: &Dataset,
    mut make: impl FnMut() -> std::result::Result<Box<dyn WindowClassifier>, BoxError>,
    k: usize,
    seed: u64,
) -> std::result::Result<Vec<f32>, BoxError> {
    let meta = TaskMeta {
        num_classes: dataset.meta().num_classes,
        num_domains: dataset.meta().num_domains,
        channels: dataset.meta().channels,
        window_len: dataset.meta().window_len,
    };
    let mut accuracies = Vec::with_capacity(k);
    for fold in 0..k {
        let (train_idx, test_idx) = split::kfold(dataset, k, fold, seed)?;
        let (train_w, train_l, train_d) = dataset.gather(&train_idx);
        let (test_w, test_l, _) = dataset.gather(&test_idx);
        let mut classifier = make()?;
        classifier.fit(&train_w, &train_l, &train_d, &meta)?;
        let predictions = classifier.predict(&test_w)?;
        accuracies.push(crate::metrics::accuracy(&predictions, &test_l)?);
    }
    Ok(accuracies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};

    fn dataset() -> Dataset {
        generate(&GeneratorConfig {
            name: "pipeline-test".into(),
            num_classes: 3,
            channels: 2,
            window_len: 20,
            sample_rate_hz: 20.0,
            domains: vec![
                DomainSpec { subjects: vec![0, 1], windows: 45 },
                DomainSpec { subjects: vec![2, 3], windows: 45 },
                DomainSpec { subjects: vec![4, 5], windows: 45 },
            ],
            shift_severity: 1.0,
            seed: 31,
        })
        .unwrap()
    }

    fn small_smore(ds: &Dataset) -> Smore {
        Smore::new(
            SmoreConfig::builder()
                .dim(512)
                .channels(ds.meta().channels)
                .num_classes(ds.meta().num_classes)
                .epochs(8)
                .threads(2)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn run_lodo_produces_sane_outcome() {
        let ds = dataset();
        let mut model = small_smore(&ds);
        let outcome = run_lodo(&ds, &mut model, 1).unwrap();
        assert_eq!(outcome.held_out, 1);
        assert_eq!(outcome.n_test, 45);
        assert_eq!(outcome.n_train, 90);
        assert!(outcome.accuracy > 1.0 / 3.0, "accuracy {} at chance", outcome.accuracy);
        assert!(outcome.train_seconds > 0.0);
        assert!(outcome.infer_seconds > 0.0);
    }

    #[test]
    fn run_lodo_all_covers_every_domain() {
        let ds = dataset();
        let outcomes = run_lodo_all(&ds, || Ok(Box::new(small_smore(&dataset())))).unwrap();
        assert_eq!(outcomes.len(), 3);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.held_out, i);
        }
        let mean = mean_accuracy(&outcomes);
        assert!(mean > 1.0 / 3.0);
        assert_eq!(mean_accuracy(&[]), 0.0);
    }

    #[test]
    fn run_kfold_returns_k_scores() {
        let ds = dataset();
        let accs = run_kfold(&ds, || Ok(Box::new(small_smore(&dataset()))), 3, 7).unwrap();
        assert_eq!(accs.len(), 3);
        assert!(accs.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn kfold_beats_lodo_on_shifted_data() {
        // The paper's Figure 1(b) premise: shuffled k-fold leaks domains
        // into training and scores higher than honest LODO.
        let ds = dataset();
        let lodo_mean =
            mean_accuracy(&run_lodo_all(&ds, || Ok(Box::new(small_smore(&dataset())))).unwrap());
        let kfold_accs = run_kfold(&ds, || Ok(Box::new(small_smore(&dataset()))), 3, 7).unwrap();
        let kfold_mean: f32 = kfold_accs.iter().sum::<f32>() / kfold_accs.len() as f32;
        assert!(
            kfold_mean >= lodo_mean - 0.02,
            "k-fold ({kfold_mean}) should not trail LODO ({lodo_mean}) materially"
        );
    }

    #[test]
    fn smore_window_classifier_name() {
        let ds = dataset();
        let model = small_smore(&ds);
        assert_eq!(WindowClassifier::name(&model), "SMORE");
    }

    #[test]
    fn smore_for_builds_matching_shape() {
        let ds = dataset();
        let model = smore_for(&ds, 256, 0.3).unwrap();
        assert_eq!(model.config().channels, ds.meta().channels);
        assert_eq!(model.config().num_classes, ds.meta().num_classes);
        assert_eq!(model.config().dim, 256);
    }
}
