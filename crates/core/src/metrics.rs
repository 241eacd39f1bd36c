//! Classification metrics: accuracy, confusion matrices, macro-F1, and the
//! shared nearest-rank quantile index.

use crate::{Result, SmoreError};

/// Index of the nearest-rank `quantile` in a sorted sample of `n` items.
///
/// Computes `ceil((n - 1) * q)` clamped to `n - 1`, so `q = 0.5` over ten
/// samples picks index 5 (not 4) and any `q > 0` over two samples picks the
/// larger one. Every quantile consumer in the workspace — drift-delta
/// calibration, the load generator, the bench binaries' latency percentiles
/// and histogram snapshots — routes through this one function so the old truncation bias (`as usize` flooring the
/// rank) cannot silently return in any caller.
///
/// `n == 0` returns 0; callers must not index an empty slice with it.
///
/// # Example
///
/// ```
/// assert_eq!(smore::metrics::nearest_rank_index(10, 0.9), 9);
/// assert_eq!(smore::metrics::nearest_rank_index(10, 0.5), 5);
/// assert_eq!(smore::metrics::nearest_rank_index(2, 0.99), 1);
/// ```
#[must_use]
pub fn nearest_rank_index(n: usize, quantile: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((n - 1) as f64 * quantile).ceil();
    if rank <= 0.0 {
        return 0;
    }
    (rank as usize).min(n - 1)
}

/// Fraction of predictions equal to the ground truth.
///
/// # Errors
///
/// Returns [`SmoreError::InvalidConfig`] when the slices disagree in length
/// or are empty.
///
/// # Example
///
/// ```
/// let acc = smore::metrics::accuracy(&[0, 1, 1], &[0, 1, 0])?;
/// assert!((acc - 2.0 / 3.0).abs() < 1e-6);
/// # Ok::<(), smore::SmoreError>(())
/// ```
pub fn accuracy(predictions: &[usize], truth: &[usize]) -> Result<f32> {
    if predictions.len() != truth.len() {
        return Err(SmoreError::InvalidConfig {
            what: format!("{} predictions but {} labels", predictions.len(), truth.len()),
        });
    }
    if predictions.is_empty() {
        return Err(SmoreError::InvalidConfig {
            what: "cannot score an empty prediction set".into(),
        });
    }
    let correct = predictions.iter().zip(truth).filter(|(p, t)| p == t).count();
    Ok(correct as f32 / predictions.len() as f32)
}

/// A `(true class, predicted class)` contingency table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    num_classes: usize,
    /// Row-major counts: `counts[truth * num_classes + predicted]`.
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Tallies predictions against ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] when lengths disagree, inputs
    /// are empty, `num_classes` is zero, or any label is out of range.
    pub fn from_predictions(
        predictions: &[usize],
        truth: &[usize],
        num_classes: usize,
    ) -> Result<Self> {
        if num_classes == 0 {
            return Err(SmoreError::InvalidConfig { what: "num_classes must be positive".into() });
        }
        if predictions.len() != truth.len() || predictions.is_empty() {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "need equal, non-empty prediction/label sets ({} vs {})",
                    predictions.len(),
                    truth.len()
                ),
            });
        }
        let mut counts = vec![0usize; num_classes * num_classes];
        for (&p, &t) in predictions.iter().zip(truth) {
            if p >= num_classes || t >= num_classes {
                return Err(SmoreError::InvalidConfig {
                    what: format!("label pair ({t}, {p}) out of range for {num_classes} classes"),
                });
            }
            counts[t * num_classes + p] += 1;
        }
        Ok(Self { num_classes, counts })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Count of samples with true class `t` predicted as `p`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn count(&self, t: usize, p: usize) -> usize {
        assert!(t < self.num_classes && p < self.num_classes, "class index out of range");
        self.counts[t * self.num_classes + p]
    }

    /// Total number of scored samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy (diagonal mass over total).
    pub fn accuracy(&self) -> f32 {
        let diag: usize = (0..self.num_classes).map(|c| self.count(c, c)).sum();
        diag as f32 / self.total().max(1) as f32
    }

    /// Precision for one class (0 when the class was never predicted).
    pub fn precision(&self, class: usize) -> f32 {
        let tp = self.count(class, class);
        let predicted: usize = (0..self.num_classes).map(|t| self.count(t, class)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp as f32 / predicted as f32
        }
    }

    /// Recall for one class (0 when the class never occurred).
    pub fn recall(&self, class: usize) -> f32 {
        let tp = self.count(class, class);
        let actual: usize = (0..self.num_classes).map(|p| self.count(class, p)).sum();
        if actual == 0 {
            0.0
        } else {
            tp as f32 / actual as f32
        }
    }

    /// Macro-averaged F1 score across all classes.
    pub fn macro_f1(&self) -> f32 {
        let mut sum = 0.0f32;
        for c in 0..self.num_classes {
            let p = self.precision(c);
            let r = self.recall(c);
            if p + r > 0.0 {
                sum += 2.0 * p * r / (p + r);
            }
        }
        sum / self.num_classes as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic_and_errors() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 3]).unwrap(), 1.0);
        assert_eq!(accuracy(&[0, 0], &[1, 1]).unwrap(), 0.0);
        assert!(accuracy(&[0], &[0, 1]).is_err());
        assert!(accuracy(&[], &[]).is_err());
    }

    #[test]
    fn quantile_index_uses_nearest_rank_not_truncation() {
        // ceil((n-1)*q), not floor — the PR 6 fix, now shared.
        assert_eq!(nearest_rank_index(10, 0.9), 9);
        assert_eq!(nearest_rank_index(10, 0.5), 5);
        assert_eq!(nearest_rank_index(10, 0.25), 3);
        assert_eq!(nearest_rank_index(9, 0.25), 2);
        assert_eq!(nearest_rank_index(5, 0.5), 2);
        assert_eq!(nearest_rank_index(1, 0.9), 0);
        assert_eq!(nearest_rank_index(2, 0.99), 1);
        assert_eq!(nearest_rank_index(0, 0.5), 0);
        assert_eq!(nearest_rank_index(100, 0.0), 0);
        assert_eq!(nearest_rank_index(100, 1.0), 99);
        // Negative quantiles clamp to 0 instead of wrapping.
        assert_eq!(nearest_rank_index(10, -0.5), 0);
    }

    #[test]
    fn confusion_counts() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1, 1, 0], &[0, 1, 0, 0], 2).unwrap();
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 1), 1);
        assert_eq!(cm.count(1, 0), 0);
        assert_eq!(cm.total(), 4);
        assert!((cm.accuracy() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn confusion_validates() {
        assert!(ConfusionMatrix::from_predictions(&[0], &[0], 0).is_err());
        assert!(ConfusionMatrix::from_predictions(&[0], &[0, 1], 2).is_err());
        assert!(ConfusionMatrix::from_predictions(&[], &[], 2).is_err());
        assert!(ConfusionMatrix::from_predictions(&[5], &[0], 2).is_err());
        assert!(ConfusionMatrix::from_predictions(&[0], &[5], 2).is_err());
    }

    #[test]
    fn precision_recall_f1() {
        // truth:      0 0 0 1 1 2
        // predicted:  0 0 1 1 1 0
        let cm =
            ConfusionMatrix::from_predictions(&[0, 0, 1, 1, 1, 0], &[0, 0, 0, 1, 1, 2], 3).unwrap();
        assert!((cm.precision(0) - 2.0 / 3.0).abs() < 1e-6);
        assert!((cm.recall(0) - 2.0 / 3.0).abs() < 1e-6);
        assert!((cm.precision(1) - 2.0 / 3.0).abs() < 1e-6);
        assert!((cm.recall(1) - 1.0).abs() < 1e-6);
        assert_eq!(cm.precision(2), 0.0, "class 2 never predicted");
        assert_eq!(cm.recall(2), 0.0);
        let f1 = cm.macro_f1();
        assert!(f1 > 0.4 && f1 < 0.6, "macro F1 {f1}");
    }

    #[test]
    fn perfect_predictions_have_unit_scores() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1, 2], &[0, 1, 2], 3).unwrap();
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
    }
}
