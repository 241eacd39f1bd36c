//! The quantized serving path: frozen SMORE models on bit-packed binary
//! hypervectors.
//!
//! [`QuantizedSmore`] is produced by [`crate::Smore::quantize`] from a
//! fitted dense model. Descriptors and encoder codebooks are sign-quantized
//! to one bit per dimension; the domain class hypervectors keep three
//! scaled sign planes ([`ResidualPacked`](smore_packed::ResidualPacked))
//! because their per-dimension magnitudes carry the ensemble vote margins.
//! The whole of Algorithm 1 then runs on word-level logic:
//!
//! - **Encoding** uses the packed n-gram encoder's *integer accumulator*,
//!   which reproduces the dense accumulator exactly (every bipolar product
//!   is `±1`); mean-centring folds into the threshold: the query bit is
//!   `sign(acc_i − μ_i·‖acc‖)`, i.e. the exact sign the dense pipeline
//!   would compute after centring and normalisation — no dense encode ever
//!   runs.
//! - **Descriptor similarity and OOD detection** are XOR+popcount. Sign
//!   quantization distorts the cosine scale as `δ ↦ (2/π)·asin(δ)` (the
//!   Gaussian sign-correlation identity); each measured similarity is put
//!   back on the dense scale through the inverse map `sin(π/2 · s)`, so
//!   the OOD threshold `δ*` and the Eq. 3 ensemble weights keep their
//!   dense calibration.
//! - **Test-time ensembling** (§3.6, Eq. 3) never materialises the
//!   ensembled model: `dot(Q, Σ_k w_k C_k) = Σ_k w_k·dot(Q, C_k)`, so each
//!   class score is a weighted sum of integer-accumulated popcount dots
//!   (one per residual plane), normalised by the ensemble norm from the
//!   precomputed per-class Gram rows of the domains — the packed analog of
//!   the dense per-query cosine.
//!
//! Model memory drops >10× (descriptors 32×) and similarity scoring
//! replaces `3d` FLOPs with `d/64` XOR+popcount words per comparison.

use std::f32::consts::FRAC_PI_2;

use smore_hdc::encoder::MultiSensorEncoder;
use smore_packed::{PackedHypervector, PackedNgramEncoder};
use smore_tensor::Matrix;

use crate::config::SmoreConfig;
use crate::delta::PackedDomain;
use crate::predictor::{Predictor, ServeScratch};
use crate::smore_model::{ChannelStats, Fitted, Prediction};
use crate::{DeltaSmore, Result};

/// Recovers a dense-cosine estimate from a sign-quantized similarity.
///
/// For jointly Gaussian components, `E[cos(sign x, sign y)] =
/// (2/π)·asin(cos(x, y))` — sign quantization compresses similarities
/// toward zero. Inverting the identity (`sin(π/2 · s)`) puts every
/// measured packed similarity back on the dense cosine scale, so the OOD
/// threshold `δ*` and the ensemble weights of Eq. 3 operate on the same
/// numbers the dense pipeline would see.
///
/// Out-of-range inputs are clamped to `[-1, 1]` first, so the output is
/// always a valid cosine. The map is strictly monotone on the clamped
/// domain (property-tested in `tests/proptests.rs`).
pub fn recover_cosine(packed_sim: f32) -> f32 {
    (FRAC_PI_2 * packed_sim.clamp(-1.0, 1.0)).sin()
}

/// Duration → whole nanoseconds, saturating at `u64::MAX` (584 years).
pub(crate) fn clamped_nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A frozen, bit-packed SMORE model for quantized serving.
///
/// Produced by [`Smore::quantize`](crate::Smore::quantize); serves through
/// the same [`Predictor`] surface as the dense model and returns the same
/// [`Prediction`] type. `delta_max` and `domain_similarities` are reported
/// on the recovered dense-cosine scale (see [`recover_cosine`]), so `δ*`
/// keeps its dense calibration.
///
/// # Example
///
/// ```
/// use smore::{Predictor, Smore, SmoreConfig};
/// use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
///
/// # fn main() -> Result<(), smore::SmoreError> {
/// let dataset = generate(&GeneratorConfig {
///     domains: vec![
///         DomainSpec { subjects: vec![0, 1], windows: 30 },
///         DomainSpec { subjects: vec![2, 3], windows: 30 },
///     ],
///     ..GeneratorConfig::default()
/// })
/// .map_err(smore::SmoreError::from)?;
/// let mut model = Smore::new(
///     SmoreConfig::builder()
///         .dim(512)
///         .channels(dataset.meta().channels)
///         .num_classes(dataset.meta().num_classes)
///         .epochs(5)
///         .build()?,
/// )?;
/// let all: Vec<usize> = (0..dataset.len()).collect();
/// model.fit_indices(&dataset, &all)?;
///
/// let quantized = model.quantize()?;
/// let p = quantized.predict_window(dataset.window(0))?;
/// assert!(p.label < dataset.meta().num_classes);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedSmore {
    pub(crate) config: SmoreConfig,
    pub(crate) scaler: ChannelStats,
    pub(crate) encoder: PackedNgramEncoder,
    /// Global training mean of the dense pipeline (`Centerer`), folded into
    /// the packing threshold.
    pub(crate) mean: Vec<f32>,
    /// The fitted domains in order: per domain its residual-binarized
    /// class hypervectors (a few scaled sign planes each, so magnitudes
    /// survive quantization), sign-packed descriptor, tag and Gram growth
    /// rows.
    pub(crate) domains: Vec<PackedDomain>,
}

/// Sign planes per class hypervector: 3 bits/dim keeps the ensemble vote
/// margins that pure sign quantization discards, while staying >10× below
/// the dense `f32` footprint and fully inside popcount arithmetic.
pub(crate) const CLASS_PLANES: usize = 3;

impl QuantizedSmore {
    /// Quantizes a fitted dense model: packs the encoder codebooks, then
    /// packs each fitted domain, in order, after the domains before it.
    pub(crate) fn from_fitted(
        config: &SmoreConfig,
        dense_encoder: &MultiSensorEncoder,
        fitted: &Fitted,
    ) -> Result<Self> {
        let mut domains: Vec<PackedDomain> = Vec::with_capacity(fitted.domain_models.len());
        let descriptors = fitted.descriptors.as_matrix();
        for ((model, descriptor), &tag) in
            fitted.domain_models.iter().zip(descriptors.iter_rows()).zip(&fitted.domain_tags)
        {
            let domain = PackedDomain::pack(&domains, &[], config, model, descriptor, tag)?;
            domains.push(domain);
        }
        Ok(Self {
            config: config.clone(),
            scaler: fitted.scaler.clone(),
            encoder: PackedNgramEncoder::from_dense(dense_encoder)?,
            mean: fitted.centerer.mean().to_vec(),
            domains,
        })
    }

    /// Hypervector dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// Number of source domains `K`.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// External domain tags, ordered by local model index.
    pub fn domain_tags(&self) -> impl Iterator<Item = usize> + '_ {
        self.domains.iter().map(PackedDomain::tag)
    }

    /// Re-tunes the OOD threshold `δ*` without re-quantizing. The value is
    /// on the dense cosine scale — the same scale
    /// [`crate::Smore::set_delta_star`] accepts — because packed
    /// similarities are recovered onto it before thresholding.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`](crate::SmoreError::InvalidConfig)
    /// for a non-cosine value.
    pub fn set_delta_star(&mut self, delta_star: f32) -> Result<()> {
        crate::config::validate_delta_star(delta_star)?;
        self.config.delta_star = delta_star;
        Ok(())
    }

    /// Bytes held by the complete serving state: the packed domains (class
    /// hypervectors, descriptors, Gram growth rows and tags) and encoder
    /// codebooks, plus the small dense epilogue state the model cannot
    /// serve without (the `f32` centring mean and the channel scaler).
    pub fn storage_bytes(&self) -> usize {
        self.domains.iter().map(PackedDomain::storage_bytes).sum::<usize>()
            + self.encoder.storage_bytes()
            + self.mean.len() * std::mem::size_of::<f32>()
            + self.scaler.storage_bytes()
    }

    /// Encodes one raw window into the packed query held in `scratch` —
    /// the allocation-free serving encode.
    ///
    /// The bit at dimension `i` is the sign of `acc_i − μ_i·‖acc‖` — the
    /// exact sign the dense pipeline computes after scaling, encoding,
    /// centring and normalising, obtained without any dense encode.
    pub(crate) fn encode_query_into(
        &self,
        window: &Matrix,
        scratch: &mut ServeScratch,
    ) -> Result<()> {
        self.scaler.apply_into(window, &mut scratch.scaled);
        self.encoder.encode_counts_into(&scratch.scaled, &mut scratch.encoder)?;
        let counts = scratch.encoder.counts();
        let norm = counts.iter().map(|&c| c as f64 * c as f64).sum::<f64>().sqrt() as f32;
        if scratch.query.dim() != self.config.dim {
            scratch.query = PackedHypervector::zeros(self.config.dim);
        }
        let mean = &self.mean;
        // smore-lint: allow(panic_path) fill_with passes i < dim; the encoder sizes counts to dim, and quantize and the artifact loader both give the mean dim values
        scratch.query.fill_with(|i| (counts[i] as f32) - mean[i] * norm < 0.0);
        Ok(())
    }
}

impl Predictor for QuantizedSmore {
    /// The dense configuration the model was quantized from.
    fn config(&self) -> &SmoreConfig {
        &self.config
    }

    /// Algorithm 1 entirely on packed operations: this model chained with
    /// an empty overlay, through the one packed scorer.
    fn predict_window_with<'s>(
        &self,
        window: &Matrix,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s Prediction> {
        DeltaSmore::new(self, &[]).predict_window_with(window, scratch)
    }

    fn score_into(
        &self,
        window: &Matrix,
        scratch: &mut ServeScratch,
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        DeltaSmore::new(self, &[]).score_into(window, scratch, scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Smore, SmoreError};
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
    use smore_data::split;
    use smore_data::Dataset;

    fn small_config(channels: usize, classes: usize) -> SmoreConfig {
        SmoreConfig::builder()
            .dim(1024)
            .channels(channels)
            .num_classes(classes)
            .epochs(10)
            .threads(2)
            .build()
            .unwrap()
    }

    fn shifted_dataset(seed: u64) -> Dataset {
        generate(&GeneratorConfig {
            name: "quantized-test".into(),
            num_classes: 4,
            channels: 3,
            window_len: 24,
            sample_rate_hz: 25.0,
            domains: vec![
                DomainSpec { subjects: vec![0, 1], windows: 60 },
                DomainSpec { subjects: vec![2, 3], windows: 60 },
                DomainSpec { subjects: vec![4, 5], windows: 60 },
                DomainSpec { subjects: vec![6, 7], windows: 60 },
            ],
            shift_severity: 0.8,
            seed,
        })
        .unwrap()
    }

    fn fitted_model(ds: &Dataset, train: &[usize]) -> Smore {
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(ds, train).unwrap();
        model
    }

    #[test]
    fn quantize_requires_a_fitted_model() {
        let model = Smore::new(small_config(3, 4)).unwrap();
        assert!(matches!(model.quantize(), Err(SmoreError::NotFitted)));
    }

    #[test]
    fn quantized_model_reports_structure_and_footprint() {
        let ds = shifted_dataset(1);
        let (train, _) = split::lodo(&ds, 0).unwrap();
        let dense = fitted_model(&ds, &train);
        let q = dense.quantize().unwrap();
        assert_eq!(q.num_domains(), 3);
        assert_eq!(q.domain_tags().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(q.dim(), 1024);
        // 3 domains × 4 classes of 3-plane residuals + 3 one-bit
        // descriptors (1024 bits = 128 bytes per plane), plus the shared
        // encoder codebooks.
        assert!(q.storage_bytes() >= (3 * 4 * 3 + 3) * 128);
        // The dense equivalent of just the models+descriptors is 15 × 4 KiB;
        // the packed model including all codebooks must still be smaller.
        assert!(q.storage_bytes() < 15 * 1024 * 4);
    }

    #[test]
    fn quantized_predictions_agree_with_dense() {
        let ds = shifted_dataset(2);
        let (train, test) = split::lodo(&ds, 0).unwrap();
        let dense = fitted_model(&ds, &train);
        let quantized = dense.quantize().unwrap();
        let windows: Vec<Matrix> = test[..60].iter().map(|&i| ds.window(i).clone()).collect();
        let dp = dense.predict_batch(&windows).unwrap();
        let qp = quantized.predict_batch(&windows).unwrap();
        let agree = dp.iter().zip(&qp).filter(|(a, b)| a.label == b.label).count();
        assert!(
            agree as f32 / windows.len() as f32 >= 0.8,
            "dense/quantized agreement {agree}/{} too low",
            windows.len()
        );
    }

    #[test]
    fn quantized_accuracy_tracks_dense_on_source_domains() {
        let ds = shifted_dataset(3);
        let all: Vec<usize> = (0..ds.len()).collect();
        let dense = fitted_model(&ds, &all);
        let quantized = dense.quantize().unwrap();
        let dense_eval = dense.evaluate_indices(&ds, &all).unwrap();
        let quant_eval = quantized.evaluate_indices(&ds, &all).unwrap();
        assert!(
            quant_eval.accuracy >= dense_eval.accuracy - 0.1,
            "quantized {} vs dense {}",
            quant_eval.accuracy,
            dense_eval.accuracy
        );
    }

    #[test]
    fn predict_batch_matches_predict_window() {
        let ds = shifted_dataset(4);
        let (train, test) = split::lodo(&ds, 1).unwrap();
        let quantized = fitted_model(&ds, &train).quantize().unwrap();
        let windows: Vec<Matrix> = test[..8].iter().map(|&i| ds.window(i).clone()).collect();
        let batch = quantized.predict_batch(&windows).unwrap();
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(batch[i], quantized.predict_window(w).unwrap());
        }
    }

    #[test]
    fn scratch_serving_matches_allocating_path_across_hot_swap() {
        let ds = shifted_dataset(10);
        let (train, test) = split::lodo(&ds, 0).unwrap();
        let mut dense = fitted_model(&ds, &train);
        let mut quantized = dense.quantize().unwrap();
        let mut scratch = ServeScratch::new();
        for &i in &test[..10] {
            let w = ds.window(i);
            let with = quantized.predict_window_with(w, &mut scratch).unwrap().clone();
            assert_eq!(with, quantized.predict_window(w).unwrap());
            assert_eq!(scratch.prediction(), &with, "scratch retains the last prediction");
        }
        // Enrolment grows the similarity vectors; the same scratch keeps
        // serving the swapped-in model.
        let (w, l, _) = ds.gather(&test[..40]);
        dense.enroll_domain(&w, &l, 0).unwrap();
        quantized = dense.quantize().unwrap();
        for &i in &test[..10] {
            let w = ds.window(i);
            let p = quantized.predict_window_with(w, &mut scratch).unwrap().clone();
            assert_eq!(p.domain_similarities.len(), 4);
            assert_eq!(p, quantized.predict_window(w).unwrap());
        }
        // A malformed window reports through the scratch path too.
        assert!(quantized.predict_window_with(&Matrix::zeros(24, 9), &mut scratch).is_err());
    }

    #[test]
    fn delta_star_extremes_control_ood_fraction() {
        let ds = shifted_dataset(5);
        let (train, test) = split::lodo(&ds, 2).unwrap();
        let mut quantized = fitted_model(&ds, &train).quantize().unwrap();
        let windows: Vec<Matrix> = test[..20].iter().map(|&i| ds.window(i).clone()).collect();
        let labels: Vec<usize> = test[..20].iter().map(|&i| ds.label(i)).collect();

        quantized.set_delta_star(-1.0).unwrap();
        assert_eq!(quantized.evaluate(&windows, &labels).unwrap().ood_fraction, 0.0);
        quantized.set_delta_star(1.0).unwrap();
        assert!(quantized.evaluate(&windows, &labels).unwrap().ood_fraction > 0.9);
        assert!(quantized.set_delta_star(1.5).is_err());
        assert!(quantized.set_delta_star(f32::NAN).is_err());
    }

    #[test]
    fn delta_enrolment_validates() {
        let ds = shifted_dataset(9);
        let (train, _) = split::lodo(&ds, 0).unwrap();
        let dense = fitted_model(&ds, &train);
        let quantized = dense.quantize().unwrap();
        let model = dense.domain_models().unwrap()[0].clone();
        let descriptor = dense.descriptors().unwrap().as_matrix().row(0).to_vec();
        let mut delta = crate::SnapshotDelta::new(&quantized);
        delta.enroll_domain(&quantized, &model, &descriptor, 77).unwrap();
        let bytes = delta.to_artifact_bytes();
        // Duplicate tag, in the base and in the overlay.
        assert!(delta.enroll_domain(&quantized, &model, &descriptor, 1).is_err());
        assert!(delta.enroll_domain(&quantized, &model, &descriptor, 77).is_err());
        // Wrong descriptor dimension.
        assert!(delta.enroll_domain(&quantized, &model, &descriptor[..100], 78).is_err());
        // Wrong model shape.
        let small = smore_hdc::model::HdcClassifier::new(smore_hdc::model::HdcClassifierConfig {
            dim: 64,
            num_classes: 4,
            learning_rate: 0.05,
            epochs: 1,
        })
        .unwrap();
        assert!(delta.enroll_domain(&quantized, &small, &descriptor, 78).is_err());
        // The refused calls left the delta as it was.
        assert_eq!(delta.to_artifact_bytes(), bytes);
        assert_eq!(delta.tags().collect::<Vec<_>>(), [77]);
        // A valid enrolment still works and keeps serving.
        delta.enroll_domain(&quantized, &model, &descriptor, 78).unwrap();
        let chained = DeltaSmore::new(&quantized, delta.domains());
        assert_eq!(chained.num_domains(), 5);
        assert_eq!(chained.predict_window(ds.window(0)).unwrap().domain_similarities.len(), 5);
    }

    #[test]
    fn recover_cosine_inverts_the_sign_distortion() {
        assert!((recover_cosine(0.0)).abs() < 1e-6);
        assert!((recover_cosine(1.0) - 1.0).abs() < 1e-6);
        assert!((recover_cosine(-1.0) + 1.0).abs() < 1e-6);
        // Sign quantization compresses mid-range similarities toward zero;
        // the recovery expands them back: sin(π/2·s) > s on (0, 1).
        assert!(recover_cosine(0.5) > 0.5);
        assert!(recover_cosine(0.5) < 0.8);
        // Round trip with the forward map (2/π)·asin(δ).
        let forward = |delta: f32| (2.0 / std::f32::consts::PI) * delta.asin();
        for delta in [-0.9f32, -0.3, 0.1, 0.65, 0.99] {
            assert!((recover_cosine(forward(delta)) - delta).abs() < 1e-5);
        }
    }

    #[test]
    fn reported_similarities_are_on_the_dense_scale() {
        // A training-domain query's recovered δ_max should sit in the high
        // dense-cosine range rather than the compressed packed range.
        let ds = shifted_dataset(6);
        let (train, _) = split::lodo(&ds, 0).unwrap();
        let dense = fitted_model(&ds, &train);
        let quantized = dense.quantize().unwrap();
        let w = ds.window(train[0]);
        let dp = dense.predict_window(w).unwrap();
        let qp = quantized.predict_window(w).unwrap();
        assert!(
            (dp.delta_max - qp.delta_max).abs() < 0.2,
            "recovered δ_max {} should track dense δ_max {}",
            qp.delta_max,
            dp.delta_max
        );
    }

    #[test]
    fn evaluate_validates() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 0).unwrap();
        let quantized = fitted_model(&ds, &train).quantize().unwrap();
        assert!(quantized.evaluate(&[], &[]).is_err());
        let w = vec![ds.window(0).clone()];
        assert!(quantized.evaluate(&w, &[0, 1]).is_err());
        // Malformed window (wrong sensor count) propagates an encoder error.
        assert!(quantized.predict_window(&Matrix::zeros(24, 5)).is_err());
    }
}
