//! The end-to-end SMORE model (paper Fig. 2 workflow).

use std::time::Instant;

use smore_data::Dataset;
use smore_hdc::encoder::MultiSensorEncoder;
use smore_hdc::model::{FitReport, HdcClassifier, HdcClassifierConfig};
use smore_tensor::{vecops, Matrix};

use crate::centering::Centerer;
use crate::config::{DomainInit, RangeMode, SmoreConfig};
use crate::descriptor::DomainDescriptors;
use crate::ood::{OodDetector, OodVerdict};
use crate::predictor::{Predictor, ServeScratch};
use crate::test_time::ensemble_weights_into;
use crate::{Result, SmoreError};

/// Outcome of one SMORE prediction, with its full domain context.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted class label.
    pub label: usize,
    /// Whether the query was declared out-of-distribution.
    pub is_ood: bool,
    /// Maximum descriptor similarity `δ_max`.
    pub delta_max: f32,
    /// The *external* tag of the most similar training domain.
    pub best_domain: usize,
    /// Similarity to every training-domain descriptor, ordered by the
    /// external domain tags in [`Smore::domain_tags`].
    pub domain_similarities: Vec<f32>,
}

/// Report returned by [`Smore::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Number of training samples.
    pub samples: usize,
    /// Number of source domains `K`.
    pub num_domains: usize,
    /// Wall-clock seconds spent encoding.
    pub encode_seconds: f64,
    /// Wall-clock seconds spent training domain models + descriptors.
    pub train_seconds: f64,
    /// Per-domain `(external domain tag, fit report)`.
    pub domain_reports: Vec<(usize, FitReport)>,
}

/// Report returned by [`Smore::enroll_domain`].
#[derive(Debug, Clone, PartialEq)]
pub struct EnrollReport {
    /// The external tag assigned to the enrolled domain.
    pub tag: usize,
    /// Number of windows the domain was enrolled from.
    pub samples: usize,
    /// Total number of source domains `K` after enrolment.
    pub num_domains: usize,
    /// Wall-clock seconds spent encoding + training the new domain model.
    pub seconds: f64,
    /// Fit report of the new domain-specific model.
    pub fit_report: FitReport,
}

/// A fully trained domain that has not been attached to a model yet — the
/// output of [`Smore::prepare_domain`].
///
/// Produced without mutating the source model, so many tenants can prepare
/// enrolments concurrently against one shared frozen [`Smore`] (the
/// multi-tenant architecture of `smore_stream`) and attach the result to
/// their own overlay via
/// [`SnapshotDelta::enroll_domain`](crate::SnapshotDelta::enroll_domain).
#[derive(Debug, Clone)]
pub struct DomainEnrollment {
    /// The new domain-specific model `M_{K+1}`.
    pub model: HdcClassifier,
    /// The bundled domain descriptor `U_{K+1}` (encoded-and-centred
    /// hypervector space).
    pub descriptor: Vec<f32>,
    /// Fit report of the new domain-specific model.
    pub fit_report: FitReport,
    /// Number of windows the domain was trained from.
    pub samples: usize,
}

/// Report returned by [`Predictor::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Overall accuracy on the evaluation set.
    pub accuracy: f32,
    /// Number of evaluated samples.
    pub samples: usize,
    /// Fraction of samples declared OOD.
    pub ood_fraction: f32,
    /// Wall-clock seconds spent on inference (encoding included).
    pub infer_seconds: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Fitted {
    pub(crate) scaler: ChannelStats,
    pub(crate) centerer: Centerer,
    pub(crate) domain_models: Vec<HdcClassifier>,
    pub(crate) descriptors: DomainDescriptors,
    /// External domain tag for each local model index.
    pub(crate) domain_tags: Vec<usize>,
}

/// Per-channel standardisation statistics fitted on the training windows.
///
/// Real HDC time series pipelines (the OnlineHD/DOMINO lineage) z-score
/// every channel before quantisation so channels with large physical
/// scales do not monopolise the quantiser's resolution; SMORE does the
/// same. Statistics come from training data only.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChannelStats {
    pub(crate) mean: Vec<f32>,
    pub(crate) std: Vec<f32>,
}

impl ChannelStats {
    fn fit(windows: &[Matrix], channels: usize) -> Self {
        let mut mean = vec![0.0f64; channels];
        let mut count = 0usize;
        for w in windows {
            for t in 0..w.rows() {
                for (c, &v) in w.row(t).iter().enumerate().take(channels) {
                    if v.is_finite() {
                        mean[c] += v as f64;
                    }
                }
                count += 1;
            }
        }
        let n = count.max(1) as f64;
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; channels];
        for w in windows {
            for t in 0..w.rows() {
                for (c, &v) in w.row(t).iter().enumerate().take(channels) {
                    if v.is_finite() {
                        let d = v as f64 - mean[c];
                        var[c] += d * d;
                    }
                }
            }
        }
        let std = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt() as f32;
                if s > 1e-8 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Self { mean: mean.into_iter().map(|m| m as f32).collect(), std }
    }

    fn identity(channels: usize) -> Self {
        Self { mean: vec![0.0; channels], std: vec![1.0; channels] }
    }

    pub(crate) fn storage_bytes(&self) -> usize {
        (self.mean.len() + self.std.len()) * std::mem::size_of::<f32>()
    }

    pub(crate) fn apply(&self, window: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.apply_into(window, &mut out);
        out
    }

    /// [`apply`](Self::apply) into a caller-owned buffer. When `out`
    /// already has the window's shape, the copy reuses its storage and the
    /// call is allocation-free — the serving-loop variant.
    pub(crate) fn apply_into(&self, window: &Matrix, out: &mut Matrix) {
        if out.shape() == window.shape() {
            out.as_mut_slice().copy_from_slice(window.as_slice());
        } else {
            *out = window.clone();
        }
        for t in 0..out.rows() {
            for (c, v) in out.row_mut(t).iter_mut().enumerate() {
                if c < self.mean.len() {
                    *v = (*v - self.mean[c]) / self.std[c];
                }
            }
        }
    }

    fn apply_batch(&self, windows: &[Matrix]) -> Vec<Matrix> {
        windows.iter().map(|w| self.apply(w)).collect()
    }
}

/// The SMORE model: domain-adaptive hyperdimensional classification.
///
/// See the [crate-level documentation](crate) for the full workflow and a
/// runnable example.
#[derive(Debug, Clone)]
pub struct Smore {
    pub(crate) config: SmoreConfig,
    pub(crate) encoder: MultiSensorEncoder,
    pub(crate) fitted: Option<Fitted>,
}

impl Smore {
    /// Creates an unfitted model from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] when the configuration is
    /// invalid (also validated by the builder).
    pub fn new(config: SmoreConfig) -> Result<Self> {
        config.validate()?;
        let encoder = MultiSensorEncoder::new(config.encoder_config(None))?;
        Ok(Self { config, encoder, fitted: None })
    }

    /// Whether [`fit`](Self::fit) completed successfully.
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// Number of source domains `K` of the fitted model.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::NotFitted`] before training.
    pub fn num_domains(&self) -> Result<usize> {
        Ok(self.state()?.domain_models.len())
    }

    /// External domain tags, ordered by local model index.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::NotFitted`] before training.
    pub fn domain_tags(&self) -> Result<&[usize]> {
        Ok(&self.state()?.domain_tags)
    }

    /// The fitted domain-specific models `M_1..M_K`.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::NotFitted`] before training.
    pub fn domain_models(&self) -> Result<&[HdcClassifier]> {
        Ok(&self.state()?.domain_models)
    }

    /// The fitted domain descriptors `U_1..U_K`.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::NotFitted`] before training.
    pub fn descriptors(&self) -> Result<&DomainDescriptors> {
        Ok(&self.state()?.descriptors)
    }

    /// Re-tunes the OOD threshold `δ*` without refitting (used by the
    /// Figure 5 hyperparameter sweep).
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] for a non-cosine value.
    pub fn set_delta_star(&mut self, delta_star: f32) -> Result<()> {
        crate::config::validate_delta_star(delta_star)?;
        self.config.delta_star = delta_star;
        Ok(())
    }

    /// Encodes (and centres, if fitted with centring) a batch of windows.
    ///
    /// Before fitting, this returns the raw encoder output — useful for
    /// diagnostics and the encoding benchmarks.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for malformed windows.
    pub fn encode(&self, windows: &[Matrix]) -> Result<Matrix> {
        let mut encoded = match &self.fitted {
            Some(f) => {
                let scaled = f.scaler.apply_batch(windows);
                self.encoder.encode_batch(&scaled, self.config.threads)?
            }
            None => self.encoder.encode_batch(windows, self.config.threads)?,
        };
        if let Some(f) = &self.fitted {
            f.centerer.apply(&mut encoded);
        }
        Ok(encoded)
    }

    /// Trains on windows with class labels and (external) domain tags —
    /// steps A–D of the paper's Figure 2.
    ///
    /// # Errors
    ///
    /// - [`SmoreError::InvalidConfig`] for length mismatches or label range
    ///   violations.
    /// - [`SmoreError::TooFewDomains`] when fewer than two distinct domain
    ///   tags are present.
    /// - Encoder errors for malformed windows.
    pub fn fit(
        &mut self,
        windows: &[Matrix],
        labels: &[usize],
        domains: &[usize],
    ) -> Result<TrainReport> {
        if windows.is_empty() {
            return Err(SmoreError::InvalidConfig { what: "training set is empty".into() });
        }
        if windows.len() != labels.len() || windows.len() != domains.len() {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "parallel arrays disagree: {} windows, {} labels, {} domains",
                    windows.len(),
                    labels.len(),
                    domains.len()
                ),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= self.config.num_classes) {
            return Err(SmoreError::InvalidConfig {
                what: format!("label {bad} out of range for {} classes", self.config.num_classes),
            });
        }

        // Map external domain tags to contiguous local indices.
        let mut tags: Vec<usize> = domains.to_vec();
        tags.sort_unstable();
        tags.dedup();
        if tags.len() < 2 {
            return Err(SmoreError::TooFewDomains { found: tags.len() });
        }
        let local_of = |tag: usize| tags.binary_search(&tag).expect("tag registered above");

        // A: encoding. Channels are standardised with training statistics
        // first (see `ChannelStats`); under FitGlobal the per-sensor
        // quantisation ranges are then fitted on the standardised training
        // windows (5% widened so test values near the extremes are not
        // clamped flat).
        let t0 = Instant::now();
        let scaler = if self.config.standardize {
            ChannelStats::fit(windows, self.config.channels)
        } else {
            ChannelStats::identity(self.config.channels)
        };
        let scaled = scaler.apply_batch(windows);
        if matches!(self.config.range, RangeMode::FitGlobal) {
            let ranges = fit_ranges(&scaled, self.config.channels);
            self.encoder = MultiSensorEncoder::new(self.config.encoder_config(Some(ranges)))?;
        }
        let mut encoded = self.encoder.encode_batch(&scaled, self.config.threads)?;
        let centerer = if self.config.center {
            Centerer::fit(&encoded)?
        } else {
            Centerer::identity(self.config.dim)
        };
        centerer.apply(&mut encoded);
        let encode_seconds = t0.elapsed().as_secs_f64();

        // B–D: domain separation, domain-specific models, descriptors.
        let t1 = Instant::now();
        let local_domains: Vec<usize> = domains.iter().map(|&d| local_of(d)).collect();
        let descriptors = DomainDescriptors::build(&encoded, &local_domains, tags.len())?;

        let classifier_config = HdcClassifierConfig {
            dim: self.config.dim,
            num_classes: self.config.num_classes,
            learning_rate: self.config.learning_rate,
            epochs: self.config.epochs,
        };
        // Shared initialisation (see `DomainInit`): one jointly trained
        // model seeds every domain-specific model, which then specialises
        // on its own domain's samples.
        let shared = match self.config.domain_init {
            DomainInit::Shared => {
                let mut pooled = HdcClassifier::new(classifier_config.clone())?;
                pooled.fit(&encoded, labels)?;
                Some(pooled)
            }
            DomainInit::Independent => None,
        };

        let mut domain_models = Vec::with_capacity(tags.len());
        let mut domain_reports = Vec::with_capacity(tags.len());
        for (k, &tag) in tags.iter().enumerate() {
            let idx: Vec<usize> = (0..windows.len()).filter(|&i| local_domains[i] == k).collect();
            if idx.is_empty() {
                return Err(SmoreError::EmptyDomain { domain: tag });
            }
            let samples = encoded.select_rows(&idx);
            let sub_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
            let (model, report) = match &shared {
                Some(pooled) => {
                    let mut model = HdcClassifier::from_class_hypervectors_with(
                        pooled.class_hypervectors().clone(),
                        self.config.learning_rate,
                        self.config.epochs,
                    )?;
                    let report = model.fit(&samples, &sub_labels)?;
                    (model, report)
                }
                None => {
                    let mut model = HdcClassifier::new(classifier_config.clone())?;
                    let report = model.fit(&samples, &sub_labels)?;
                    (model, report)
                }
            };
            domain_models.push(model);
            domain_reports.push((tag, report));
        }
        let train_seconds = t1.elapsed().as_secs_f64();

        self.fitted =
            Some(Fitted { scaler, centerer, domain_models, descriptors, domain_tags: tags });
        Ok(TrainReport {
            samples: windows.len(),
            num_domains: self.fitted.as_ref().expect("just set").domain_models.len(),
            encode_seconds,
            train_seconds,
            domain_reports,
        })
    }

    /// Convenience wrapper: fit on the rows of `dataset` selected by
    /// `indices`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`fit`](Self::fit).
    pub fn fit_indices(&mut self, dataset: &Dataset, indices: &[usize]) -> Result<TrainReport> {
        let (windows, labels, domains) = dataset.gather(indices);
        self.fit(&windows, &labels, &domains)
    }

    /// Enrols a **new domain online** (§3.5–3.6 extended to streaming
    /// deployment): bundles a fresh descriptor `U_{K+1}` from the given
    /// windows and trains a new domain-specific model `M_{K+1}` with the
    /// paper's adaptive update rule, *without* refitting the existing `K`
    /// models. The encoder geometry (channel scaler, quantisation ranges,
    /// centring mean) stays frozen from the original [`fit`](Self::fit),
    /// so all descriptors and models remain mutually comparable.
    ///
    /// The new model is seeded from the average of the existing
    /// domain-specific models (the online analog of
    /// [`DomainInit::Shared`]) and then specialised on the enrolment
    /// windows — which may carry self- or ensemble-produced labels in a
    /// streaming deployment (see the `smore_stream` crate).
    ///
    /// # Errors
    ///
    /// - [`SmoreError::NotFitted`] before training.
    /// - [`SmoreError::InvalidConfig`] for empty input, mismatched lengths,
    ///   out-of-range labels, or a `tag` that is already enrolled.
    /// - Encoder errors for malformed windows.
    pub fn enroll_domain(
        &mut self,
        windows: &[Matrix],
        labels: &[usize],
        tag: usize,
    ) -> Result<EnrollReport> {
        if self.state()?.domain_tags.contains(&tag) {
            return Err(SmoreError::InvalidConfig {
                what: format!("domain tag {tag} is already enrolled"),
            });
        }
        let t0 = Instant::now();
        let prep = self.prepare_domain(windows, labels, &[])?;
        let fitted = self.fitted.as_mut().expect("checked above");
        fitted.descriptors.push_bundle(&prep.descriptor)?;
        fitted.domain_models.push(prep.model);
        fitted.domain_tags.push(tag);
        Ok(EnrollReport {
            tag,
            samples: prep.samples,
            num_domains: fitted.domain_models.len(),
            seconds: t0.elapsed().as_secs_f64(),
            fit_report: prep.fit_report,
        })
    }

    /// Trains a new domain **without mutating this model** — the shared
    /// core of [`enroll_domain`](Self::enroll_domain) and the per-tenant
    /// enrolment path of the multi-tenant `smore_stream::ServeEngine`,
    /// where many tenants prepare domains concurrently against one shared
    /// frozen base model.
    ///
    /// The new model is seeded from the average of this model's
    /// domain-specific models *plus* `extra_models` (a tenant's previously
    /// enrolled personal domains, so repeat enrolments stay mutually
    /// coherent with everything that tenant serves), then specialised on
    /// the enrolment windows with the paper's adaptive update rule. The
    /// returned [`DomainEnrollment`] carries the model and the bundled
    /// descriptor `U_{K+1}`, ready for a tenant's
    /// [`SnapshotDelta::enroll_domain`](crate::SnapshotDelta::enroll_domain)
    /// or [`DomainDescriptors::push_bundle`](crate::descriptor::DomainDescriptors::push_bundle).
    ///
    /// # Errors
    ///
    /// - [`SmoreError::NotFitted`] before training.
    /// - [`SmoreError::InvalidConfig`] for empty input, mismatched
    ///   lengths, out-of-range labels, or an `extra_models` shape that
    ///   disagrees with the fitted models.
    /// - Encoder errors for malformed windows.
    pub fn prepare_domain(
        &self,
        windows: &[Matrix],
        labels: &[usize],
        extra_models: &[HdcClassifier],
    ) -> Result<DomainEnrollment> {
        let fitted = self.state()?;
        if windows.is_empty() {
            return Err(SmoreError::InvalidConfig { what: "enrolment set is empty".into() });
        }
        if windows.len() != labels.len() {
            return Err(SmoreError::InvalidConfig {
                what: format!("{} windows but {} labels", windows.len(), labels.len()),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= self.config.num_classes) {
            return Err(SmoreError::InvalidConfig {
                what: format!("label {bad} out of range for {} classes", self.config.num_classes),
            });
        }
        if let Some(bad) = extra_models
            .iter()
            .find(|m| m.dim() != self.config.dim || m.num_classes() != self.config.num_classes)
        {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "extra model shape ({}, {}) disagrees with the fitted models ({}, {})",
                    bad.num_classes(),
                    bad.dim(),
                    self.config.num_classes,
                    self.config.dim
                ),
            });
        }
        let encoded = self.encode(windows)?;

        // Seed M_{K+1} from the average of the existing models so the new
        // model starts mutually coherent with the ensemble it will join.
        let (classes, dim) = fitted.domain_models[0].class_hypervectors().shape();
        let mut seed = Matrix::zeros(classes, dim);
        let scale = 1.0 / (fitted.domain_models.len() + extra_models.len()) as f32;
        for model in fitted.domain_models.iter().chain(extra_models) {
            seed.axpy(scale, model.class_hypervectors())?;
        }
        let mut model = HdcClassifier::from_class_hypervectors_with(
            seed,
            self.config.learning_rate,
            self.config.epochs,
        )?;
        let fit_report = model.fit(&encoded, labels)?;

        // Descriptor bundle U_{K+1} = Σ_i H_i over the enrolment windows.
        let mut descriptor = vec![0.0f32; dim];
        for i in 0..encoded.rows() {
            vecops::axpy(1.0, encoded.row(i), &mut descriptor);
        }
        Ok(DomainEnrollment { model, descriptor, fit_report, samples: windows.len() })
    }

    /// Freezes the fitted model into a bit-packed
    /// [`QuantizedSmore`](crate::QuantizedSmore) serving model: domain
    /// classifiers, descriptors and the encoder codebooks are
    /// sign-quantized to one bit per dimension, and every inference-time
    /// hypervector operation becomes word-level logic (XOR binding,
    /// popcount similarity). See [`crate::QuantizedSmore`] for the
    /// accuracy/latency tradeoff.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::NotFitted`] before training.
    pub fn quantize(&self) -> Result<crate::QuantizedSmore> {
        let fitted = self.state()?;
        crate::QuantizedSmore::from_fitted(&self.config, &self.encoder, fitted)
    }

    /// Algorithm 1's scoring core on an encoded-and-centred query: fills
    /// `sims` (descriptor similarities), `weights` (Eq. 3 ensemble
    /// weights) and `scores` (per-class cosine against the test-time model
    /// `M_T = Σ_k w_k M_k`, materialised class-by-class in the `ensemble`
    /// buffer); returns the OOD verdict. Every buffer is cleared and
    /// refilled, so warm callers allocate nothing.
    fn score_encoded_into(
        &self,
        fitted: &Fitted,
        q: &[f32],
        sims: &mut Vec<f32>,
        weights: &mut Vec<f32>,
        ensemble: &mut Vec<f32>,
        scores: &mut Vec<f32>,
    ) -> OodVerdict {
        fitted.descriptors.similarities_into(q, sims);
        let verdict: OodVerdict = OodDetector::new(self.config.delta_star).decide(sims);
        ensemble_weights_into(
            sims,
            verdict.is_ood,
            self.config.delta_star,
            self.config.weight_power,
            weights,
        );
        ensemble.clear();
        ensemble.resize(self.config.dim, 0.0);
        scores.clear();
        for class in 0..self.config.num_classes {
            ensemble.iter_mut().for_each(|x| *x = 0.0);
            for (model, &w) in fitted.domain_models.iter().zip(weights.iter()) {
                if w > 0.0 {
                    vecops::axpy(w, model.class_hypervectors().row(class), ensemble);
                }
            }
            scores.push(vecops::cosine(q, ensemble));
        }
        verdict
    }

    /// Encodes one window into the scratch's dense query: channel
    /// standardisation (into the reusable scaled buffer), dense n-gram
    /// encoding and mean-centring.
    fn encode_query_into(
        &self,
        fitted: &Fitted,
        window: &Matrix,
        scratch: &mut ServeScratch,
    ) -> Result<()> {
        fitted.scaler.apply_into(window, &mut scratch.scaled);
        let hv = self.encoder.encode_window(&scratch.scaled)?;
        scratch.dense_query.clear();
        scratch.dense_query.extend_from_slice(hv.as_slice());
        fitted.centerer.apply_one(&mut scratch.dense_query);
        Ok(())
    }

    fn state(&self) -> Result<&Fitted> {
        self.fitted.as_ref().ok_or(SmoreError::NotFitted)
    }
}

impl Predictor for Smore {
    /// The model configuration.
    fn config(&self) -> &SmoreConfig {
        &self.config
    }

    /// Predicts one window with full domain context — steps E–G of
    /// Figure 2, Algorithm 1 end-to-end — through caller-owned scratch.
    /// (Unlike the packed backends, the dense encoder itself still
    /// allocates internally; the scratch removes the scoring-side
    /// allocations.)
    ///
    /// # Errors
    ///
    /// - [`SmoreError::NotFitted`] before training.
    /// - Encoder errors for malformed windows.
    fn predict_window_with<'s>(
        &self,
        window: &Matrix,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s Prediction> {
        let fitted = self.state()?;
        self.encode_query_into(fitted, window, scratch)?;
        let ServeScratch { dense_query, sims, weights, ensemble, scores, .. } = &mut *scratch;
        let verdict = self.score_encoded_into(fitted, dense_query, sims, weights, ensemble, scores);
        let prediction = &mut scratch.prediction;
        prediction.label = vecops::argmax(&scratch.scores).unwrap_or(0);
        prediction.is_ood = verdict.is_ood;
        prediction.delta_max = verdict.delta_max;
        prediction.best_domain = fitted.domain_tags[verdict.best_domain];
        prediction.domain_similarities.clear();
        prediction.domain_similarities.extend_from_slice(&scratch.sims);
        Ok(&scratch.prediction)
    }

    fn score_into(
        &self,
        window: &Matrix,
        scratch: &mut ServeScratch,
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        let fitted = self.state()?;
        self.encode_query_into(fitted, window, scratch)?;
        let ServeScratch { dense_query, sims, weights, ensemble, .. } = &mut *scratch;
        self.score_encoded_into(fitted, dense_query, sims, weights, ensemble, scores);
        Ok(())
    }
}

/// Per-channel `(min, max)` across all training windows, widened by 5% of
/// the span on each side (a degenerate span falls back to ±0.5 around the
/// constant value).
fn fit_ranges(windows: &[Matrix], channels: usize) -> Vec<(f32, f32)> {
    let mut lo = vec![f32::INFINITY; channels];
    let mut hi = vec![f32::NEG_INFINITY; channels];
    for w in windows {
        for t in 0..w.rows() {
            for (c, &v) in w.row(t).iter().enumerate().take(channels) {
                if v.is_finite() {
                    lo[c] = lo[c].min(v);
                    hi[c] = hi[c].max(v);
                }
            }
        }
    }
    lo.iter()
        .zip(&hi)
        .map(|(&l, &h)| {
            if !l.is_finite() || !h.is_finite() {
                (-1.0, 1.0)
            } else if h - l < 1e-6 {
                (l - 0.5, h + 0.5)
            } else {
                let margin = 0.05 * (h - l);
                (l - margin, h + margin)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
    use smore_data::split;

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

    fn shifted_dataset(seed: u64) -> smore_data::Dataset {
        generate(&GeneratorConfig {
            name: "core-test".into(),
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

    #[test]
    fn unfitted_model_refuses_prediction() {
        let model = Smore::new(small_config(3, 4)).unwrap();
        assert!(!model.is_fitted());
        let w = Matrix::zeros(24, 3);
        assert!(matches!(model.predict_window(&w), Err(SmoreError::NotFitted)));
        assert!(matches!(model.num_domains(), Err(SmoreError::NotFitted)));
        assert!(matches!(model.descriptors(), Err(SmoreError::NotFitted)));
    }

    #[test]
    fn fit_then_lodo_predict_beats_chance() {
        // A single unlucky held-out domain can legitimately collapse (its
        // subjects may resemble no source domain — the paper's Fig. 1a
        // failure mode), so the contract is on the *mean* LODO accuracy.
        let ds = shifted_dataset(1);
        let mut total = 0.0f32;
        for held in 0..4 {
            let (train, test) = split::lodo(&ds, held).unwrap();
            let mut model = Smore::new(small_config(3, 4)).unwrap();
            let report = model.fit_indices(&ds, &train).unwrap();
            assert_eq!(report.num_domains, 3);
            assert_eq!(report.samples, train.len());
            assert!(report.encode_seconds >= 0.0);
            let eval = model.evaluate_indices(&ds, &test).unwrap();
            assert_eq!(eval.samples, test.len());
            total += eval.accuracy;
        }
        let mean = total / 4.0;
        assert!(mean > 0.25 + 0.1, "mean LODO accuracy {mean} not above chance");
    }

    #[test]
    fn fit_validates_inputs() {
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        assert!(model.fit(&[], &[], &[]).is_err());
        let ds = shifted_dataset(2);
        let (w, l, mut d) = ds.gather(&[0, 1, 2]);
        assert!(model.fit(&w, &l[..2], &d).is_err(), "length mismatch");
        // Single domain only -> TooFewDomains.
        d.iter_mut().for_each(|x| *x = 0);
        assert!(matches!(model.fit(&w, &l, &d), Err(SmoreError::TooFewDomains { found: 1 })));
        // Bad label.
        let bad_labels = vec![99, 0, 0];
        let (w, _, d) = ds.gather(&[0, 1, 60]);
        assert!(model.fit(&w, &bad_labels, &d).is_err());
    }

    #[test]
    fn prediction_exposes_domain_context() {
        let ds = shifted_dataset(3);
        let (train, test) = split::lodo(&ds, 0).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        assert_eq!(model.domain_tags().unwrap(), &[1, 2, 3]);
        let p = model.predict_window(ds.window(test[0])).unwrap();
        assert_eq!(p.domain_similarities.len(), 3);
        assert!(p.label < 4);
        assert!((1..=3).contains(&p.best_domain));
        assert!((-1.0..=1.0).contains(&p.delta_max));
    }

    #[test]
    fn predict_batch_matches_predict_window() {
        let ds = shifted_dataset(4);
        let (train, test) = split::lodo(&ds, 1).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        let subset: Vec<Matrix> = test[..8].iter().map(|&i| ds.window(i).clone()).collect();
        let batch = model.predict_batch(&subset).unwrap();
        for (i, w) in subset.iter().enumerate() {
            assert_eq!(batch[i], model.predict_window(w).unwrap());
        }
    }

    #[test]
    fn fit_is_deterministic() {
        let ds = shifted_dataset(5);
        let (train, test) = split::lodo(&ds, 1).unwrap();
        let mut a = Smore::new(small_config(3, 4)).unwrap();
        let mut b = Smore::new(small_config(3, 4)).unwrap();
        a.fit_indices(&ds, &train).unwrap();
        b.fit_indices(&ds, &train).unwrap();
        let pa = a.predict_window(ds.window(test[0])).unwrap();
        let pb = b.predict_window(ds.window(test[0])).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn delta_star_extremes_control_ood_fraction() {
        let ds = shifted_dataset(6);
        let (train, test) = split::lodo(&ds, 2).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        let subset: Vec<Matrix> = test[..20].iter().map(|&i| ds.window(i).clone()).collect();
        let labels: Vec<usize> = test[..20].iter().map(|&i| ds.label(i)).collect();

        model.set_delta_star(-1.0).unwrap();
        let never = model.evaluate(&subset, &labels).unwrap();
        assert_eq!(never.ood_fraction, 0.0, "δ* = -1 declares nothing OOD");

        model.set_delta_star(1.0).unwrap();
        let always = model.evaluate(&subset, &labels).unwrap();
        assert!(always.ood_fraction > 0.9, "δ* = 1 declares (almost) everything OOD");

        assert!(model.set_delta_star(1.5).is_err());
        assert!(model.set_delta_star(f32::NAN).is_err());
    }

    #[test]
    fn held_out_domain_looks_more_ood_than_training_domains() {
        let ds = shifted_dataset(7);
        let (train, test) = split::lodo(&ds, 2).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        let delta_of = |idx: &[usize]| -> f32 {
            let ws: Vec<Matrix> = idx.iter().map(|&i| ds.window(i).clone()).collect();
            let ps = model.predict_batch(&ws).unwrap();
            ps.iter().map(|p| p.delta_max).sum::<f32>() / ps.len() as f32
        };
        let train_delta = delta_of(&train[..30]);
        let test_delta = delta_of(&test[..30]);
        assert!(
            train_delta > test_delta,
            "training domains should look more in-distribution: {train_delta} vs {test_delta}"
        );
    }

    #[test]
    fn enroll_domain_adds_model_descriptor_and_tag() {
        let ds = shifted_dataset(10);
        let (train, test) = split::lodo(&ds, 3).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        assert_eq!(model.num_domains().unwrap(), 3);

        let (w, l, _) = ds.gather(&test[..40]);
        let report = model.enroll_domain(&w, &l, 3).unwrap();
        assert_eq!(report.tag, 3);
        assert_eq!(report.samples, 40);
        assert_eq!(report.num_domains, 4);
        assert!(report.seconds >= 0.0);
        assert_eq!(model.num_domains().unwrap(), 4);
        assert_eq!(model.domain_tags().unwrap(), &[0, 1, 2, 3]);
        assert_eq!(model.descriptors().unwrap().len(), 4);
        // Predictions now report four similarities and may claim the new tag.
        let p = model.predict_window(ds.window(test[0])).unwrap();
        assert_eq!(p.domain_similarities.len(), 4);
    }

    #[test]
    fn enroll_domain_improves_accuracy_on_the_enrolled_domain() {
        let ds = shifted_dataset(11);
        let (train, test) = split::lodo(&ds, 0).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        let (buf_w, buf_l, _) = ds.gather(&test[..40]);
        let (eval_w, eval_l, _) = ds.gather(&test[40..]);
        let before = model.evaluate(&eval_w, &eval_l).unwrap().accuracy;
        model.enroll_domain(&buf_w, &buf_l, 0).unwrap();
        let after = model.evaluate(&eval_w, &eval_l).unwrap().accuracy;
        assert!(
            after >= before,
            "enrolling ground-truth windows must not hurt the enrolled domain: {before} -> {after}"
        );
    }

    #[test]
    fn prepare_domain_is_non_mutating_and_validates_extra_models() {
        let ds = shifted_dataset(13);
        let (train, test) = split::lodo(&ds, 0).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        let (w, l, _) = ds.gather(&test[..24]);

        let prep = model.prepare_domain(&w, &l, &[]).unwrap();
        assert_eq!(prep.samples, 24);
        assert_eq!(prep.descriptor.len(), 1024);
        assert_eq!(model.num_domains().unwrap(), 3, "prepare_domain must not mutate");
        // enroll_domain attaches exactly what prepare_domain trains.
        let mut enrolled = model.clone();
        enrolled.enroll_domain(&w, &l, 99).unwrap();
        assert_eq!(
            enrolled.domain_models().unwrap().last().unwrap().class_hypervectors(),
            prep.model.class_hypervectors()
        );
        // A tenant's own earlier models change the seeding.
        let personal = model.prepare_domain(&w, &l, std::slice::from_ref(&prep.model)).unwrap();
        assert_ne!(personal.model.class_hypervectors(), prep.model.class_hypervectors());
        // Mis-shaped extra models are a typed up-front InvalidConfig.
        let small = HdcClassifier::new(HdcClassifierConfig {
            dim: 64,
            num_classes: 4,
            learning_rate: 0.05,
            epochs: 1,
        })
        .unwrap();
        assert!(matches!(
            model.prepare_domain(&w, &l, &[small]),
            Err(SmoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn enroll_domain_validates() {
        let ds = shifted_dataset(12);
        let (train, test) = split::lodo(&ds, 1).unwrap();
        let mut unfitted = Smore::new(small_config(3, 4)).unwrap();
        let (w, l, _) = ds.gather(&test[..8]);
        assert!(matches!(unfitted.enroll_domain(&w, &l, 9), Err(SmoreError::NotFitted)));

        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        assert!(model.enroll_domain(&[], &[], 9).is_err(), "empty enrolment");
        assert!(model.enroll_domain(&w, &l[..4], 9).is_err(), "length mismatch");
        let bad_labels = vec![99; w.len()];
        assert!(model.enroll_domain(&w, &bad_labels, 9).is_err(), "label range");
        assert!(model.enroll_domain(&w, &l, 0).is_err(), "tag 0 already enrolled");
        // A failed enrolment leaves the model intact and usable.
        assert_eq!(model.num_domains().unwrap(), 3);
        model.predict_window(ds.window(test[0])).unwrap();
    }

    #[test]
    fn encode_is_usable_before_fit() {
        let model = Smore::new(small_config(3, 4)).unwrap();
        let ds = shifted_dataset(8);
        let encoded = model.encode(&ds.windows()[..4]).unwrap();
        assert_eq!(encoded.shape(), (4, 1024));
    }

    #[test]
    fn evaluate_validates() {
        let ds = shifted_dataset(9);
        let (train, _) = split::lodo(&ds, 0).unwrap();
        let mut model = Smore::new(small_config(3, 4)).unwrap();
        model.fit_indices(&ds, &train).unwrap();
        assert!(model.evaluate(&[], &[]).is_err());
        let w = vec![ds.window(0).clone()];
        assert!(model.evaluate(&w, &[0, 1]).is_err());
    }
}
