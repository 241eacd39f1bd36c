//! Compact per-tenant snapshot deltas and the chained base+delta scorer.
//!
//! Copy-on-adapt personalization (PR 5) cloned the whole shared
//! [`QuantizedSmore`] per drifting tenant — ~480 KiB each, dominated by
//! the encoder codebooks and base class planes the clone shares with
//! every other tenant anyway. At the ROADMAP's million-tenant scale that
//! is ~half a terabyte of duplicated state.
//!
//! A [`SnapshotDelta`] stores only what a tenant actually *adds* to the
//! base: its enrolled domains, each a [`PackedDomain`] — the same record a
//! [`QuantizedSmore`] holds for each of its fitted domains: the
//! residual-binarized class planes, the sign-packed descriptor, and per
//! class the Gram *growth* row, the dots against every earlier domain.
//! [`DeltaSmore`] then serves base + delta chained, without ever
//! materialising the combined model:
//!
//! - descriptor similarities walk the base domains then the delta
//!   domains, in enrolment order;
//! - the Eq. 3 class score needs `dot(Q, C_k)` per domain and the
//!   ensemble norm `Σ w_j w_m ⟨C_j, C_m⟩`, whose Gram entry is the later
//!   domain's growth row at the earlier domain's index, for base and delta
//!   domains alike.
//!
//! [`DeltaSmore`] is the only packed scorer: a [`QuantizedSmore`] scores
//! as its own base chained with an empty overlay. One packer builds every
//! [`PackedDomain`], for quantization and tenant enrolment alike, so the
//! chained scorer sees the same domains, and performs the same
//! floating-point operations in the same order, as scoring a dense model
//! that enrolled the same domains and was quantized again: chained
//! predictions are **bit-exact** with it (property-tested in
//! `tests/delta.rs`).
//!
//! Deltas also persist: [`SnapshotDelta::to_artifact_bytes`] writes a
//! `DeltaV1` `.smore` container (see [`crate::artifact`]) a few KiB in
//! size — including the enrolment history ([`DeltaMeta`]) a rehydrated
//! session needs to keep seeding repeat enrolments correctly — which is
//! what lets `smore_stream`'s eviction layer park an idle personalized
//! tenant for ~3 orders of magnitude less memory than a resident clone.

use std::time::Instant;

use smore_hdc::model::HdcClassifier;
use smore_packed::{PackedHypervector, ResidualPacked};
use smore_tensor::{vecops, Matrix};

use crate::config::SmoreConfig;
use crate::ood::{OodDetector, OodVerdict};
use crate::predictor::{Predictor, ServeScratch};
use crate::quantized::{clamped_nanos, recover_cosine, CLASS_PLANES};
use crate::smore_model::Prediction;
use crate::test_time::ensemble_weights_into;
use crate::{QuantizedSmore, Result, SmoreError};

/// One enrolment a tenant performed, as persisted in a `DeltaV1`
/// artifact — also the enrolment history a `smore_stream` session reports
/// and returns from the ingest that enrolled. Durations are integer
/// nanoseconds (the artifact stores no floats it does not have to), so an
/// evicted-then-rehydrated session keeps its history exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaEnrollmentRecord {
    /// The domain tag this enrolment created.
    pub tag: usize,
    /// Stream step at which the enrolment fired.
    pub step: usize,
    /// Windows trained into the new domain.
    pub enrolled_windows: usize,
    /// How many of them carried oracle labels.
    pub oracle_labelled: usize,
    /// Wall time of the model build, in nanoseconds.
    pub enroll_nanos: u64,
    /// Wall time of the snapshot append/swap, in nanoseconds.
    pub swap_nanos: u64,
}

/// Session metadata carried by a delta so rehydration resumes adaptation
/// where eviction paused it: the tag counter, the step counter and the
/// enrolment history (which seeds repeat enrolments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaMeta {
    /// The next domain tag this tenant would enrol under.
    pub next_tag: usize,
    /// Total windows the tenant had ingested at suspend time.
    pub steps: usize,
    /// Every enrolment performed so far, in stream order.
    pub records: Vec<DeltaEnrollmentRecord>,
}

/// One domain in packed form: what a [`QuantizedSmore`] holds for each of
/// its fitted domains and a [`SnapshotDelta`] for each domain a tenant
/// enrolled.
#[derive(Debug, Clone)]
pub struct PackedDomain {
    pub(crate) tag: usize,
    /// Residual-binarized class hypervectors, one per class.
    pub(crate) classes: Vec<ResidualPacked>,
    /// The sign-packed domain descriptor `U`.
    pub(crate) descriptor: PackedHypervector,
    /// Per class, this domain's Gram growth row: `⟨C_j, C_self⟩` for every
    /// earlier domain `j` (base first, then a tenant's earlier domains, in
    /// order) followed by the self-dot.
    pub(crate) gram_rows: Vec<Vec<f32>>,
}

impl PackedDomain {
    /// The external tag this domain was enrolled under.
    pub fn tag(&self) -> usize {
        self.tag
    }

    /// Packs a trained domain after the domains `base` then `earlier`: the
    /// class hypervectors are residual-binarized, the descriptor is
    /// sign-packed, and per class the growth row takes `⟨C_j, C_new⟩` for
    /// every prior domain `j`, in order, then the self-dot.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] when the model shape or
    /// descriptor dimension disagrees with `config`, or the tag is already
    /// enrolled in `base` or `earlier`.
    pub(crate) fn pack(
        base: &[PackedDomain],
        earlier: &[PackedDomain],
        config: &SmoreConfig,
        model: &HdcClassifier,
        descriptor: &[f32],
        tag: usize,
    ) -> Result<Self> {
        if model.dim() != config.dim || model.num_classes() != config.num_classes {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "enrolled model shape ({}, {}) disagrees with quantized model ({}, {})",
                    model.num_classes(),
                    model.dim(),
                    config.num_classes,
                    config.dim
                ),
            });
        }
        if descriptor.len() != config.dim {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "descriptor dimension {} disagrees with quantized dim {}",
                    descriptor.len(),
                    config.dim
                ),
            });
        }
        if base.iter().chain(earlier).any(|d| d.tag == tag) {
            return Err(SmoreError::InvalidConfig {
                what: format!("domain tag {tag} is already enrolled"),
            });
        }
        let classes = model
            .class_hypervectors()
            .iter_rows()
            .map(|row| ResidualPacked::from_dense(row, CLASS_PLANES))
            .collect::<smore_packed::Result<Vec<_>>>()?;
        let mut gram_rows = Vec::with_capacity(classes.len());
        for (c, class) in classes.iter().enumerate() {
            let mut row = Vec::with_capacity(base.len() + earlier.len() + 1);
            for prior in base.iter().chain(earlier) {
                // smore-lint: allow(panic_path) every packed domain holds num_classes planes, and c < num_classes
                row.push(prior.classes[c].dot(class)?);
            }
            row.push(class.dot(class)?);
            gram_rows.push(row);
        }
        Ok(Self { tag, classes, descriptor: PackedHypervector::from_signs(descriptor), gram_rows })
    }

    /// Bytes this domain holds: class planes, descriptor, Gram growth rows
    /// and tag.
    pub(crate) fn storage_bytes(&self) -> usize {
        self.classes.iter().map(ResidualPacked::storage_bytes).sum::<usize>()
            + self.descriptor.storage_bytes()
            + self.gram_rows.iter().map(|r| r.len() * std::mem::size_of::<f32>()).sum::<usize>()
            + std::mem::size_of::<usize>()
    }
}

/// A tenant's personal state as a compact overlay on a shared base
/// [`QuantizedSmore`] (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct SnapshotDelta {
    /// Shape of the base this delta extends, pinned at creation so a
    /// delta can never be chained onto the wrong base.
    pub(crate) base_domains: usize,
    pub(crate) dim: usize,
    pub(crate) num_classes: usize,
    pub(crate) base_tags: Vec<usize>,
    pub(crate) domains: Vec<PackedDomain>,
    /// Session metadata persisted alongside the model state.
    pub meta: DeltaMeta,
}

impl SnapshotDelta {
    /// An empty delta pinned to `base`'s shape.
    pub fn new(base: &QuantizedSmore) -> Self {
        Self {
            base_domains: base.domains.len(),
            dim: base.config.dim,
            num_classes: base.config.num_classes,
            base_tags: base.domain_tags().collect(),
            domains: Vec::new(),
            meta: DeltaMeta::default(),
        }
    }

    /// Enrolled delta domains (excluding the base's).
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Whether no domain has been enrolled yet.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The enrolled delta domains, in enrolment order — the overlay
    /// [`DeltaSmore::new`] chains onto the base.
    pub fn domains(&self) -> &[PackedDomain] {
        &self.domains
    }

    /// Tags of the enrolled delta domains, in enrolment order.
    pub fn tags(&self) -> impl Iterator<Item = usize> + '_ {
        self.domains.iter().map(|d| d.tag)
    }

    /// Verifies this delta extends exactly `base` (same shape and base
    /// tags) — chaining a delta onto a different base would silently
    /// misscore every window.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] on any mismatch.
    pub fn matches_base(&self, base: &QuantizedSmore) -> Result<()> {
        if self.base_domains != base.domains.len()
            || self.dim != base.config.dim
            || self.num_classes != base.config.num_classes
            || !self.base_tags.iter().copied().eq(base.domain_tags())
        {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "delta built over base (K={}, dim={}, classes={}) cannot chain onto base \
                     (K={}, dim={}, classes={})",
                    self.base_domains,
                    self.dim,
                    self.num_classes,
                    base.domains.len(),
                    base.config.dim,
                    base.config.num_classes
                ),
            });
        }
        Ok(())
    }

    /// Appends a freshly enrolled domain, packed after the base's domains
    /// and this delta's earlier ones by the packer that quantization uses,
    /// so chained scoring stays bit-exact with quantizing a dense model
    /// that enrolled the same domains. On error the delta is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] when the model shape or
    /// descriptor dimension disagrees with the base, the tag is already
    /// enrolled (in base or delta), or the delta does not extend `base`.
    pub fn enroll_domain(
        &mut self,
        base: &QuantizedSmore,
        model: &HdcClassifier,
        descriptor: &[f32],
        tag: usize,
    ) -> Result<()> {
        self.matches_base(base)?;
        let domain =
            PackedDomain::pack(&base.domains, &self.domains, &base.config, model, descriptor, tag)?;
        self.domains.push(domain);
        Ok(())
    }

    /// Bytes this delta holds resident: packed class planes, descriptors,
    /// Gram growth rows, tags and enrolment records. This is the number
    /// the eviction layer budgets against — it excludes everything shared
    /// with the base.
    pub fn storage_bytes(&self) -> usize {
        self.domains.iter().map(PackedDomain::storage_bytes).sum::<usize>()
            + self.base_tags.len() * std::mem::size_of::<usize>()
            + self.meta.records.len() * std::mem::size_of::<DeltaEnrollmentRecord>()
    }

    /// Rebuilds approximate dense classifiers for the enrolled domains
    /// from their residual planes — what a rehydrated session hands to
    /// [`crate::Smore::prepare_domain`] so *repeat* enrolments keep
    /// seeding from the tenant's earlier domains. The reconstruction is
    /// the residual planes' dense sum: exact up to the quantization the
    /// planes already applied.
    ///
    /// # Errors
    ///
    /// Returns [`SmoreError::InvalidConfig`] when a stored plane set does
    /// not reassemble into a `(num_classes, dim)` classifier.
    pub fn dense_models(&self, learning_rate: f32, epochs: usize) -> Result<Vec<HdcClassifier>> {
        self.domains
            .iter()
            .map(|domain| {
                let mut data = Vec::with_capacity(self.num_classes * self.dim);
                for class in &domain.classes {
                    data.extend_from_slice(class.to_dense().as_slice());
                }
                let hvs = Matrix::from_vec(self.num_classes, self.dim, data)
                    .map_err(|e| SmoreError::InvalidConfig { what: e.to_string() })?;
                HdcClassifier::from_class_hypervectors_with(hvs, learning_rate, epochs)
                    .map_err(|e| SmoreError::InvalidConfig { what: e.to_string() })
            })
            .collect()
    }
}

/// Algorithm 1 on packed operations over a base model chained with a
/// possibly empty overlay of delta domains — the one packed scorer (see
/// the [module docs](self)).
///
/// Domains are indexed base first, then overlay domains in enrolment
/// order. With an empty overlay this is the base model itself:
/// [`QuantizedSmore`]'s [`Predictor`] impl calls it that way. With a
/// tenant's [`SnapshotDelta::domains`] it scores bit-exactly like
/// quantizing a dense model that enrolled the same domains.
///
/// The view does not check the pairing on every request. The overlay must
/// extend this base: [`SnapshotDelta::new`] pins a delta to its base, and
/// [`SnapshotDelta::matches_base`] checks one loaded from bytes. A
/// mismatched overlay is answered with a typed error or misscored, never a
/// panic.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSmore<'a> {
    base: &'a QuantizedSmore,
    overlay: &'a [PackedDomain],
}

/// The error a scorer returns when an overlay does not extend its base.
fn overlay_mismatch() -> SmoreError {
    SmoreError::InvalidConfig { what: "delta overlay does not extend this base".into() }
}

impl<'a> DeltaSmore<'a> {
    /// Chains `overlay` (empty, or a [`SnapshotDelta::domains`] built over
    /// `base`) onto `base`.
    pub fn new(base: &'a QuantizedSmore, overlay: &'a [PackedDomain]) -> Self {
        Self { base, overlay }
    }

    /// Total domains served: base `K` plus the overlay's.
    pub fn num_domains(&self) -> usize {
        self.base.domains.len() + self.overlay.len()
    }

    /// Every domain, in chained order: base, then overlay.
    fn domains(&self) -> impl Iterator<Item = &'a PackedDomain> {
        self.base.domains.iter().chain(self.overlay)
    }

    /// The domain at chained index `index`.
    fn domain(&self, index: usize) -> Option<&'a PackedDomain> {
        self.domains().nth(index)
    }

    /// Encodes `window` into the packed query and computes the descriptor
    /// similarities (recovered onto the dense cosine scale, so δ* and the
    /// Eq. 3 weights keep their dense calibration) and ensemble weights
    /// into `scratch`; returns the OOD verdict.
    fn prepare_query(&self, window: &Matrix, scratch: &mut ServeScratch) -> Result<OodVerdict> {
        let encode_start = Instant::now();
        self.base.encode_query_into(window, scratch)?;
        scratch.timings.encode_nanos = clamped_nanos(encode_start.elapsed());
        scratch.sims.clear();
        for domain in self.domains() {
            scratch.sims.push(recover_cosine(scratch.query.similarity(&domain.descriptor)?));
        }
        let config = &self.base.config;
        let verdict = OodDetector::new(config.delta_star).decide(&scratch.sims);
        ensemble_weights_into(
            &scratch.sims,
            verdict.is_ood,
            config.delta_star,
            config.weight_power,
            &mut scratch.weights,
        );
        Ok(verdict)
    }

    /// Scores a prepared packed query against `M_T = Σ_k w_k M_k` without
    /// materialising it: `dot(Q, Σ_k w_k C_k) = Σ_k w_k dot(Q, C_k)`,
    /// every dot a handful of popcount sweeps (one per residual plane);
    /// the per-class ensemble norm comes from the Gram entries. `scores`
    /// is cleared and refilled with one entry per class.
    fn class_scores_into(
        &self,
        query: &PackedHypervector,
        weights: &[f32],
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        let q_norm = (self.base.config.dim as f32).sqrt();
        scores.clear();
        for class in 0..self.base.config.num_classes {
            let mut dot_sum = 0.0f32;
            for (domain, &w) in self.domains().zip(weights) {
                if w > 0.0 {
                    let plane = domain.classes.get(class).ok_or_else(overlay_mismatch)?;
                    dot_sum += w * plane.dot_packed(query)?;
                }
            }
            let mut norm_sq = 0.0f32;
            for (j, (dj, &wj)) in self.domains().zip(weights).enumerate() {
                if wj <= 0.0 {
                    continue;
                }
                for (m, (dm, &wm)) in self.domains().zip(weights).enumerate() {
                    if wm > 0.0 {
                        // ⟨C_j, C_m⟩ is the later domain's growth row at
                        // the earlier index, for base and overlay alike.
                        let (later, at) = if j < m { (dm, j) } else { (dj, m) };
                        let gram = later.gram_rows.get(class).and_then(|row| row.get(at));
                        norm_sq += wj * wm * gram.ok_or_else(overlay_mismatch)?;
                    }
                }
            }
            scores.push(if norm_sq > 0.0 { dot_sum / (norm_sq.sqrt() * q_norm) } else { 0.0 });
        }
        Ok(())
    }
}

impl Predictor for DeltaSmore<'_> {
    /// The base model's configuration: an overlay changes neither the
    /// shape nor `δ*`.
    fn config(&self) -> &SmoreConfig {
        &self.base.config
    }

    /// Algorithm 1 entirely on packed operations, reusing caller-owned
    /// scratch so the steady-state hot path performs no heap allocation.
    /// Fills [`ServeScratch::timings`].
    fn predict_window_with<'s>(
        &self,
        window: &Matrix,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s Prediction> {
        let total_start = Instant::now();
        let verdict = self.prepare_query(window, scratch)?;
        let ServeScratch { query, weights, scores, .. } = &mut *scratch;
        self.class_scores_into(query, weights, scores)?;
        let best_label = vecops::argmax(scores).unwrap_or(0);
        // Everything past the encode — descriptor similarity, OOD verdict,
        // Eq. 3 weights, per-class scoring — is the "score" stage.
        scratch.timings.score_nanos =
            clamped_nanos(total_start.elapsed()).saturating_sub(scratch.timings.encode_nanos);

        let prediction = &mut scratch.prediction;
        prediction.label = best_label;
        prediction.is_ood = verdict.is_ood;
        prediction.delta_max = verdict.delta_max;
        prediction.best_domain =
            self.domain(verdict.best_domain).map(PackedDomain::tag).ok_or_else(overlay_mismatch)?;
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
        self.prepare_query(window, scratch)?;
        self.class_scores_into(&scratch.query, &scratch.weights, scores)
    }
}
