//! Compact per-tenant snapshot deltas and the chained base+delta scorer.
//!
//! Copy-on-adapt personalization (PR 5) cloned the whole shared
//! [`QuantizedSmore`] per drifting tenant — ~480 KiB each, dominated by
//! the encoder codebooks and base class planes the clone shares with
//! every other tenant anyway. At the ROADMAP's million-tenant scale that
//! is ~half a terabyte of duplicated state.
//!
//! A [`SnapshotDelta`] stores only what a tenant actually *adds* to the
//! base: per enrolled domain, the residual-binarized class planes, the
//! sign-packed descriptor, and the Gram *growth* — the new row of dots
//! each enrolment appends to every per-class Gram matrix. [`DeltaSmore`]
//! then serves base + delta chained, without ever materialising the
//! combined model:
//!
//! - descriptor similarities walk the base descriptors then the delta
//!   descriptors, in enrolment order — the exact sequence the full clone
//!   holds after the same enrolments;
//! - the Eq. 3 class score needs `dot(Q, C_k)` per domain (base planes
//!   come from the shared model, delta planes from the overlay) and the
//!   ensemble norm `Σ w_j w_m ⟨C_j, C_m⟩`, whose Gram entries route to
//!   the base matrix when both domains are base domains and to the later
//!   domain's stored growth row otherwise.
//!
//! [`DeltaSmore`] is the only packed scorer: a [`QuantizedSmore`] scores
//! as its own base chained with an empty overlay. Every floating-point
//! operation happens in the same order on the same values as scoring a
//! full clone that enrolled the same domains
//! ([`QuantizedSmore::enroll_domain`]), so chained predictions are
//! **bit-exact** with it (property-tested in `tests/delta.rs`).
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
use smore_tensor::{parallel, vecops, Matrix};

use crate::ood::{OodDetector, OodVerdict};
use crate::predictor::{empty_prediction, Predictor, ServeScratch};
use crate::quantized::{clamped_nanos, recover_cosine, CLASS_PLANES};
use crate::smore_model::{EvalReport, Prediction};
use crate::test_time::ensemble_weights_into;
use crate::{QuantizedSmore, Result, SmoreError};

/// One enrolment a tenant performed, as persisted in a `DeltaV1`
/// artifact. Mirrors `smore_stream`'s `AdaptationEvent` with durations in
/// integer nanoseconds (the artifact stores no floats it does not have
/// to), so an evicted-then-rehydrated session keeps its full history.
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

/// One enrolled domain's contribution on top of the base model.
#[derive(Debug, Clone)]
pub struct DeltaDomain {
    pub(crate) tag: usize,
    /// Residual-binarized class hypervectors, one per class.
    pub(crate) classes: Vec<ResidualPacked>,
    /// The sign-packed domain descriptor `U`.
    pub(crate) descriptor: PackedHypervector,
    /// Per class, this domain's Gram growth row: `⟨C_j, C_new⟩` for every
    /// earlier domain `j` (base first, then prior delta domains, in
    /// order) followed by the self-dot — exactly the dots the full-clone
    /// `enroll_domain` computes, in the same order.
    pub(crate) gram_rows: Vec<Vec<f32>>,
}

impl DeltaDomain {
    /// The external tag this domain was enrolled under.
    pub fn tag(&self) -> usize {
        self.tag
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
    pub(crate) domains: Vec<DeltaDomain>,
    /// Session metadata persisted alongside the model state.
    pub meta: DeltaMeta,
}

impl SnapshotDelta {
    /// An empty delta pinned to `base`'s shape.
    pub fn new(base: &QuantizedSmore) -> Self {
        Self {
            base_domains: base.domain_classes.len(),
            dim: base.config.dim,
            num_classes: base.config.num_classes,
            base_tags: base.domain_tags.clone(),
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
    pub fn domains(&self) -> &[DeltaDomain] {
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
        if self.base_domains != base.domain_classes.len()
            || self.dim != base.config.dim
            || self.num_classes != base.config.num_classes
            || self.base_tags != base.domain_tags
        {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "delta built over base (K={}, dim={}, classes={}) cannot chain onto base \
                     (K={}, dim={}, classes={})",
                    self.base_domains,
                    self.dim,
                    self.num_classes,
                    base.domain_classes.len(),
                    base.config.dim,
                    base.config.num_classes
                ),
            });
        }
        Ok(())
    }

    /// Appends a freshly enrolled domain — the delta analog of
    /// [`QuantizedSmore::enroll_domain`]. The class hypervectors are
    /// residual-binarized with the same plane count, the descriptor is
    /// sign-packed, and the Gram growth row is computed with the exact
    /// dots (in the exact order) the full-clone growth performs, so
    /// chained scoring stays bit-exact with it. On error the delta is
    /// unchanged.
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
        if model.dim() != self.dim || model.num_classes() != self.num_classes {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "enrolled model shape ({}, {}) disagrees with quantized model ({}, {})",
                    model.num_classes(),
                    model.dim(),
                    self.num_classes,
                    self.dim
                ),
            });
        }
        if descriptor.len() != self.dim {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "descriptor dimension {} disagrees with quantized dim {}",
                    descriptor.len(),
                    self.dim
                ),
            });
        }
        if self.base_tags.contains(&tag) || self.domains.iter().any(|d| d.tag == tag) {
            return Err(SmoreError::InvalidConfig {
                what: format!("domain tag {tag} is already enrolled"),
            });
        }
        let new_classes = model
            .class_hypervectors()
            .iter_rows()
            .map(|row| ResidualPacked::from_dense(row, CLASS_PLANES))
            .collect::<smore_packed::Result<Vec<_>>>()?;
        let mut gram_rows = Vec::with_capacity(self.num_classes);
        for (c, new_class) in new_classes.iter().enumerate() {
            let mut row = Vec::with_capacity(self.base_domains + self.domains.len() + 1);
            for j in 0..self.base_domains {
                // smore-lint: allow(panic_path) j < base_domains and c < num_classes by the loop bounds
                row.push(base.domain_classes[j][c].dot(new_class)?);
            }
            for earlier in &self.domains {
                // smore-lint: allow(panic_path) every enrolled domain stores num_classes planes
                row.push(earlier.classes[c].dot(new_class)?);
            }
            row.push(new_class.dot(new_class)?);
            gram_rows.push(row);
        }
        self.domains.push(DeltaDomain {
            tag,
            classes: new_classes,
            descriptor: PackedHypervector::from_signs(descriptor),
            gram_rows,
        });
        Ok(())
    }

    /// Bytes this delta holds resident: packed class planes, descriptors,
    /// Gram growth rows, tags and enrolment records. This is the number
    /// the eviction layer budgets against — it excludes everything shared
    /// with the base.
    pub fn storage_bytes(&self) -> usize {
        self.domains
            .iter()
            .map(|d| {
                d.classes.iter().map(ResidualPacked::storage_bytes).sum::<usize>()
                    + d.descriptor.storage_bytes()
                    + d.gram_rows
                        .iter()
                        .map(|r| r.len() * std::mem::size_of::<f32>())
                        .sum::<usize>()
                    + std::mem::size_of::<usize>()
            })
            .sum::<usize>()
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
/// order. With an empty overlay this is the base model itself: every
/// [`QuantizedSmore`] scoring entry point calls it that way. With a
/// tenant's [`SnapshotDelta::domains`] it scores bit-exactly like the full
/// clone that enrolled the same domains.
///
/// The view does not check the pairing on every request. The overlay must
/// extend this base: [`SnapshotDelta::new`] pins a delta to its base, and
/// [`SnapshotDelta::matches_base`] checks one loaded from bytes. A
/// mismatched overlay is answered with a typed error or misscored, never a
/// panic.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSmore<'a> {
    base: &'a QuantizedSmore,
    overlay: &'a [DeltaDomain],
}

/// The error a scorer returns when an overlay does not extend its base.
fn overlay_mismatch() -> SmoreError {
    SmoreError::InvalidConfig { what: "delta overlay does not extend this base".into() }
}

impl<'a> DeltaSmore<'a> {
    /// Chains `overlay` (empty, or a [`SnapshotDelta::domains`] built over
    /// `base`) onto `base`.
    pub fn new(base: &'a QuantizedSmore, overlay: &'a [DeltaDomain]) -> Self {
        Self { base, overlay }
    }

    /// Total domains served: base `K` plus the overlay's.
    pub fn num_domains(&self) -> usize {
        self.base.domain_classes.len() + self.overlay.len()
    }

    /// Every domain's class planes, in chained order.
    fn class_planes(&self) -> impl Iterator<Item = &'a [ResidualPacked]> {
        let overlay = self.overlay.iter().map(|d| d.classes.as_slice());
        self.base.domain_classes.iter().map(Vec::as_slice).chain(overlay)
    }

    /// External tag of the domain at chained index `index`.
    fn domain_tag(&self, index: usize) -> Option<usize> {
        match index.checked_sub(self.base.domain_tags.len()) {
            None => self.base.domain_tags.get(index).copied(),
            Some(i) => self.overlay.get(i).map(DeltaDomain::tag),
        }
    }

    /// Gram entry `⟨C_j, C_m⟩` for class `class` over the chained domain
    /// indexing: both-base entries come from the base matrix (copied
    /// verbatim by the full-clone growth, so the values are identical);
    /// any entry involving an overlay domain comes from the *later*
    /// domain's stored growth row.
    fn gram(&self, class: usize, j: usize, m: usize) -> Option<f32> {
        let base_k = self.base.domain_classes.len();
        let (lo, hi) = if j <= m { (j, m) } else { (m, j) };
        match hi.checked_sub(base_k) {
            None => self.base.class_gram.get(class)?.get(j * base_k + m).copied(),
            Some(i) => self.overlay.get(i)?.gram_rows.get(class)?.get(lo).copied(),
        }
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
        let overlay = self.overlay.iter().map(|d| &d.descriptor);
        for u in self.base.descriptors.iter().chain(overlay) {
            scratch.sims.push(recover_cosine(scratch.query.similarity(u)?));
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
            for (planes, &w) in self.class_planes().zip(weights) {
                if w > 0.0 {
                    let plane = planes.get(class).ok_or_else(overlay_mismatch)?;
                    dot_sum += w * plane.dot_packed(query)?;
                }
            }
            let mut norm_sq = 0.0f32;
            for (j, &wj) in weights.iter().enumerate() {
                if wj <= 0.0 {
                    continue;
                }
                for (m, &wm) in weights.iter().enumerate() {
                    if wm > 0.0 {
                        norm_sq += wj * wm * self.gram(class, j, m).ok_or_else(overlay_mismatch)?;
                    }
                }
            }
            scores.push(if norm_sq > 0.0 { dot_sum / (norm_sq.sqrt() * q_norm) } else { 0.0 });
        }
        Ok(())
    }

    /// Per-class ensemble scores for one window (the
    /// [`Predictor::score_into`] surface): `scores` is cleared and
    /// refilled with `num_classes` entries; the predicted label is their
    /// argmax.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for malformed windows.
    pub fn score_into(
        &self,
        window: &Matrix,
        scratch: &mut ServeScratch,
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        self.prepare_query(window, scratch)?;
        self.class_scores_into(&scratch.query, &scratch.weights, scores)
    }

    /// Predicts one window — Algorithm 1 entirely on packed operations,
    /// reusing caller-owned scratch so the steady-state hot path performs
    /// no heap allocation. The returned reference points into `scratch`
    /// (also readable later through [`ServeScratch::prediction`]); clone
    /// it to keep the prediction past the next call.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for malformed windows.
    pub fn predict_window_with<'s>(
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
            self.domain_tag(verdict.best_domain).ok_or_else(overlay_mismatch)?;
        prediction.domain_similarities.clear();
        prediction.domain_similarities.extend_from_slice(&scratch.sims);
        Ok(&scratch.prediction)
    }

    /// Predicts one window — the allocating convenience wrapper around
    /// [`predict_window_with`](Self::predict_window_with).
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for malformed windows.
    pub fn predict_window(&self, window: &Matrix) -> Result<Prediction> {
        let mut scratch = ServeScratch::new();
        Ok(self.predict_window_with(window, &mut scratch)?.clone())
    }

    /// Predicts a batch of windows in parallel; every worker thread reuses
    /// one [`ServeScratch`] across its whole chunk, so the per-window cost
    /// is allocation-free encoding plus one output clone.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for malformed windows.
    pub fn predict_batch(&self, windows: &[Matrix]) -> Result<Vec<Prediction>> {
        let mut out: Vec<Result<Prediction>> =
            (0..windows.len()).map(|_| Ok(empty_prediction())).collect();
        parallel::par_chunks_indexed(&mut out, self.base.config.threads, |start, chunk| {
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
    /// [`SmoreError::InvalidConfig`] for mismatched label counts.
    pub fn evaluate(&self, windows: &[Matrix], labels: &[usize]) -> Result<EvalReport> {
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
}

impl Predictor for DeltaSmore<'_> {
    fn num_classes(&self) -> usize {
        self.base.config.num_classes
    }

    fn predict_window_with<'s>(
        &self,
        window: &Matrix,
        scratch: &'s mut ServeScratch,
    ) -> Result<&'s Prediction> {
        DeltaSmore::predict_window_with(self, window, scratch)
    }

    fn score_into(
        &self,
        window: &Matrix,
        scratch: &mut ServeScratch,
        scores: &mut Vec<f32>,
    ) -> Result<()> {
        DeltaSmore::score_into(self, window, scratch, scores)
    }

    fn predict_window(&self, window: &Matrix) -> Result<Prediction> {
        DeltaSmore::predict_window(self, window)
    }

    /// Overrides the provided sequential batch with the thread-parallel
    /// per-chunk-scratch implementation.
    fn predict_batch(&self, windows: &[Matrix]) -> Result<Vec<Prediction>> {
        DeltaSmore::predict_batch(self, windows)
    }
}
