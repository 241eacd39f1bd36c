//! Multi-tenant serving: one model, a million users.
//!
//! **One** trained model serves millions of users, and each user drifts
//! (or doesn't) independently — a miscalibrated watch here, a new sensor
//! placement there. Duplicating the model per user is a non-starter;
//! sharing one mutable model across users would let one user's drift
//! corrupt everyone else's predictions. A single stream is simply a fleet
//! of one: open one session.
//!
//! [`ServeEngine`] resolves this with shared immutable state plus
//! per-tenant overlays:
//!
//! - The engine holds the **base** state behind `Arc`s: the frozen
//!   [`QuantizedSmore`] serving snapshot (loaded once — typically from a
//!   `.smore` artifact via [`ServeEngine::from_artifact`]) and the fitted
//!   dense [`Smore`] used to *train* tenant enrolments
//!   ([`Smore::prepare_domain`] never mutates it, so no locking exists
//!   anywhere on the serve path).
//! - Each [`TenantSession`] owns only its own adaptation state: OOD
//!   buffer, drift detector, serving scratch and — only after its drift
//!   detector has actually fired — a **personal delta**
//!   ([`smore::SnapshotDelta`]): just the tenant's enrolled class planes,
//!   descriptors and Gram growth. Every tenant is scored by the one
//!   chained scorer ([`smore::DeltaSmore`]): the shared base plus the
//!   tenant's delta domains, none for tenants that never drifted (the
//!   overwhelming majority, who cost a few KiB each). Personalized
//!   tenants cost KiB, not a full model copy, and score bit-exactly as if
//!   the base had been cloned and appended to.
//!
//! Idle sessions do not have to stay resident at all:
//! [`TenantSession::suspend`] serializes the delta into a tiny `DeltaV1`
//! `.smore` artifact and [`ServeEngine::resume_session`] rebuilds the
//! session from it — tag counter, step counter and enrolment history
//! included — which is what [`SessionStore`](crate::SessionStore) builds
//! its LRU evict/rehydrate layer on. A resumed session holds its delta
//! and scratch, not the dense models of its enrolled domains: only a later
//! enrolment seeds from those, and that enrolment rebuilds them from the
//! delta, so a rehydrated tenant that only predicts never pays for them.
//!
//! Sessions are `Send`, so a server hands one to each connection/actor;
//! the engine itself is cheap to share behind an `Arc`.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smore::artifact::{self, ArtifactKind};
use smore::delta::DeltaDomain;
use smore::{
    DeltaEnrollmentRecord, DeltaSmore, Predictor, QuantizedSmore, ServeScratch, Smore, SmoreError,
    SnapshotDelta,
};
use smore_hdc::model::HdcClassifier;
use smore_obs::{Event, EventJournal, EventKind};
use smore_tensor::Matrix;

use crate::adapt::{AdaptationState, EnrollmentPlan};
use crate::session::{AdaptationEvent, StreamOutcome, StreamingConfig};
use crate::Result;

/// Served `δ_max` quantile over a calibration set (see
/// [`ServeEngine::calibrate_drift_delta`]).
fn drift_delta_quantile(model: &QuantizedSmore, windows: &[Matrix], quantile: f32) -> Result<f32> {
    if windows.is_empty() {
        return Err(SmoreError::InvalidConfig { what: "calibration set is empty".into() });
    }
    if !(quantile > 0.0 && quantile < 1.0) {
        return Err(SmoreError::InvalidConfig {
            what: format!("calibration quantile must be in (0, 1), got {quantile}"),
        });
    }
    // A NaN-poisoned window must fail calibration loudly, not fold
    // garbage into the served threshold (the packed encoder quantizes
    // non-finite values into arbitrary level bins, so its δ_max would be
    // finite nonsense rather than NaN).
    for (i, window) in windows.iter().enumerate() {
        if !window.as_slice().iter().all(|v| v.is_finite()) {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "calibration window {i} contains a non-finite value; drift δ must be \
                     calibrated on finite in-distribution traffic"
                ),
            });
        }
    }
    let mut deltas: Vec<f32> = model.predict_batch(windows)?.iter().map(|p| p.delta_max).collect();
    // Defense in depth: a non-finite similarity is a model bug, but the
    // serving path must answer with an error, never a panic.
    if let Some(i) = deltas.iter().position(|d| !d.is_finite()) {
        return Err(SmoreError::InvalidConfig {
            // smore-lint: allow(panic_path) i came from position() over this very vec
            what: format!("calibration window {i} produced a non-finite δ_max ({})", deltas[i]),
        });
    }
    // total_cmp is a total order — no panicking partial_cmp on the
    // serving path even if the finiteness guards above ever change.
    deltas.sort_by(f32::total_cmp);
    // The shared nearest-rank helper (ties rounded *up*) — the local copy
    // this crate used to carry floored the rank via `as usize`, biasing the
    // calibrated drift δ low on small calibration sets.
    // smore-lint: allow(panic_path) nearest_rank_index returns an index < len by contract
    Ok(deltas[smore::metrics::nearest_rank_index(deltas.len(), f64::from(quantile))])
}

/// Seconds → whole nanoseconds for journal payloads (saturating).
fn seconds_to_nanos(seconds: f64) -> u64 {
    if seconds <= 0.0 {
        0
    } else {
        (seconds * 1e9).min(u64::MAX as f64) as u64
    }
}

/// The multi-tenant serving engine (see the [module docs](self)).
///
/// # Example
///
/// ```no_run
/// use smore_stream::{ServeEngine, StreamingConfig};
///
/// # fn main() -> Result<(), smore::SmoreError> {
/// // One artifact load; every tenant shares the resulting snapshot.
/// let engine = ServeEngine::from_artifact("model.smore", StreamingConfig::default())?;
/// let mut alice = engine.session();
/// let mut bob = engine.session();
/// # let window = smore_tensor::Matrix::zeros(24, 3);
/// alice.ingest(&window)?; // tenants adapt independently
/// bob.ingest(&window)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ServeEngine {
    /// The fitted dense model — frozen; tenants train enrolments against
    /// it through the non-mutating [`Smore::prepare_domain`].
    dense: Arc<Smore>,
    /// The shared serving snapshot every non-personalized tenant reads.
    base: Arc<QuantizedSmore>,
    config: StreamingConfig,
    drift_delta: f32,
    /// First tag for tenant-enrolled domains (base tags come before it).
    next_tag: usize,
    /// Monotone tenant-id source.
    tenants: AtomicUsize,
    /// Adaptation journal handed to every session created after
    /// [`set_journal`](Self::set_journal); `None` disables event emission.
    journal: Option<Arc<EventJournal>>,
}

impl ServeEngine {
    /// Builds an engine around a fitted dense model: quantizes the shared
    /// base snapshot once and freezes the dense model for tenant
    /// enrolment.
    ///
    /// # Errors
    ///
    /// - [`SmoreError::NotFitted`] when `model` has not been fitted.
    /// - [`SmoreError::InvalidConfig`] for invalid streaming parameters.
    pub fn new(model: Smore, config: StreamingConfig) -> Result<Self> {
        config.validate()?;
        let base = model.quantize()?;
        let next_tag = model.domain_tags()?.iter().copied().max().unwrap_or(0) + 1;
        let drift_delta = config.drift_delta.unwrap_or(model.config().delta_star);
        Ok(Self {
            dense: Arc::new(model),
            base: Arc::new(base),
            config,
            drift_delta,
            next_tag,
            tenants: AtomicUsize::new(0),
            journal: None,
        })
    }

    /// Loads a **dense** `.smore` artifact (written by [`Smore::save`])
    /// and builds the engine from it — the "train once, fan out to a
    /// serving fleet" entry point: one artifact read, one quantize, any
    /// number of tenants.
    ///
    /// # Errors
    ///
    /// - [`SmoreError::Io`] when reading fails.
    /// - [`SmoreError::CorruptArtifact`] for a malformed artifact.
    /// - [`SmoreError::InvalidConfig`] when the artifact holds a frozen
    ///   quantized model: per-tenant adaptation needs the dense model —
    ///   serve a frozen snapshot directly via [`QuantizedSmore::load`].
    pub fn from_artifact(path: impl AsRef<Path>, config: StreamingConfig) -> Result<Self> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| SmoreError::io(path.display().to_string(), &e))?;
        match artifact::kind_of(&bytes)? {
            ArtifactKind::Dense => Self::new(Smore::from_artifact_bytes(&bytes)?, config),
            ArtifactKind::Quantized => Err(SmoreError::InvalidConfig {
                what: format!(
                    "{} holds a frozen quantized model; per-tenant adaptation needs the dense \
                     artifact (Smore::save). Serve a frozen snapshot with QuantizedSmore::load \
                     instead.",
                    path.display()
                ),
            }),
            ArtifactKind::Delta => Err(SmoreError::InvalidConfig {
                what: format!(
                    "{} holds a per-tenant delta overlay, not a model; load the dense base \
                     artifact here and hand the delta to ServeEngine::resume_session.",
                    path.display()
                ),
            }),
        }
    }

    /// Calibrates the drift threshold from known in-distribution traffic
    /// (typically held-back training windows): `drift_delta` becomes the
    /// `quantile` of their served `δ_max` distribution, so roughly
    /// `quantile` of in-distribution traffic counts toward drift mass
    /// while genuinely drifted traffic — whose `δ_max` distribution sits
    /// lower — accumulates mass far faster. Returns the calibrated value.
    /// Calibrate **before** spawning sessions: existing sessions keep the
    /// threshold they were created with.
    ///
    /// # Errors
    ///
    /// [`SmoreError::InvalidConfig`] for an empty calibration set or a
    /// quantile outside `(0, 1)`; propagates encoder errors.
    pub fn calibrate_drift_delta(&mut self, windows: &[Matrix], quantile: f32) -> Result<f32> {
        self.drift_delta = drift_delta_quantile(&self.base, windows, quantile)?;
        Ok(self.drift_delta)
    }

    /// The shared base serving snapshot.
    pub fn base_snapshot(&self) -> Arc<QuantizedSmore> {
        Arc::clone(&self.base)
    }

    /// The frozen dense model tenant enrolments are trained against.
    pub fn dense(&self) -> &Smore {
        &self.dense
    }

    /// The streaming configuration every new session starts from.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// The drift threshold new sessions start with.
    pub fn drift_delta(&self) -> f32 {
        self.drift_delta
    }

    /// Number of tenant sessions created so far.
    pub fn tenants_created(&self) -> usize {
        // ordering: Relaxed — monotone stats counter, no ordering promised.
        self.tenants.load(Ordering::Relaxed)
    }

    /// Attaches an adaptation journal: every session created **after**
    /// this call records its lifecycle (OOD windows, drift firings,
    /// enrolments, snapshot swaps, personalization) into it with the
    /// session's tenant id. Existing sessions are unaffected.
    pub fn set_journal(&mut self, journal: Arc<EventJournal>) {
        self.journal = Some(journal);
    }

    /// The attached adaptation journal, if any.
    pub fn journal(&self) -> Option<&Arc<EventJournal>> {
        self.journal.as_ref()
    }

    /// Opens a fresh tenant session sharing the engine's base state. The
    /// session owns all of its adaptation machinery and is `Send` — hand
    /// it to the tenant's connection/actor thread.
    pub fn session(&self) -> TenantSession {
        // ordering: Relaxed — the counter only hands out distinct ids;
        // session state is owned by the caller, not published through it.
        let id = self.tenants.fetch_add(1, Ordering::Relaxed);
        self.session_with_id(id)
    }

    /// Opens a session attributed to a caller-chosen tenant id — the
    /// serving front-end passes the wire protocol's tenant id here so
    /// journal events carry the id the operator knows, not the engine's
    /// internal counter. Still counts toward
    /// [`tenants_created`](Self::tenants_created).
    pub fn session_for(&self, tenant: u64) -> TenantSession {
        // ordering: Relaxed — monotone stats counter, same as session().
        self.tenants.fetch_add(1, Ordering::Relaxed);
        self.session_with_id(tenant as usize)
    }

    fn session_with_id(&self, id: usize) -> TenantSession {
        TenantSession {
            id,
            dense: Arc::clone(&self.dense),
            base: Arc::clone(&self.base),
            delta: None,
            personal_models: Vec::new(),
            scratch: ServeScratch::new(),
            state: AdaptationState::new(self.config.clone(), self.drift_delta, self.next_tag),
            journal: self.journal.clone(),
        }
    }

    /// Rebuilds a suspended tenant session from the `DeltaV1` artifact
    /// bytes [`TenantSession::suspend`] produced: the personal delta is
    /// chained back onto this engine's base, and the tag/step counters and
    /// enrolment history resume where eviction paused them. Counts toward
    /// [`tenants_created`](Self::tenants_created) like any session.
    ///
    /// The session holds no dense models: serving reads only the delta.
    /// Its next enrolment rebuilds them from the delta's residual planes
    /// ([`SnapshotDelta::dense_models`]), so repeat enrolments keep seeding
    /// from the tenant's earlier domains. That rebuild cannot fail on a
    /// delta this call accepted: the `DeltaV1` decoder gives every domain
    /// `num_classes` classes of `dim` bits, and [`SnapshotDelta::matches_base`]
    /// pins both to this engine's base.
    ///
    /// # Errors
    ///
    /// - [`SmoreError::CorruptArtifact`] for malformed delta bytes.
    /// - [`SmoreError::InvalidConfig`] when the delta was built over a
    ///   different base than this engine serves.
    pub fn resume_session(&self, tenant: u64, bytes: &[u8]) -> Result<TenantSession> {
        let delta = SnapshotDelta::from_artifact_bytes(bytes)?;
        delta.matches_base(&self.base)?;
        let events: Vec<AdaptationEvent> = delta
            .meta
            .records
            .iter()
            .map(|r| AdaptationEvent {
                tag: r.tag,
                step: r.step,
                enrolled_windows: r.enrolled_windows,
                oracle_labelled: r.oracle_labelled,
                enroll_seconds: r.enroll_nanos as f64 / 1e9,
                swap_seconds: r.swap_nanos as f64 / 1e9,
            })
            .collect();
        // A delta written before any enrolment carries tag 0; never let a
        // stale counter reuse a base tag.
        let next_tag = delta.meta.next_tag.max(self.next_tag);
        let steps = delta.meta.steps;
        // ordering: Relaxed — monotone stats counter, same as session().
        self.tenants.fetch_add(1, Ordering::Relaxed);
        Ok(TenantSession {
            id: tenant as usize,
            dense: Arc::clone(&self.dense),
            base: Arc::clone(&self.base),
            delta: Some(delta),
            personal_models: Vec::new(),
            scratch: ServeScratch::new(),
            state: AdaptationState::resume(
                self.config.clone(),
                self.drift_delta,
                next_tag,
                steps,
                events,
            ),
            journal: self.journal.clone(),
        })
    }
}

/// The delta domains a session serves on top of the base: none until its
/// first enrolment. A session's delta extends its base by construction
/// ([`SnapshotDelta::new`]) or by the check in
/// [`ServeEngine::resume_session`], so serving never re-checks the pair.
fn overlay(delta: &Option<SnapshotDelta>) -> &[DeltaDomain] {
    delta.as_ref().map_or(&[], SnapshotDelta::domains)
}

/// One tenant's streaming session over the shared engine state (see the
/// [module docs](self)).
///
/// Serves from the shared base snapshot until this tenant's own drift
/// detector fires; then the tenant's new domain goes into a compact
/// personal [`SnapshotDelta`] — only the enrolled class planes,
/// descriptor and Gram growth — which the chained scorer
/// ([`DeltaSmore`]) serves on top of the base, bit-exact with a full base
/// clone but ~3 orders of magnitude smaller. Other tenants never observe
/// any of it.
#[derive(Debug)]
pub struct TenantSession {
    id: usize,
    dense: Arc<Smore>,
    base: Arc<QuantizedSmore>,
    /// Personal overlay: `None` until the first enrolment.
    delta: Option<SnapshotDelta>,
    /// Dense models of this tenant's enrolled domains — kept so repeat
    /// enrolments seed from base *and* personal models alike. An
    /// enrolment in this process pushes its trained model. A resumed
    /// session starts with none, and its first enrolment rebuilds them
    /// from the delta (see [`ServeEngine::resume_session`]).
    personal_models: Vec<HdcClassifier>,
    scratch: ServeScratch,
    state: AdaptationState,
    /// Engine-attached adaptation journal (`None` = telemetry off).
    journal: Option<Arc<EventJournal>>,
}

impl TenantSession {
    /// The engine-assigned tenant id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The model this tenant serves from: the shared base chained with the
    /// tenant's personal delta domains (none until its first enrolment).
    /// Borrowed per call — taking this view clones nothing.
    pub fn serving_model(&self) -> DeltaSmore<'_> {
        DeltaSmore::new(&self.base, overlay(&self.delta))
    }

    /// Whether this tenant has enrolled at least one personal domain (and
    /// therefore owns a personal delta).
    pub fn is_personalized(&self) -> bool {
        self.delta.as_ref().is_some_and(|d| !d.is_empty())
    }

    /// The tenant's personal delta, if any enrolment has happened.
    pub fn delta(&self) -> Option<&SnapshotDelta> {
        self.delta.as_ref()
    }

    /// Resident bytes of the tenant's personal state (0 until the first
    /// enrolment) — what the eviction layer budgets against.
    pub fn delta_storage_bytes(&self) -> usize {
        self.delta.as_ref().map_or(0, SnapshotDelta::storage_bytes)
    }

    /// Domains in this tenant's serving model (base `K` + personal).
    pub fn num_domains(&self) -> usize {
        self.serving_model().num_domains()
    }

    /// Suspends this session into its persistent form: `Some(bytes)` of a
    /// `DeltaV1` `.smore` artifact when the tenant has personal state
    /// (delta domains plus tag/step counters and enrolment history),
    /// `None` when it has none worth keeping — a never-personalized
    /// session is fully reconstructed by [`ServeEngine::session_for`].
    pub fn suspend(mut self) -> Option<Vec<u8>> {
        let steps = self.state.steps();
        let next_tag = self.state.next_tag();
        self.delta.as_mut().map(|delta| {
            delta.meta.steps = steps;
            delta.meta.next_tag = next_tag;
            delta.to_artifact_bytes()
        })
    }

    /// Enrolments this tenant performed, in stream order.
    pub fn events(&self) -> &[AdaptationEvent] {
        self.state.events()
    }

    /// Total windows this tenant ingested.
    pub fn steps(&self) -> usize {
        self.state.steps()
    }

    /// Queries currently buffered for enrolment.
    pub fn buffered(&self) -> usize {
        self.state.buffered()
    }

    /// The drift threshold this session runs with.
    pub fn drift_delta(&self) -> f32 {
        self.state.drift_delta()
    }

    /// OOD fraction over this tenant's detector window.
    pub fn recent_ood_fraction(&self) -> f32 {
        self.state.ood_fraction()
    }

    /// Encode/score split of the most recent predict or ingest served
    /// through this session's scratch — the serving front-end's source for
    /// per-stage latency histograms on the stateful path.
    pub fn last_timings(&self) -> smore::PredictTimings {
        self.scratch.timings()
    }

    /// Serves one window through this tenant's current snapshot and
    /// session scratch **without** touching adaptation state — the
    /// read-only fast path network front-ends use for pure predict
    /// requests (no OOD buffering, no drift accounting, no step count).
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for malformed windows.
    pub fn predict_window(&mut self, window: &Matrix) -> Result<&smore::Prediction> {
        DeltaSmore::new(&self.base, overlay(&self.delta))
            .predict_window_with(window, &mut self.scratch)
    }

    /// Ingests one unlabelled window: serve, buffer if OOD, adapt (into
    /// the personal overlay) if drift fires.
    ///
    /// # Errors
    ///
    /// Propagates encoder errors for malformed windows and enrolment
    /// errors; a failed ingest does not corrupt the session.
    pub fn ingest(&mut self, window: &Matrix) -> Result<StreamOutcome> {
        self.observe(window, None)
    }

    /// Ingests one window with ground truth — the
    /// [`LabelStrategy::Oracle`](crate::LabelStrategy::Oracle) path.
    ///
    /// # Errors
    ///
    /// - [`SmoreError::InvalidConfig`] for an out-of-range label.
    /// - Same conditions as [`ingest`](Self::ingest) otherwise.
    pub fn ingest_labelled(&mut self, window: &Matrix, label: usize) -> Result<StreamOutcome> {
        let num_classes = self.dense.config().num_classes;
        if label >= num_classes {
            return Err(SmoreError::InvalidConfig {
                what: format!("label {label} out of range for {num_classes} classes"),
            });
        }
        self.observe(window, Some(label))
    }

    /// Ingests a micro-batch in arrival order.
    ///
    /// # Errors
    ///
    /// Stops at (and propagates) the first failing window.
    pub fn ingest_batch(&mut self, windows: &[Matrix]) -> Result<Vec<StreamOutcome>> {
        windows.iter().map(|w| self.ingest(w)).collect()
    }

    /// Records one lifecycle event with this tenant's attribution.
    fn emit(&self, kind: EventKind, step: usize, a: u64, b: u64, nanos: u64) {
        if let Some(journal) = &self.journal {
            journal.push(Event { kind, tenant: self.id as u64, step: step as u64, a, b, nanos });
        }
    }

    fn observe(&mut self, window: &Matrix, true_label: Option<usize>) -> Result<StreamOutcome> {
        // Serve through the session scratch from this tenant's chained
        // view — no lock, no Arc clone, no model copy.
        let serving = DeltaSmore::new(&self.base, overlay(&self.delta));
        let prediction = serving.predict_window_with(window, &mut self.scratch)?.clone();
        let outcome = self.state.observe(window, &prediction, true_label);
        if self.journal.is_some() {
            let step = self.state.steps().saturating_sub(1);
            if outcome.buffered {
                self.emit(EventKind::OodWindow, step, self.state.buffered() as u64, 0, 0);
            }
            if outcome.drift_fired {
                self.emit(EventKind::DriftFired, step, self.state.buffered() as u64, 0, 0);
            }
        }
        let adapted = match outcome.plan {
            Some(plan) => {
                self.emit(
                    EventKind::EnrollStart,
                    plan.step,
                    plan.windows.len() as u64,
                    plan.oracle_labelled as u64,
                    0,
                );
                Some(self.adapt(plan)?)
            }
            None => None,
        };
        Ok(StreamOutcome { prediction, buffered: outcome.buffered, adapted })
    }

    /// Drift fired for this tenant: train the new domain against the
    /// shared frozen dense model (plus this tenant's earlier personal
    /// models), then append it to the personal delta — only the new class
    /// planes, descriptor and Gram growth; the base is never copied.
    fn adapt(&mut self, plan: EnrollmentPlan) -> Result<AdaptationEvent> {
        let t0 = Instant::now();
        // A resumed session's first enrolment rebuilds the dense models of
        // its earlier domains from the delta. A failed rebuild fails this
        // enrolment and leaves the session serving what it served.
        if self.personal_models.is_empty() {
            if let Some(delta) = &self.delta {
                let config = self.dense.config();
                self.personal_models = delta.dense_models(config.learning_rate, config.epochs)?;
            }
        }
        let prep = self.dense.prepare_domain(&plan.windows, &plan.labels, &self.personal_models)?;
        let enroll_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let had_personal = self.delta.is_some();
        let mut delta = self.delta.take().unwrap_or_else(|| SnapshotDelta::new(&self.base));
        if let Err(e) = delta.enroll_domain(&self.base, &prep.model, &prep.descriptor, plan.tag) {
            // The delta is unchanged on error; keep the session serving
            // exactly what it served before (a fresh empty one is dropped).
            self.delta = had_personal.then_some(delta);
            return Err(e);
        }
        let swap_seconds = t1.elapsed().as_secs_f64();
        delta.meta.next_tag = plan.tag + 1;
        delta.meta.records.push(DeltaEnrollmentRecord {
            tag: plan.tag,
            step: plan.step,
            enrolled_windows: prep.samples,
            oracle_labelled: plan.oracle_labelled,
            enroll_nanos: seconds_to_nanos(enroll_seconds),
            swap_nanos: seconds_to_nanos(swap_seconds),
        });
        self.delta = Some(delta);
        self.personal_models.push(prep.model);

        self.emit(
            EventKind::EnrollFinished,
            plan.step,
            prep.samples as u64,
            plan.oracle_labelled as u64,
            seconds_to_nanos(enroll_seconds),
        );
        self.emit(EventKind::SnapshotSwap, plan.step, 0, 0, seconds_to_nanos(swap_seconds));
        if !had_personal {
            self.emit(EventKind::Personalized, plan.step, self.personal_models.len() as u64, 0, 0);
        }

        let event = AdaptationEvent {
            tag: plan.tag,
            step: plan.step,
            enrolled_windows: prep.samples,
            oracle_labelled: plan.oracle_labelled,
            enroll_seconds,
            swap_seconds,
        };
        self.state.record(event.clone());
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore::SmoreConfig;
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
    use smore_data::split;
    use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};

    fn shifted_dataset(seed: u64) -> smore_data::Dataset {
        generate(&GeneratorConfig {
            name: "engine-test".into(),
            num_classes: 4,
            channels: 3,
            window_len: 24,
            sample_rate_hz: 25.0,
            domains: (0..4)
                .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 80 })
                .collect(),
            shift_severity: 1.2,
            seed,
        })
        .unwrap()
    }

    fn fitted(ds: &smore_data::Dataset, train: &[usize]) -> Smore {
        let mut model = Smore::new(
            SmoreConfig::builder()
                .dim(1024)
                .channels(3)
                .num_classes(4)
                .epochs(10)
                .threads(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        model.fit_indices(ds, train).unwrap();
        model
    }

    fn engine_config() -> StreamingConfig {
        StreamingConfig {
            buffer_capacity: 128,
            drift_window: 32,
            drift_threshold: 0.5,
            min_enroll: 24,
            cooldown: 32,
            label_strategy: crate::LabelStrategy::Oracle,
            ..StreamingConfig::default()
        }
    }

    /// The calibrated 1.5×-gain new-user scenario from the streaming
    /// regression tests.
    fn drifted_segment(windows: usize) -> DriftSegment {
        DriftSegment { domain: 3, windows, gain_ramp: Some((1.5, 1.5)), dropout_channel: None }
    }

    fn calibrated_engine(ds: &smore_data::Dataset, train: &[usize]) -> ServeEngine {
        let mut engine = ServeEngine::new(fitted(ds, train), engine_config()).unwrap();
        let (calib_w, _, _) = ds.gather(train);
        engine.calibrate_drift_delta(&calib_w, 0.25).unwrap();
        engine
    }

    #[test]
    fn engine_validates_inputs() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let model = fitted(&ds, &train);
        let bad = StreamingConfig { buffer_capacity: 0, ..engine_config() };
        assert!(ServeEngine::new(model.clone(), bad).is_err());
        let unfitted =
            Smore::new(SmoreConfig::builder().dim(256).channels(3).num_classes(4).build().unwrap())
                .unwrap();
        assert!(matches!(ServeEngine::new(unfitted, engine_config()), Err(SmoreError::NotFitted)));
        // Calibration validation flows through the shared helper.
        let mut engine = ServeEngine::new(model, engine_config()).unwrap();
        assert!(engine.calibrate_drift_delta(&[], 0.25).is_err());
        let w = vec![ds.window(0).clone()];
        assert!(engine.calibrate_drift_delta(&w, 0.0).is_err());
        assert!(engine.calibrate_drift_delta(&w, 1.0).is_err());
        let calibrated = engine.calibrate_drift_delta(&w, 0.5).unwrap();
        assert_eq!(engine.session().drift_delta(), calibrated, "new sessions take the threshold");
    }

    #[test]
    fn quantile_index_uses_nearest_rank_not_truncation() {
        // The motivating case: `as usize` floored 8.1 to 8. Calibration now
        // routes through the one shared workspace helper — pin the behavior
        // at this call site too.
        use smore::metrics::nearest_rank_index;
        assert_eq!(nearest_rank_index(10, 0.9), 9);
        assert_eq!(nearest_rank_index(10, 0.5), 5);
        assert_eq!(nearest_rank_index(10, 0.25), 3);
        // Exactly representable products are not over-rounded.
        assert_eq!(nearest_rank_index(9, 0.25), 2);
        assert_eq!(nearest_rank_index(5, 0.5), 2);
        // Degenerate sizes stay in bounds.
        assert_eq!(nearest_rank_index(1, 0.9), 0);
        assert_eq!(nearest_rank_index(2, 0.99), 1);
    }

    #[test]
    fn calibration_rejects_non_finite_windows_instead_of_panicking() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let mut engine = ServeEngine::new(fitted(&ds, &train), engine_config()).unwrap();
        let mut windows: Vec<Matrix> = (0..6).map(|i| ds.window(i).clone()).collect();

        // One NaN cell in one calibration window: a typed error, not the
        // old partial_cmp panic (and not a silently-poisoned threshold).
        windows[3].set(5, 1, f32::NAN);
        let err = engine.calibrate_drift_delta(&windows, 0.5).unwrap_err();
        assert!(matches!(err, SmoreError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("non-finite"), "{err}");

        // Infinity is rejected the same way.
        windows[3].set(5, 1, f32::INFINITY);
        assert!(engine.calibrate_drift_delta(&windows, 0.5).is_err());

        // Restoring finiteness restores calibration.
        windows[3].set(5, 1, 0.0);
        let delta = engine.calibrate_drift_delta(&windows, 0.5).unwrap();
        assert!(delta.is_finite());
    }

    #[test]
    fn tenants_share_the_base_until_they_drift() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let engine = calibrated_engine(&ds, &train);
        assert_eq!(engine.tenants_created(), 0);

        let mut steady = engine.session();
        let mut drifter = engine.session();
        assert_eq!((steady.id(), drifter.id()), (0, 1));
        assert_eq!(engine.tenants_created(), 2);

        // Steady tenant sees only in-distribution traffic.
        let calm = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![DriftSegment::plain(0, 40), DriftSegment::plain(1, 40)],
                seed: 5,
            },
        )
        .unwrap();
        // The drifting tenant is the calibrated 1.5×-gain new user.
        let stormy = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![DriftSegment::plain(0, 100), drifted_segment(140)],
                seed: 7 ^ 0xAA,
            },
        )
        .unwrap();

        for item in &calm {
            let outcome = steady.ingest_labelled(&item.window, item.label).unwrap();
            assert!(outcome.adapted.is_none(), "no drift in source-domain traffic");
        }
        assert!(steady.events().is_empty());
        assert_eq!(steady.steps(), calm.len());
        let mut adapted = false;
        for item in &stormy {
            let outcome = drifter.ingest_labelled(&item.window, item.label).unwrap();
            if outcome.adapted.is_some() {
                adapted = true;
                assert_eq!(item.segment, 1, "no false fire on in-distribution traffic");
            }
        }
        assert!(adapted, "sustained drift must fire the tenant's detector");

        // Isolation: the drifter personalized (possibly re-enrolling under
        // sustained drift, its later domains seeded from its earlier ones);
        // the steady tenant and the engine's base are untouched.
        assert!(drifter.is_personalized());
        assert!(!drifter.events().is_empty());
        assert_eq!(drifter.num_domains(), 3 + drifter.events().len());
        assert!(!steady.is_personalized(), "copy-on-adapt must not touch other tenants");
        assert_eq!(steady.num_domains(), 3);
        assert_eq!(engine.base_snapshot().num_domains(), 3);
        assert_eq!(engine.dense().num_domains().unwrap(), 3, "shared dense model stays frozen");

        // A fresh session still starts from the shared base.
        let fresh = engine.session();
        assert!(!fresh.is_personalized());
        assert_eq!(fresh.num_domains(), 3);
    }

    #[test]
    fn journal_accounts_for_every_enrolment() {
        use smore_obs::{EventJournal, EventKind};

        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let mut engine = calibrated_engine(&ds, &train);
        // Capacity comfortably above the event volume of this run, so
        // nothing wraps and the tail is a complete account.
        let journal = Arc::new(EventJournal::new(4096));
        engine.set_journal(Arc::clone(&journal));
        assert!(engine.journal().is_some());

        let stormy = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![DriftSegment::plain(0, 100), drifted_segment(140)],
                seed: 7 ^ 0xAA,
            },
        )
        .unwrap();
        let mut drifter = engine.session();
        let mut steady = engine.session();
        for item in &stormy {
            drifter.ingest_labelled(&item.window, item.label).unwrap();
        }
        for item in stormy.iter().filter(|i| i.segment == 0) {
            steady.ingest_labelled(&item.window, item.label).unwrap();
        }
        assert!(drifter.is_personalized());

        let snap = journal.snapshot();
        assert_eq!(journal.dropped(), 0, "single-threaded run must not drop");
        assert_eq!(snap.events.len() as u64, journal.pushed(), "nothing wrapped");

        // Every enrolment the engine reports appears in the journal —
        // started, finished, and followed by a snapshot swap.
        let enrolments = drifter.events().len() + steady.events().len();
        assert!(enrolments > 0);
        assert_eq!(snap.count_of(EventKind::EnrollStart), enrolments);
        assert_eq!(snap.count_of(EventKind::EnrollFinished), enrolments);
        assert_eq!(snap.count_of(EventKind::SnapshotSwap), enrolments);
        assert_eq!(snap.count_of(EventKind::Personalized), 1, "only the drifter personalizes");
        assert!(snap.count_of(EventKind::DriftFired) >= enrolments);
        assert!(snap.count_of(EventKind::OodWindow) >= engine.config().min_enroll);

        // Attribution: every enrolment event carries the drifter's id; the
        // enrolled-window payload matches the engine's own record.
        let finished: Vec<_> =
            snap.events.iter().filter(|e| e.kind == EventKind::EnrollFinished).collect();
        for (event, record) in finished.iter().zip(drifter.events()) {
            assert_eq!(event.tenant, drifter.id() as u64);
            assert_eq!(event.a, record.enrolled_windows as u64);
            assert_eq!(event.step, record.step as u64);
        }
        // The steady tenant never journals an enrolment.
        assert!(snap
            .events
            .iter()
            .all(|e| e.kind == EventKind::OodWindow || e.tenant == drifter.id() as u64));
    }

    #[test]
    fn tenant_adaptation_improves_that_tenants_accuracy() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let engine = calibrated_engine(&ds, &train);
        let mut tenant = engine.session();
        let items = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![
                    DriftSegment::plain(0, 100),
                    drifted_segment(140),
                    drifted_segment(100),
                ],
                seed: 7 ^ 0xAA,
            },
        )
        .unwrap();
        for item in items.iter().filter(|i| i.segment < 2) {
            tenant.ingest_labelled(&item.window, item.label).unwrap();
        }
        assert!(tenant.is_personalized(), "drift fires on the 1.5×-gain user");
        let eval_w: Vec<_> =
            items.iter().filter(|i| i.segment == 2).map(|i| i.window.clone()).collect();
        let eval_l: Vec<_> = items.iter().filter(|i| i.segment == 2).map(|i| i.label).collect();
        let pre = engine.base_snapshot().evaluate(&eval_w, &eval_l).unwrap().accuracy;
        let post = tenant.serving_model().evaluate(&eval_w, &eval_l).unwrap().accuracy;
        assert!(
            post - pre >= 0.10,
            "tenant accuracy {post} must beat the shared base {pre} by >= 10 points"
        );
    }

    #[test]
    fn failed_ingest_leaves_tenant_usable() {
        let ds = shifted_dataset(6);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let engine = ServeEngine::new(fitted(&ds, &train), engine_config()).unwrap();
        let mut tenant = engine.session();
        assert!(tenant.ingest(&Matrix::zeros(24, 9)).is_err());
        let outcome = tenant.ingest(ds.window(0)).unwrap();
        assert!(outcome.prediction.label < 4);
        assert_eq!(tenant.steps(), 1, "failed ingest does not consume a step");
        // Label validation.
        assert!(tenant.ingest_labelled(ds.window(0), 99).is_err());
    }

    #[test]
    fn suspend_resume_round_trips_personal_state() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let engine = calibrated_engine(&ds, &train);

        // A base-only session has nothing worth suspending.
        assert!(engine.session().suspend().is_none());

        let mut tenant = engine.session_for(42);
        let items = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![DriftSegment::plain(0, 100), drifted_segment(140)],
                seed: 7 ^ 0xAA,
            },
        )
        .unwrap();
        for item in &items {
            tenant.ingest_labelled(&item.window, item.label).unwrap();
        }
        assert!(tenant.is_personalized());

        let eval: Vec<Matrix> =
            items.iter().filter(|i| i.segment == 1).map(|i| i.window.clone()).collect();
        let before = tenant.serving_model().predict_batch(&eval).unwrap();
        let events = tenant.events().to_vec();
        let (steps, domains) = (tenant.steps(), tenant.num_domains());

        let bytes = tenant.suspend().expect("personalized session suspends to delta bytes");
        assert!(bytes.len() < 32 << 10, "delta artifact is KiB-scale, got {}", bytes.len());

        let resumed = engine.resume_session(42, &bytes).unwrap();
        assert_eq!(resumed.id(), 42);
        assert!(resumed.is_personalized());
        assert_eq!(resumed.steps(), steps);
        assert_eq!(resumed.num_domains(), domains);
        assert_eq!(resumed.events().len(), events.len());
        for (a, b) in resumed.events().iter().zip(&events) {
            assert_eq!(
                (a.tag, a.step, a.enrolled_windows, a.oracle_labelled),
                (b.tag, b.step, b.enrolled_windows, b.oracle_labelled)
            );
        }
        let after = resumed.serving_model().predict_batch(&eval).unwrap();
        assert_eq!(after, before, "resume must not move one bit of the serving path");

        // Malformed bytes are refused typed.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 1;
        assert!(matches!(engine.resume_session(42, &bad), Err(SmoreError::CorruptArtifact { .. })));
        // A delta built over a differently-shaped base is refused before it
        // can chain onto the wrong model.
        let mut other_model = Smore::new(
            SmoreConfig::builder()
                .dim(512)
                .channels(3)
                .num_classes(4)
                .epochs(4)
                .threads(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        other_model.fit_indices(&ds, &train).unwrap();
        let other = ServeEngine::new(other_model, engine_config()).unwrap();
        assert!(matches!(other.resume_session(42, &bytes), Err(SmoreError::InvalidConfig { .. })));
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for word in words {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// A tenant that enrols, suspends, resumes and enrols again. The two
    /// constants are FNV-1a hashes taken at commit e8fda1f, where resuming
    /// rebuilt the dense models eagerly, so rebuilding them at the next
    /// enrolment must reproduce its scores and records bit for bit.
    #[test]
    fn reenrolment_after_rehydration_is_pinned() {
        let ds = shifted_dataset(7);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let engine = calibrated_engine(&ds, &train);
        let mut tenant = engine.session_for(9);
        let first = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![DriftSegment::plain(0, 100), drifted_segment(140)],
                seed: 7 ^ 0xAA,
            },
        )
        .unwrap();
        for item in &first {
            tenant.ingest_labelled(&item.window, item.label).unwrap();
        }
        assert!(tenant.is_personalized());
        let bytes = tenant.suspend().unwrap();

        let mut resumed = engine.resume_session(9, &bytes).unwrap();
        assert!(resumed.personal_models.is_empty(), "resume rebuilds no dense model");
        resumed.predict_window(ds.window(0)).unwrap();
        assert!(resumed.personal_models.is_empty(), "a predict rebuilds no dense model");

        // A second, different drift: another source domain, a harsher
        // gain and a dead channel.
        let second = concept_drift_stream(
            &ds,
            &StreamConfig {
                segments: vec![DriftSegment {
                    domain: 2,
                    windows: 140,
                    gain_ramp: Some((2.4, 2.4)),
                    dropout_channel: Some(1),
                }],
                seed: 99,
            },
        )
        .unwrap();
        let enrolled = resumed.events().len();
        for item in &second {
            resumed.ingest_labelled(&item.window, item.label).unwrap();
        }
        assert!(resumed.events().len() > enrolled, "the second drift re-enrols");
        let delta = resumed.delta().unwrap();
        assert_eq!(resumed.personal_models.len(), delta.num_domains());

        let records = fnv1a(delta.meta.records.iter().flat_map(|r| {
            [r.tag as u64, r.step as u64, r.enrolled_windows as u64, r.oracle_labelled as u64]
        }));
        let windows =
            second.iter().take(32).map(|i| &i.window).chain((0..16).map(|i| ds.window(i)));
        let mut scratch = ServeScratch::new();
        let mut scores = Vec::new();
        let mut bits = Vec::new();
        for window in windows {
            resumed.serving_model().score_into(window, &mut scratch, &mut scores).unwrap();
            bits.extend(scores.iter().map(|s| u64::from(s.to_bits())));
        }
        assert_eq!(records, 0x58d7_9677_9c08_4033, "enrolment records moved");
        assert_eq!(fnv1a(bits), 0xb0b9_fdeb_26a9_a49d, "re-enrolled scores moved");
    }

    #[test]
    fn from_artifact_requires_the_dense_kind() {
        let ds = shifted_dataset(6);
        let (train, _) = split::lodo(&ds, 3).unwrap();
        let model = fitted(&ds, &train);
        let dir = std::env::temp_dir().join("smore_engine_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Quantized artifact: typed refusal pointing to QuantizedSmore::load.
        let qpath = dir.join("frozen.smore");
        model.quantize().unwrap().save(&qpath).unwrap();
        let err = ServeEngine::from_artifact(&qpath, engine_config()).unwrap_err();
        assert!(err.to_string().contains("QuantizedSmore::load"), "{err}");

        // Dense artifact round trip: the engine's base equals a direct
        // quantize of the original model, bit for bit.
        let dpath = dir.join("dense.smore");
        model.save(&dpath).unwrap();
        let engine = ServeEngine::from_artifact(&dpath, engine_config()).unwrap();
        let windows: Vec<Matrix> = (0..10).map(|i| ds.window(i).clone()).collect();
        let from_artifact = engine.base_snapshot().predict_batch(&windows).unwrap();
        let from_memory = model.quantize().unwrap().predict_batch(&windows).unwrap();
        assert_eq!(from_artifact, from_memory, "artifact-loaded engine serves bit-identically");

        // Missing file is a typed Io error.
        assert!(matches!(
            ServeEngine::from_artifact(dir.join("absent.smore"), engine_config()),
            Err(SmoreError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
