//! Backend-agnostic drift bookkeeping for a tenant session.
//!
//! [`AdaptationState`] owns everything about *deciding* to adapt — the OOD
//! buffer, the drift detector, the calibrated drift threshold, the step
//! and tag counters and the enrolment cap/cooldown — while staying
//! ignorant of *how* the adaptation is executed: [`crate::TenantSession`]
//! trains the planned domain and appends it, with its enrolment record, to
//! the tenant's personal delta.

use smore::Prediction;
use smore_tensor::Matrix;

use crate::buffer::{BufferedQuery, OodBuffer};
use crate::detector::DriftDetector;
use crate::session::{LabelStrategy, StreamingConfig};

/// Everything the caller needs to *execute* an enrolment that the state
/// machine has decided on: the recent buffered windows, their labels
/// (oracle ground truth where available and configured, serving-ensemble
/// self-labels otherwise), and the tag/step bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct EnrollmentPlan {
    /// External tag to enrol under.
    pub(crate) tag: usize,
    /// Stream step at which drift fired.
    pub(crate) step: usize,
    /// The buffered windows inside the enrolment horizon.
    pub(crate) windows: Vec<Matrix>,
    /// One label per window.
    pub(crate) labels: Vec<usize>,
    /// How many labels came from ground truth (Oracle strategy).
    pub(crate) oracle_labelled: usize,
}

/// Outcome of one [`AdaptationState::observe`] call.
#[derive(Debug)]
pub(crate) struct ObserveOutcome {
    /// Whether the query entered the OOD enrolment buffer.
    pub(crate) buffered: bool,
    /// Whether the drift detector crossed its threshold on this window —
    /// true even when no enrolment follows (too little recent evidence, or
    /// the enrolment cap is exhausted), so telemetry sees every firing.
    pub(crate) drift_fired: bool,
    /// A decided enrolment (drift fired with enough recent evidence); the
    /// caller trains/attaches the domain and then calls
    /// [`AdaptationState::record`].
    pub(crate) plan: Option<EnrollmentPlan>,
}

/// The shared drift-adaptation state machine (see the module docs).
#[derive(Debug)]
pub(crate) struct AdaptationState {
    config: StreamingConfig,
    buffer: OodBuffer,
    detector: DriftDetector,
    drift_delta: f32,
    next_tag: usize,
    step: usize,
    enrolled: usize,
}

impl AdaptationState {
    /// Builds the state machine around an already-validated `config`.
    pub(crate) fn new(config: StreamingConfig, drift_delta: f32, next_tag: usize) -> Self {
        Self {
            buffer: OodBuffer::new(config.buffer_capacity),
            detector: DriftDetector::new(config.drift_window, config.drift_threshold),
            drift_delta,
            next_tag,
            step: 0,
            enrolled: 0,
            config,
        }
    }

    /// Rebuilds the state machine of a suspended session from its
    /// persisted metadata: the tag and step counters and the number of
    /// enrolments made (`enrolled`, counted against the cap) pick up
    /// exactly where eviction paused them, while the OOD buffer and drift
    /// detector restart empty — buffered windows are deliberately *not*
    /// persisted (they are raw tenant sensor data, and re-accumulating a
    /// drift verdict is cheap next to storing them).
    pub(crate) fn resume(
        config: StreamingConfig,
        drift_delta: f32,
        next_tag: usize,
        step: usize,
        enrolled: usize,
    ) -> Self {
        Self {
            buffer: OodBuffer::new(config.buffer_capacity),
            detector: DriftDetector::new(config.drift_window, config.drift_threshold),
            drift_delta,
            next_tag,
            step,
            enrolled,
            config,
        }
    }

    /// The tag the next enrolment will be filed under.
    pub(crate) fn next_tag(&self) -> usize {
        self.next_tag
    }

    pub(crate) fn drift_delta(&self) -> f32 {
        self.drift_delta
    }

    pub(crate) fn buffered(&self) -> usize {
        self.buffer.len()
    }

    pub(crate) fn ood_fraction(&self) -> f32 {
        self.detector.ood_fraction()
    }

    pub(crate) fn steps(&self) -> usize {
        self.step
    }

    /// Advances the state machine by one successfully served window:
    /// buffers it when its `δ_max` falls below the drift threshold, feeds
    /// the detector, and — when drift fires with enough *recent* buffered
    /// evidence (see `StreamingConfig::enroll_horizon`) and the enrolment
    /// cap is not exhausted — drains the buffer into an
    /// [`EnrollmentPlan`]. Stale buffer entries (the low-δ tail of
    /// ordinary in-distribution traffic) are discarded, not enrolled.
    pub(crate) fn observe(
        &mut self,
        window: &Matrix,
        prediction: &Prediction,
        true_label: Option<usize>,
    ) -> ObserveOutcome {
        let step = self.step;
        self.step += 1;

        // Drift bookkeeping uses the (possibly calibrated) drift threshold,
        // which may differ from the serving δ* baked into `prediction`.
        let buffered = prediction.delta_max < self.drift_delta;
        if buffered {
            self.buffer.push(BufferedQuery {
                window: window.clone(),
                pseudo_label: prediction.label,
                true_label,
                delta_max: prediction.delta_max,
                step,
            });
        }

        let fired = self.detector.observe(buffered);
        let horizon_start = step.saturating_sub(self.config.enroll_horizon.saturating_sub(1));
        let plan = if fired && self.enrolled < self.config.max_enrolled_domains {
            let recent = self.buffer.queries().filter(|q| q.step >= horizon_start).count();
            if recent >= self.config.min_enroll {
                Some(self.drain_plan(step, horizon_start))
            } else {
                None
            }
        } else {
            None
        };
        ObserveOutcome { buffered, drift_fired: fired, plan }
    }

    /// Drains the buffer into an enrolment plan, keeping only queries
    /// inside the horizon and resolving labels per the configured
    /// [`LabelStrategy`].
    fn drain_plan(&mut self, step: usize, horizon_start: usize) -> EnrollmentPlan {
        let mut queries = self.buffer.drain();
        queries.retain(|q| q.step >= horizon_start);
        let use_oracle = self.config.label_strategy == LabelStrategy::Oracle;
        let mut oracle_labelled = 0usize;
        let labels: Vec<usize> = queries
            .iter()
            .map(|q| match (use_oracle, q.true_label) {
                (true, Some(l)) => {
                    oracle_labelled += 1;
                    l
                }
                _ => q.pseudo_label,
            })
            .collect();
        let windows: Vec<Matrix> = queries.into_iter().map(|q| q.window).collect();
        EnrollmentPlan { tag: self.next_tag, step, windows, labels, oracle_labelled }
    }

    /// Commits a completed enrolment: advances the tag, counts it against
    /// the cap, and puts the detector into cooldown so it re-arms on the
    /// post-swap distribution.
    pub(crate) fn record(&mut self) {
        self.detector.reset(self.config.cooldown);
        self.next_tag += 1;
        self.enrolled += 1;
    }
}
