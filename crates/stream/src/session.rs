//! Streaming adaptation settings and per-window outcomes, shared by every
//! [`TenantSession`](crate::TenantSession).

use smore::{DeltaEnrollmentRecord, Prediction, SmoreError};

use crate::Result;

/// Where enrolment labels come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelStrategy {
    /// Self-labelling: train on the serving ensemble's own predictions at
    /// ingest time (§3.6's test-time ensemble as the labeller). Fully
    /// unsupervised — the honest streaming default.
    #[default]
    SelfLabel,
    /// Delayed ground truth: use true labels supplied through
    /// [`TenantSession::ingest_labelled`](crate::TenantSession::ingest_labelled)
    /// when available (user confirmation, annotation backfill), falling
    /// back to the self-label for unlabelled queries.
    Oracle,
}

/// Configuration of every [`TenantSession`](crate::TenantSession) a
/// [`ServeEngine`](crate::ServeEngine) opens.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// Capacity of the OOD ring buffer (oldest evicted first).
    pub buffer_capacity: usize,
    /// Sliding-window length of the drift detector.
    pub drift_window: usize,
    /// OOD fraction within the window at which drift fires.
    pub drift_threshold: f32,
    /// Minimum buffered OOD queries before enrolment may run.
    pub min_enroll: usize,
    /// Detector observations suppressed after each enrolment, so the
    /// detector re-arms on the post-swap distribution.
    pub cooldown: usize,
    /// Upper bound on *online-enrolled* domains (guards unbounded model
    /// growth under adversarial streams); further drift is still detected
    /// and counted but no longer enrols.
    pub max_enrolled_domains: usize,
    /// Where enrolment labels come from.
    pub label_strategy: LabelStrategy,
    /// Recency horizon (in stream steps) for enrolment: when drift fires
    /// at step `t`, only buffered queries with `step > t − enroll_horizon`
    /// are enrolled (and counted toward [`min_enroll`](Self::min_enroll));
    /// older entries are the low-`δ` tail of ordinary in-distribution
    /// traffic, and training on them would duplicate existing domains
    /// rather than capture the drift. Must be at least
    /// [`drift_window`](Self::drift_window) so the evidence that fired the
    /// detector is always enrollable.
    pub enroll_horizon: usize,
    /// Similarity threshold for *drift* purposes: a query with
    /// `δ_max < drift_delta` counts toward the drift mass and enters the
    /// enrolment buffer. `None` reuses the model's serving `δ*`. Set it
    /// explicitly — or better, through
    /// [`ServeEngine::calibrate_drift_delta`](crate::ServeEngine::calibrate_drift_delta)
    /// — when the serving threshold is tuned for accuracy rather than
    /// drift sensitivity.
    pub drift_delta: Option<f32>,
}

impl Default for StreamingConfig {
    /// Buffer 256, drift window 48 at 70% OOD mass, ≥ 32 queries to enrol,
    /// cooldown one window, a 192-step enrolment horizon, at most 8 online
    /// domains, self-labelling.
    fn default() -> Self {
        Self {
            buffer_capacity: 256,
            drift_window: 48,
            drift_threshold: 0.7,
            min_enroll: 32,
            cooldown: 48,
            max_enrolled_domains: 8,
            label_strategy: LabelStrategy::SelfLabel,
            enroll_horizon: 192,
            drift_delta: None,
        }
    }
}

impl StreamingConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if self.buffer_capacity == 0 {
            return Err(SmoreError::InvalidConfig {
                what: "buffer_capacity must be positive".into(),
            });
        }
        if self.drift_window == 0 {
            return Err(SmoreError::InvalidConfig { what: "drift_window must be positive".into() });
        }
        if !(self.drift_threshold > 0.0 && self.drift_threshold <= 1.0) {
            return Err(SmoreError::InvalidConfig {
                what: format!("drift_threshold must be in (0, 1], got {}", self.drift_threshold),
            });
        }
        if self.min_enroll == 0 {
            return Err(SmoreError::InvalidConfig { what: "min_enroll must be positive".into() });
        }
        if self.min_enroll > self.buffer_capacity {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "min_enroll ({}) exceeds buffer_capacity ({})",
                    self.min_enroll, self.buffer_capacity
                ),
            });
        }
        if self.enroll_horizon < self.drift_window {
            return Err(SmoreError::InvalidConfig {
                what: format!(
                    "enroll_horizon ({}) must cover drift_window ({})",
                    self.enroll_horizon, self.drift_window
                ),
            });
        }
        if let Some(d) = self.drift_delta {
            if !d.is_finite() || !(-1.0..=1.0).contains(&d) {
                return Err(SmoreError::InvalidConfig {
                    what: format!("drift_delta must be a cosine value in [-1, 1], got {d}"),
                });
            }
        }
        Ok(())
    }
}

/// Outcome of ingesting one window.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// The tenant's serving prediction (always produced, even when the
    /// query is OOD — breadth beats purity, §3.6).
    pub prediction: Prediction,
    /// Whether the query was added to the OOD enrolment buffer.
    pub buffered: bool,
    /// The enrolment this query triggered, if drift fired on it: the
    /// record it appended to the tenant's delta, and so to
    /// [`TenantSession::events`](crate::TenantSession::events).
    pub adapted: Option<DeltaEnrollmentRecord>,
}

#[cfg(test)]
mod tests {
    //! [`StreamingConfig`] validation, and what its knobs do to
    //! [`ServeEngine`](crate::ServeEngine) tenant sessions.

    use super::*;
    use crate::ServeEngine;
    use smore::{Smore, SmoreConfig};
    use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
    use smore_data::split;
    use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig, StreamItem};

    fn shifted_dataset(seed: u64) -> smore_data::Dataset {
        generate(&GeneratorConfig {
            name: "session-test".into(),
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

    /// The new-device scenario the drift tests exercise: the held-out
    /// domain arrives with a 1.5× sensor gain (a miscalibrated unit), a
    /// physically-grounded drift the frozen channel scaler cannot absorb.
    fn drifted_segment(windows: usize) -> DriftSegment {
        DriftSegment { domain: 3, windows, gain_ramp: Some((1.5, 1.5)), dropout_channel: None }
    }

    fn stream(ds: &smore_data::Dataset, segments: Vec<DriftSegment>) -> Vec<StreamItem> {
        concept_drift_stream(ds, &StreamConfig { segments, seed: 7 ^ 0xAA }).unwrap()
    }

    /// An engine over domains 0–2 of `ds`, its drift δ calibrated on them.
    fn calibrated_engine(ds: &smore_data::Dataset, config: StreamingConfig) -> ServeEngine {
        let (train, _) = split::lodo(ds, 3).unwrap();
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
        model.fit_indices(ds, &train).unwrap();
        let mut engine = ServeEngine::new(model, config).unwrap();
        let (calib_w, _, _) = ds.gather(&train);
        engine.calibrate_drift_delta(&calib_w, 0.25).unwrap();
        engine
    }

    fn session_config() -> StreamingConfig {
        StreamingConfig {
            buffer_capacity: 128,
            drift_window: 32,
            drift_threshold: 0.5,
            min_enroll: 24,
            cooldown: 32,
            ..StreamingConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(StreamingConfig::default().validate().is_ok());
        assert!(session_config().validate().is_ok());
        for bad in [
            StreamingConfig { buffer_capacity: 0, ..session_config() },
            StreamingConfig { drift_window: 0, ..session_config() },
            StreamingConfig { drift_threshold: 0.0, ..session_config() },
            StreamingConfig { drift_threshold: 1.5, ..session_config() },
            StreamingConfig { min_enroll: 0, ..session_config() },
            StreamingConfig { min_enroll: 999, buffer_capacity: 64, ..session_config() },
            StreamingConfig { drift_delta: Some(f32::NAN), ..session_config() },
            StreamingConfig { drift_delta: Some(1.5), ..session_config() },
            StreamingConfig { enroll_horizon: 8, drift_window: 32, ..session_config() },
        ] {
            assert!(
                matches!(bad.validate(), Err(SmoreError::InvalidConfig { .. })),
                "{bad:?} must be refused"
            );
        }
    }

    #[test]
    fn unseen_domain_triggers_enrolment_and_hot_swap() {
        // Self-labelling (the default strategy): enrolment trains on the
        // serving ensemble's own predictions.
        let ds = shifted_dataset(7);
        let engine = calibrated_engine(&ds, session_config());
        let base = engine.base_snapshot();
        let mut tenant = engine.session();
        assert_eq!(tenant.num_domains(), 3);

        // 100 in-distribution windows, then the unseen user arrives on a
        // 1.5×-gain device.
        let items = stream(&ds, vec![DriftSegment::plain(0, 100), drifted_segment(140)]);
        let mut adapted_at = None;
        for item in &items {
            let outcome = tenant.ingest(&item.window).unwrap();
            if let Some(event) = outcome.adapted {
                assert!(item.segment == 1, "no false fire on in-distribution traffic");
                adapted_at = Some(event.step);
                assert_eq!(event.tag, 3, "tags continue past the training tags");
                assert!(event.enrolled_windows >= engine.config().min_enroll);
                assert_eq!(event.oracle_labelled, 0, "self-labelled enrolment");
                assert!(event.enroll_nanos > 0, "training the domain takes time");
                assert_eq!(tenant.events(), [event], "the history holds what ingest returned");
                break;
            }
        }
        assert!(adapted_at.is_some(), "sustained OOD traffic must fire the detector");
        // The tenant now serves K+1 domains; the shared base still serves K.
        assert_eq!(tenant.num_domains(), 4);
        assert_eq!(tenant.events().len(), 1);
        assert_eq!(base.num_domains(), 3);
        assert_eq!(engine.base_snapshot().num_domains(), 3);
    }

    #[test]
    fn cooldown_and_domain_cap_bound_enrolment() {
        let ds = shifted_dataset(7);
        let config = StreamingConfig { max_enrolled_domains: 1, cooldown: 8, ..session_config() };
        let engine = calibrated_engine(&ds, config);
        let mut tenant = engine.session();
        for item in &stream(&ds, vec![drifted_segment(240)]) {
            tenant.ingest(&item.window).unwrap();
        }
        assert_eq!(tenant.events().len(), 1, "cap holds even under sustained drift");
        assert_eq!(tenant.num_domains(), 4);
    }

    #[test]
    fn stale_buffer_entries_are_not_enrolled() {
        // A long in-distribution stretch leaves its low-δ tail in the
        // buffer; with a tight enrolment horizon only the fresh (drifted)
        // evidence may be trained on.
        let ds = shifted_dataset(7);
        let horizon = 48usize;
        let engine =
            calibrated_engine(&ds, StreamingConfig { enroll_horizon: horizon, ..session_config() });
        let mut tenant = engine.session();
        // 300 in-distribution steps accumulate plenty of stale low-δ
        // entries before the drift begins.
        let items = stream(&ds, vec![DriftSegment::plain(0, 300), drifted_segment(140)]);
        let mut event = None;
        let mut stale_buffered = 0usize;
        for item in &items {
            if item.step == 300 {
                stale_buffered = tenant.buffered();
            }
            let outcome = tenant.ingest(&item.window).unwrap();
            if outcome.adapted.is_some() && event.is_none() {
                event = outcome.adapted;
            }
        }
        let event = event.expect("drift fires after the in-distribution stretch");
        assert!(stale_buffered > 0, "the in-distribution prefix must leave buffer entries");
        assert!(
            event.enrolled_windows <= horizon,
            "enrolment drew {} windows from a {horizon}-step horizon",
            event.enrolled_windows
        );
    }

    #[test]
    fn oracle_labels_are_used_when_configured() {
        let ds = shifted_dataset(7);
        let config = StreamingConfig { label_strategy: LabelStrategy::Oracle, ..session_config() };
        let engine = calibrated_engine(&ds, config);
        let mut tenant = engine.session();
        let mut event = None;
        for item in &stream(&ds, vec![drifted_segment(200)]) {
            let outcome = tenant.ingest_labelled(&item.window, item.label).unwrap();
            if outcome.adapted.is_some() {
                event = outcome.adapted;
                break;
            }
        }
        let event = event.expect("drift fires");
        assert_eq!(
            event.oracle_labelled, event.enrolled_windows,
            "every buffered window carried ground truth"
        );
        // Label validation.
        assert!(tenant.ingest_labelled(ds.window(0), 99).is_err());
    }
}
