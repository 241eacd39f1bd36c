//! The canonical synthetic serving fleet: one recipe shared by the
//! `smore_serve` binary's `--synthetic` mode, its `load_gen` smoke
//! client, servebench and the integration tests, so a client pointed at
//! a synthetic server always produces windows the server's encoder
//! accepts — same channels, same window length, same class count.

use smore::{Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;
use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};
use smore_data::Dataset;
use smore_stream::{LabelStrategy, ServeEngine, StreamingConfig};
use smore_tensor::Matrix;

use crate::Result;

/// The held-out domain the drifting tenants come from (LODO split).
pub const DRIFT_DOMAIN: usize = 3;

/// The generator recipe: four domains of two subjects each, 4 classes,
/// 3 channels, 24-step windows — the multi-tenant engine's test fleet at
/// a serving-bench window budget.
pub fn generator_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        name: "serve-fleet".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 80 })
            .collect(),
        shift_severity: 1.2,
        seed,
    }
}

/// Generates the fleet dataset.
///
/// # Errors
///
/// Propagates generator failures (the fixed recipe does not fail).
pub fn dataset(seed: u64) -> Result<Dataset> {
    generate(&generator_config(seed)).map_err(smore::SmoreError::from)
}

/// The streaming configuration every synthetic tenant session runs with:
/// oracle labels, small enrolment threshold, short cooldown — tuned so a
/// drifting tenant enrols within ~40 drifted windows.
pub fn streaming_config() -> StreamingConfig {
    StreamingConfig {
        buffer_capacity: 128,
        drift_window: 32,
        drift_threshold: 0.5,
        min_enroll: 24,
        cooldown: 32,
        label_strategy: LabelStrategy::Oracle,
        ..StreamingConfig::default()
    }
}

/// The drifting tenant's labelled stream: held-out-domain windows read
/// 1.5× hot (the calibrated drift scenario the streaming regression
/// tests pin down — raw held-out windows alone sit too close to the
/// decision boundary to fire enrolment reliably).
///
/// # Errors
///
/// Propagates stream-synthesis failures (the fixed recipe does not fail).
pub fn drift_stream(ds: &Dataset, windows: usize, seed: u64) -> Result<Vec<(Matrix, usize)>> {
    let items = concept_drift_stream(
        ds,
        &StreamConfig {
            segments: vec![DriftSegment {
                domain: DRIFT_DOMAIN,
                windows,
                gain_ramp: Some((1.5, 1.5)),
                dropout_channel: None,
            }],
            seed,
        },
    )
    .map_err(smore::SmoreError::from)?;
    Ok(items.into_iter().map(|i| (i.window, i.label)).collect())
}

/// Trains the fleet model on the non-drift domains and builds a
/// calibrated [`ServeEngine`] around it (drift δ = the 0.25 quantile of
/// in-distribution `δ_max`).
///
/// # Errors
///
/// Propagates training and calibration failures.
pub fn engine(seed: u64, dim: usize) -> Result<(Dataset, ServeEngine)> {
    let ds = dataset(seed)?;
    let (train, _) = split::lodo(&ds, DRIFT_DOMAIN)?;
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(dim)
            .channels(ds.meta().channels)
            .num_classes(ds.meta().num_classes)
            .epochs(10)
            .threads(2)
            .build()?,
    )?;
    model.fit_indices(&ds, &train)?;
    let mut engine = ServeEngine::new(model, streaming_config())?;
    let (calib_w, _, _) = ds.gather(&train);
    engine.calibrate_drift_delta(&calib_w, 0.25)?;
    Ok((ds, engine))
}
