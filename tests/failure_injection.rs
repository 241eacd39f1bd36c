//! Failure injection: malformed inputs must produce typed errors, never
//! panics or silent corruption, across every public training/inference
//! path.

use smore::pipeline::{TaskMeta, WindowClassifier};
use smore::{Predictor, QuantizedSmore, Smore, SmoreConfig, SmoreError};
use smore_baselines::baseline_hd::{BaselineHd, BaselineHdConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
use smore_stream::{ServeEngine, StreamingConfig};
use smore_tensor::Matrix;

fn dataset() -> smore_data::Dataset {
    generate(&GeneratorConfig {
        name: "failure".into(),
        num_classes: 3,
        channels: 2,
        window_len: 16,
        sample_rate_hz: 20.0,
        domains: vec![
            DomainSpec { subjects: vec![0], windows: 24 },
            DomainSpec { subjects: vec![1], windows: 24 },
            DomainSpec { subjects: vec![2], windows: 24 },
        ],
        shift_severity: 1.0,
        seed: 3,
    })
    .unwrap()
}

fn smore_model() -> Smore {
    Smore::new(
        SmoreConfig::builder().dim(512).channels(2).num_classes(3).epochs(5).build().unwrap(),
    )
    .unwrap()
}

#[test]
fn nan_windows_do_not_poison_smore() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (mut windows, labels, domains) = ds.gather(&idx);
    // Inject NaN and infinity into several training windows.
    windows[0].set(3, 0, f32::NAN);
    windows[1].set(5, 1, f32::INFINITY);
    windows[2].set(0, 0, f32::NEG_INFINITY);
    let mut model = smore_model();
    model.fit(&windows, &labels, &domains).unwrap();
    let p = model.predict_window(&windows[0]).unwrap();
    assert!(p.delta_max.is_finite(), "NaN input must not produce NaN similarity");
    // A NaN query also survives.
    let mut bad_query = windows[3].clone();
    bad_query.map_inplace(|_| f32::NAN);
    let p = model.predict_window(&bad_query).unwrap();
    assert!(p.label < 3);
}

#[test]
fn wrong_channel_count_is_a_typed_error() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (windows, labels, domains) = ds.gather(&idx);
    let mut model = smore_model();
    model.fit(&windows, &labels, &domains).unwrap();
    let wrong = Matrix::zeros(16, 5);
    let err = model.predict_window(&wrong).unwrap_err();
    assert!(matches!(err, SmoreError::Hdc(_)), "expected an HDC shape error, got {err}");
}

#[test]
fn window_shorter_than_ngram_is_a_typed_error() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (windows, labels, domains) = ds.gather(&idx);
    let mut model = smore_model();
    model.fit(&windows, &labels, &domains).unwrap();
    let short = Matrix::zeros(2, 2); // trigram needs at least 3 steps
    assert!(model.predict_window(&short).is_err());
}

#[test]
fn single_domain_training_is_rejected() {
    let ds = dataset();
    let only_domain_zero = ds.domain_indices(0).unwrap();
    let (windows, labels, domains) = ds.gather(&only_domain_zero);
    let mut model = smore_model();
    assert!(matches!(
        model.fit(&windows, &labels, &domains),
        Err(SmoreError::TooFewDomains { found: 1 })
    ));
}

#[test]
fn corrupt_labels_are_rejected_before_training_starts() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (windows, mut labels, domains) = ds.gather(&idx);
    labels[10] = 99;
    let mut model = smore_model();
    assert!(model.fit(&windows, &labels, &domains).is_err());
    // The failed fit must not leave a half-fitted model behind.
    assert!(!model.is_fitted());
}

#[test]
fn degenerate_constant_windows_still_classify() {
    // All-constant windows (dead sensor) must flow through quantisation,
    // training and prediction without NaNs.
    let meta = TaskMeta { num_classes: 2, num_domains: 2, channels: 2, window_len: 16 };
    let windows: Vec<Matrix> =
        (0..24).map(|i| Matrix::filled(16, 2, if i % 2 == 0 { 1.0 } else { -1.0 })).collect();
    let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
    let domains: Vec<usize> = (0..24).map(|i| (i / 12) % 2).collect();
    let mut model = Smore::new(
        SmoreConfig::builder().dim(256).channels(2).num_classes(2).epochs(5).build().unwrap(),
    )
    .unwrap();
    model.fit(&windows, &labels, &domains).unwrap();
    let p = model.predict_window(&windows[0]).unwrap();
    assert!(p.delta_max.is_finite());

    // BaselineHD handles the same degenerate input.
    let mut baseline =
        BaselineHd::new(BaselineHdConfig { dim: 256, epochs: 5, ..BaselineHdConfig::default() });
    baseline.fit(&windows, &labels, &domains, &meta).unwrap();
    let preds = baseline.predict(&windows[..4]).unwrap();
    assert_eq!(preds.len(), 4);
}

#[test]
fn encoder_rejects_impossible_configs_not_panics() {
    for config in [
        EncoderConfig { dim: 0, sensors: 2, ..EncoderConfig::default() },
        EncoderConfig { dim: 64, sensors: 0, ..EncoderConfig::default() },
        EncoderConfig { dim: 64, sensors: 1, ngram: 0, ..EncoderConfig::default() },
        EncoderConfig { dim: 64, sensors: 1, levels: 1, ..EncoderConfig::default() },
    ] {
        assert!(MultiSensorEncoder::new(config).is_err());
    }
}

#[test]
fn empty_prediction_batch_is_fine() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (windows, labels, domains) = ds.gather(&idx);
    let mut model = smore_model();
    model.fit(&windows, &labels, &domains).unwrap();
    let predictions = model.predict_batch(&[]).unwrap();
    assert!(predictions.is_empty());
}

fn fitted_smore() -> Smore {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (windows, labels, domains) = ds.gather(&idx);
    let mut model = smore_model();
    model.fit(&windows, &labels, &domains).unwrap();
    model
}

fn quantized_model() -> QuantizedSmore {
    fitted_smore().quantize().unwrap()
}

#[test]
fn nan_windows_do_not_poison_quantized_serving() {
    let quantized = quantized_model();
    let ds = dataset();
    // NaN / ±∞ cells and an all-NaN query flow through packed encoding
    // without panicking and produce finite similarities.
    let mut w = ds.window(0).clone();
    w.set(3, 0, f32::NAN);
    w.set(5, 1, f32::INFINITY);
    let p = quantized.predict_window(&w).unwrap();
    assert!(p.delta_max.is_finite(), "NaN input must not produce NaN similarity");
    assert!(p.label < 3);
    let mut all_nan = ds.window(1).clone();
    all_nan.map_inplace(|_| f32::NAN);
    let p = quantized.predict_window(&all_nan).unwrap();
    assert!(p.delta_max.is_finite());
}

#[test]
fn quantized_rejects_malformed_windows_with_typed_errors() {
    let quantized = quantized_model();
    // Wrong channel count.
    let err = quantized.predict_window(&Matrix::zeros(16, 5)).unwrap_err();
    assert!(matches!(err, SmoreError::Hdc(_)), "expected an HDC shape error, got {err}");
    // Window shorter than the trigram.
    assert!(quantized.predict_window(&Matrix::zeros(2, 2)).is_err());
    // Mixed batch: one bad window fails the batch with an error, no panic.
    let ds = dataset();
    let batch = vec![ds.window(0).clone(), Matrix::zeros(16, 7)];
    assert!(quantized.predict_batch(&batch).is_err());
}

#[test]
fn quantized_empty_batches_are_handled() {
    let quantized = quantized_model();
    assert!(quantized.predict_batch(&[]).unwrap().is_empty());
    // Empty evaluation is a typed error (nothing to score), not a panic.
    assert!(quantized.evaluate(&[], &[]).is_err());
}

#[test]
fn streaming_session_survives_malformed_ingest() {
    let ds = dataset();
    let engine = ServeEngine::new(
        fitted_smore(),
        StreamingConfig {
            buffer_capacity: 16,
            drift_window: 8,
            min_enroll: 4,
            ..StreamingConfig::default()
        },
    )
    .unwrap();
    let mut session = engine.session();
    // Wrong channel count and too-short windows: typed errors.
    assert!(matches!(session.ingest(&Matrix::zeros(16, 5)), Err(SmoreError::Hdc(_))));
    assert!(session.ingest(&Matrix::zeros(2, 2)).is_err());
    // NaN window: served, finite δ, no panic.
    let mut nan_w = ds.window(0).clone();
    nan_w.map_inplace(|_| f32::NAN);
    let outcome = session.ingest(&nan_w).unwrap();
    assert!(outcome.prediction.delta_max.is_finite());
    // Out-of-range oracle label: typed error.
    assert!(session.ingest_labelled(ds.window(0), 99).is_err());
    // Empty micro-batch is fine; the session still serves afterwards.
    assert!(session.ingest_batch(&[]).unwrap().is_empty());
    let p = session.ingest(ds.window(0)).unwrap();
    assert!(p.prediction.label < 3);
    // Failed ingests consumed no steps; successful ones did.
    assert_eq!(session.steps(), 2);
}

#[test]
fn streaming_calibration_rejects_bad_inputs() {
    let mut engine = ServeEngine::new(fitted_smore(), StreamingConfig::default()).unwrap();
    assert!(engine.calibrate_drift_delta(&[], 0.25).is_err());
    let w = vec![dataset().window(0).clone()];
    assert!(engine.calibrate_drift_delta(&w, 1.0).is_err());
    assert!(engine.calibrate_drift_delta(&w, -0.5).is_err());
    // A malformed calibration window propagates a typed error.
    assert!(engine.calibrate_drift_delta(&[Matrix::zeros(16, 9)], 0.25).is_err());
}

#[test]
fn mismatched_parallel_arrays_rejected_everywhere() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.len()).collect();
    let (windows, labels, domains) = ds.gather(&idx);
    let mut model = smore_model();
    assert!(model.fit(&windows[..10], &labels, &domains).is_err());
    assert!(model.fit(&windows, &labels[..10], &domains).is_err());
    assert!(model.fit(&windows, &labels, &domains[..10]).is_err());
}
