//! Model artifacts end to end: train once, persist as versioned `.smore`
//! files, load in a fresh serving engine, and fan one snapshot out to many
//! tenants.
//!
//! 1. Train a dense SMORE model and freeze the quantized serving model.
//! 2. Save both as `.smore` artifacts (quantized for frozen serving
//!    fleets, dense to resume adaptation elsewhere).
//! 3. Reload the quantized artifact and verify the loaded model serves
//!    **bit-identically** to the in-memory original.
//! 4. Build a multi-tenant `ServeEngine` from the dense artifact — the
//!    "train here, serve there" hand-off — and let two tenants share the
//!    one loaded snapshot: one stays in distribution, one drifts and gets
//!    a personal adapted snapshot, invisibly to the other.
//!
//! ```text
//! cargo run --release --example model_artifacts
//! ```

use smore::{Predictor, QuantizedSmore, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;
use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};
use smore_stream::{LabelStrategy, ServeEngine, StreamingConfig};
use smore_tensor::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // --- 1. Train --------------------------------------------------------
    let dataset = generate(&GeneratorConfig {
        name: "artifacts".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 80 })
            .collect(),
        shift_severity: 1.2,
        seed: 7,
    })?;
    let (train, _) = split::lodo(&dataset, 3)?;
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(1024)
            .channels(dataset.meta().channels)
            .num_classes(dataset.meta().num_classes)
            .epochs(10)
            .build()?,
    )?;
    model.fit_indices(&dataset, &train)?;
    let quantized = model.quantize()?;
    println!("trained on {} windows across 3 source domains", train.len());

    // --- 2. Save ---------------------------------------------------------
    let dir = std::env::temp_dir().join("smore_model_artifacts");
    std::fs::create_dir_all(&dir)?;
    let frozen_path = dir.join("har_frozen.smore");
    let dense_path = dir.join("har_dense.smore");
    quantized.save(&frozen_path)?;
    model.save(&dense_path)?;
    let kib = |p: &std::path::Path| std::fs::metadata(p).map(|m| m.len() as f64 / 1024.0);
    println!(
        "saved artifacts: quantized {:.1} KiB ({}), dense {:.1} KiB ({})",
        kib(&frozen_path)?,
        frozen_path.display(),
        kib(&dense_path)?,
        dense_path.display()
    );

    // --- 3. Reload and verify bit-exactness ------------------------------
    let reloaded = QuantizedSmore::load(&frozen_path)?;
    let probe: Vec<Matrix> = (0..60).map(|i| dataset.window(i * 4).clone()).collect();
    let original_predictions = quantized.predict_batch(&probe)?;
    assert_eq!(
        original_predictions,
        reloaded.predict_batch(&probe)?,
        "a loaded artifact must serve bit-identically"
    );
    println!("reloaded quantized artifact: {} probe predictions bit-identical", probe.len());

    // --- 4. A fresh multi-tenant engine from the dense artifact ----------
    let mut engine = ServeEngine::from_artifact(
        &dense_path,
        StreamingConfig {
            buffer_capacity: 128,
            drift_window: 32,
            drift_threshold: 0.5,
            min_enroll: 24,
            cooldown: 32,
            label_strategy: LabelStrategy::Oracle,
            ..StreamingConfig::default()
        },
    )?;
    let (calib_w, _, _) = dataset.gather(&train);
    let delta = engine.calibrate_drift_delta(&calib_w, 0.25)?;
    println!("\nengine loaded from artifact; drift δ calibrated to {delta:.3}");

    let mut steady = engine.session();
    let mut drifter = engine.session();

    // The steady tenant sees familiar users; the drifting tenant is a new
    // user on a device reading 1.5× hot.
    let calm = concept_drift_stream(
        &dataset,
        &StreamConfig {
            segments: vec![DriftSegment::plain(0, 40), DriftSegment::plain(1, 40)],
            seed: 5,
        },
    )?;
    let new_user = |windows| DriftSegment {
        domain: 3,
        windows,
        gain_ramp: Some((1.5, 1.5)),
        dropout_channel: None,
    };
    let stormy = concept_drift_stream(
        &dataset,
        &StreamConfig {
            segments: vec![DriftSegment::plain(0, 100), new_user(140), new_user(100)],
            seed: 7 ^ 0xAA,
        },
    )?;

    for item in &calm {
        steady.ingest_labelled(&item.window, item.label)?;
    }
    for item in stormy.iter().filter(|i| i.segment < 2) {
        if let Some(event) = drifter.ingest_labelled(&item.window, item.label)?.adapted {
            println!(
                "tenant {} drifted: enrolled domain {} from {} windows at step {} \
                 ({:.0} ms train, {:.1} ms swap)",
                drifter.id(),
                event.tag,
                event.enrolled_windows,
                event.step,
                1e3 * event.enroll_seconds,
                1e3 * event.swap_seconds
            );
        }
    }

    // Isolation: only the drifted tenant pays for (and sees) its adapted
    // snapshot; the steady tenant still serves the shared base.
    let eval_w: Vec<Matrix> =
        stormy.iter().filter(|i| i.segment == 2).map(|i| i.window.clone()).collect();
    let eval_l: Vec<usize> = stormy.iter().filter(|i| i.segment == 2).map(|i| i.label).collect();
    let base_acc = engine.base_snapshot().evaluate(&eval_w, &eval_l)?.accuracy;
    let tenant_acc = drifter.serving_model().evaluate(&eval_w, &eval_l)?.accuracy;
    println!(
        "\nnew-user accuracy: {:.1}% on the shared base -> {:.1}% on the drifted tenant's \
         personal snapshot (+{:.0} points)",
        100.0 * base_acc,
        100.0 * tenant_acc,
        100.0 * (tenant_acc - base_acc)
    );
    println!(
        "steady tenant personalized: {} | drifted tenant personalized: {} | shared base \
         domains: {}",
        steady.is_personalized(),
        drifter.is_personalized(),
        engine.base_snapshot().num_domains()
    );
    assert!(tenant_acc - base_acc >= 0.10, "adaptation contract");
    assert!(!steady.is_personalized());

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
