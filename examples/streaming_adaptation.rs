//! Streaming domain adaptation, end to end: a model trained on three
//! users serves a live stream; a fourth, never-seen user arrives
//! mid-stream on a miscalibrated (1.5× gain) device; the drift detector
//! fires on the sustained out-of-distribution mass; the user's session
//! enrols the new domain online from its OOD buffer into a personal delta
//! over the shared base — without ever taking serving offline.
//!
//! ```text
//! cargo run --release --example streaming_adaptation
//! ```

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;
use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};
use smore_stream::{LabelStrategy, ServeEngine, StreamingConfig};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // Four users in four domains; the model trains on the first three.
    let dataset = generate(&GeneratorConfig {
        name: "streaming".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 80 })
            .collect(),
        shift_severity: 1.2,
        seed: 5,
    })?;
    let (train, _) = split::lodo(&dataset, 3)?;
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(2048)
            .channels(dataset.meta().channels)
            .num_classes(dataset.meta().num_classes)
            .epochs(10)
            .build()?,
    )?;
    model.fit_indices(&dataset, &train)?;
    println!("trained on domains 1-3 ({} windows); domain 4 arrives later\n", train.len());

    // Wrap the fitted model in a serving engine and open one session for
    // the stream. Ground-truth labels arrive with the stream (delayed
    // annotation), so enrolment can use them; swap to
    // LabelStrategy::SelfLabel for the fully unsupervised variant.
    let mut engine = ServeEngine::new(
        model,
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
    let drift_delta = engine.calibrate_drift_delta(&calib_w, 0.25)?;
    println!("drift threshold calibrated from training traffic: δ = {drift_delta:.3}");
    let mut session = engine.session();

    // The stream: 100 in-distribution windows, then the new user (their
    // device reads 1.5× hot). The final 100 windows are held back to score
    // pre- vs post-enrolment serving on identical data.
    let new_user = |windows: usize| DriftSegment {
        domain: 3,
        windows,
        gain_ramp: Some((1.5, 1.5)),
        dropout_channel: None,
    };
    let items = concept_drift_stream(
        &dataset,
        &StreamConfig {
            segments: vec![DriftSegment::plain(0, 100), new_user(140), new_user(100)],
            seed: 5 ^ 0xAA,
        },
    )?;

    println!("\nstreaming 240 windows (drift begins at #100):\n");
    for item in items.iter().filter(|i| i.segment < 2) {
        let outcome = session.ingest_labelled(&item.window, item.label)?;
        if item.step % 40 == 0 {
            println!(
                "  #{:<4} domain {}  δ_max {:+.3}  recent OOD mass {:.0}%  buffered {}",
                item.step,
                item.domain + 1,
                outcome.prediction.delta_max,
                100.0 * session.recent_ood_fraction(),
                session.buffered(),
            );
        }
        if let Some(event) = outcome.adapted {
            println!(
                "  #{:<4} >>> drift fired: enrolled domain tag {} from {} buffered windows \
                 ({:.1} ms train, {:.1} ms delta append)",
                item.step,
                event.tag + 1,
                event.enrolled_windows,
                1e3 * event.enroll_seconds,
                1e3 * event.swap_seconds,
            );
        }
    }

    // Score the shared base and the user's personalized model on the same
    // held-back tail of new-user windows.
    let eval_w: Vec<_> =
        items.iter().filter(|i| i.segment == 2).map(|i| i.window.clone()).collect();
    let eval_l: Vec<_> = items.iter().filter(|i| i.segment == 2).map(|i| i.label).collect();
    let pre = engine.base_snapshot().evaluate(&eval_w, &eval_l)?.accuracy;
    let post = session.serving_model().evaluate(&eval_w, &eval_l)?.accuracy;

    println!("\nnew-user accuracy on {} held-back windows:", eval_w.len());
    println!("  shared base ensemble    : {:.1}%", 100.0 * pre);
    println!("  personalized (enrolled) : {:.1}%", 100.0 * post);
    println!("  improvement             : {:+.1} points", 100.0 * (post - pre));
    println!(
        "\nthe user's model now covers {} domains ({} enrolled online); the shared base \
         still serves {}",
        session.num_domains(),
        session.events().len(),
        engine.base_snapshot().num_domains()
    );
    assert!(post - pre >= 0.10, "streaming enrolment should gain >= 10 points");
    Ok(())
}
