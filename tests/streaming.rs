//! Integration test for the streaming adaptation path (the
//! `streaming_adaptation` example's contract): a held-out domain arrives
//! mid-stream, the tenant's drift detector fires, a new domain is enrolled
//! online into the tenant's delta, and post-enrolment accuracy on the new
//! domain improves by at least 10 points over the shared base.

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;
use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};
use smore_stream::{LabelStrategy, ServeEngine, StreamingConfig};

fn dataset() -> smore_data::Dataset {
    generate(&GeneratorConfig {
        name: "streaming-it".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 80 })
            .collect(),
        shift_severity: 1.2,
        seed: 7,
    })
    .unwrap()
}

/// The unseen user's device reads 1.5× hot — a physical drift the frozen
/// channel scaler cannot absorb.
fn new_user_segment(windows: usize) -> DriftSegment {
    DriftSegment { domain: 3, windows, gain_ramp: Some((1.5, 1.5)), dropout_channel: None }
}

#[test]
fn drift_enrolment_hot_swap_improves_new_domain_accuracy() {
    let ds = dataset();
    let (train, _) = split::lodo(&ds, 3).unwrap();
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(1024)
            .channels(ds.meta().channels)
            .num_classes(ds.meta().num_classes)
            .epochs(10)
            .threads(2)
            .build()
            .unwrap(),
    )
    .unwrap();
    model.fit_indices(&ds, &train).unwrap();

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
    )
    .unwrap();
    let (calib_w, _, _) = ds.gather(&train);
    engine.calibrate_drift_delta(&calib_w, 0.25).unwrap();
    let mut session = engine.session();
    assert_eq!(session.num_domains(), 3);

    // 100 in-distribution windows, then the unseen user; the final 100
    // windows are held back to score pre vs post serving on the same data.
    let items = concept_drift_stream(
        &ds,
        &StreamConfig {
            segments: vec![
                DriftSegment::plain(0, 100),
                new_user_segment(140),
                new_user_segment(100),
            ],
            seed: 7 ^ 0xAA,
        },
    )
    .unwrap();

    let mut fired_step = None;
    for item in items.iter().filter(|i| i.segment < 2) {
        let outcome = session.ingest_labelled(&item.window, item.label).unwrap();
        if let Some(event) = outcome.adapted {
            assert_eq!(item.segment, 1, "detector must not fire on in-distribution traffic");
            assert!(event.enrolled_windows >= 24);
            assert!(event.enroll_seconds >= 0.0 && event.swap_seconds >= 0.0);
            fired_step.get_or_insert(event.step);
        }
    }
    let fired_step = fired_step.expect("drift detector fires on the unseen domain");
    assert!(
        (100..180).contains(&fired_step),
        "detection latency out of range: fired at step {fired_step}"
    );

    // The enrolled domains live in the tenant's delta: the tenant serves
    // them on top of the base, and the shared base is untouched.
    assert_eq!(engine.base_snapshot().num_domains(), 3);
    assert_eq!(session.num_domains(), 3 + session.events().len());
    assert!(session.is_personalized());

    // Accuracy contract: ≥ 10 points improvement on the held-back tail of
    // new-domain windows, scored against the shared base.
    let eval_w: Vec<_> =
        items.iter().filter(|i| i.segment == 2).map(|i| i.window.clone()).collect();
    let eval_l: Vec<_> = items.iter().filter(|i| i.segment == 2).map(|i| i.label).collect();
    let pre = engine.base_snapshot().evaluate(&eval_w, &eval_l).unwrap().accuracy;
    let post = session.serving_model().evaluate(&eval_w, &eval_l).unwrap().accuracy;
    assert!(
        post - pre >= 0.10,
        "post-enrolment accuracy {post} must beat pre-enrolment {pre} by >= 10 points"
    );
}

#[test]
fn committed_stream_bench_reflects_the_contract() {
    // BENCH_stream.json is committed by the stream_adapt bench bin; keep
    // its headline numbers in sync with the acceptance criteria so a
    // regressed re-run cannot be committed unnoticed.
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_stream.json"))
        .expect("BENCH_stream.json is committed at the repo root");
    let field = |name: &str| -> f64 {
        let key = format!("\"{name}\":");
        let tail =
            &json[json.find(&key).unwrap_or_else(|| panic!("{name} in BENCH_stream.json"))
                + key.len()..];
        tail.trim_start()
            .split([',', '\n', '}'])
            .next()
            .expect("value after key")
            .trim()
            .parse()
            .expect("numeric field")
    };
    assert!(field("accuracy_gain_points") >= 10.0, "committed gain under 10 points");
    assert!(field("post_enrolment_accuracy") > field("pre_enrolment_accuracy"));
    assert!(field("detection_latency_windows") >= 0.0);
    assert!(json.contains("\"enroll_seconds\""), "adaptation latency numbers committed");
}
