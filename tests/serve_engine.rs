//! Integration test for the multi-tenant `ServeEngine`: one shared base
//! snapshot, ≥ 100 concurrent `TenantSession`s, per-tenant drift
//! detection and copy-on-adapt personalization — with the streaming
//! ≥10-point adaptation contract holding for every drifted tenant, and
//! never-drifting tenants provably staying on the shared snapshot.

use std::sync::Arc;

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;
use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};
use smore_stream::{LabelStrategy, ServeEngine, StreamingConfig};
use smore_tensor::Matrix;

fn dataset() -> smore_data::Dataset {
    generate(&GeneratorConfig {
        name: "engine-it".into(),
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

/// The unseen user's device reads 1.5× hot — the calibrated drift scenario
/// of `tests/streaming.rs`.
fn new_user_segment(windows: usize) -> DriftSegment {
    DriftSegment { domain: 3, windows, gain_ramp: Some((1.5, 1.5)), dropout_channel: None }
}

#[test]
fn hundred_concurrent_tenants_share_one_snapshot_and_adapt_independently() {
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
            // One personal domain per tenant keeps the fleet bounded and
            // the scenario identical to the single-session contract.
            max_enrolled_domains: 1,
            label_strategy: LabelStrategy::Oracle,
            ..StreamingConfig::default()
        },
    )
    .unwrap();
    let (calib_w, _, _) = ds.gather(&train);
    engine.calibrate_drift_delta(&calib_w, 0.25).unwrap();
    let engine = Arc::new(engine);

    // The drifting tenants' stream: 100 in-distribution windows, then the
    // 1.5×-gain new user; the final segment is held back for evaluation.
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
    let drift_serve: Vec<(Matrix, usize)> =
        items.iter().filter(|i| i.segment < 2).map(|i| (i.window.clone(), i.label)).collect();
    let eval_w: Vec<Matrix> =
        items.iter().filter(|i| i.segment == 2).map(|i| i.window.clone()).collect();
    let eval_l: Vec<usize> = items.iter().filter(|i| i.segment == 2).map(|i| i.label).collect();
    // The steady tenants' stream: pure source-domain traffic (pinned as
    // non-firing by the session regression tests).
    let calm_serve: Vec<(Matrix, usize)> = concept_drift_stream(
        &ds,
        &StreamConfig {
            segments: vec![DriftSegment::plain(0, 40), DriftSegment::plain(1, 40)],
            seed: 5,
        },
    )
    .unwrap()
    .into_iter()
    .map(|i| (i.window, i.label))
    .collect();

    let pre = engine.base_snapshot().evaluate(&eval_w, &eval_l).unwrap().accuracy;

    // 100 drifting tenants + 20 steady ones, every session alive and
    // serving concurrently over the same shared Arc<QuantizedSmore>.
    const DRIFTING: usize = 100;
    const STEADY: usize = 20;
    struct TenantReport {
        id: usize,
        personalized: bool,
        enrolments: usize,
        num_domains: usize,
        post_accuracy: f32,
    }
    let reports: Vec<TenantReport> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..(DRIFTING + STEADY) {
            let mut session = engine.session();
            let (serve, eval_w, eval_l) = (&drift_serve, &eval_w, &eval_l);
            let calm = &calm_serve;
            handles.push(scope.spawn(move || {
                let stream = if t < DRIFTING { serve } else { calm };
                for (w, l) in stream {
                    session.ingest_labelled(w, *l).expect("ingest succeeds");
                }
                TenantReport {
                    id: session.id(),
                    personalized: session.is_personalized(),
                    enrolments: session.events().len(),
                    num_domains: session.num_domains(),
                    post_accuracy: session
                        .serving_model()
                        .evaluate(eval_w, eval_l)
                        .expect("evaluation succeeds")
                        .accuracy,
                }
            }));
        }
        handles.into_iter().map(|h| h.join().expect("tenant thread completes")).collect()
    });

    assert_eq!(engine.tenants_created(), DRIFTING + STEADY);
    let mut ids: Vec<usize> = reports.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), DRIFTING + STEADY, "tenant ids are unique");

    // Every drifting tenant personalized and satisfies the ≥10-point
    // adaptation contract on the held-back evaluation tail.
    let mut drifted = 0usize;
    let mut steady = 0usize;
    for r in &reports {
        if r.personalized {
            drifted += 1;
            assert_eq!(r.enrolments, 1, "tenant {}: the cap bounds enrolment", r.id);
            assert_eq!(r.num_domains, 4, "tenant {}", r.id);
            assert!(
                r.post_accuracy - pre >= 0.10,
                "tenant {}: post {} must beat shared-base {pre} by >= 10 points",
                r.id,
                r.post_accuracy
            );
        } else {
            steady += 1;
            assert_eq!(r.enrolments, 0, "tenant {}", r.id);
            assert_eq!(r.num_domains, 3, "tenant {}: still the shared base", r.id);
        }
    }
    assert_eq!(drifted, DRIFTING, "every drift-stream tenant must adapt");
    assert_eq!(steady, STEADY, "no steady tenant may pay for a personal snapshot");

    // Tenant adaptation never leaked into the shared state: the base
    // snapshot and the frozen dense model still hold the 3 source domains.
    assert_eq!(engine.base_snapshot().num_domains(), 3);
    assert_eq!(engine.dense().num_domains().unwrap(), 3);
    assert_eq!(
        engine.base_snapshot().evaluate(&eval_w, &eval_l).unwrap().accuracy,
        pre,
        "shared snapshot behaviour is untouched by 100 tenant adaptations"
    );
}
