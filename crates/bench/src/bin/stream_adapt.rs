//! Streaming adaptation benchmark: a held-out user arrives mid-stream on a
//! miscalibrated (1.5× gain) device, the user's drift detector fires, and
//! a new domain is enrolled online into the user's personal delta over the
//! shared quantized base (one `ServeEngine` session).
//!
//! Emits machine-readable JSON to `BENCH_stream.json` so the adaptation
//! trajectory is tracked across PRs. Schema: a `provenance` object (git
//! revision, `nproc`, `SMORE_THREADS`, repetitions), scenario metadata plus
//! `pre_enrolment_accuracy` / `post_enrolment_accuracy` on the same
//! held-out evaluation tail, `detection_latency_windows` (windows between
//! drift onset and the detector firing) and per-event
//! `enroll_seconds`/`swap_seconds` adaptation latencies (training the
//! domain / appending it to the delta).

#![forbid(unsafe_code)]

use std::time::Instant;

use smore::{DeltaEnrollmentRecord, Smore, SmoreConfig};
use smore_bench::{
    latency_percentiles, pct, predictor_accuracy, print_table, secs, write_bench_json,
};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;
use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};
use smore_stream::{LabelStrategy, ServeEngine, StreamingConfig};

struct Args {
    dim: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let bin = args.first().map(String::as_str).unwrap_or("stream_adapt");
        println!("Usage: {bin} [--dim <n>] [--seed <n>]");
        println!();
        println!("Streaming adaptation benchmark: drift detection latency, online");
        println!("enrolment latency and pre/post-drift accuracy; writes BENCH_stream.json.");
        println!("  --dim <n>    hypervector dimensionality (default 2048)");
        println!("  --seed <n>   dataset seed (default 5)");
        std::process::exit(0);
    }
    let arg_after =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    Args {
        dim: arg_after("--dim").and_then(|v| v.parse().ok()).unwrap_or(2048),
        seed: arg_after("--seed").and_then(|v| v.parse().ok()).unwrap_or(5),
    }
}

/// Headline numbers of one benchmark run.
struct StreamReport {
    pre: f32,
    post: f32,
    detection_latency: usize,
    serving_p50_ms: f64,
    serving_p95_ms: f64,
}

fn write_json(
    path: &str,
    args: &Args,
    report: &StreamReport,
    events: &[DeltaEnrollmentRecord],
) -> std::io::Result<()> {
    let event_rows: Vec<String> = events
        .iter()
        .map(|e| {
            format!(
                "    {{\"tag\": {}, \"step\": {}, \"enrolled_windows\": {}, \
                 \"enroll_seconds\": {:.6}, \"swap_seconds\": {:.6}}}",
                e.tag,
                e.step,
                e.enrolled_windows,
                e.enroll_nanos as f64 / 1e9,
                e.swap_nanos as f64 / 1e9
            )
        })
        .collect();
    let fields = format!(
        "  \"scenario\": \"new-user-gain-1.5\",\n  \"dim\": {},\n  \"seed\": {},\n  \
         \"pre_enrolment_accuracy\": {:.4},\n  \"post_enrolment_accuracy\": {:.4},\n  \
         \"accuracy_gain_points\": {:.2},\n  \"detection_latency_windows\": {},\n  \
         \"serving_p50_ms\": {:.4},\n  \"serving_p95_ms\": {:.4},\n  \"events\": [\n{}\n  ]",
        args.dim,
        args.seed,
        report.pre,
        report.post,
        100.0 * (report.post - report.pre),
        report.detection_latency,
        report.serving_p50_ms,
        report.serving_p95_ms,
        event_rows.join(",\n")
    );
    write_bench_json(path, &fields)
}

fn main() {
    let args = parse_args();
    let dataset = generate(&GeneratorConfig {
        name: "stream-adapt".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 80 })
            .collect(),
        shift_severity: 1.2,
        seed: args.seed,
    })
    .expect("generator config is valid");

    // Train on domains 0-2; domain 3 is the user who arrives mid-stream.
    let (train, _) = split::lodo(&dataset, 3).expect("dataset has domain 3");
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(args.dim)
            .channels(dataset.meta().channels)
            .num_classes(dataset.meta().num_classes)
            .epochs(10)
            .build()
            .expect("config is valid"),
    )
    .expect("config is valid");
    println!("training dense SMORE on {} windows (d = {})...", train.len(), args.dim);
    model.fit_indices(&dataset, &train).expect("training succeeds");

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
    .expect("streaming config is valid");
    let (calib_w, _, _) = dataset.gather(&train);
    let drift_delta = engine.calibrate_drift_delta(&calib_w, 0.25).expect("calibration succeeds");
    println!("calibrated drift δ = {drift_delta:.3} (25th percentile of training δ_max)");
    let mut session = engine.session();

    // The stream: 100 in-distribution windows, then the new user on a
    // 1.5×-gain device (drift + ingest segments, then an evaluation tail).
    let drifted = |windows: usize| DriftSegment {
        domain: 3,
        windows,
        gain_ramp: Some((1.5, 1.5)),
        dropout_channel: None,
    };
    let items = concept_drift_stream(
        &dataset,
        &StreamConfig {
            segments: vec![DriftSegment::plain(0, 100), drifted(140), drifted(100)],
            seed: args.seed ^ 0xAA,
        },
    )
    .expect("stream config is valid");

    let drift_onset = 100usize;
    let mut detection_step = None;
    let mut latencies = Vec::new();
    for item in items.iter().filter(|i| i.segment < 2) {
        let t0 = Instant::now();
        let outcome = session.ingest_labelled(&item.window, item.label).expect("ingest succeeds");
        latencies.push(t0.elapsed().as_secs_f64());
        if outcome.adapted.is_some() && detection_step.is_none() {
            detection_step = Some(item.step);
        }
    }
    let detection_step = detection_step.expect("sustained drift fires the detector");
    assert!(
        detection_step >= drift_onset,
        "detector fired at step {detection_step}, before drift onset at {drift_onset} — \
         recalibrate (this seed/dim false-fires on in-distribution traffic)"
    );
    let detection_latency = detection_step - drift_onset;

    // Pre/post accuracy on the same held-back evaluation tail, both
    // scored through the unified Predictor interface (the shared base vs
    // the user's base + delta).
    let eval_w: Vec<_> =
        items.iter().filter(|i| i.segment == 2).map(|i| i.window.clone()).collect();
    let eval_l: Vec<_> = items.iter().filter(|i| i.segment == 2).map(|i| i.label).collect();
    let pre = predictor_accuracy(&*engine.base_snapshot(), &eval_w, &eval_l)
        .expect("evaluation succeeds");
    let post = predictor_accuracy(&session.serving_model(), &eval_w, &eval_l)
        .expect("evaluation succeeds");

    let (p50, p95) = latency_percentiles(latencies);

    let rows: Vec<Vec<String>> = session
        .events()
        .iter()
        .map(|e| {
            vec![
                e.tag.to_string(),
                e.step.to_string(),
                e.enrolled_windows.to_string(),
                secs(e.enroll_nanos as f64 / 1e9),
                secs(e.swap_nanos as f64 / 1e9),
            ]
        })
        .collect();
    print_table("Adaptation events", &["tag", "step", "windows", "enroll", "delta append"], &rows);
    println!("\ndetection latency: {detection_latency} windows after drift onset");
    println!("held-out user accuracy: {} pre-enrolment -> {} post-enrolment", pct(pre), pct(post));
    println!("serving latency during the stream: p50 {p50:.3} ms, p95 {p95:.3} ms");

    let out = "BENCH_stream.json";
    let report =
        StreamReport { pre, post, detection_latency, serving_p50_ms: p50, serving_p95_ms: p95 };
    match write_json(out, &args, &report, session.events()) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\nfailed to write {out}: {e}"),
    }
}
