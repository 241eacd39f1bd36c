//! Serving throughput: dense vs quantized (bit-packed) inference on the
//! USC-HAD-like preset — both measured through the unified
//! [`smore::Predictor`] interface — the raw encode path (dense vs the
//! word-parallel packed path vs the retained reference recompute), the raw
//! similarity-kernel comparison at the paper's dimensionality
//! (`d = 8192`), and the serving-fleet **cold start**: `.smore` artifact
//! load plus first prediction.
//!
//! Emits machine-readable JSON to `BENCH_throughput.json` so the perf
//! trajectory is tracked across PRs. Schema: a `provenance` object (git
//! revision, `nproc`, `SMORE_THREADS`, repetitions), then a list of
//! entries with `op`
//! (`predict` end-to-end window prediction, `encode` raw window encoding,
//! `similarity_d8192` raw kernel, `cold_start` artifact load + first
//! prediction), `backend` (`dense` | `packed` | `packed_reference`),
//! `windows_per_sec` (ops/sec for kernel and cold-start rows) and
//! `p50_ms`/`p95_ms` per-call latency percentiles. The `packed_reference`
//! encode row is the pre-optimisation recompute path, kept as a measured
//! baseline so the win of the sliding-bind + SWAR path stays auditable.
//!
//! The **tenant-state** op measures the fleet economics of personalized
//! tenants: resident bytes of a chained delta overlay vs the full-clone
//! alternative, the suspended `DeltaV1` artifact size, and the lazy
//! rehydrate latency (artifact bytes → serving session → first
//! prediction). Full runs write those numbers to
//! `BENCH_tenant_state.json` alongside `BENCH_throughput.json`.
//!
//! `--op <all|predict|encode|similarity|cold_start|tenant_state>`
//! restricts the run to one op family (the CI smoke checks use
//! `--op encode`, which needs no model training, plus scaled-down
//! `--op cold_start` and `--op tenant_state`); partial runs do not
//! rewrite either committed JSON.

#![forbid(unsafe_code)]

use std::time::Instant;

use smore::{Predictor, QuantizedSmore, ServeScratch, Smore, SmoreConfig};
use smore_bench::{
    latency_percentiles, make_smore, pct, predictor_accuracy, print_table, write_bench_json,
    BenchProfile,
};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::presets::usc_had;
use smore_data::split;
use smore_data::stream::{concept_drift_stream, DriftSegment, StreamConfig};
use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
use smore_packed::{EncoderScratch, PackedHypervector, PackedNgramEncoder};
use smore_stream::{FlushPolicy, LabelStrategy, ServeEngine, StateDir, StreamingConfig};
use smore_tensor::{init, vecops, Matrix};

/// One measured row of the report.
struct Entry {
    op: &'static str,
    backend: &'static str,
    per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Which op families to measure (`--op`, default all).
#[derive(Clone, Copy, PartialEq, Eq)]
enum OpFilter {
    All,
    Predict,
    Encode,
    Similarity,
    ColdStart,
    TenantState,
}

impl OpFilter {
    fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--op" {
                return match it.next().map(String::as_str) {
                    Some("predict") => Self::Predict,
                    Some("encode") => Self::Encode,
                    Some("similarity") => Self::Similarity,
                    Some("cold_start") => Self::ColdStart,
                    Some("tenant_state") => Self::TenantState,
                    Some("all") => Self::All,
                    other => {
                        eprintln!(
                            "--op needs a value of \
                             predict|encode|similarity|cold_start|tenant_state|all, got {}",
                            other.map_or_else(|| "nothing".into(), |o| format!("'{o}'"))
                        );
                        std::process::exit(2);
                    }
                };
            }
        }
        Self::All
    }

    fn includes(self, op: Self) -> bool {
        self == Self::All || self == op
    }
}

/// Times `calls` invocations of `f`, returning (calls/sec, per-call
/// latencies in seconds).
fn time_calls(calls: usize, mut f: impl FnMut()) -> (f64, Vec<f64>) {
    let mut latencies = Vec::with_capacity(calls);
    let t0 = Instant::now();
    for _ in 0..calls {
        let t = Instant::now();
        f();
        latencies.push(t.elapsed().as_secs_f64());
    }
    let total = t0.elapsed().as_secs_f64();
    (calls as f64 / total.max(1e-12), latencies)
}

/// Measures one serving backend end-to-end through the unified
/// [`Predictor`] interface — the same code path for the dense and packed
/// models (no per-backend match arms): batch windows/sec over the full
/// held-out set plus per-window latency percentiles over the probe subset,
/// served through one reusable scratch as a serving thread would.
fn predict_entry(
    backend_name: &'static str,
    backend: &dyn Predictor,
    windows: &[Matrix],
    probe: usize,
) -> Entry {
    let t0 = Instant::now();
    backend.predict_batch(windows).expect("prediction succeeds");
    let per_sec = windows.len() as f64 / t0.elapsed().as_secs_f64();
    let mut scratch = ServeScratch::new();
    let mut latencies = Vec::with_capacity(probe);
    for w in &windows[..probe] {
        let t = Instant::now();
        backend.predict_window_with(w, &mut scratch).expect("prediction succeeds");
        latencies.push(t.elapsed().as_secs_f64());
    }
    let (p50, p95) = latency_percentiles(latencies);
    Entry { op: "predict", backend: backend_name, per_sec, p50_ms: p50, p95_ms: p95 }
}

/// The serving-fleet cold start: one `.smore` artifact load
/// ([`QuantizedSmore::load`]) plus the first prediction through a fresh
/// scratch, per timed call. `windows_per_sec` is cold starts per second.
fn cold_start_entry(quantized: &QuantizedSmore, window: &Matrix) -> Entry {
    let path = std::env::temp_dir().join(format!("smore_coldstart_{}.smore", std::process::id()));
    quantized.save(&path).expect("artifact write succeeds");
    let artifact_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let (per_sec, latencies) = time_calls(60, || {
        let model = QuantizedSmore::load(&path).expect("artifact loads");
        let mut scratch = ServeScratch::new();
        let p = model.predict_window_with(window, &mut scratch).expect("prediction succeeds");
        assert!(p.label < model.config().num_classes);
    });
    std::fs::remove_file(&path).ok();
    let (p50, p95) = latency_percentiles(latencies);
    println!(
        "cold start: {:.1} KiB artifact, load + first prediction p50 {p50:.3} ms",
        artifact_bytes as f64 / 1024.0
    );
    Entry { op: "cold_start", backend: "packed", per_sec, p50_ms: p50, p95_ms: p95 }
}

/// Fleet tenant-state economics for one personalized tenant.
struct TenantStateReport {
    dim: usize,
    /// Bytes the shared base snapshot keeps resident (paid once per
    /// process, whatever the tenant count).
    base_resident_bytes: usize,
    /// Resident bytes of the tenant's chained delta overlay.
    delta_resident_bytes: usize,
    /// Bytes of the suspended `DeltaV1` artifact an evicted tenant costs.
    delta_artifact_bytes: usize,
    /// Domains the tenant enrolled during the drift stream.
    delta_domains: usize,
    hydrate_per_sec: f64,
    hydrate_p50_ms: f64,
    hydrate_p95_ms: f64,
    /// Durable-archive write of the delta artifact under
    /// `FlushPolicy::OnEvict` (atomic temp + rename, no fsync) — the cost
    /// an eviction pays on the default policy.
    archive_write_p50_ms: f64,
    /// The same write under `FlushPolicy::Sync` (fsync file + dir per
    /// write) — the crash-durability premium.
    archive_fsync_p50_ms: f64,
    /// Archived tenant files the recovery scan indexed.
    recovery_scan_files: usize,
    /// Wall-clock of one cold `StateDir::open` over those files.
    recovery_scan_ms: f64,
}

impl TenantStateReport {
    /// What the pre-delta design kept resident per personalized tenant: a
    /// full clone of the base plus the enrolled growth.
    fn full_clone_resident_bytes(&self) -> usize {
        self.base_resident_bytes + self.delta_resident_bytes
    }

    /// Projected bytes for 1M tenants with 100k personalized: everyone
    /// evicted to their archive (base-only tenants cost nothing), plus the
    /// one shared base.
    fn fleet_1m_gib(&self) -> f64 {
        (100_000 * self.delta_artifact_bytes + self.base_resident_bytes) as f64
            / (1u64 << 30) as f64
    }
}

/// Builds a calibrated serving engine on the streaming-benchmark recipe
/// (train on domains 0–2, domain 3 arrives mid-stream on a 1.5×-gain
/// device), personalizes one tenant, then measures delta residency,
/// `DeltaV1` artifact size and the suspend → rehydrate → first-prediction
/// path. `--scale` shrinks the training budget for CI smokes.
fn tenant_state_report(profile: &BenchProfile) -> TenantStateReport {
    let per_domain = ((80.0 * f64::from(profile.preset.scale)).round() as usize).max(24);
    let ds = generate(&GeneratorConfig {
        name: "tenant-state".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: per_domain })
            .collect(),
        shift_severity: 1.2,
        seed: 7,
    })
    .expect("generator config is valid");
    let (train, _) = split::lodo(&ds, 3).expect("dataset has domain 3");
    let mut dense = Smore::new(
        SmoreConfig::builder()
            .dim(profile.dim)
            .channels(3)
            .num_classes(4)
            .epochs(10)
            .build()
            .expect("config is valid"),
    )
    .expect("config is valid");
    println!("\ntraining tenant-state engine on {} windows (d = {})...", train.len(), profile.dim);
    dense.fit_indices(&ds, &train).expect("training succeeds");
    let mut engine = ServeEngine::new(
        dense,
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
    let (calib_w, _, _) = ds.gather(&train);
    engine.calibrate_drift_delta(&calib_w, 0.25).expect("calibration succeeds");

    let items = concept_drift_stream(
        &ds,
        &StreamConfig {
            segments: vec![
                DriftSegment::plain(0, 100),
                DriftSegment {
                    domain: 3,
                    windows: 140,
                    gain_ramp: Some((1.5, 1.5)),
                    dropout_channel: None,
                },
            ],
            seed: 7 ^ 0xAA,
        },
    )
    .expect("stream config is valid");
    let mut tenant = engine.session_for(1);
    for item in &items {
        tenant.ingest_labelled(&item.window, item.label).expect("ingest succeeds");
    }
    assert!(tenant.is_personalized(), "calibrated drift stream must personalize the tenant");

    let base_resident_bytes = engine.base_snapshot().storage_bytes();
    let delta_resident_bytes = tenant.delta_storage_bytes();
    let delta_domains = tenant.delta().map_or(0, |d| d.num_domains());
    let probe = items.iter().find(|i| i.segment == 1).expect("stream has a drifted segment");
    let bytes = tenant.suspend().expect("personalized tenant suspends to delta bytes");

    // Lazy rehydrate, as the session store does it on a cache miss:
    // archived bytes → chained session → first prediction.
    let (hydrate_per_sec, latencies) = time_calls(60, || {
        let mut session = engine.resume_session(1, &bytes).expect("delta resumes on its base");
        let p = session.predict_window(&probe.window).expect("prediction succeeds");
        assert!(p.label < 4);
    });
    let (hydrate_p50_ms, hydrate_p95_ms) = latency_percentiles(latencies);

    // Flush-policy overhead: the durable-archive write an eviction pays,
    // per policy, over the real delta artifact just suspended (repeated
    // evictions of one tenant — the atomic rename replaces the file).
    let scratch = std::env::temp_dir().join(format!("smore_bench_state_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut on_evict = StateDir::open(scratch.join("on_evict"), FlushPolicy::OnEvict, |_| true)
        .expect("scratch state dir opens");
    let (_, lat) = time_calls(60, || on_evict.write(1, &bytes).expect("archive write succeeds"));
    let (archive_write_p50_ms, _) = latency_percentiles(lat);
    let mut sync = StateDir::open(scratch.join("sync"), FlushPolicy::Sync, |_| true)
        .expect("scratch state dir opens");
    let (_, lat) = time_calls(60, || sync.write(1, &bytes).expect("archive fsync succeeds"));
    let (archive_fsync_p50_ms, _) = latency_percentiles(lat);

    // Recovery-scan cost: a restart over a fleet's worth of archived
    // tenants — every file's header is validated and indexed before the
    // server takes traffic. Committed runs (the fast profile and up)
    // measure the canonical 100k-tenant archive; sub-fast smoke scales
    // shrink the fleet with the rest of the budget.
    let recovery_scan_files = if profile.preset.scale >= 0.1 {
        100_000
    } else {
        ((100_000.0 * f64::from(profile.preset.scale)).round() as usize).max(1_000)
    };
    println!("archiving {recovery_scan_files} tenants for the recovery-scan measurement...");
    let fleet_dir = scratch.join("fleet");
    let mut fleet = StateDir::open(&fleet_dir, FlushPolicy::OnEvict, |_| true)
        .expect("scratch state dir opens");
    for tenant in 0..recovery_scan_files as u64 {
        fleet.write(tenant, &bytes).expect("archive write succeeds");
    }
    drop(fleet);
    let t0 = Instant::now();
    let recovered =
        StateDir::open(&fleet_dir, FlushPolicy::OnEvict, |_| true).expect("recovery scan succeeds");
    let recovery_scan_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovered.len(), recovery_scan_files, "the scan must index every archived tenant");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&scratch);

    TenantStateReport {
        dim: profile.dim,
        base_resident_bytes,
        delta_resident_bytes,
        delta_artifact_bytes: bytes.len(),
        delta_domains,
        hydrate_per_sec,
        hydrate_p50_ms,
        hydrate_p95_ms,
        archive_write_p50_ms,
        archive_fsync_p50_ms,
        recovery_scan_files,
        recovery_scan_ms,
    }
}

fn write_tenant_state_json(path: &str, r: &TenantStateReport) -> std::io::Result<()> {
    let fields = format!(
        "  \"dim\": {},\n  \"base_resident_bytes\": {},\n  \
         \"full_clone_resident_bytes\": {},\n  \"delta_resident_bytes\": {},\n  \
         \"delta_artifact_bytes\": {},\n  \"delta_domains\": {},\n  \
         \"clone_over_delta_ratio\": {:.2},\n  \"hydrate_per_sec\": {:.2},\n  \
         \"hydrate_p50_ms\": {:.6},\n  \"hydrate_p95_ms\": {:.6},\n  \
         \"archive_write_p50_ms\": {:.6},\n  \"archive_fsync_p50_ms\": {:.6},\n  \
         \"recovery_scan_files\": {},\n  \"recovery_scan_ms\": {:.3},\n  \
         \"fleet_1m_tenants_100k_personalized_gib\": {:.3}",
        r.dim,
        r.base_resident_bytes,
        r.full_clone_resident_bytes(),
        r.delta_resident_bytes,
        r.delta_artifact_bytes,
        r.delta_domains,
        r.full_clone_resident_bytes() as f64 / r.delta_resident_bytes.max(1) as f64,
        r.hydrate_per_sec,
        r.hydrate_p50_ms,
        r.hydrate_p95_ms,
        r.archive_write_p50_ms,
        r.archive_fsync_p50_ms,
        r.recovery_scan_files,
        r.recovery_scan_ms,
        r.fleet_1m_gib(),
    );
    write_bench_json(path, &fields)
}

/// Measures one encode backend over `windows`, cycling until `calls`
/// encodes have been timed.
fn encode_entry(
    op_backend: &'static str,
    windows: &[Matrix],
    calls: usize,
    mut encode: impl FnMut(&Matrix),
) -> Entry {
    let mut i = 0usize;
    let (per_sec, lat) = time_calls(calls, || {
        encode(&windows[i % windows.len()]);
        i += 1;
    });
    let (p50, p95) = latency_percentiles(lat);
    Entry { op: "encode", backend: op_backend, per_sec, p50_ms: p50, p95_ms: p95 }
}

/// Raw window encoding: dense vs the word-parallel packed path (scratch
/// reuse) vs the retained reference recompute. Needs no trained model, so
/// it doubles as the fast CI smoke for the bench path.
fn encode_entries(windows: &[Matrix], dim: usize, channels: usize) -> Vec<Entry> {
    let cfg = EncoderConfig { dim, sensors: channels, ..EncoderConfig::default() };
    let dense_enc = MultiSensorEncoder::new(cfg).expect("encoder config is valid");
    let packed_enc = PackedNgramEncoder::from_dense(&dense_enc).expect("packing always succeeds");
    let calls = windows.len().clamp(64, 400);

    let dense = encode_entry("dense", windows, calls, |w| {
        let hv = dense_enc.encode_window(w).expect("window shape fixed");
        assert!(hv.dim() > 0);
    });
    let mut scratch = EncoderScratch::new();
    let mut out = PackedHypervector::zeros(dim);
    let packed = encode_entry("packed", windows, calls, |w| {
        packed_enc.encode_window_into(w, &mut scratch, &mut out).expect("window shape fixed");
    });
    let reference = encode_entry("packed_reference", windows, calls, |w| {
        let counts = packed_enc.encode_counts_reference(w).expect("window shape fixed");
        assert_eq!(counts.len(), dim);
    });
    vec![dense, packed, reference]
}

/// Raw similarity kernels at `d = 8192`: dense cosine vs packed
/// XOR+popcount. Each timed call batches `inner` kernel invocations so the
/// per-call percentiles stay above timer resolution.
fn similarity_entries() -> (Vec<Entry>, f64) {
    let dim = 8192;
    let inner = 64usize;
    let calls = 300usize;
    let a = init::bipolar_vec(&mut init::rng(1), dim);
    let b = init::bipolar_vec(&mut init::rng(2), dim);
    let pa = PackedHypervector::from_signs(&a);
    let pb = PackedHypervector::from_signs(&b);

    let mut sink = 0.0f32;
    let (dense_calls_per_sec, dense_lat) = time_calls(calls, || {
        for _ in 0..inner {
            sink += vecops::cosine(&a, &b);
        }
    });
    let mut packed_sink = 0usize;
    let (packed_calls_per_sec, packed_lat) = time_calls(calls, || {
        for _ in 0..inner {
            packed_sink += pa.hamming(&pb).expect("dims agree");
        }
    });
    assert!(sink.is_finite() && packed_sink > 0, "keep the kernels observable");

    let dense_ops = dense_calls_per_sec * inner as f64;
    let packed_ops = packed_calls_per_sec * inner as f64;
    let speedup = packed_ops / dense_ops;
    let (d50, d95) = latency_percentiles(dense_lat);
    let (p50, p95) = latency_percentiles(packed_lat);
    let entries = vec![
        Entry {
            op: "similarity_d8192",
            backend: "dense",
            per_sec: dense_ops,
            p50_ms: d50 / inner as f64,
            p95_ms: d95 / inner as f64,
        },
        Entry {
            op: "similarity_d8192",
            backend: "packed",
            per_sec: packed_ops,
            p50_ms: p50 / inner as f64,
            p95_ms: p95 / inner as f64,
        },
    ];
    (entries, speedup)
}

fn write_json(path: &str, preset: &str, dim: usize, entries: &[Entry]) -> std::io::Result<()> {
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"op\": \"{}\", \"backend\": \"{}\", \"windows_per_sec\": {:.2}, \
                 \"p50_ms\": {:.6}, \"p95_ms\": {:.6}}}",
                e.op, e.backend, e.per_sec, e.p50_ms, e.p95_ms
            )
        })
        .collect();
    let fields = format!(
        "  \"preset\": \"{preset}\",\n  \"dim\": {dim},\n  \"entries\": [\n{}\n  ]",
        rows.join(",\n")
    );
    write_bench_json(path, &fields)
}

fn main() {
    let profile = BenchProfile::from_args();
    let ops = OpFilter::from_args();
    let dataset = usc_had(&profile.preset).expect("preset profile is valid");
    let (train, test) = split::lodo(&dataset, 0).expect("dataset has domain 0");
    let (windows, labels, _) = dataset.gather(&test);
    let probe = windows.len().min(200);
    let mut entries: Vec<Entry> = Vec::new();

    println!("# Serving throughput: dense vs quantized (USC-HAD-like, d = {})", profile.dim);

    // Predict and cold-start both need the trained model; train it once.
    let trained = if ops.includes(OpFilter::Predict) || ops.includes(OpFilter::ColdStart) {
        println!(
            "\ntraining dense SMORE on {} windows ({} held-out queries)...",
            train.len(),
            test.len()
        );
        let mut dense = make_smore(&dataset, &profile).expect("profile builds a valid model");
        dense.fit_indices(&dataset, &train).expect("training succeeds");
        let quantized = dense.quantize().expect("model is fitted");
        Some((dense, quantized))
    } else {
        None
    };

    if ops.includes(OpFilter::Predict) {
        let (dense, quantized) = trained.as_ref().expect("trained above");
        // Both backends route through the unified Predictor interface —
        // accuracy sanity and the full measurement share one code path.
        let backends: [(&'static str, &dyn Predictor); 2] =
            [("dense", dense), ("packed", quantized)];
        for (name, backend) in backends {
            let accuracy =
                predictor_accuracy(backend, &windows, &labels).expect("evaluation succeeds");
            println!("held-out accuracy ({name}): {}", pct(accuracy));
            entries.push(predict_entry(name, backend, &windows, probe));
        }
        let speedup = entries[entries.len() - 1].per_sec / entries[entries.len() - 2].per_sec;
        println!("end-to-end speedup: {speedup:.2}x windows/sec");
        println!(
            "packed model footprint: {:.1} KiB (vs {:.1} KiB dense class+descriptor f32)",
            quantized.storage_bytes() as f64 / 1024.0,
            (quantized.num_domains()
                * (quantized.config().num_classes + 1)
                * quantized.dim()
                * std::mem::size_of::<f32>()) as f64
                / 1024.0
        );
    }

    if ops.includes(OpFilter::ColdStart) {
        let (_, quantized) = trained.as_ref().expect("trained above");
        entries.push(cold_start_entry(quantized, &windows[0]));
    }

    if ops.includes(OpFilter::Encode) {
        let encode = encode_entries(&windows[..probe], profile.dim, dataset.meta().channels);
        println!(
            "\nencode speedup: {:.2}x over the reference recompute path ({:.2}x over dense)",
            encode[1].per_sec / encode[2].per_sec,
            encode[1].per_sec / encode[0].per_sec
        );
        entries.extend(encode);
    }

    if ops.includes(OpFilter::Similarity) {
        let (sim_entries, kernel_speedup) = similarity_entries();
        entries.extend(sim_entries);
        println!(
            "similarity kernel (d = 8192): packed {kernel_speedup:.1}x faster than dense cosine"
        );
    }

    let tenant_state = if ops.includes(OpFilter::TenantState) {
        let report = tenant_state_report(&profile);
        let kib = |b: usize| format!("{:.1} KiB", b as f64 / 1024.0);
        print_table(
            "Tenant state: delta overlay vs full clone",
            &["What", "Bytes"],
            &[
                vec!["full clone resident".into(), kib(report.full_clone_resident_bytes())],
                vec![
                    format!("delta resident ({} domains)", report.delta_domains),
                    kib(report.delta_resident_bytes),
                ],
                vec!["delta artifact (evicted)".into(), kib(report.delta_artifact_bytes)],
            ],
        );
        println!(
            "\nhydrate (artifact -> session -> first prediction): p50 {:.3} ms, p95 {:.3} ms \
             ({:.0}/sec)",
            report.hydrate_p50_ms, report.hydrate_p95_ms, report.hydrate_per_sec
        );
        println!(
            "durable archive write: p50 {:.3} ms on_evict, {:.3} ms sync (fsync premium \
             {:.2}x); recovery scan of {} archived tenants: {:.1} ms",
            report.archive_write_p50_ms,
            report.archive_fsync_p50_ms,
            report.archive_fsync_p50_ms / report.archive_write_p50_ms.max(1e-9),
            report.recovery_scan_files,
            report.recovery_scan_ms
        );
        println!(
            "fleet projection: 1M tenants, 100k personalized-and-evicted = {:.2} GiB archived \
             (+ one {} shared base)",
            report.fleet_1m_gib(),
            kib(report.base_resident_bytes)
        );
        Some(report)
    } else {
        None
    };

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.op.to_string(),
                e.backend.to_string(),
                format!("{:.1}", e.per_sec),
                format!("{:.4} ms", e.p50_ms),
                format!("{:.4} ms", e.p95_ms),
            ]
        })
        .collect();
    print_table("Throughput and latency", &["Op", "Backend", "windows/sec", "p50", "p95"], &rows);

    if ops == OpFilter::All {
        let out = "BENCH_throughput.json";
        match write_json(out, "usc-had-like", profile.dim, &entries) {
            Ok(()) => println!("\nwrote {out}"),
            Err(e) => eprintln!("\nfailed to write {out}: {e}"),
        }
        let out = "BENCH_tenant_state.json";
        match write_tenant_state_json(out, tenant_state.as_ref().expect("measured on all-op runs"))
        {
            Ok(()) => println!("wrote {out}"),
            Err(e) => eprintln!("failed to write {out}: {e}"),
        }
    } else {
        println!("\n(partial --op run: committed BENCH json left untouched)");
    }
}
