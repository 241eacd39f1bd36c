//! `servebench` — the closed-loop serving benchmark.
//!
//! One run trains the synthetic serving fleet at d = 4096, starts the
//! server in process, and drives one workload over loopback TCP with one
//! generator thread and connection per CPU (at most two), each keeping
//! [`load::DEPTH`] pipelined requests in flight. Every answer is checked.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload steady|storm|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-runs the
//! workload for the per-layer budget (see `servebench/README.md`). The
//! last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A failed check exits with code 1.

#![forbid(unsafe_code)]

mod fleet;
mod load;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smore_obs::HistogramSnapshot;
use smore_serve::{FlushPolicy, ServeConfig, ServerHandle, StatsSnapshot};
use smore_stream::{SessionStore, StateDir};

use crate::load::{ConnResult, Phases};
use crate::stats::{cpu_us_per_req, median, nearest_rank, Tally};
use crate::trace::Tracer;
use crate::workload::{Inputs, Plan, Workload, CHURN_TENANTS, INGESTS_PER_DRIFTER};

/// Error type of every fallible step.
pub type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Warm-up before every measured phase; no metric counts it.
const WARMUP: Duration = Duration::from_secs(2);
/// Length of one measured slice; host steal is read per slice.
const SLICE: Duration = Duration::from_secs(1);
/// Requests in a traced replay.
const REPLAY_REQUESTS: usize = 12_000;
/// Calls per directly timed store operation in a traced run.
const STORE_CALLS: u64 = 200;
/// Output directory, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics `--trace 0` prints, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_us_per_req", "us"),
    ("success_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `--trace 1` prints, with their units.
const PER_LAYER: [(&str, &str); 43] = [
    ("protocol.decode_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.decode_response_us", "us"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("server.coalesce_wait_p50_ms", "ms"),
    ("server.batch_windows_mean", "count"),
    ("server.reply_p50_us", "us"),
    ("server.unattributed_mean_ms", "ms"),
    ("server.overloaded", "count"),
    ("server.protocol_errors", "count"),
    ("compute.predict_base_us", "us"),
    ("compute.encode_p50_us", "us"),
    ("compute.score_p50_us", "us"),
    ("compute.busy_share", "ratio"),
    ("delta.predict_us", "us"),
    ("engine.ingest_us", "us"),
    ("engine.enroll_ms", "ms"),
    ("engine.ingests_to_personalize", "count"),
    ("engine.enrolments", "count"),
    ("engine.personalize_p50_ms", "ms"),
    ("engine.drift_accuracy", "ratio"),
    ("engine.resume_us", "us"),
    ("engine.suspend_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.hit_self_us", "us"),
    ("store.miss_self_us", "us"),
    ("store.hydrations", "count"),
    ("store.evictions", "count"),
    ("persist.take_us", "us"),
    ("persist.write_us", "us"),
    ("persist.write_failures", "count"),
    ("persist.quarantined", "count"),
    ("persist.recovery_scan_ms", "ms"),
    ("setup.train_s", "s"),
    ("setup.server_ready_s", "s"),
    ("setup.archive_s", "s"),
    ("client.throughput_rps", "1/s"),
    ("client.predict_p50_ms", "ms"),
    ("client.predict_p99_ms", "ms"),
    ("client.cpu_us_per_req", "us"),
    ("host.steal_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(&name)
                            .ok_or(format!("unknown workload {name:?} (steady, storm, churn)"))?,
                    );
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// The checkout's git revision, read from `.git` in the working directory
/// without running git (the benchmark's checkout may not be a repository).
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(name) => read(&format!(".git/{name}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(name))
                        .map(|l| l.split(' ').next().unwrap_or("").to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// A directory the run removes when it ends, however it ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> std::io::Result<Self> {
        let path = Path::new(OUT_DIR).join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one socket run measured. Completions and CPU are kept per
/// slice of the measured phase, so the metrics can be taken over the
/// slices the host disturbed least.
struct SocketRun {
    tally: Tally,
    slice_s: f64,
    /// Predictions received per slice.
    completed: Vec<u64>,
    /// Process CPU ticks per slice.
    process_ticks: Vec<u64>,
    /// Load-generator CPU ticks per slice.
    generator_ticks: Vec<u64>,
    /// Host steal share per slice.
    steal: Vec<f64>,
    /// The quarter of slices with the least host steal, which every
    /// wall-clock and CPU metric is computed over.
    quiet: Vec<bool>,
    /// Sorted send → reply times, in ms, of attempted and answered
    /// predicts sent in a quiet slice.
    predict_ms: Vec<f64>,
    all_mean_ms: f64,
    dropped_samples: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
    transport_errors: Vec<String>,
    /// First ingest → first `adapted = true` reply, per drifting tenant
    /// that personalized.
    personalize_ms: Vec<f64>,
    /// Drifting tenants that sent all their ingests without enrolling.
    stuck: u64,
    /// Drift picks that found the drifting-tenant pool exhausted.
    exhausted: u64,
    adapted_replies: u64,
    /// Held-out drifted predicts: answered, correct, correct on the base.
    held_out: (u64, u64, u64),
    stats_t0: StatsSnapshot,
    stats_end: StatsSnapshot,
    peak_rss_mib: f64,
    spans: Vec<stats::Span>,
}

impl SocketRun {
    /// Sum of `per_slice` over the quiet slices.
    fn quiet_sum(&self, per_slice: &[u64]) -> u64 {
        per_slice.iter().zip(&self.quiet).filter(|(_, &q)| q).map(|(v, _)| v).sum()
    }

    /// Predictions completed per second in the quiet slices.
    fn throughput_rps(&self) -> f64 {
        let slices = self.quiet.iter().filter(|&&q| q).count().max(1);
        self.quiet_sum(&self.completed) as f64 / (slices as f64 * self.slice_s)
    }

    /// Server CPU per prediction completed in the quiet slices.
    fn cpu_us_per_req(&self) -> f64 {
        cpu_us_per_req(
            self.quiet_sum(&self.process_ticks),
            self.quiet_sum(&self.generator_ticks),
            procfs::TICK_HZ,
            self.quiet_sum(&self.completed),
        )
        .unwrap_or(0.0)
    }

    fn client_cpu_us_per_req(&self) -> f64 {
        let ticks = self.generator_ticks.iter().sum();
        cpu_us_per_req(ticks, 0, procfs::TICK_HZ, self.completed.iter().sum()).unwrap_or(0.0)
    }

    fn steal_share(&self) -> f64 {
        self.steal.iter().sum::<f64>() / self.steal.len().max(1) as f64
    }

    fn predict_ms(&self, q: f64) -> f64 {
        nearest_rank(&self.predict_ms, q).unwrap_or(0.0)
    }

    fn personalize_p50_ms(&self) -> Option<f64> {
        median(&mut self.personalize_ms.clone())
    }

    /// (personalized accuracy, base accuracy) on the held-out windows.
    fn drift_accuracy(&self) -> Option<(f64, f64)> {
        let (n, correct, base) = self.held_out;
        (n > 0).then(|| (correct as f64 / n as f64, base as f64 / n as f64))
    }
}

/// Measured slices in a phase of length `measure`.
fn slices_in(measure: Duration) -> usize {
    (measure.as_secs_f64() / SLICE.as_secs_f64()).round().max(1.0) as usize
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Drives `plan` against `server`: warm-up, then `measure` of counted
/// traffic, then a drain of the requests still in flight.
fn socket_run(
    server: &ServerHandle,
    plan: &Plan,
    measure: Duration,
    trace: bool,
) -> BoxResult<SocketRun> {
    let addr = server.local_addr();
    let epoch = Instant::now();
    let slices = slices_in(measure);
    let phases = Phases { epoch, t0: epoch + WARMUP, t1: epoch + WARMUP + measure, slices };
    // Room for 20k predicts a second per connection; the latency buffer
    // is allocated and touched before the clock starts.
    let sample_cap = (measure.as_secs_f64() * 20_000.0) as usize;
    let (results, marks, stats_t0) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.conns.len())
            .map(|conn| {
                scope.spawn(move || load::drive(addr, plan, conn, phases, sample_cap, trace))
            })
            .collect();
        // Process CPU and host counters at every slice boundary.
        let mut marks = Vec::with_capacity(slices + 1);
        let mut stats_t0 = None;
        for k in 0..=slices {
            sleep_until(phases.slice_start(k));
            marks.push((procfs::process_cpu_ticks(), procfs::HostCpu::read()));
            if k == 0 {
                stats_t0 = Some(server.stats());
            }
        }
        let results: Vec<Result<ConnResult, String>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a generator thread panicked".into())))
            .collect();
        (results, marks, stats_t0)
    });
    let stats_end = server.stats();
    let results = results.into_iter().collect::<Result<Vec<_>, String>>()?;
    let mut process = Vec::with_capacity(marks.len());
    let mut host = Vec::with_capacity(marks.len());
    for (ticks, counters) in marks {
        process.push(ticks?);
        host.push(counters?);
    }

    let mut run = SocketRun {
        tally: Tally::default(),
        slice_s: measure.as_secs_f64() / slices as f64,
        completed: vec![0; slices],
        process_ticks: process.windows(2).map(|w| w[1].saturating_sub(w[0])).collect(),
        generator_ticks: vec![0; slices],
        steal: host.windows(2).map(|w| w[1].steal_share_since(&w[0])).collect(),
        quiet: Vec::new(),
        predict_ms: Vec::new(),
        all_mean_ms: 0.0,
        dropped_samples: 0,
        mismatches: 0,
        first_mismatch: None,
        transport_errors: Vec::new(),
        personalize_ms: Vec::new(),
        stuck: 0,
        exhausted: 0,
        adapted_replies: 0,
        held_out: (0, 0, 0),
        stats_t0: stats_t0.ok_or("no scrape at measurement start")?,
        stats_end,
        peak_rss_mib: procfs::peak_rss_mib()?,
        spans: Vec::new(),
    };
    let (mut all_sum, mut all_count) = (0u128, 0u64);
    let mut samples: Vec<u64> = Vec::new();
    for r in results {
        run.tally.absorb(r.tally);
        for k in 0..slices {
            run.completed[k] += r.completed[k];
            run.generator_ticks[k] += r.generator_ticks[k];
        }
        samples.extend(r.predict_ns);
        all_sum += r.all_ns_sum;
        all_count += r.all_count;
        run.dropped_samples += r.dropped_samples;
        run.mismatches += r.mismatches;
        if run.first_mismatch.is_none() {
            run.first_mismatch = r.first_mismatch;
        }
        run.transport_errors.extend(r.transport_error);
        run.personalize_ms.extend(r.personalize.iter().map(|t| t.as_secs_f64() * 1e3));
        run.stuck += r.stuck;
        run.exhausted += r.exhausted;
        run.adapted_replies += r.adapted_replies;
        run.held_out.0 += r.held_out.0;
        run.held_out.1 += r.held_out.1;
        run.held_out.2 += r.held_out.2;
        run.spans.extend(r.spans);
    }
    run.quiet = stats::quietest_quarter(&run.steal);
    run.predict_ms = samples
        .iter()
        .filter(|&&s| run.quiet[(s >> (64 - load::SLICE_BITS)) as usize])
        .map(|&s| (s & load::NS_MASK) as f64 / 1e6)
        .collect();
    run.predict_ms.sort_by(f64::total_cmp);
    if all_count > 0 {
        run.all_mean_ms = all_sum as f64 / all_count as f64 / 1e6;
    }
    Ok(run)
}

/// Output checks; returns one line per failed check.
fn check(workload: Workload, run: &SocketRun) -> Vec<String> {
    let mut failures = Vec::new();
    let end = &run.stats_end;
    if run.tally.attempted() == 0 {
        failures.push("no request was attempted in the measured phase".into());
    }
    if run.tally.failed() > 0 {
        failures.push(format!("{:?}: {} requests failed", run.tally, run.tally.failed()));
    }
    for e in &run.transport_errors {
        failures.push(format!("a connection failed: {e}"));
    }
    if run.mismatches > 0 {
        failures.push(format!(
            "{} answers differ from the in-process model, first: {}",
            run.mismatches,
            run.first_mismatch.as_deref().unwrap_or("?")
        ));
    }
    if run.dropped_samples > 0 {
        failures.push(format!("{} latency samples did not fit the buffer", run.dropped_samples));
    }
    match workload {
        Workload::Steady => {}
        Workload::Churn => {
            for counter in ["state_quarantined", "state_write_failures"] {
                match end.counter(counter) {
                    Some(0) => {}
                    Some(n) => failures.push(format!("{counter} = {n}, expected 0")),
                    None => println!("check: counter {counter} absent; not verified"),
                }
            }
            match end.counter("sessions_hydrated") {
                Some(0) => failures.push("no session was rehydrated".into()),
                Some(_) => {}
                None => println!("check: counter sessions_hydrated absent; not verified"),
            }
        }
        Workload::Storm => {
            let personalized = run.personalize_ms.len() as u64;
            if personalized == 0 {
                failures.push("no drifting tenant personalized".into());
            }
            if run.stuck > 0 {
                failures.push(format!(
                    "{} drifting tenants sent {INGESTS_PER_DRIFTER} ingests without enrolling",
                    run.stuck
                ));
            }
            if run.exhausted > 0 {
                failures.push(format!("the drifting-tenant pool ran out {} times", run.exhausted));
            }
            if run.adapted_replies != personalized {
                failures.push(format!(
                    "{} replies reported an enrolment for {personalized} personalized tenants",
                    run.adapted_replies
                ));
            }
            match counter_delta(run, "adaptations") {
                Some(n) if n == run.adapted_replies as f64 => {}
                Some(n) => failures.push(format!(
                    "the server counted {n} enrolments, clients saw {}",
                    run.adapted_replies
                )),
                None => println!("check: counter adaptations absent; not verified"),
            }
            match run.drift_accuracy() {
                Some((personal, base)) if personal > base => {}
                Some((personal, base)) => failures.push(format!(
                    "drift accuracy {personal:.4} does not beat the base's {base:.4}"
                )),
                None => failures.push("no held-out drifted predict was answered".into()),
            }
        }
    }
    failures
}

/// A metric value, or `None` when the server no longer exports its source.
type Value = Option<f64>;

fn counter_delta(run: &SocketRun, name: &str) -> Value {
    let end = run.stats_end.counter(name)?;
    Some(end.saturating_sub(run.stats_t0.counter(name).unwrap_or(0)) as f64)
}

/// The measured-phase part of a stage histogram (end scrape minus the
/// scrape at measurement start).
fn stage_delta(run: &SocketRun, name: &str) -> Option<HistogramSnapshot> {
    let end = run.stats_end.stage(name)?;
    let mut delta = end.clone();
    if let Some(start) = run.stats_t0.stage(name) {
        delta.count = delta.count.saturating_sub(start.count);
        delta.sum = delta.sum.saturating_sub(start.sum);
        for (d, s) in delta.buckets.iter_mut().zip(&start.buckets) {
            *d = d.saturating_sub(*s);
        }
    }
    Some(delta)
}

fn stage_quantile(run: &SocketRun, name: &str, q: f64, scale: f64) -> Value {
    stage_delta(run, name).map(|h| h.quantile(q) as f64 / scale)
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    train_s: f64,
    ready_s: f64,
    archive_s: f64,
    reference: &'a SocketRun,
    traced: &'a SocketRun,
    replay: &'a trace::Replay,
    tracer: &'a Tracer,
}

/// Per-layer metrics of a traced run, in [`PER_LAYER`] order.
fn per_layer(x: &LayerInputs<'_>) -> Vec<Value> {
    let medians = x.tracer.self_time_medians();
    let us = |name: &str| medians.get(name).map(|ns| ns / 1e3);
    let ms = |name: &str| medians.get(name).map(|ns| ns / 1e6);
    let t = x.traced;
    // Σ of the per-request means of every stage the server exports
    // (a `total` stage, if one appears, would double count).
    let stage_sum_ms: f64 = t
        .stats_end
        .stages
        .iter()
        .filter(|(name, _)| name != "total")
        .filter_map(|(name, _)| stage_delta(t, name))
        .map(|h| h.mean() / 1e6)
        .sum();
    let batch_mean =
        match (counter_delta(t, "coalesced_windows"), counter_delta(t, "coalesced_batches")) {
            (Some(w), Some(b)) if b > 0.0 => Some(w / b),
            (Some(_), Some(_)) => Some(0.0),
            _ => None,
        };
    let compute_ns: Option<f64> = match (stage_delta(t, "encode"), stage_delta(t, "score")) {
        (Some(e), Some(s)) => Some((e.sum + s.sum) as f64),
        _ => None,
    };
    // Worker time spent encoding and scoring, over the workers' wall time.
    let workers = t.stats_end.gauge("workers").unwrap_or(0.0);
    let busy_share = compute_ns.map(|ns| {
        let wall_ns = workers * t.slice_s * t.completed.len() as f64 * 1e9;
        if wall_ns > 0.0 {
            ns / wall_ns
        } else {
            0.0
        }
    });
    let stateful = x.replay.hits + x.replay.misses;
    let mut to_personalize = x.replay.ingests_to_personalize.clone();
    let reference_tput = x.reference.throughput_rps();
    vec![
        us("protocol.decode_request"),
        us("protocol.encode_response"),
        us("protocol.decode_response"),
        stage_quantile(t, "queue_wait", 0.5, 1e6),
        stage_quantile(t, "queue_wait", 0.99, 1e6),
        stage_quantile(t, "coalesce_wait", 0.5, 1e6),
        batch_mean,
        stage_quantile(t, "reply", 0.5, 1e3),
        Some(t.all_mean_ms - stage_sum_ms),
        counter_delta(t, "overloaded"),
        counter_delta(t, "protocol_errors"),
        us("compute.predict_base"),
        stage_quantile(t, "encode", 0.5, 1e3),
        stage_quantile(t, "score", 0.5, 1e3),
        busy_share,
        us("delta.predict"),
        us("engine.ingest"),
        ms("engine.enroll"),
        median(&mut to_personalize),
        counter_delta(t, "adaptations"),
        x.reference.personalize_p50_ms(),
        x.reference.drift_accuracy().map(|(personal, _)| personal),
        us("engine.resume"),
        us("engine.suspend"),
        (stateful > 0).then(|| x.replay.hits as f64 / stateful as f64),
        us("store.hit"),
        us("store.miss"),
        counter_delta(t, "sessions_hydrated"),
        counter_delta(t, "sessions_evicted"),
        us("persist.take"),
        us("persist.write"),
        counter_delta(t, "state_write_failures"),
        counter_delta(t, "state_quarantined"),
        ms("persist.open"),
        Some(x.train_s),
        Some(x.ready_s),
        Some(x.archive_s),
        Some(x.reference.throughput_rps()),
        Some(x.reference.predict_ms(0.5)),
        Some(x.reference.predict_ms(0.99)),
        Some(x.reference.client_cpu_us_per_req()),
        Some(x.reference.steal_share()),
        Some(if reference_tput > 0.0 {
            (reference_tput - t.throughput_rps()) / reference_tput * 100.0
        } else {
            0.0
        }),
    ]
}

/// Prints `name: value unit` lines and returns the final JSON line.
/// A value that does not apply reads 0 in the JSON and `absent` in the
/// text report.
fn render(
    names: &[(&str, &str)],
    values: &[Value],
    correct: bool,
    tally: &Tally,
) -> BoxResult<String> {
    let mut metrics = String::new();
    for (i, ((name, unit), value)) in names.iter().zip(values).enumerate() {
        let v = match value {
            Some(v) if v.is_finite() => {
                println!("{name}: {v} {unit}");
                *v
            }
            Some(v) => return Err(format!("{name} is not finite ({v})").into()),
            None => {
                println!("{name}: absent (not exported or not exercised; reported as 0)");
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(metrics, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")?;
    }
    // A run that attempted nothing has already failed its checks; the
    // result format still wants at least one attempt.
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted().max(1),
        tally.failed()
    ))
}

fn report_run(label: &str, run: &SocketRun) {
    println!(
        "{label}: {} attempted, {} predicted, {} overloaded, {} refused in {:.3} s; \
         {} predict latency samples; host.steal_share {:.4}",
        run.tally.attempted(),
        run.tally.predicted,
        run.tally.overloaded,
        run.tally.refused,
        run.slice_s * run.completed.len() as f64,
        run.predict_ms.len(),
        run.steal_share(),
    );
    let fmt = |v: Vec<String>| v.join(" ");
    println!(
        "{label}: per slice: rps [{}] cpu_us [{}] steal [{}]",
        fmt(run.completed.iter().map(|&n| format!("{:.0}", n as f64 / run.slice_s)).collect()),
        fmt((0..run.completed.len())
            .map(|k| {
                let cpu = cpu_us_per_req(
                    run.process_ticks[k],
                    run.generator_ticks[k],
                    procfs::TICK_HZ,
                    run.completed[k],
                );
                format!("{:.0}", cpu.unwrap_or(0.0))
            })
            .collect()),
        fmt(run.steal.iter().map(|s| format!("{s:.2}")).collect()),
    );
    let quiet_steal: Vec<f64> =
        run.steal.iter().zip(&run.quiet).filter(|(_, &q)| q).map(|(s, _)| *s).collect();
    println!(
        "{label}: {} slices of {} s, quietest {} at host.steal_share {:.4}",
        run.steal.len(),
        run.slice_s,
        quiet_steal.len(),
        quiet_steal.iter().sum::<f64>() / quiet_steal.len().max(1) as f64,
    );
    if let Some(p) = run.personalize_p50_ms() {
        let max = run.personalize_ms.iter().fold(0.0, |a: f64, &b| a.max(b));
        println!(
            "{label}: personalize_p50_ms {p} ms (max {max} ms) over {} personalized tenants",
            run.personalize_ms.len()
        );
    }
    if let Some((personal, base)) = run.drift_accuracy() {
        println!(
            "{label}: drift_accuracy {personal} vs base {base} on {} held-out predicts",
            run.held_out.0
        );
    }
}

fn run(args: &Args) -> BoxResult<bool> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let conns = nproc.min(2);
    println!(
        "servebench: workload={} seed={} seconds={} trace={} nproc={nproc} connections={conns} \
         depth={} dim={} rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        load::DEPTH,
        fleet::DIM,
        git_revision(),
    );
    std::fs::create_dir_all(OUT_DIR)?;
    let churn = args.workload == Workload::Churn;
    let state = if churn { Some(ScratchDir::new("churn-state")?) } else { None };
    let state_dir = state.as_ref().map(|s| s.0.as_path());

    // The fabricated churn archive is built before, and outside, set-up.
    let (archive_bytes, archive_s) = match state_dir {
        Some(dir) => {
            let (bytes, secs) = fleet::churn_archive(dir, CHURN_TENANTS)?;
            (Some(bytes), secs)
        }
        None => (None, 0.0),
    };
    let recover = if churn { CHURN_TENANTS } else { 0 };
    let setup = fleet::set_up(args.workload, state_dir, recover)?;
    println!(
        "setup: {} reps, median {:.4} s (train {:.4} s, server ready {:.4} s), archive {archive_s:.4} s",
        fleet::SETUP_REPS,
        setup.setup_s,
        setup.train_s,
        setup.ready_s
    );

    // The generator's own preparation: frames and expected answers.
    let base = setup.engine.base_snapshot();
    let mut personalized = match &archive_bytes {
        Some(bytes) => Some(setup.engine.resume_session(u64::MAX, bytes)?),
        None => None,
    };
    let measure = Duration::from_secs(args.seconds);
    let plan = workload::build(
        args.workload,
        args.seed,
        conns,
        measure.as_secs_f64(),
        Inputs { ds: &setup.ds, base: &*base, personalized: personalized.as_mut() },
    )?;

    let reference = socket_run(&setup.server, &plan, measure, false)?;
    report_run("run", &reference);
    let mut failures = check(args.workload, &reference);

    if !args.trace {
        setup.server.shutdown();
        let values: Vec<Value> = vec![
            Some(setup.setup_s),
            Some(reference.cpu_us_per_req()),
            Some(reference.tally.success_ratio()),
            Some(reference.peak_rss_mib),
        ];
        println!(
            "client: throughput_rps {} 1/s, predict_p50_ms {} ms, predict_p99_ms {} ms (n={})",
            reference.throughput_rps(),
            reference.predict_ms(0.5),
            reference.predict_ms(0.99),
            reference.predict_ms.len()
        );
        for f in &failures {
            eprintln!("servebench: check failed: {f}");
        }
        let json = render(&END_TO_END, &values, failures.is_empty(), &reference.tally)?;
        println!("{json}");
        return Ok(failures.is_empty());
    }

    // Traced invocation: a second socket run with client spans supplies
    // the Stats scrape; the replay and direct store timings supply spans.
    let (train_s, ready_s) = (setup.train_s, setup.ready_s);
    let engine = Arc::clone(&setup.engine);
    ServerHandle::shutdown(setup.server);
    let server = fleet::start(&engine, args.workload, state_dir, recover)?;
    let traced = socket_run(&server, &plan, measure, true)?;
    server.shutdown();
    report_run("traced run", &traced);
    failures.extend(check(args.workload, &traced));

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, REPLAY_REQUESTS * 8 + traced.spans.len());
    // One store standing in for every shard of the server.
    let defaults = ServeConfig::default();
    let cap = fleet::session_cap(args.workload).unwrap_or(defaults.max_sessions_per_shard)
        * defaults.workers;
    let mut store = match state_dir {
        Some(dir) => SessionStore::new_persistent(
            Arc::clone(&engine),
            cap,
            usize::MAX,
            StateDir::open(dir, FlushPolicy::OnEvict, |_| true)?,
        )?,
        None => SessionStore::new(Arc::clone(&engine), cap, usize::MAX)?,
    };
    let replay = trace::replay(&plan, &engine, &mut store, REPLAY_REQUESTS, &mut tracer)?;
    drop(store);
    let delta = archive_bytes.or_else(|| replay.delta.clone());
    if let Some(bytes) = &delta {
        let dir = ScratchDir::new("store-calls")?;
        trace::time_store_calls(&engine, bytes, &dir.0, state_dir, STORE_CALLS, &mut tracer)?;
    }
    println!(
        "replay: {REPLAY_REQUESTS} requests, {} stateful ({} hits)",
        replay.hits + replay.misses,
        replay.hits
    );
    tracer.absorb(&traced.spans);
    let spans_path =
        Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", args.workload.name(), args.seed));
    tracer.write(&spans_path)?;
    println!("spans: {}", spans_path.display());

    let values = per_layer(&LayerInputs {
        train_s,
        ready_s,
        archive_s,
        reference: &reference,
        traced: &traced,
        replay: &replay,
        tracer: &tracer,
    });
    for f in &failures {
        eprintln!("servebench: check failed: {f}");
    }
    let json = render(&PER_LAYER, &values, failures.is_empty(), &traced.tally)?;
    println!("{json}");
    Ok(failures.is_empty())
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload steady|storm|churn --seed N [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
