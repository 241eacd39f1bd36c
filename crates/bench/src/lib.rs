//! Shared harness for the per-figure benchmark binaries.
//!
//! Every binary regenerates one table or figure of the paper's evaluation
//! (see `DESIGN.md` §4 for the experiment index). All binaries accept:
//!
//! - `--full` — Table 1 window budgets and `d = 8k` (hours of compute);
//!   the default *fast* profile keeps every domain/class/channel but
//!   shrinks window budgets and dimensionality (~minutes).
//! - `--scale <f>` — override the window-budget fraction.
//! - `--seed <n>` — override the dataset seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smore::pipeline::{BoxError, WindowClassifier};
use smore::{Smore, SmoreConfig};
use smore_baselines::baseline_hd::{BaselineHd, BaselineHdConfig};
use smore_baselines::cnn::CnnConfig;
use smore_baselines::domino::{Domino, DominoConfig};
use smore_baselines::mdan::{Mdan, MdanConfig};
use smore_baselines::tent::{Tent, TentConfig};
use smore_data::presets::PresetProfile;
use smore_data::Dataset;

/// Benchmark sizing shared by all binaries.
#[derive(Debug, Clone)]
pub struct BenchProfile {
    /// Dataset generation profile.
    pub preset: PresetProfile,
    /// SMORE / BaselineHD dimensionality.
    pub dim: usize,
    /// DOMINO working dimensionality `d*`.
    pub domino_dim: usize,
    /// DOMINO cumulative dimension budget.
    pub domino_budget: usize,
    /// CNN training epochs for TENT/MDANs.
    pub cnn_epochs: usize,
    /// TENT adaptation steps per batch.
    pub tent_steps: usize,
    /// Whether this is the full-fidelity profile.
    pub full: bool,
}

impl BenchProfile {
    /// Fast profile: 10% budgets, 4× time downsampling, `d = 4096`.
    pub fn fast() -> Self {
        Self {
            preset: PresetProfile::fast(),
            dim: 4096,
            domino_dim: 1024,
            domino_budget: 4096,
            cnn_epochs: 8,
            tent_steps: 5,
            full: false,
        }
    }

    /// Full profile: Table 1 budgets, native windows, `d = 8192` (paper
    /// settings; expect hours).
    pub fn full() -> Self {
        Self {
            preset: PresetProfile::full(),
            dim: 8192,
            domino_dim: 1024,
            domino_budget: 8192,
            cnn_epochs: 15,
            tent_steps: 10,
            full: true,
        }
    }

    /// Parses command-line arguments (`--full`, `--scale f`, `--seed n`,
    /// `--dim n`); `--help`/`-h` prints usage and exits successfully.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            let bin = args.first().map(String::as_str).unwrap_or("bench");
            println!("Usage: {bin} [--full] [--scale <f>] [--seed <n>] [--dim <n>]");
            println!();
            println!("Regenerates one table/figure of the SMORE (DAC 2024) evaluation.");
            println!("  --full       Table 1 window budgets and d = 8k (hours of compute)");
            println!("  --scale <f>  override the window-budget fraction (default: fast profile)");
            println!("  --seed <n>   override the dataset seed");
            println!("  --dim <n>    override the SMORE/BaselineHD dimensionality");
            std::process::exit(0);
        }
        let mut profile =
            if args.iter().any(|a| a == "--full") { Self::full() } else { Self::fast() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    if let Some(v) = it.next().and_then(|v| v.parse::<f32>().ok()) {
                        profile.preset.scale = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) {
                        profile.preset.seed = v;
                    }
                }
                "--dim" => {
                    if let Some(v) = it.next().and_then(|v| v.parse::<usize>().ok()) {
                        profile.dim = v;
                    }
                }
                _ => {}
            }
        }
        profile
    }
}

/// Builds a SMORE classifier sized for `dataset`.
///
/// # Errors
///
/// Propagates configuration errors.
pub fn make_smore(dataset: &Dataset, profile: &BenchProfile) -> Result<Smore, BoxError> {
    Ok(Smore::new(
        SmoreConfig::builder()
            .dim(profile.dim)
            .channels(dataset.meta().channels)
            .num_classes(dataset.meta().num_classes)
            .build()?,
    )?)
}

/// Builds a BaselineHD classifier sized for the profile.
pub fn make_baseline_hd(profile: &BenchProfile) -> BaselineHd {
    BaselineHd::new(BaselineHdConfig { dim: profile.dim, ..BaselineHdConfig::default() })
}

/// Builds a DOMINO classifier sized for the profile.
pub fn make_domino(profile: &BenchProfile) -> Domino {
    Domino::new(DominoConfig {
        dim: profile.domino_dim,
        total_dim_budget: profile.domino_budget,
        ..DominoConfig::default()
    })
}

/// The CNN configuration used by both DNN baselines.
pub fn cnn_config(profile: &BenchProfile) -> CnnConfig {
    CnnConfig { epochs: profile.cnn_epochs, batch_size: 64, ..CnnConfig::default() }
}

/// Builds a TENT classifier sized for the profile.
pub fn make_tent(profile: &BenchProfile) -> Tent {
    Tent::new(TentConfig {
        cnn: cnn_config(profile),
        adaptation_steps: profile.tent_steps,
        ..TentConfig::default()
    })
}

/// Builds an MDANs classifier sized for the profile.
pub fn make_mdan(profile: &BenchProfile) -> Mdan {
    Mdan::new(MdanConfig { cnn: cnn_config(profile), ..MdanConfig::default() })
}

/// A factory producing a fresh classifier for one evaluation fold.
pub type ClassifierFactory<'a> = Box<dyn Fn() -> Result<Box<dyn WindowClassifier>, BoxError> + 'a>;

/// Factory for every algorithm in the paper's comparison, in its plotting
/// order: TENT, MDANs, BaselineHD, DOMINO, SMORE.
pub fn all_algorithms<'a>(
    dataset: &'a Dataset,
    profile: &'a BenchProfile,
) -> Vec<(&'static str, ClassifierFactory<'a>)> {
    vec![
        ("TENT", Box::new(move || Ok(Box::new(make_tent(profile)) as Box<dyn WindowClassifier>))),
        ("MDANs", Box::new(move || Ok(Box::new(make_mdan(profile)) as Box<dyn WindowClassifier>))),
        (
            "BaselineHD",
            Box::new(move || Ok(Box::new(make_baseline_hd(profile)) as Box<dyn WindowClassifier>)),
        ),
        (
            "DOMINO",
            Box::new(move || Ok(Box::new(make_domino(profile)) as Box<dyn WindowClassifier>)),
        ),
        (
            "SMORE",
            Box::new(move || {
                Ok(Box::new(make_smore(dataset, profile)?) as Box<dyn WindowClassifier>)
            }),
        ),
    ]
}

/// Accuracy of any serving backend on a labelled window set, through the
/// unified [`smore::Predictor`] interface — dense, quantized and
/// snapshot-handle backends all route through the same call instead of
/// per-backend match arms.
///
/// # Errors
///
/// Propagates prediction errors (malformed windows, unfitted model).
pub fn predictor_accuracy(
    backend: &dyn smore::Predictor,
    windows: &[smore_tensor::Matrix],
    labels: &[usize],
) -> Result<f32, BoxError> {
    let predictions = backend.predict_batch(windows)?;
    let correct = predictions.iter().zip(labels).filter(|(p, &l)| p.label == l).count();
    Ok(correct as f32 / windows.len().max(1) as f32)
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f32) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Nearest-rank p50 and p95, in milliseconds, of per-call latencies given
/// in seconds — ranked by [`smore::metrics::nearest_rank_index`] like
/// every other quantile in the workspace; `(0, 0)` for no samples.
pub fn latency_percentiles(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| {
        samples.get(smore::metrics::nearest_rank_index(samples.len(), q)).map_or(0.0, |s| s * 1e3)
    };
    (at(0.50), at(0.95))
}

/// Formats seconds with adaptive precision.
pub fn secs(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0} s")
    } else if x >= 1.0 {
        format!("{x:.2} s")
    } else {
        format!("{:.1} ms", x * 1e3)
    }
}

/// Runs `git` with whitespace-separated `args` in the working directory;
/// `None` when it fails or is absent.
fn git(args: &str) -> Option<String> {
    let out = std::process::Command::new("git").args(args.split_whitespace()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a bench number came from, as one JSON object: the git revision
/// of the working directory (suffixed `-dirty` when the built sources
/// differ from it, `unknown` outside a checkout), the host's available
/// parallelism, the `SMORE_THREADS` override (`null` when unset) and the
/// number of bench runs the file summarises, which is one for every
/// committed file.
fn provenance_json() -> String {
    let built =
        "status --porcelain --untracked-files=no -- crates src vendor Cargo.toml Cargo.lock";
    let revision = match git("rev-parse --short=12 HEAD") {
        Some(rev) => match git(built) {
            Some(changes) if changes.is_empty() => rev,
            _ => format!("{rev}-dirty"),
        },
        None => "unknown".into(),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("SMORE_THREADS")
        .map_or_else(|_| "null".into(), |v| format!("\"{}\"", v.escape_default()));
    format!(
        "{{\"git_revision\": \"{revision}\", \"nproc\": {nproc}, \"smore_threads\": {threads}, \
         \"repetitions\": 1}}"
    )
}

/// Writes a committed `BENCH_*.json` file: a one-line `provenance` object
/// (git revision, `nproc`, `SMORE_THREADS` and `repetitions`, the number
/// of bench runs the file summarises: one), then `fields`, the object's
/// remaining members, one per line, indented two spaces and without a
/// trailing comma.
///
/// # Errors
///
/// Propagates the file write error.
pub fn write_bench_json(path: &str, fields: &str) -> std::io::Result<()> {
    let json = format!("{{\n  \"provenance\": {},\n{}\n}}\n", provenance_json(), fields);
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smore_data::presets;

    #[test]
    fn profiles_have_sane_defaults() {
        let fast = BenchProfile::fast();
        assert!(!fast.full);
        assert_eq!(fast.dim, 4096);
        let full = BenchProfile::full();
        assert!(full.full);
        assert_eq!(full.dim, 8192);
        assert_eq!(full.preset.scale, 1.0);
    }

    #[test]
    fn factories_produce_working_classifiers() {
        let mut profile = BenchProfile::fast();
        profile.preset = presets::PresetProfile::tiny();
        profile.dim = 256;
        profile.domino_dim = 128;
        profile.domino_budget = 256;
        let ds = presets::usc_had(&profile.preset).unwrap();
        let algos = all_algorithms(&ds, &profile);
        assert_eq!(algos.len(), 5);
        for (name, factory) in &algos {
            let classifier = factory().unwrap();
            assert_eq!(&classifier.name(), name);
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.00%");
        assert_eq!(secs(0.0015), "1.5 ms");
        assert_eq!(secs(2.5), "2.50 s");
        assert_eq!(secs(200.0), "200 s");
    }

    #[test]
    fn provenance_names_every_field_on_one_line() {
        let line = provenance_json();
        assert!(!line.contains('\n'), "{line}");
        for key in ["git_revision", "nproc", "smore_threads"] {
            assert!(line.contains(&format!("\"{key}\": ")), "{line}");
        }
        assert!(line.ends_with("\"repetitions\": 1}"), "{line}");
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        // Ranks ceil(3 × 0.5) = 2 and ceil(3 × 0.95) = 3; flooring the
        // rank would report 2 ms as the median.
        assert_eq!(latency_percentiles(vec![0.004, 0.001, 0.003, 0.002]), (3.0, 4.0));
        assert_eq!(latency_percentiles(Vec::new()), (0.0, 0.0));
    }
}
