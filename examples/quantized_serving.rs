//! Quantized serving: freeze a trained SMORE model into the bit-packed
//! binary engine and compare dense vs quantized LODO accuracy, latency and
//! memory on a USC-HAD-like dataset.
//!
//! ```text
//! cargo run --release --example quantized_serving
//! ```
//!
//! Pass `--scale <f>` to change the window budget (default 0.1, the fast
//! benchmark profile) and `--folds <n>` to limit the number of held-out
//! domains.

use std::time::Instant;

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::presets::{self, PresetProfile};
use smore_data::split;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args: Vec<String> = std::env::args().collect();
    let arg_after =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let mut profile = PresetProfile::fast();
    if let Some(s) = arg_after("--scale").and_then(|v| v.parse::<f32>().ok()) {
        profile.scale = s;
    }
    let dataset = presets::usc_had(&profile)?;
    let domains = dataset.meta().num_domains;
    let folds = arg_after("--folds")
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(domains, |n| n.clamp(1, domains));

    let dim = 4096;
    println!(
        "USC-HAD-like: {} windows, {} classes, {} domains, d = {dim}\n",
        dataset.len(),
        dataset.meta().num_classes,
        dataset.meta().num_domains
    );
    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>12}",
        "held-out", "dense", "packed", "dense win/s", "packed win/s"
    );

    let mut dense_sum = 0.0f32;
    let mut packed_sum = 0.0f32;
    let mut speedups = Vec::new();
    for held_out in 0..folds {
        let (train, test) = split::lodo(&dataset, held_out)?;
        let mut model = Smore::new(
            SmoreConfig::builder()
                .dim(dim)
                .channels(dataset.meta().channels)
                .num_classes(dataset.meta().num_classes)
                .build()?,
        )?;
        model.fit_indices(&dataset, &train)?;
        let quantized = model.quantize()?;

        let (windows, labels, _) = dataset.gather(&test);
        let t0 = Instant::now();
        let dense_eval = model.evaluate(&windows, &labels)?;
        let dense_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let packed_eval = quantized.evaluate(&windows, &labels)?;
        let packed_secs = t0.elapsed().as_secs_f64();

        let dense_wps = windows.len() as f64 / dense_secs;
        let packed_wps = windows.len() as f64 / packed_secs;
        speedups.push(packed_wps / dense_wps);
        println!(
            "domain {:<3} {:>9.1}% {:>9.1}% {:>12.0} {:>12.0}",
            held_out + 1,
            100.0 * dense_eval.accuracy,
            100.0 * packed_eval.accuracy,
            dense_wps,
            packed_wps
        );
        dense_sum += dense_eval.accuracy;
        packed_sum += packed_eval.accuracy;

        if held_out == 0 {
            let dense_bytes = quantized.num_domains()
                * (dataset.meta().num_classes + 1)
                * dim
                * std::mem::size_of::<f32>();
            println!(
                "           (packed model: {:.0} KiB incl. codebooks; dense models+descriptors: {:.0} KiB)",
                quantized.storage_bytes() as f64 / 1024.0,
                dense_bytes as f64 / 1024.0
            );
        }
    }
    let dense_mean = dense_sum / folds as f32;
    let packed_mean = packed_sum / folds as f32;
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("{:<10} {:>9.1}% {:>9.1}%", "average", 100.0 * dense_mean, 100.0 * packed_mean);
    println!(
        "\nquantization cost: {:+.2} accuracy points for a {mean_speedup:.1}x serving speedup",
        100.0 * (packed_mean - dense_mean)
    );
    println!("(the contract: quantized mean LODO accuracy within 0.02 of dense)");
    Ok(())
}
