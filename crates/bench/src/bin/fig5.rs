//! Figure 5 — impact of the OOD threshold δ* on SMORE's accuracy
//! (USC-HAD).
//!
//! The model is fitted once per held-out domain; δ* is re-tuned without
//! refitting (`Smore::set_delta_star`), exactly how a deployment would
//! calibrate it. Too-small δ* declares everything in-distribution and the
//! partial ensembles include noisy domains; too-large δ* treats everything
//! as OOD and over-smooths — the curve peaks in between (the paper finds
//! δ* ≈ 0.65 on its uncentred similarity scale; our centred scale peaks
//! lower, see EXPERIMENTS.md).

#![forbid(unsafe_code)]

use smore::Predictor;
use smore_bench::{make_smore, pct, print_table, BenchProfile};
use smore_data::{presets, split};

fn main() {
    let profile = BenchProfile::from_args();
    println!("# Figure 5: impact of δ* on accuracy (USC-HAD-like)");
    let dataset = presets::usc_had(&profile.preset).expect("preset generation");

    let sweep: Vec<f32> = (0..=12).map(|i| -0.1 + 0.05 * i as f32).collect();
    let mut per_delta = vec![0.0f32; sweep.len()];
    let mut ood_fraction = vec![0.0f32; sweep.len()];
    let domains = dataset.meta().num_domains;

    for held in 0..domains {
        eprintln!("[fig5] fitting fold {held} ...");
        let (train, test) = split::lodo(&dataset, held).expect("split");
        let mut model = make_smore(&dataset, &profile).expect("smore");
        model.fit_indices(&dataset, &train).expect("fit");
        let (windows, labels, _) = dataset.gather(&test);
        for (i, &delta) in sweep.iter().enumerate() {
            model.set_delta_star(delta).expect("valid delta");
            let eval = model.evaluate(&windows, &labels).expect("evaluate");
            per_delta[i] += eval.accuracy / domains as f32;
            ood_fraction[i] += eval.ood_fraction / domains as f32;
        }
    }

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .zip(per_delta.iter().zip(&ood_fraction))
        .map(|(&d, (&acc, &ood))| vec![format!("{d:.2}"), pct(acc), pct(ood)])
        .collect();
    print_table("Mean LODO accuracy vs δ*", &["δ*", "Accuracy", "OOD fraction"], &rows);

    let best = per_delta
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| sweep[i])
        .unwrap_or(0.0);
    println!("\nBest δ* = {best:.2} (paper reports ≈ 0.65 on its uncentred cosine scale)");
}
