//! Streaming OOD monitoring: watch SMORE's out-of-distribution detector
//! flag a drift as a new, unseen subject starts producing data — the
//! deployment pattern behind the paper's Figure 2 inference path.
//!
//! ```text
//! cargo run --release --example ood_monitor
//! ```

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = generate(&GeneratorConfig {
        name: "ood-monitor".into(),
        num_classes: 4,
        channels: 3,
        window_len: 32,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 100 })
            .collect(),
        shift_severity: 1.2,
        seed: 7,
    })?;

    // Train on domains 0-2; domain 3 simulates a new user joining later.
    let (train, unseen) = split::lodo(&dataset, 3)?;
    let mut model =
        Smore::new(SmoreConfig::builder().dim(4096).channels(3).num_classes(4).build()?)?;
    model.fit_indices(&dataset, &train)?;

    // Calibrate δ* from the training data itself: set it just below the
    // 10th percentile of in-distribution δ_max, so ~90% of known-subject
    // windows pass while drifted data trips the detector.
    let (calib_w, _, _) = dataset.gather(&train);
    let mut deltas: Vec<f32> = model.predict_batch(&calib_w)?.iter().map(|p| p.delta_max).collect();
    deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite similarities"));
    let delta_star = deltas[deltas.len() / 10];
    model.set_delta_star(delta_star)?;
    println!("calibrated δ* = {delta_star:.3} (10th percentile of training δ_max)\n");

    // A stream: 20 windows from known subjects, then 20 from the new one.
    let known: Vec<usize> = train.iter().rev().take(20).copied().collect();
    let stream: Vec<usize> = known.iter().chain(unseen.iter().take(20)).copied().collect();

    println!("streaming 40 windows (first 20 from known subjects, last 20 from a new one):\n");
    println!("{:>4}  {:>8}  {:>6}  {:>8}  closest domain", "#", "δ_max", "OOD?", "class");
    let mut ood_known = 0usize;
    let mut ood_new = 0usize;
    for (i, &idx) in stream.iter().enumerate() {
        let p = model.predict_window(dataset.window(idx))?;
        if p.is_ood {
            if i < 20 {
                ood_known += 1;
            } else {
                ood_new += 1;
            }
        }
        if i % 5 == 0 || (15..25).contains(&i) {
            println!(
                "{:>4}  {:>8.3}  {:>6}  {:>8}  domain {}",
                i,
                p.delta_max,
                if p.is_ood { "OOD" } else { "-" },
                p.label,
                p.best_domain + 1
            );
        }
        if i == 19 {
            println!("{:-<50}", "");
        }
    }
    println!("\nOOD rate: {}/20 on known subjects vs {}/20 on the new subject", ood_known, ood_new);
    println!("A rising OOD rate is the deployment signal to collect/adapt for a new user.");
    Ok(())
}
