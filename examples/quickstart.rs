//! Quickstart: train SMORE on a synthetic multi-sensor dataset and
//! classify windows from a domain it never saw.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small multi-sensor time series dataset: four activity classes
    //    observed by three sensors, performed by eight subjects grouped
    //    into four domains (the paper's subject-ID grouping).
    let dataset = generate(&GeneratorConfig {
        name: "quickstart".into(),
        num_classes: 4,
        channels: 3,
        window_len: 32,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 120 })
            .collect(),
        shift_severity: 1.0,
        seed: 42,
    })?;
    println!(
        "dataset: {} windows, {} classes, {} domains",
        dataset.len(),
        dataset.meta().num_classes,
        dataset.meta().num_domains
    );

    // 2. Leave-one-domain-out: hold out domain 3 entirely.
    let (train, test) = split::lodo(&dataset, 3)?;

    // 3. Configure and train SMORE.
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(4096)
            .channels(dataset.meta().channels)
            .num_classes(dataset.meta().num_classes)
            .build()?,
    )?;
    let report = model.fit_indices(&dataset, &train)?;
    println!(
        "trained {} domain-specific models on {} windows ({:.2}s encode, {:.2}s train)",
        report.num_domains, report.samples, report.encode_seconds, report.train_seconds
    );

    // 4. Predict windows from the unseen domain, with full domain context.
    let sample = test[0];
    let prediction = model.predict_window(dataset.window(sample))?;
    println!(
        "window from unseen domain: predicted class {} (true {}), OOD = {}, δ_max = {:.3}",
        prediction.label,
        dataset.label(sample),
        prediction.is_ood,
        prediction.delta_max
    );

    // 5. Evaluate the whole held-out domain.
    let eval = model.evaluate_indices(&dataset, &test)?;
    println!(
        "held-out domain accuracy: {:.1}% over {} windows ({:.0}% flagged OOD)",
        100.0 * eval.accuracy,
        eval.samples,
        100.0 * eval.ood_fraction
    );
    Ok(())
}
