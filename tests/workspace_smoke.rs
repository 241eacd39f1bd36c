//! Workspace smoke test: train a tiny SMORE model end-to-end on a generated
//! dataset and check that the whole stack — data generation, encoding,
//! domain-specific training, descriptors and test-time ensembling — produces
//! an above-chance classifier on its *source* domains.

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};

#[test]
fn tiny_smore_trains_end_to_end_above_chance() {
    let dataset = generate(&GeneratorConfig {
        name: "workspace-smoke".into(),
        num_classes: 4,
        channels: 3,
        window_len: 16,
        sample_rate_hz: 20.0,
        domains: vec![
            DomainSpec { subjects: vec![0, 1], windows: 40 },
            DomainSpec { subjects: vec![2, 3], windows: 40 },
        ],
        shift_severity: 0.8,
        seed: 0x57_0CE,
    })
    .unwrap();

    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(1024)
            .channels(dataset.meta().channels)
            .num_classes(dataset.meta().num_classes)
            .epochs(10)
            .build()
            .unwrap(),
    )
    .unwrap();

    // Train on everything; evaluate on the same source domains. This is not
    // a generalisation claim (the integration suite covers LODO) — it
    // verifies the full pipeline is wired and learns *something*.
    let all: Vec<usize> = (0..dataset.len()).collect();
    let report = model.fit_indices(&dataset, &all).unwrap();
    assert_eq!(report.num_domains, 2);
    assert_eq!(report.samples, dataset.len());

    let eval = model.evaluate_indices(&dataset, &all).unwrap();
    let chance = 1.0 / dataset.meta().num_classes as f32;
    assert!(
        eval.accuracy > 2.0 * chance,
        "source-domain accuracy {} should be well above chance {}",
        eval.accuracy,
        chance
    );
    assert_eq!(eval.samples, dataset.len());
    assert!(eval.ood_fraction <= 1.0);

    // The quantized serving path must track the dense model through the
    // same stack: freeze to bit-packed form and stay close on accuracy.
    let quantized = model.quantize().unwrap();
    let quant_eval = quantized.evaluate_indices(&dataset, &all).unwrap();
    assert!(
        quant_eval.accuracy >= eval.accuracy - 0.1,
        "quantized accuracy {} collapsed vs dense {}",
        quant_eval.accuracy,
        eval.accuracy
    );
    assert!(quantized.storage_bytes() > 0);
}
