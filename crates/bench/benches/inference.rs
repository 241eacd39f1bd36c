//! Micro-benchmarks of inference: SMORE's full Algorithm 1 per query
//! (OOD detection + test-time ensembling) against a pooled single-model
//! prediction and a CNN forward pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use smore::{Predictor, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_hdc::model::{HdcClassifier, HdcClassifierConfig};
use smore_nn::layer::{Conv1d, Dense, GlobalAvgPool1d, Relu};
use smore_nn::network::Sequential;
use smore_tensor::init;

fn bench_inference(c: &mut Criterion) {
    let dataset = generate(&GeneratorConfig {
        name: "bench".into(),
        num_classes: 12,
        channels: 6,
        window_len: 32,
        sample_rate_hz: 25.0,
        domains: vec![
            DomainSpec { subjects: vec![0, 1], windows: 96 },
            DomainSpec { subjects: vec![2, 3], windows: 96 },
            DomainSpec { subjects: vec![4, 5], windows: 96 },
            DomainSpec { subjects: vec![6, 7], windows: 96 },
        ],
        shift_severity: 1.0,
        seed: 5,
    })
    .unwrap();
    let dim = 4096;
    let mut smore = Smore::new(
        SmoreConfig::builder().dim(dim).channels(6).num_classes(12).epochs(5).build().unwrap(),
    )
    .unwrap();
    let indices: Vec<usize> = (0..dataset.len()).collect();
    smore.fit_indices(&dataset, &indices).unwrap();
    let query = dataset.window(0).clone();

    c.bench_function("smore_predict_window", |b| {
        b.iter(|| black_box(smore.predict_window(black_box(&query)).unwrap()))
    });

    // Pooled single-model prediction on an already-encoded query.
    let encoded = smore.encode(std::slice::from_ref(&query)).unwrap();
    let mut rng = init::rng(9);
    let pooled =
        HdcClassifier::from_class_hypervectors(init::bipolar_matrix(&mut rng, 12, dim)).unwrap();
    let _ = HdcClassifierConfig::default();
    c.bench_function("pooled_predict_encoded", |b| {
        b.iter(|| black_box(pooled.predict_one(black_box(encoded.row(0))).unwrap()))
    });

    // CNN forward pass on one window.
    let (time, channels) = (32usize, 6usize);
    let mut net = Sequential::new();
    let conv = Conv1d::new(time, channels, 16, 5, 1).unwrap();
    let t1 = conv.out_time();
    net.push(conv);
    net.push(Relu::new());
    net.push(GlobalAvgPool1d::new(t1, 16).unwrap());
    net.push(Dense::new(16, 12, 2).unwrap());
    let flat = init::normal_matrix(&mut init::rng(10), 1, time * channels);
    c.bench_function("cnn_forward_window", |b| {
        b.iter(|| black_box(net.forward(black_box(&flat), false).unwrap()))
    });
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
