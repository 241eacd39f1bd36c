//! Micro-benchmarks of training: one adaptive-update epoch (Eq. 1–2), the
//! two `HdcClassifier::fit` calls the serving fleet makes, the
//! domain-descriptor bundle, and one CNN training batch for comparison.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use smore::descriptor::DomainDescriptors;
use smore::{Smore, SmoreConfig};
use smore_data::split;
use smore_hdc::model::{HdcClassifier, HdcClassifierConfig};
use smore_nn::layer::{Conv1d, Dense, GlobalAvgPool1d, Relu};
use smore_nn::network::Sequential;
use smore_nn::optim::Optimizer;
use smore_serve::synthetic;
use smore_tensor::{init, Matrix};

fn bench_training(c: &mut Criterion) {
    let dim = 4096;
    let classes = 12;
    let n = 128;
    let mut rng = init::rng(3);
    let samples = init::normal_matrix(&mut rng, n, dim);
    let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();

    c.bench_function("hdc_train_epoch_128x4096", |bench| {
        bench.iter(|| {
            let mut model = HdcClassifier::new(HdcClassifierConfig {
                dim,
                num_classes: classes,
                learning_rate: 0.05,
                epochs: 1,
            })
            .unwrap();
            black_box(model.fit(black_box(&samples), black_box(&labels)).unwrap())
        })
    });

    let domains: Vec<usize> = (0..n).map(|i| i % 4).collect();
    c.bench_function("descriptor_bundle_128x4096", |bench| {
        bench.iter(|| {
            black_box(
                DomainDescriptors::build(black_box(&samples), black_box(&domains), 4).unwrap(),
            )
        })
    });

    // CNN comparison: one batch of 32 USC-like windows.
    let (time, channels) = (32usize, 6usize);
    let x = init::normal_matrix(&mut rng, 32, time * channels);
    let y: Vec<usize> = (0..32).map(|i| i % classes).collect();
    c.bench_function("cnn_train_batch_32", |bench| {
        let mut net = Sequential::new();
        let conv = Conv1d::new(time, channels, 16, 5, 1).unwrap();
        let t1 = conv.out_time();
        net.push(conv);
        net.push(Relu::new());
        net.push(GlobalAvgPool1d::new(t1, 16).unwrap());
        net.push(Dense::new(16, classes, 2).unwrap());
        let opt = Optimizer::adam(1e-3);
        bench.iter(|| black_box(net.train_batch(black_box(&x), black_box(&y), &opt).unwrap()))
    });
}

/// `fit` on the serving fleet's own encodings (`synthetic::engine`'s
/// recipe, d = 4096, 4 classes, 10 epochs): the pooled model that seeds
/// the domain models at set-up (240 windows, zero start), and one drifting
/// tenant's enrolment (32 windows read 1.5× hot, seeded from the average
/// of the domain models, as `Smore::prepare_domain` does).
fn bench_fleet_fit(c: &mut Criterion) {
    let ds = synthetic::dataset(7).unwrap();
    let (train, held_out) = split::lodo(&ds, synthetic::DRIFT_DOMAIN).unwrap();
    let mut smore = Smore::new(
        SmoreConfig::builder()
            .dim(4096)
            .channels(ds.meta().channels)
            .num_classes(ds.meta().num_classes)
            .epochs(10)
            .threads(2)
            .build()
            .unwrap(),
    )
    .unwrap();
    smore.fit_indices(&ds, &train).unwrap();
    let config = HdcClassifierConfig {
        dim: 4096,
        num_classes: ds.meta().num_classes,
        learning_rate: smore.config().learning_rate,
        epochs: 10,
    };

    let (windows, labels, _) = ds.gather(&train);
    let pooled = smore.encode(&windows).unwrap();
    c.bench_function("hdc_fit_pooled_240x4096_4c", |bench| {
        bench.iter(|| {
            let mut model = HdcClassifier::new(config.clone()).unwrap();
            black_box(model.fit(black_box(&pooled), black_box(&labels)).unwrap())
        })
    });

    let (windows, labels, _) = ds.gather(&held_out[..32]);
    let hot: Vec<Matrix> = windows.iter().map(|w| w.scale(1.5)).collect();
    let enrol = smore.encode(&hot).unwrap();
    let models = smore.domain_models().unwrap();
    let mut seed = Matrix::zeros(config.num_classes, config.dim);
    for model in models {
        seed.axpy(1.0 / models.len() as f32, model.class_hypervectors()).unwrap();
    }
    c.bench_function("hdc_fit_enrol_32x4096_4c", |bench| {
        bench.iter(|| {
            let mut model = HdcClassifier::from_class_hypervectors_with(
                seed.clone(),
                config.learning_rate,
                config.epochs,
            )
            .unwrap();
            black_box(model.fit(black_box(&enrol), black_box(&labels)).unwrap())
        })
    });
}

criterion_group!(benches, bench_training, bench_fleet_fit);
criterion_main!(benches);
