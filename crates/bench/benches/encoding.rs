//! Micro-benchmarks of the two encoders: the structured multi-sensor
//! temporal encoder (§3.3) and BaselineHD's random projection, plus the
//! dense batch encode the serving fleet's training runs and its quantiser
//! stage on its own.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use smore_baselines::baseline_hd::ProjectionEncoder;
use smore_data::split;
use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
use smore_hdc::memory::{LevelMemory, Quantization};
use smore_serve::synthetic;
use smore_tensor::Matrix;

fn usc_window() -> Matrix {
    // USC-HAD geometry: 126 steps, 6 channels.
    Matrix::from_fn(126, 6, |t, s| (t as f32 * 0.21 + s as f32 * 0.8).sin())
}

fn bench_encoding(c: &mut Criterion) {
    let window = usc_window();
    let mut group = c.benchmark_group("encode_window_usc");
    for dim in [2048usize, 8192] {
        let encoder =
            MultiSensorEncoder::new(EncoderConfig { dim, sensors: 6, ..EncoderConfig::default() })
                .unwrap();
        group.bench_with_input(BenchmarkId::new("multisensor", dim), &dim, |b, _| {
            b.iter(|| black_box(encoder.encode_window(black_box(&window)).unwrap()))
        });
        let projection = ProjectionEncoder::new(126 * 6, dim, 1).unwrap();
        let flat = Matrix::from_vec(1, 126 * 6, window.as_slice().to_vec()).unwrap();
        group.bench_with_input(BenchmarkId::new("projection", dim), &dim, |b, _| {
            b.iter(|| black_box(projection.encode(black_box(&flat), 1).unwrap()))
        });
    }
    group.finish();

    // The fleet's training batch: 240 windows of 24 steps × 3 channels.
    let ds = synthetic::dataset(7).unwrap();
    let (train, _) = split::lodo(&ds, synthetic::DRIFT_DOMAIN).unwrap();
    let (windows, _, _) = ds.gather(&train);
    let encoder = MultiSensorEncoder::new(EncoderConfig {
        dim: 4096,
        sensors: 3,
        ..EncoderConfig::default()
    })
    .unwrap();
    c.bench_function("encode_batch_fleet_240_4096", |b| {
        b.iter(|| black_box(encoder.encode_batch(black_box(&windows), 2).unwrap()))
    });

    // The quantiser stage of one fleet window: 72 level selects (3
    // channels × 24 steps) at d = 4096, with α spread over [0, 1].
    let memory = LevelMemory::new(4096, 64, Quantization::Interpolate, 7).unwrap();
    let alphas: Vec<f32> = (0..72).map(|i| i as f32 / 71.0).collect();
    let mut out = vec![0.0f32; 4096];
    c.bench_function("level_select_fleet_4096", |b| {
        b.iter(|| {
            for &alpha in &alphas {
                memory.encode_into(black_box(alpha), &mut out);
                black_box(&out);
            }
        })
    });
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
