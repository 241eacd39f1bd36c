//! Dense vs bit-packed micro-benchmarks at the paper's dimensionality
//! (`d = 8192`): similarity (cosine vs XOR+popcount), binding (multiply vs
//! XOR), permutation and window encoding.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
use smore_hdc::Hypervector;
use smore_packed::{EncoderScratch, PackedHypervector, PackedNgramEncoder};
use smore_tensor::{init, Matrix};

fn dense_hv(seed: u64, dim: usize) -> Hypervector {
    Hypervector::from_vec(init::bipolar_vec(&mut init::rng(seed), dim))
}

fn bench_packed_vs_dense(c: &mut Criterion) {
    let dim = 8192;
    let a = dense_hv(1, dim);
    let b = dense_hv(2, dim);
    let pa = PackedHypervector::from_dense(&a);
    let pb = PackedHypervector::from_dense(&b);
    let mut bound = pa.clone();

    // Similarity: the acceptance-criteria comparison (≥5× expected).
    c.bench_function("similarity_dense_cosine_8192", |bench| {
        bench.iter(|| black_box(a.cosine(black_box(&b)).unwrap()))
    });
    c.bench_function("similarity_packed_popcount_8192", |bench| {
        bench.iter(|| black_box(pa.similarity(black_box(&pb)).unwrap()))
    });

    // Binding: element-wise multiply vs word-wise XOR.
    c.bench_function("bind_dense_mul_8192", |bench| {
        bench.iter(|| black_box(a.bind(black_box(&b)).unwrap()))
    });
    c.bench_function("bind_packed_xor_8192", |bench| {
        bench.iter(|| bound.xor_assign(black_box(&pb)).unwrap())
    });

    // Permutation: dense rotate-copy vs packed word rotation.
    c.bench_function("permute_dense_8192", |bench| bench.iter(|| black_box(a.permute(3))));
    c.bench_function("permute_packed_8192", |bench| bench.iter(|| black_box(pa.rotate(3))));

    // Window encoding on a USC-HAD-like shape (6 sensors).
    let cfg = EncoderConfig { dim, sensors: 6, ..EncoderConfig::default() };
    let dense_enc = MultiSensorEncoder::new(cfg).unwrap();
    let packed_enc = PackedNgramEncoder::from_dense(&dense_enc).unwrap();
    let window = Matrix::from_fn(32, 6, |t, s| (t as f32 * 0.37 + s as f32 * 1.3).sin());
    c.bench_function("encode_dense_8192", |bench| {
        bench.iter(|| black_box(dense_enc.encode_window(black_box(&window)).unwrap()))
    });
    let mut scratch = EncoderScratch::new();
    let mut query = PackedHypervector::zeros(dim);
    c.bench_function("encode_packed_8192", |bench| {
        bench.iter(|| {
            packed_enc.encode_window_into(black_box(&window), &mut scratch, &mut query).unwrap()
        })
    });
}

criterion_group!(benches, bench_packed_vs_dense);
criterion_main!(benches);
