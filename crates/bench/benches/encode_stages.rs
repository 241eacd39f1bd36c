//! Micro-benchmarks splitting the packed encode hot path into its stages
//! at the paper's dimensionality (`d = 8192`):
//!
//! - **bind** — the incremental sliding n-gram step (retire + rotate +
//!   fold-in, 2 XORs + 1 rotate) vs the from-scratch trigram fold it
//!   replaced (copy + 2 rotates + 2 XORs);
//! - **bundle** — SWAR carry-save bit-plane absorption with the signature
//!   XOR fused in; its plane flushes (one per 255 absorbs) are timed here,
//!   amortized;
//! - **threshold** — counter read-out plus majority sign packing. Only the
//!   first call finds pending planes, so no flush is timed;
//! - **end-to-end** — the full word-parallel encode (scratch reuse) vs
//!   the retained reference recompute path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
use smore_packed::{BitSliceAccumulator, EncoderScratch, PackedHypervector, PackedNgramEncoder};
use smore_tensor::{init, Matrix};

fn packed(seed: u64, dim: usize) -> PackedHypervector {
    PackedHypervector::from_signs(&init::bipolar_vec(&mut init::rng(seed), dim))
}

fn bench_bind_stage(c: &mut Criterion) {
    let dim = 8192;
    let outgoing = packed(1, dim);
    let middle = packed(2, dim);
    let incoming = packed(3, dim);
    let mut prod = packed(4, dim);
    let mut rot = PackedHypervector::zeros(dim);

    // One sliding step: P ← ρ(P ⊕ ρ^{n−1}(c_out)) ⊕ c_in.
    c.bench_function("bind_sliding_step_8192", |bench| {
        bench.iter(|| {
            prod.xor_assign(black_box(&outgoing)).unwrap();
            prod.rotate_into(1, &mut rot);
            std::mem::swap(&mut prod, &mut rot);
            prod.xor_assign(black_box(&incoming)).unwrap();
        })
    });

    // The from-scratch trigram fold the slide replaces.
    c.bench_function("bind_recompute_trigram_8192", |bench| {
        bench.iter(|| {
            prod.clone_from(black_box(&incoming));
            middle.rotate_into(1, &mut rot);
            prod.xor_assign(&rot).unwrap();
            outgoing.rotate_into(2, &mut rot);
            prod.xor_assign(&rot).unwrap();
        })
    });
}

fn bench_bundle_stage(c: &mut Criterion) {
    let dim = 8192;
    let element = packed(5, dim);
    let signature = packed(6, dim);
    let mut swar = BitSliceAccumulator::new(dim);

    // SWAR absorb with the signature bind fused in (amortises its own
    // capacity flushes, one per 255 absorbs).
    c.bench_function("bundle_swar_absorb_8192", |bench| {
        bench.iter(|| swar.absorb_bound(black_box(element.words()), signature.words()))
    });
}

fn bench_threshold_stage(c: &mut Criterion) {
    let dim = 8192;
    let mut swar = BitSliceAccumulator::new(dim);
    for seed in 0..30 {
        swar.absorb(&packed(seed, dim)).unwrap();
    }
    let mut counts = vec![0i32; dim];
    let mut out = PackedHypervector::zeros(dim);
    c.bench_function("threshold_pack_8192", |bench| {
        bench.iter(|| {
            swar.counts_into(black_box(&mut counts));
            let c = &counts;
            out.fill_with(|i| c[i] < 0);
        })
    });
}

fn bench_encode_end_to_end(c: &mut Criterion) {
    let dim = 8192;
    let cfg = EncoderConfig { dim, sensors: 6, ..EncoderConfig::default() };
    let dense_enc = MultiSensorEncoder::new(cfg).unwrap();
    let packed_enc = PackedNgramEncoder::from_dense(&dense_enc).unwrap();
    let window = Matrix::from_fn(32, 6, |t, s| (t as f32 * 0.37 + s as f32 * 1.3).sin());

    let mut scratch = EncoderScratch::new();
    let mut out = PackedHypervector::zeros(dim);
    c.bench_function("encode_packed_sliding_swar_8192", |bench| {
        bench.iter(|| {
            packed_enc.encode_window_into(black_box(&window), &mut scratch, &mut out).unwrap()
        })
    });
    c.bench_function("encode_packed_reference_8192", |bench| {
        bench.iter(|| black_box(packed_enc.encode_counts_reference(black_box(&window)).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_bind_stage,
    bench_bundle_stage,
    bench_threshold_stage,
    bench_encode_end_to_end
);
criterion_main!(benches);
