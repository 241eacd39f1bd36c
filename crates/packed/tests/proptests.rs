//! Property-based tests for the bit-packed binary backend: round-trip sign
//! agreement, XOR-bind reversibility, rotation/permutation equivalence with
//! the dense substrate, majority bundling, the residual planes' dense
//! reconstruction, and the serving encoder against its recompute
//! reference.

use proptest::prelude::*;
use rand::rngs::StdRng;
use smore_hdc::encoder::EncoderConfig;
use smore_hdc::Hypervector;
use smore_packed::{
    BitSliceAccumulator, EncoderScratch, PackedHypervector, PackedNgramEncoder, ResidualPacked,
};
use smore_tensor::{init, Matrix};

fn bipolar_hv(seed: u64, dim: usize) -> Vec<f32> {
    init::bipolar_vec(&mut init::rng(seed), dim)
}

/// `a ⊕ b` through the in-place binding.
fn bind(a: &PackedHypervector, b: &PackedHypervector) -> PackedHypervector {
    let mut out = a.clone();
    out.xor_assign(b).unwrap();
    out
}

fn encoder(dim: usize, sensors: usize, ngram: usize) -> PackedNgramEncoder {
    PackedNgramEncoder::new(EncoderConfig { dim, sensors, ngram, ..EncoderConfig::default() })
        .unwrap()
}

fn normal_window(rng: &mut StdRng, t_total: usize, sensors: usize) -> Matrix {
    Matrix::from_vec(t_total, sensors, init::normal_vec(rng, t_total * sensors)).unwrap()
}

/// Encodes `w` through the caller's reused `scratch` — the call
/// `QuantizedSmore` makes — and checks the counters against the recompute
/// reference, so state left over from an earlier window or encoder shape
/// shows up as a mismatch.
fn counts_match_reference(
    enc: &PackedNgramEncoder,
    w: &Matrix,
    scratch: &mut EncoderScratch,
) -> TestCaseResult {
    enc.encode_counts_into(w, scratch).unwrap();
    let reference = enc.encode_counts_reference(w).unwrap();
    prop_assert_eq!(scratch.counts(), reference.as_slice());
    Ok(())
}

/// `ResidualPacked::to_dense` as a per-dimension walk over the planes —
/// the reference its word-at-a-time walk must match bit for bit.
fn to_dense_per_bit(r: &ResidualPacked) -> Vec<u32> {
    let mut out = vec![0.0f32; r.dim()];
    for &(alpha, ref plane) in r.planes() {
        for (i, o) in out.iter_mut().enumerate() {
            *o += if plane.get(i) { -alpha } else { alpha };
        }
    }
    out.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn round_trip_preserves_signs(seed in any::<u64>(), dim in 1usize..400) {
        // Dense → packed → dense must agree with the sign of every
        // component (zero / non-finite map to the +1 side by convention).
        let dense = init::normal_vec(&mut init::rng(seed), dim);
        let packed = PackedHypervector::from_dense(&Hypervector::from_slice(&dense));
        let back = packed.to_dense();
        for (&v, &b) in dense.iter().zip(back.as_slice()) {
            let expected = if v < 0.0 { -1.0 } else { 1.0 };
            prop_assert_eq!(b, expected);
        }
    }

    #[test]
    fn bipolar_round_trip_is_lossless(seed in any::<u64>(), dim in 1usize..300) {
        let dense = bipolar_hv(seed, dim);
        let packed = PackedHypervector::from_signs(&dense);
        let back = packed.to_dense();
        prop_assert_eq!(back.as_slice(), dense.as_slice());
    }

    #[test]
    fn xor_bind_is_reversible(sa in any::<u64>(), sb in any::<u64>(), dim in 1usize..300) {
        let a = PackedHypervector::from_signs(&bipolar_hv(sa, dim));
        let b = PackedHypervector::from_signs(&bipolar_hv(sb, dim));
        let bound = bind(&a, &b);
        // XOR binding is its own inverse, exactly — no tolerance needed.
        prop_assert_eq!(&bind(&bound, &a), &b);
        prop_assert_eq!(&bind(&bound, &b), &a);
        // And commutative.
        prop_assert_eq!(bound, bind(&b, &a));
    }

    #[test]
    fn xor_bind_matches_dense_multiplication(sa in any::<u64>(), sb in any::<u64>()) {
        // bit 1 ⇔ −1 makes XOR the parity of negative factors — exactly
        // element-wise sign multiplication in the dense domain.
        let dim = 192;
        let da = Hypervector::from_vec(bipolar_hv(sa, dim));
        let db = Hypervector::from_vec(bipolar_hv(sb, dim));
        let dense_bound = da.bind(&db).unwrap();
        let packed_bound =
            bind(&PackedHypervector::from_dense(&da), &PackedHypervector::from_dense(&db));
        prop_assert_eq!(packed_bound.to_dense(), dense_bound);
    }

    #[test]
    fn rotation_matches_dense_permute(seed in any::<u64>(), dim in 1usize..200, k in 0usize..500) {
        let dense = Hypervector::from_vec(bipolar_hv(seed, dim));
        let packed = PackedHypervector::from_dense(&dense);
        prop_assert_eq!(packed.rotate(k), PackedHypervector::from_dense(&dense.permute(k)));
        // Rotating the rest of the way round the ring is the inverse.
        prop_assert_eq!(packed.rotate(k).rotate(dim - k % dim), packed);
    }

    #[test]
    fn similarity_is_exact_cosine_of_signs(sa in any::<u64>(), sb in any::<u64>()) {
        let dim = 1024;
        let a = PackedHypervector::from_signs(&bipolar_hv(sa, dim));
        let b = PackedHypervector::from_signs(&bipolar_hv(sb, dim));
        let packed_sim = a.similarity(&b).unwrap();
        let dense_sim = a.to_dense().cosine(&b.to_dense()).unwrap();
        prop_assert!((packed_sim - dense_sim).abs() < 1e-5);
        prop_assert!((-1.0..=1.0).contains(&packed_sim));
    }

    #[test]
    fn majority_bundle_stays_similar_to_members(seeds in prop::collection::vec(any::<u64>(), 3..8)) {
        let dim = 2048;
        let members: Vec<PackedHypervector> =
            seeds.iter().map(|&s| PackedHypervector::from_signs(&bipolar_hv(s, dim))).collect();
        let mut acc = BitSliceAccumulator::new(dim);
        for m in &members {
            acc.absorb(m).unwrap();
        }
        let mut counts = vec![0i32; dim];
        acc.counts_into(&mut counts);
        // Majority threshold: negative counters → −1, ties → +1.
        let mut bundle = PackedHypervector::zeros(dim);
        bundle.fill_with(|i| counts[i] < 0);
        for m in &members {
            // Membership property of bundling (§3.1), binary edition.
            prop_assert!(bundle.similarity(m).unwrap() > 0.1);
        }
    }

    #[test]
    fn residual_to_dense_is_bit_exact_to_the_per_bit_walk(
        seed in any::<u64>(),
        dim in 1usize..300,
        planes in 1usize..=3,
    ) {
        // Random ragged dims, plus 70 and 200: a partial last word each.
        for dim in [dim, 70, 200] {
            let values = init::normal_vec(&mut init::rng(seed), dim);
            let r = ResidualPacked::from_dense(&values, planes).unwrap();
            let fast: Vec<u32> = r.to_dense().as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(fast, to_dense_per_bit(&r));
        }
    }

    #[test]
    fn sliding_swar_encode_is_bit_exact_to_reference(
        seed in any::<u64>(),
        dim in 1usize..200,
        sensors in 1usize..4,
        ngram in 1usize..=6,
        extra in 0usize..16,
        other_dim in 1usize..200,
        same_dim in prop::bool::ANY,
    ) {
        // The incremental sliding-bind + SWAR-bundled serving path must
        // reproduce the retained recompute path counter for counter —
        // ragged (non-multiple-of-64) dims and every n-gram size included.
        // One scratch serves every window, alternating with a second
        // encoder shape (same dim half the time, so the accumulator is
        // reset rather than rebuilt).
        let enc = encoder(dim, sensors, ngram);
        let other_dim = if same_dim { dim } else { other_dim };
        let other = encoder(other_dim, sensors % 3 + 1, ngram % 6 + 1);
        let mut rng = init::rng(seed);
        let mut scratch = EncoderScratch::new();
        for (k, e) in [&enc, &enc, &other, &enc, &other].into_iter().enumerate() {
            let cfg = e.config();
            let w = normal_window(&mut rng, cfg.ngram + (extra + 5 * k) % 16, cfg.sensors);
            counts_match_reference(e, &w, &mut scratch)?;
        }
    }

    #[test]
    fn sliding_swar_encode_matches_reference_on_degenerate_windows(
        seed in any::<u64>(),
        dim in 1usize..150,
        ngram in 1usize..=4,
        other_dim in 1usize..150,
    ) {
        let enc = encoder(dim, 2, ngram);
        let other = encoder(other_dim, 2, ngram % 4 + 1);
        let t_total = ngram.max(other.config().ngram) + 9;

        // Constant windows (zero span → mid-grid codeword everywhere).
        let constant = Matrix::filled(t_total, 2, 2.5);

        // NaN-poisoned windows (non-finite samples snap mid-grid).
        let mut rng = init::rng(seed);
        let mut poisoned = normal_window(&mut rng, t_total, 2);
        poisoned.set((seed as usize) % t_total, (seed as usize) % 2, f32::NAN);
        poisoned.set((seed as usize / 7) % t_total, (seed as usize / 3) % 2, f32::INFINITY);

        // Both windows through each encoder, alternating shapes on one
        // scratch.
        let mut scratch = EncoderScratch::new();
        for w in [&constant, &poisoned, &constant] {
            counts_match_reference(&enc, w, &mut scratch)?;
            counts_match_reference(&other, w, &mut scratch)?;
        }
    }

    #[test]
    fn scratch_encode_window_matches_allocating_encode(
        seed in any::<u64>(),
        dim in 1usize..300,
    ) {
        // encode_window_into through a reused scratch ≡ through fresh
        // buffers ≡ the majority threshold of the reference counters.
        let enc = encoder(dim, 2, EncoderConfig::default().ngram);
        let mut scratch = EncoderScratch::new();
        let mut out = PackedHypervector::zeros(dim);
        let mut rng = init::rng(seed);
        for _ in 0..3 {
            let w = normal_window(&mut rng, 12, 2);
            enc.encode_window_into(&w, &mut scratch, &mut out).unwrap();
            let mut fresh = PackedHypervector::zeros(dim);
            enc.encode_window_into(&w, &mut EncoderScratch::new(), &mut fresh).unwrap();
            prop_assert_eq!(&out, &fresh);
            let counts = enc.encode_counts_reference(&w).unwrap();
            let mut reference = PackedHypervector::zeros(dim);
            reference.fill_with(|i| counts[i] < 0);
            prop_assert_eq!(&out, &reference);
        }
    }
}
