//! Property-based tests for the bit-packed binary backend: round-trip sign
//! agreement, XOR-bind reversibility, rotation/permutation equivalence with
//! the dense substrate, dense-vs-packed classifier agreement, and the
//! residual planes' dense reconstruction.

use proptest::prelude::*;
use smore_hdc::encoder::EncoderConfig;
use smore_hdc::model::HdcClassifier;
use smore_hdc::Hypervector;
use smore_packed::{
    EncoderScratch, PackedAccumulator, PackedClassifier, PackedHypervector, PackedNgramEncoder,
    ResidualPacked,
};
use smore_tensor::{init, Matrix};

fn bipolar_hv(seed: u64, dim: usize) -> Vec<f32> {
    init::bipolar_vec(&mut init::rng(seed), dim)
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
        let bound = a.xor(&b).unwrap();
        // XOR binding is its own inverse, exactly — no tolerance needed.
        prop_assert_eq!(&bound.xor(&a).unwrap(), &b);
        prop_assert_eq!(&bound.xor(&b).unwrap(), &a);
        // And commutative.
        prop_assert_eq!(bound, b.xor(&a).unwrap());
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
            PackedHypervector::from_dense(&da).xor(&PackedHypervector::from_dense(&db)).unwrap();
        prop_assert_eq!(packed_bound.to_dense(), dense_bound);
    }

    #[test]
    fn rotation_matches_dense_permute(seed in any::<u64>(), dim in 1usize..200, k in 0usize..500) {
        let dense = Hypervector::from_vec(bipolar_hv(seed, dim));
        let packed = PackedHypervector::from_dense(&dense);
        prop_assert_eq!(packed.rotate(k), PackedHypervector::from_dense(&dense.permute(k)));
        prop_assert_eq!(packed.rotate(k).unrotate(k), packed);
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
        let mut acc = PackedAccumulator::new(dim);
        for m in &members {
            acc.accumulate(m).unwrap();
        }
        let bundle = acc.finish();
        for m in &members {
            // Membership property of bundling (§3.1), binary edition.
            prop_assert!(bundle.similarity(m).unwrap() > 0.1);
        }
    }

    #[test]
    fn dense_and_packed_classifiers_agree_on_bipolar_data(seed in any::<u64>()) {
        // Exactly bipolar class hypervectors and queries: sign quantization
        // is lossless, so dense cosine and packed popcount scoring must
        // agree on (nearly) every argmax — the ≥95% contract with margin.
        let dim = 1024;
        let classes = 4;
        let mut rng = init::rng(seed);
        let class_hvs = init::bipolar_matrix(&mut rng, classes, dim);
        let dense = HdcClassifier::from_class_hypervectors(class_hvs).unwrap();
        let packed = PackedClassifier::from_dense(&dense).unwrap();
        let queries = 40;
        let mut agree = 0usize;
        for _ in 0..queries {
            let q = init::bipolar_vec(&mut rng, dim);
            let dp = dense.predict_one(&q).unwrap();
            let pp = packed.predict_one(&PackedHypervector::from_signs(&q)).unwrap();
            if dp == pp {
                agree += 1;
            }
        }
        prop_assert!(
            agree as f32 / queries as f32 >= 0.95,
            "agreement {}/{} below 95%", agree, queries
        );
    }

    #[test]
    fn dense_and_packed_classifiers_agree_on_trained_prototypes(seed in any::<u64>()) {
        // Non-bipolar dense class hypervectors (bundles of noisy samples,
        // as training produces) still quantize into agreeing classifiers on
        // random bipolar probes near the prototypes.
        let dim = 1024;
        let classes = 3;
        let mut rng = init::rng(seed);
        let protos = init::bipolar_matrix(&mut rng, classes, dim);
        // Class hypervectors = prototype + Gaussian perturbation (what
        // adaptive bundling leaves behind).
        let mut class_hvs = Matrix::zeros(classes, dim);
        for c in 0..classes {
            let noise = init::normal_vec(&mut rng, dim);
            for (j, &e) in noise.iter().enumerate() {
                class_hvs.set(c, j, 3.0 * protos.get(c, j) + e);
            }
        }
        let dense = HdcClassifier::from_class_hypervectors(class_hvs).unwrap();
        let packed = PackedClassifier::from_dense(&dense).unwrap();
        let queries = 40;
        let mut agree = 0usize;
        for i in 0..queries {
            // Probes: noisy copies of a prototype, cycling classes.
            let c = i % classes;
            let noise = init::normal_vec(&mut rng, dim);
            let q: Vec<f32> =
                (0..dim).map(|j| protos.get(c, j) + 0.8 * noise[j]).collect();
            let dp = dense.predict_one(&q).unwrap();
            let pp = packed.predict_one(&PackedHypervector::from_signs(&q)).unwrap();
            if dp == pp {
                agree += 1;
            }
        }
        prop_assert!(
            agree as f32 / queries as f32 >= 0.95,
            "agreement {}/{} below 95%", agree, queries
        );
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
    ) {
        // The incremental sliding-bind + SWAR-bundled serving path must
        // reproduce the retained recompute path counter for counter —
        // ragged (non-multiple-of-64) dims and every n-gram size included.
        let cfg = EncoderConfig { dim, sensors, ngram, ..EncoderConfig::default() };
        let enc = PackedNgramEncoder::new(cfg).unwrap();
        let t_total = ngram + extra;
        let mut rng = init::rng(seed);
        let data = init::normal_vec(&mut rng, t_total * sensors);
        let w = Matrix::from_vec(t_total, sensors, data).unwrap();
        prop_assert_eq!(
            enc.encode_counts(&w).unwrap(),
            enc.encode_counts_reference(&w).unwrap()
        );
    }

    #[test]
    fn sliding_swar_encode_matches_reference_on_degenerate_windows(
        seed in any::<u64>(),
        dim in 1usize..150,
        ngram in 1usize..=4,
    ) {
        let cfg = EncoderConfig { dim, sensors: 2, ngram, ..EncoderConfig::default() };
        let enc = PackedNgramEncoder::new(cfg).unwrap();
        let t_total = ngram + 9;

        // Constant windows (zero span → mid-grid codeword everywhere).
        let constant = Matrix::filled(t_total, 2, 2.5);
        prop_assert_eq!(
            enc.encode_counts(&constant).unwrap(),
            enc.encode_counts_reference(&constant).unwrap()
        );

        // NaN-poisoned windows (non-finite samples snap mid-grid).
        let mut rng = init::rng(seed);
        let data = init::normal_vec(&mut rng, t_total * 2);
        let mut w = Matrix::from_vec(t_total, 2, data).unwrap();
        w.set((seed as usize) % t_total, (seed as usize) % 2, f32::NAN);
        w.set((seed as usize / 7) % t_total, (seed as usize / 3) % 2, f32::INFINITY);
        prop_assert_eq!(
            enc.encode_counts(&w).unwrap(),
            enc.encode_counts_reference(&w).unwrap()
        );
    }

    #[test]
    fn scratch_encode_window_matches_allocating_encode(
        seed in any::<u64>(),
        dim in 1usize..300,
    ) {
        // encode_window_into through a reused scratch ≡ fresh encode_window.
        let cfg = EncoderConfig { dim, sensors: 2, ..EncoderConfig::default() };
        let enc = PackedNgramEncoder::new(cfg).unwrap();
        let mut scratch = EncoderScratch::new();
        let mut out = PackedHypervector::zeros(dim);
        let mut rng = init::rng(seed);
        for _ in 0..3 {
            let data = init::normal_vec(&mut rng, 24);
            let w = Matrix::from_vec(12, 2, data).unwrap();
            enc.encode_window_into(&w, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(&out, &enc.encode_window(&w).unwrap());
        }
    }
}
