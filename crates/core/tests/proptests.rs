//! Property-based tests for SMORE's model-level invariants.

use std::sync::OnceLock;

use proptest::prelude::*;
use smore::ood::OodDetector;
use smore::quantized::recover_cosine;
use smore::test_time::{ensemble_weights, ensemble_weights_powered};
use smore::{Centerer, Predictor, QuantizedSmore, Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::split;
use smore_tensor::{init, Matrix};

/// A fitted dense model + its quantized twin, built once: proptest cases
/// only pay for prediction, not training.
fn quantized_fixture() -> &'static (smore_data::Dataset, Smore, QuantizedSmore) {
    static FIXTURE: OnceLock<(smore_data::Dataset, Smore, QuantizedSmore)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = generate(&GeneratorConfig {
            name: "quantized-prop".into(),
            num_classes: 4,
            channels: 3,
            window_len: 24,
            sample_rate_hz: 25.0,
            domains: vec![
                DomainSpec { subjects: vec![0, 1], windows: 60 },
                DomainSpec { subjects: vec![2, 3], windows: 60 },
                DomainSpec { subjects: vec![4, 5], windows: 60 },
            ],
            shift_severity: 0.8,
            seed: 41,
        })
        .unwrap();
        let mut model = Smore::new(
            SmoreConfig::builder()
                .dim(2048)
                .channels(3)
                .num_classes(4)
                .epochs(10)
                .threads(2)
                .build()
                .unwrap(),
        )
        .unwrap();
        let all: Vec<usize> = (0..ds.len()).collect();
        model.fit_indices(&ds, &all).unwrap();
        let quantized = model.quantize().unwrap();
        (ds, model, quantized)
    })
}

/// A dataset window perturbed by a gain factor and additive noise — still
/// sensor-shaped, but never seen verbatim by training.
fn perturbed_window(ds: &smore_data::Dataset, index: usize, gain: f32, noise_seed: u64) -> Matrix {
    let mut rng = init::rng(noise_seed);
    let base = ds.window(index % ds.len());
    let noise = init::normal_matrix(&mut rng, base.rows(), base.cols());
    let mut w = base.scale(gain);
    w.axpy(0.05, &noise).unwrap();
    w
}

fn sims(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0f32..1.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ood_decision_is_consistent(s in sims(5), delta_star in -1.0f32..1.0) {
        let decision = OodDetector::new(delta_star).detect(&s);
        // δ_max is the max of the (finite) similarities.
        let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!((decision.delta_max - max).abs() < 1e-6);
        prop_assert_eq!(decision.is_ood, max < delta_star);
        prop_assert!((decision.similarities[decision.best_domain] - max).abs() < 1e-6);
    }

    #[test]
    fn ensemble_weights_are_nonnegative_and_zero_only_when_filtered(
        s in sims(6),
        delta_star in -1.0f32..1.0,
        ood in prop::bool::ANY,
    ) {
        let w = ensemble_weights(&s, ood, delta_star);
        prop_assert_eq!(w.len(), s.len());
        prop_assert!(w.iter().all(|&x| x >= 0.0));
        if ood {
            // OOD: every positive similarity contributes.
            for (wi, &si) in w.iter().zip(&s) {
                prop_assert_eq!(*wi, si.max(0.0));
            }
        }
        // Never all-zero when some similarity is positive.
        if s.iter().any(|&x| x > 0.0) {
            prop_assert!(w.iter().any(|&x| x > 0.0));
        }
    }

    #[test]
    fn powered_weights_preserve_ranking(s in sims(4), power in 1.0f32..8.0) {
        let w = ensemble_weights_powered(&s, true, 0.0, power);
        for i in 0..s.len() {
            for j in 0..s.len() {
                if s[i].max(0.0) > s[j].max(0.0) {
                    prop_assert!(w[i] >= w[j], "sharpening must not reorder domains");
                }
            }
        }
    }

    #[test]
    fn centerer_output_rows_are_unit_or_zero(rows in 2usize..10, seed in any::<u64>()) {
        let m = init::normal_matrix(&mut init::rng(seed), rows, 32);
        let centerer = Centerer::fit(&m).unwrap();
        let mut z = m.clone();
        centerer.apply(&mut z);
        for i in 0..rows {
            let n = smore_tensor::vecops::norm(z.row(i));
            prop_assert!(n < 1e-6 || (n - 1.0).abs() < 1e-4, "row norm {n}");
        }
    }
}

// Heavier end-to-end properties run with few cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn smore_predictions_always_in_label_range(seed in 0u64..1000) {
        let ds = generate(&GeneratorConfig {
            name: "prop".into(),
            num_classes: 3,
            channels: 2,
            window_len: 12,
            sample_rate_hz: 20.0,
            domains: vec![
                DomainSpec { subjects: vec![0], windows: 18 },
                DomainSpec { subjects: vec![1], windows: 18 },
                DomainSpec { subjects: vec![2], windows: 18 },
            ],
            shift_severity: 1.5,
            seed,
        })
        .unwrap();
        let (train, test) = split::lodo(&ds, 2).unwrap();
        let mut model = Smore::new(
            SmoreConfig::builder().dim(256).channels(2).num_classes(3).epochs(3).build().unwrap(),
        )
        .unwrap();
        model.fit_indices(&ds, &train).unwrap();
        let (w, _, _) = ds.gather(&test);
        for p in model.predict_batch(&w).unwrap() {
            prop_assert!(p.label < 3);
            prop_assert!(p.domain_similarities.len() == 2);
            prop_assert!((-1.0..=1.0).contains(&p.delta_max));
            prop_assert!(p.best_domain == 0 || p.best_domain == 1);
        }
    }

    #[test]
    fn delta_star_monotonically_increases_ood_fraction(seed in 0u64..100) {
        let ds = generate(&GeneratorConfig {
            name: "prop2".into(),
            num_classes: 2,
            channels: 2,
            window_len: 12,
            sample_rate_hz: 20.0,
            domains: vec![
                DomainSpec { subjects: vec![0], windows: 16 },
                DomainSpec { subjects: vec![1], windows: 16 },
                DomainSpec { subjects: vec![2], windows: 16 },
            ],
            shift_severity: 1.0,
            seed,
        })
        .unwrap();
        let (train, test) = split::lodo(&ds, 0).unwrap();
        let mut model = Smore::new(
            SmoreConfig::builder().dim(256).channels(2).num_classes(2).epochs(3).build().unwrap(),
        )
        .unwrap();
        model.fit_indices(&ds, &train).unwrap();
        let (w, l, _) = ds.gather(&test);
        let mut last = 0.0f32;
        for delta in [-1.0f32, 0.0, 0.5, 1.0] {
            model.set_delta_star(delta).unwrap();
            let eval = model.evaluate(&w, &l).unwrap();
            prop_assert!(
                eval.ood_fraction >= last - 1e-6,
                "raising δ* must not reduce the OOD fraction"
            );
            last = eval.ood_fraction;
        }
    }

    #[test]
    fn quantized_scores_stay_finite_on_perturbed_windows(
        index in 0usize..180,
        gain in 0.25f32..2.0,
        noise_seed in any::<u64>(),
    ) {
        // Gram-normalised popcount scoring must never emit NaN/∞, whatever
        // sensor-shaped input arrives.
        let (ds, _, quantized) = quantized_fixture();
        let w = perturbed_window(ds, index, gain, noise_seed);
        let p = quantized.predict_window(&w).unwrap();
        prop_assert!(p.label < 4);
        prop_assert!(p.delta_max.is_finite());
        prop_assert!((-1.0..=1.0).contains(&p.delta_max), "recovered δ_max {}", p.delta_max);
        prop_assert_eq!(p.domain_similarities.len(), 3);
        for &s in &p.domain_similarities {
            prop_assert!(s.is_finite() && (-1.0..=1.0).contains(&s), "similarity {}", s);
        }
    }

    #[test]
    fn matrix_windows_roundtrip_through_dataset(seed in any::<u64>()) {
        let ds = generate(&GeneratorConfig {
            name: "prop3".into(),
            num_classes: 2,
            channels: 3,
            window_len: 8,
            sample_rate_hz: 10.0,
            domains: vec![
                DomainSpec { subjects: vec![0], windows: 6 },
                DomainSpec { subjects: vec![1], windows: 6 },
            ],
            shift_severity: 0.5,
            seed,
        })
        .unwrap();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let (w, l, d) = ds.gather(&idx);
        prop_assert_eq!(w.len(), ds.len());
        for i in 0..ds.len() {
            prop_assert_eq!(&w[i], ds.window(i));
            prop_assert_eq!(l[i], ds.label(i));
            prop_assert_eq!(d[i], ds.domain(i));
        }
        let _ = Matrix::zeros(1, 1);
    }
}

// `recover_cosine` invariants (the sin(π/2·s) sign-distortion inverse the
// quantized serving path leans on).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recover_cosine_is_bounded(s in -3.0f32..3.0) {
        let r = recover_cosine(s);
        prop_assert!((-1.0..=1.0).contains(&r), "recover_cosine({s}) = {r}");
    }

    #[test]
    fn recover_cosine_is_monotone(a in -1.5f32..1.5, b in -1.5f32..1.5) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            recover_cosine(lo) <= recover_cosine(hi) + 1e-6,
            "recover_cosine must be non-decreasing: f({lo}) > f({hi})"
        );
    }

    #[test]
    fn recover_cosine_fixes_sign_and_endpoints(s in 0.0f32..1.0) {
        // Odd map: f(-s) = -f(s); expansion on (0, 1): f(s) ≥ s.
        prop_assert!((recover_cosine(-s) + recover_cosine(s)).abs() < 1e-6);
        prop_assert!(recover_cosine(s) >= s - 1e-6);
    }
}

// Dense/quantized agreement — a handful of cases, each scoring a batch.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn quantized_predictions_agree_with_dense_on_random_windows(
        gain in 0.7f32..1.4,
        noise_seed in any::<u64>(),
        offset in 0usize..60,
    ) {
        let (ds, dense, quantized) = quantized_fixture();
        let windows: Vec<Matrix> = (0..40)
            .map(|i| perturbed_window(ds, offset + i * 4, gain, noise_seed.wrapping_add(i as u64)))
            .collect();
        let dp = dense.predict_batch(&windows).unwrap();
        let qp = quantized.predict_batch(&windows).unwrap();
        let agree = dp.iter().zip(&qp).filter(|(a, b)| a.label == b.label).count();
        prop_assert!(
            agree as f32 / windows.len() as f32 >= 0.9,
            "quantized agreed with dense on only {agree}/{} random windows",
            windows.len()
        );
    }
}
