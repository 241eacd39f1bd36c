//! Golden accuracy regression tests: pin the reproduction's headline LODO
//! numbers with fixed seeds so refactors cannot silently regress them.
//!
//! Two tiers:
//!
//! - [`tiny_preset_mean_lodo_is_pinned`] runs on every `cargo test`: a
//!   small fixed-seed USC-HAD-like instance whose dense/quantized mean
//!   LODO accuracies are pinned with a coarse band — a fast canary.
//! - [`fast_preset_mean_lodo_matches_paper_band`] is the full golden: the
//!   fast benchmark preset at `d = 4096`, the configuration behind the
//!   README's 82.5% (dense) / 82.3% (quantized) numbers, pinned at ±0.02.
//!   It needs optimized code (~2 min in release, far longer unoptimized),
//!   so it is `#[ignore]`d by default and run by CI as
//!   `cargo test --release --test golden_accuracy -- --include-ignored`.
//!
//! Everything here is deterministic: fixed dataset seeds, fixed model
//! seeds, no time- or thread-order-dependent state. A band violation means
//! a code change moved the numbers — recalibrate deliberately or fix the
//! regression.

use smore::{Predictor, Smore, SmoreConfig};
use smore_data::presets::{self, PresetProfile};
use smore_data::split;

/// Mean LODO accuracy of the dense and quantized paths over every fold,
/// sharing one fit per fold.
fn mean_lodo(ds: &smore_data::Dataset, dim: usize, epochs: usize) -> (f32, f32) {
    let mut dense_sum = 0.0f32;
    let mut quant_sum = 0.0f32;
    for held in 0..ds.meta().num_domains {
        let (train, test) = split::lodo(ds, held).unwrap();
        let mut model = Smore::new(
            SmoreConfig::builder()
                .dim(dim)
                .channels(ds.meta().channels)
                .num_classes(ds.meta().num_classes)
                .epochs(epochs)
                .build()
                .unwrap(),
        )
        .unwrap();
        model.fit_indices(ds, &train).unwrap();
        let quantized = model.quantize().unwrap();
        let (w, l, _) = ds.gather(&test);
        dense_sum += model.evaluate(&w, &l).unwrap().accuracy;
        quant_sum += quantized.evaluate(&w, &l).unwrap().accuracy;
    }
    let k = ds.meta().num_domains as f32;
    (dense_sum / k, quant_sum / k)
}

#[test]
fn tiny_preset_mean_lodo_is_pinned() {
    // Measured at the pinned seeds: dense 0.8349, quantized 0.8111. The
    // ±0.05 band allows benign numerical refactors while catching real
    // regressions (the seed bug fixed in PR 1 moved this by ~0.10).
    let mut profile = PresetProfile::tiny();
    profile.scale = 0.02;
    let ds = presets::usc_had(&profile).unwrap();
    let (dense, quantized) = mean_lodo(&ds, 1024, 10);
    assert!(
        (dense - 0.835).abs() <= 0.05,
        "tiny-preset dense mean LODO {dense:.4} left the golden band 0.835 ± 0.05"
    );
    assert!(
        (quantized - 0.811).abs() <= 0.05,
        "tiny-preset quantized mean LODO {quantized:.4} left the golden band 0.811 ± 0.05"
    );
    assert!(
        quantized >= dense - 0.05,
        "quantization cost blew up: dense {dense:.4} vs quantized {quantized:.4}"
    );
}

#[test]
#[ignore = "release-scale golden (~2 min optimized); CI runs it via --include-ignored"]
fn fast_preset_mean_lodo_matches_paper_band() {
    // The headline numbers: fast benchmark preset (10% Table 1 budgets,
    // 4× downsampling), d = 4096, calibrated defaults. Measured: dense
    // 0.825, quantized 0.823 — the ±0.02 band is the repo's accuracy
    // contract for both serving paths.
    let ds = presets::usc_had(&PresetProfile::fast()).unwrap();
    let (dense, quantized) = mean_lodo(&ds, 4096, 20);
    assert!(
        (dense - 0.825).abs() <= 0.02,
        "fast-preset dense mean LODO {dense:.4} left the golden band 0.825 ± 0.02"
    );
    assert!(
        (quantized - 0.823).abs() <= 0.02,
        "fast-preset quantized mean LODO {quantized:.4} left the golden band 0.823 ± 0.02"
    );
    assert!(
        quantized >= dense - 0.02,
        "quantized serving must stay within 0.02 of dense: {quantized:.4} vs {dense:.4}"
    );
}
