//! Operation profiles of every algorithm in the evaluation.
//!
//! Each function counts the dominant floating-point work and memory
//! traffic of one phase of one algorithm, parameterised by the workload
//! shape. A multiply-accumulate counts as 2 FLOPs; traffic assumes
//! streaming access with `f32` elements.

use crate::OpProfile;

const F32: f64 = 4.0;

/// Relative kernel efficiency of HDC streaming loops (long contiguous
/// vector multiply-adds vectorise nearly perfectly).
pub const HDC_EFFICIENCY: f64 = 2.0;
/// Relative kernel efficiency of training-style passes (strided backward
/// access, optimizer state updates) — also what TENT runs per test batch.
pub const TRAIN_EFFICIENCY: f64 = 0.6;

/// Relative kernel efficiency of bit-packed binary loops: wide integer
/// word operations (XOR, popcount, counter adds) sustain the same
/// near-perfect vectorisation as the dense HDC streaming loops.
pub const PACKED_EFFICIENCY: f64 = 2.0;

/// Dimensions carried per machine word by the bit-packed backend.
const WORD_DIMS: f64 = 64.0;

/// Residual sign planes per class hypervector in the quantized serving
/// path (mirrors `CLASS_PLANES` in `smore::QuantizedSmore`): each ensemble
/// class dot costs one popcount sweep per plane, and class parameters
/// stream at `CLASS_PLANES` bits per dimension.
const CLASS_PLANES: f64 = 3.0;

/// Bit-packed HDC encoding of `n` windows (`smore_packed`): per window,
/// per channel, per time step — a codebook lookup (free), `ngram − 1`
/// rotate+XOR word sweeps (4 word-ops per word each) and the integer
/// counter bundling (2 ops/dim: bit extract + add); then the signature
/// sign-merge (2 ops/dim per channel) and the centring threshold
/// (3 ops/dim per window, including the accumulator norm).
pub fn packed_encode(
    n: usize,
    time: usize,
    channels: usize,
    dim: usize,
    ngram: usize,
) -> OpProfile {
    let words = dim as f64 / WORD_DIMS;
    let per_step = 2.0 * dim as f64 + 4.0 * (ngram as f64 - 1.0) * words;
    let per_channel = time as f64 * per_step + 2.0 * dim as f64;
    let ops = n as f64 * (channels as f64 * per_channel + 3.0 * dim as f64);
    // Traffic: packed codebooks stay cache-resident; per window the raw
    // samples stream in, the i32 counter vector streams through once and
    // a packed (dim/8-byte) hypervector streams out.
    let bytes = n as f64 * ((time * channels) as f64 * F32 + dim as f64 * F32 + dim as f64 / 8.0);
    OpProfile::new(ops, bytes).with_efficiency(PACKED_EFFICIENCY)
}

/// Quantized SMORE inference on `n` queries (Algorithm 1 entirely on
/// packed operations): packed encode, `K` descriptor XOR+popcount
/// similarities (2 word-ops per word), `K × classes` residual-plane
/// popcount dots for the per-query test-time ensemble (one sweep per
/// `CLASS_PLANES` plane) and the tiny `K²·classes` Gram epilogue — the
/// word-level arithmetic behind the quantized serving savings.
pub fn packed_smore_infer(
    n: usize,
    time: usize,
    channels: usize,
    dim: usize,
    ngram: usize,
    domains: usize,
    classes: usize,
) -> OpProfile {
    let encode = packed_encode(n, time, channels, dim, ngram);
    let words = dim as f64 / WORD_DIMS;
    let descriptor = 2.0 * words * domains as f64;
    let ensemble = 2.0 * words * domains as f64 * classes as f64 * CLASS_PLANES;
    let epilogue = (domains * domains * classes) as f64;
    let per_query = descriptor + ensemble + epilogue;
    // Descriptors and the query stream at one bit per dimension; class
    // parameters at CLASS_PLANES bits.
    let bytes_per_query =
        (domains as f64 + (domains * classes) as f64 * CLASS_PLANES + 1.0) * dim as f64 / 8.0;
    encode
        + OpProfile::new(n as f64 * per_query, n as f64 * bytes_per_query)
            .with_efficiency(PACKED_EFFICIENCY)
}

/// HDC multi-sensor encoding of `n` windows (paper §3.3): per window, per
/// channel, per time step — one quantiser interpolation (2 FLOPs/dim) and
/// `ngram` shifted multiplies plus the bundle add (ngram + 1 FLOPs/dim),
/// then the signature bind-and-accumulate (2 FLOPs/dim per channel).
pub fn hdc_encode(n: usize, time: usize, channels: usize, dim: usize, ngram: usize) -> OpProfile {
    let per_step = (2.0 + ngram as f64 + 1.0) * dim as f64;
    let per_channel = time as f64 * per_step + 2.0 * dim as f64;
    let flops = n as f64 * channels as f64 * per_channel;
    // DRAM traffic: codebook anchors and ring buffers stay cache-resident
    // (tens of KB), so per window only the raw samples stream in and the
    // final hypervector streams out.
    let bytes = n as f64 * (2.0 * dim as f64 + (time * channels) as f64) * F32;
    OpProfile::new(flops, bytes).with_efficiency(HDC_EFFICIENCY)
}

/// Adaptive HDC classifier training (Eq. 1–2): one bootstrap pass plus
/// `epochs` corrective passes; each pass scores every sample against all
/// classes (2 FLOPs/dim/class) and updates two class vectors on a mistake
/// (counted at the observed mistake rate, conservatively 0.3).
pub fn hdc_train(n: usize, dim: usize, classes: usize, epochs: usize) -> OpProfile {
    let score = 2.0 * dim as f64 * classes as f64;
    let update = 2.0 * 2.0 * dim as f64;
    let per_pass = n as f64 * (score + 0.3 * update);
    let passes = 1.0 + epochs as f64;
    OpProfile::new(per_pass * passes, per_pass * passes / 2.0 * F32).with_efficiency(HDC_EFFICIENCY)
}

/// SMORE inference on `n` queries (Algorithm 1): encode, `K` descriptor
/// similarities, the weighted test-time ensemble (`K × classes` vector
/// scaled adds) and `classes` final similarities.
pub fn smore_infer(
    n: usize,
    time: usize,
    channels: usize,
    dim: usize,
    ngram: usize,
    domains: usize,
    classes: usize,
) -> OpProfile {
    let encode = hdc_encode(n, time, channels, dim, ngram);
    let descriptor = 2.0 * dim as f64 * domains as f64;
    let ensemble = 2.0 * dim as f64 * domains as f64 * classes as f64;
    let scoring = 2.0 * dim as f64 * classes as f64;
    let per_query = descriptor + ensemble + scoring;
    encode
        + OpProfile::new(n as f64 * per_query, n as f64 * per_query / 2.0 * F32)
            .with_efficiency(HDC_EFFICIENCY)
}

/// BaselineHD inference on `n` queries: random projection
/// (`features × dim` MACs), the nonlinearity and `classes` similarities.
pub fn baseline_hd_infer(n: usize, features: usize, dim: usize, classes: usize) -> OpProfile {
    let project = 2.0 * features as f64 * dim as f64;
    let nonlinearity = 4.0 * dim as f64;
    let scoring = 2.0 * dim as f64 * classes as f64;
    let per_query = project + nonlinearity + scoring;
    OpProfile::new(n as f64 * per_query, n as f64 * (features as f64 + dim as f64) * F32)
        .with_efficiency(HDC_EFFICIENCY)
}

/// DOMINO training: `rounds + 1` rounds of full re-encode + global train +
/// per-domain trains — the cost structure behind its slow training.
#[allow(clippy::too_many_arguments)]
pub fn domino_train(
    n: usize,
    time: usize,
    channels: usize,
    dim: usize,
    ngram: usize,
    domains: usize,
    classes: usize,
    epochs: usize,
    rounds: usize,
) -> OpProfile {
    let per_round = hdc_encode(n, time, channels, dim, ngram)
        + hdc_train(n, dim, classes, epochs)
        + hdc_train(n / domains.max(1), dim, classes, epochs).scaled(domains as f64);
    per_round.scaled((rounds + 1) as f64)
}

/// One CNN forward pass over `n` windows of the backbone used by the DNN
/// baselines (two conv blocks + BN + pooling + dense head).
#[allow(clippy::too_many_arguments)]
pub fn cnn_forward(
    n: usize,
    time: usize,
    channels: usize,
    conv1: usize,
    conv2: usize,
    kernel: usize,
    feature_width: usize,
    classes: usize,
) -> OpProfile {
    let t1 = time.saturating_sub(kernel - 1).max(1);
    let t2 = t1.saturating_sub(kernel - 1).max(1);
    let conv1_flops = 2.0 * t1 as f64 * conv1 as f64 * kernel as f64 * channels as f64;
    let conv2_flops = 2.0 * t2 as f64 * conv2 as f64 * kernel as f64 * conv1 as f64;
    let bn_relu = 6.0 * (t1 as f64 * conv1 as f64 + t2 as f64 * conv2 as f64);
    let pool = t2 as f64 * conv2 as f64;
    let dense = 2.0 * (conv2 as f64 * feature_width as f64 + feature_width as f64 * classes as f64);
    let per_window = conv1_flops + conv2_flops + bn_relu + pool + dense;
    OpProfile::new(n as f64 * per_window, n as f64 * per_window / 4.0 * F32)
}

/// CNN supervised training: `epochs` passes of forward + backward
/// (backward ≈ 2× forward).
#[allow(clippy::too_many_arguments)]
pub fn cnn_train(
    n: usize,
    time: usize,
    channels: usize,
    conv1: usize,
    conv2: usize,
    kernel: usize,
    feature_width: usize,
    classes: usize,
    epochs: usize,
) -> OpProfile {
    cnn_forward(n, time, channels, conv1, conv2, kernel, feature_width, classes)
        .scaled(3.0 * epochs as f64)
        .with_efficiency(TRAIN_EFFICIENCY)
}

/// TENT inference: per test batch, `steps` entropy-minimisation iterations
/// (forward + backward ≈ 3× forward) plus the final forward — the
/// multiplicative overhead visible in the paper's Figure 6.
#[allow(clippy::too_many_arguments)]
pub fn tent_infer(
    n: usize,
    time: usize,
    channels: usize,
    conv1: usize,
    conv2: usize,
    kernel: usize,
    feature_width: usize,
    classes: usize,
    steps: usize,
) -> OpProfile {
    cnn_forward(n, time, channels, conv1, conv2, kernel, feature_width, classes)
        .scaled(3.0 * steps as f64 + 1.0)
        .with_efficiency(TRAIN_EFFICIENCY)
}

/// MDANs training: the supervised pass plus one adversarial pass per
/// source domain per epoch (discriminators are small; the feature
/// extractor dominates, hence ≈ `1 + domains/2` forward+backward sets).
#[allow(clippy::too_many_arguments)]
pub fn mdan_train(
    n: usize,
    time: usize,
    channels: usize,
    conv1: usize,
    conv2: usize,
    kernel: usize,
    feature_width: usize,
    classes: usize,
    epochs: usize,
    domains: usize,
) -> OpProfile {
    let supervised =
        cnn_train(n, time, channels, conv1, conv2, kernel, feature_width, classes, epochs);
    supervised.scaled(1.0 + domains as f64 * 0.5)
}

/// MDANs inference: a single plain forward pass.
#[allow(clippy::too_many_arguments)]
pub fn mdan_infer(
    n: usize,
    time: usize,
    channels: usize,
    conv1: usize,
    conv2: usize,
    kernel: usize,
    feature_width: usize,
    classes: usize,
) -> OpProfile {
    cnn_forward(n, time, channels, conv1, conv2, kernel, feature_width, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const USC: (usize, usize) = (126, 6); // time, channels

    #[test]
    fn encode_scales_linearly_in_batch_and_dim() {
        let one = hdc_encode(1, USC.0, USC.1, 8192, 3);
        let ten = hdc_encode(10, USC.0, USC.1, 8192, 3);
        assert!((ten.flops / one.flops - 10.0).abs() < 1e-9);
        let half_dim = hdc_encode(1, USC.0, USC.1, 4096, 3);
        assert!((one.flops / half_dim.flops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn smore_inference_is_encode_dominated() {
        let total = smore_infer(1, USC.0, USC.1, 8192, 3, 4, 12);
        let encode = hdc_encode(1, USC.0, USC.1, 8192, 3);
        assert!(encode.flops > 0.5 * total.flops, "encoding dominates SMORE inference");
        assert!(total.flops > encode.flops);
    }

    #[test]
    fn tent_pays_multiplicative_adaptation_overhead() {
        let plain = mdan_infer(1, USC.0, USC.1, 16, 32, 5, 64, 12);
        let tent = tent_infer(1, USC.0, USC.1, 16, 32, 5, 64, 12, 10);
        let ratio = tent.flops / plain.flops;
        assert!((ratio - 31.0).abs() < 1e-6, "10 steps => 31x forward cost, got {ratio}");
    }

    #[test]
    fn domino_training_exceeds_plain_hdc_training() {
        let plain = hdc_encode(100, USC.0, USC.1, 1024, 3).plus(hdc_train(100, 1024, 12, 10));
        let domino = domino_train(100, USC.0, USC.1, 1024, 3, 4, 12, 10, 14);
        assert!(
            domino.flops > 10.0 * plain.flops,
            "14 regeneration rounds re-encode every time: {} vs {}",
            domino.flops,
            plain.flops
        );
    }

    #[test]
    fn paper_shape_hdc_beats_cnn_da_on_edge_inference() {
        // Figure 6b's qualitative claim: on a Raspberry Pi, SMORE inference
        // is an order of magnitude cheaper than TENT/MDANs once TENT's
        // adaptation steps are priced in.
        let pi = crate::device::raspberry_pi_3b();
        let n = 100;
        let smore = crate::roofline_latency(&smore_infer(n, USC.0, USC.1, 8192, 3, 4, 12), &pi);
        let tent =
            crate::roofline_latency(&tent_infer(n, USC.0, USC.1, 16, 32, 5, 64, 12, 10), &pi);
        assert!(tent > smore, "TENT ({tent:.3}s) should be slower than SMORE ({smore:.3}s)");
    }

    #[test]
    fn packed_encode_is_cheaper_than_dense_encode() {
        let dense = hdc_encode(100, USC.0, USC.1, 8192, 3);
        let packed = packed_encode(100, USC.0, USC.1, 8192, 3);
        assert!(
            packed.flops < 0.5 * dense.flops,
            "packed encode {} should be well under dense {}",
            packed.flops,
            dense.flops
        );
        assert!(packed.bytes < dense.bytes);
    }

    #[test]
    fn packed_similarity_scoring_is_an_order_of_magnitude_cheaper() {
        // Isolate the post-encode scoring work (descriptors + ensemble):
        // word-level popcounts must undercut the dense f32 kernels by far
        // more than the ≥5× acceptance bar.
        let n = 100;
        let dense_score = smore_infer(n, USC.0, USC.1, 8192, 3, 4, 12).flops
            - hdc_encode(n, USC.0, USC.1, 8192, 3).flops;
        let packed_score = packed_smore_infer(n, USC.0, USC.1, 8192, 3, 4, 12).flops
            - packed_encode(n, USC.0, USC.1, 8192, 3).flops;
        let ratio = dense_score / packed_score;
        assert!(ratio > 5.0, "packed scoring speedup {ratio:.1}x below the 5x bar");
    }

    #[test]
    fn packed_inference_wins_the_edge_roofline() {
        // The fig6b-style claim: on a Raspberry Pi the quantized serving
        // path is strictly faster than dense SMORE inference.
        let pi = crate::device::raspberry_pi_3b();
        let n = 100;
        let dense = crate::roofline_latency(&smore_infer(n, USC.0, USC.1, 8192, 3, 4, 12), &pi);
        let packed =
            crate::roofline_latency(&packed_smore_infer(n, USC.0, USC.1, 8192, 3, 4, 12), &pi);
        assert!(packed < dense, "packed {packed:.4}s should beat dense {dense:.4}s");
    }

    #[test]
    fn cnn_training_cost_grows_with_epochs() {
        let e5 = cnn_train(50, USC.0, USC.1, 16, 32, 5, 64, 12, 5);
        let e10 = cnn_train(50, USC.0, USC.1, 16, 32, 5, 64, 12, 10);
        assert!((e10.flops / e5.flops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mdan_training_scales_with_domains() {
        let d2 = mdan_train(50, USC.0, USC.1, 16, 32, 5, 64, 12, 5, 2);
        let d4 = mdan_train(50, USC.0, USC.1, 16, 32, 5, 64, 12, 5, 4);
        assert!(d4.flops > d2.flops);
    }

    #[test]
    fn baseline_hd_inference_cheaper_than_smore() {
        // The projection encoder is one matmul: cheaper than the structured
        // temporal encoder at the same dimensionality.
        let b = baseline_hd_infer(10, USC.0 * USC.1, 8192, 12);
        let s = smore_infer(10, USC.0, USC.1, 8192, 3, 4, 12);
        assert!(b.flops < s.flops);
    }
}
