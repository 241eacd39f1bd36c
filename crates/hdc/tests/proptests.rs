//! Property-based tests for the HDC substrate invariants (paper §3.1), and
//! oracles for the fast paths: the classifier's blocked, norm-cached
//! trainer and scorer against a per-class `vecops` reference, the
//! in-place batch encoder against `encode_window`, and the level memory's
//! one-select codebook against a stored `LevelFlip` ladder.

use proptest::prelude::*;
use rand::Rng;
use smore_hdc::encoder::{EncoderConfig, MultiSensorEncoder};
use smore_hdc::memory::{LevelMemory, Quantization};
use smore_hdc::model::{FitReport, HdcClassifier, HdcClassifierConfig};
use smore_hdc::{HdcError, Hypervector};
use smore_tensor::{init, vecops, Matrix};

fn bipolar_hv(seed: u64, dim: usize) -> Hypervector {
    Hypervector::from_vec(init::bipolar_vec(&mut init::rng(seed), dim))
}

/// Per-class cosine scores, one `vecops::cosine` call per class.
fn reference_scores(class_hvs: &Matrix, x: &[f32]) -> Vec<f32> {
    class_hvs.iter_rows().map(|c| vecops::cosine(x, c)).collect()
}

fn reference_predict(class_hvs: &Matrix, x: &[f32]) -> usize {
    vecops::argmax(&reference_scores(class_hvs, x)).unwrap_or(0)
}

/// `HdcClassifier::fit` written out plainly on `vecops::cosine` and
/// `vecops::axpy`: a bootstrap pass, then corrective epochs (Eq. 1–2)
/// each followed by a per-sample accuracy pass, stopping after an epoch
/// with no update.
fn reference_fit(
    class_hvs: &mut Matrix,
    samples: &Matrix,
    labels: &[usize],
    lr: f32,
    epochs: usize,
) -> FitReport {
    for (x, &label) in samples.iter_rows().zip(labels) {
        let w = 1.0 - vecops::cosine(x, class_hvs.row(label));
        vecops::axpy(w, x, class_hvs.row_mut(label));
    }
    let mut report = FitReport::default();
    for _ in 0..epochs {
        let mut updates = 0;
        for (x, &label) in samples.iter_rows().zip(labels) {
            let scores = reference_scores(class_hvs, x);
            let predicted = vecops::argmax(&scores).unwrap_or(0);
            if predicted == label {
                continue;
            }
            let w_true = lr * (1.0 - scores[label]);
            let w_pred = lr * (1.0 - scores[predicted]);
            vecops::axpy(w_true, x, class_hvs.row_mut(label));
            vecops::axpy(-w_pred, x, class_hvs.row_mut(predicted));
            updates += 1;
        }
        report.epochs_run += 1;
        report.updates_per_epoch.push(updates);
        let correct = samples
            .iter_rows()
            .zip(labels)
            .filter(|&(x, &l)| reference_predict(class_hvs, x) == l)
            .count();
        report.train_accuracy.push(correct as f32 / labels.len() as f32);
        if updates == 0 {
            break;
        }
    }
    report
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A training problem: `n` noisy samples of `classes` random prototypes
/// under random labels, row 0 all zero and the last row a copy of the first
/// non-zero one; and a start model, zero or seeded (seeded with one
/// all-zero class row when there are two classes or more).
fn problem(
    seed: u64,
    dim: usize,
    classes: usize,
    n: usize,
    seeded: bool,
) -> (Matrix, Vec<usize>, Matrix) {
    let mut rng = init::rng(seed);
    let protos = init::bipolar_matrix(&mut rng, classes, dim);
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    let noise = init::normal_matrix(&mut rng, n, dim);
    let mut samples =
        Matrix::from_fn(n, dim, |i, j| protos.get(labels[i], j) + 1.5 * noise.get(i, j));
    samples.row_mut(0).fill(0.0);
    if n >= 3 {
        let copy = samples.row(1).to_vec();
        samples.row_mut(n - 1).copy_from_slice(&copy);
    }
    let mut start = Matrix::zeros(classes, dim);
    if seeded {
        start = init::normal_matrix(&mut rng, classes, dim);
        if classes >= 2 {
            start.row_mut(classes - 1).fill(0.0);
        }
    }
    (samples, labels, start)
}

/// Trains `HdcClassifier::fit` and the reference from the same start and
/// checks the trained bits, the report, and every scoring entry point.
fn check_trainer(
    seed: u64,
    dim: usize,
    classes: usize,
    n: usize,
    lr: f32,
    epochs: usize,
    seeded: bool,
) -> Result<(), TestCaseError> {
    let (samples, labels, start) = problem(seed, dim, classes, n, seeded);
    let mut model = HdcClassifier::from_class_hypervectors_with(start.clone(), lr, epochs).unwrap();
    let report = model.fit(&samples, &labels).unwrap();
    let mut expected = start;
    let expected_report = reference_fit(&mut expected, &samples, &labels, lr, epochs);
    prop_assert_eq!(bits(model.class_hypervectors()), bits(&expected));
    prop_assert_eq!(&report, &expected_report);

    // A query batch that is not the training set, with a zero row.
    let mut queries = init::normal_matrix(&mut init::rng(seed ^ 1), n, dim);
    queries.row_mut(n / 2).fill(0.0);
    let want: Vec<usize> = queries.iter_rows().map(|q| reference_predict(&expected, q)).collect();
    for (q, &w) in queries.iter_rows().zip(&want) {
        let got: Vec<u32> = model.scores(q).unwrap().iter().map(|s| s.to_bits()).collect();
        let reference: Vec<u32> =
            reference_scores(&expected, q).iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(got, reference);
        prop_assert_eq!(model.predict_one(q).unwrap(), w);
    }
    for threads in [1, 3] {
        prop_assert_eq!(&model.predict_batch(&queries, threads).unwrap(), &want);
    }
    Ok(())
}

fn window(rng: &mut impl Rng, steps: usize, sensors: usize) -> Matrix {
    Matrix::from_fn(steps, sensors, |_, _| rng.gen_range(-2.0f32..2.0))
}

/// The level memory with its `LevelFlip` ladder stored: the same seeded
/// draws as `LevelMemory::new` (two anchors, then a Fisher–Yates
/// permutation), one codeword per level where level `l` flips the next
/// slice of the permutation to `H_max`, and the per-dimension threshold
/// select for `Interpolate`.
struct LadderReference {
    h_min: Vec<f32>,
    h_max: Vec<f32>,
    order: Vec<usize>,
    ladder: Vec<Vec<f32>>,
    thresholds: Vec<f32>,
    mode: Quantization,
}

impl LadderReference {
    fn new(dim: usize, levels: usize, mode: Quantization, seed: u64) -> Self {
        let mut rng = init::rng(seed);
        let h_min = init::bipolar_vec(&mut rng, dim);
        let h_max = init::bipolar_vec(&mut rng, dim);
        let mut order: Vec<usize> = (0..dim).collect();
        for i in (1..dim).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut thresholds = vec![0.0f32; dim];
        for (rank, &pos) in order.iter().enumerate() {
            thresholds[pos] = (rank as f32 + 0.5) / dim as f32;
        }
        let mut reference =
            Self { h_min, h_max, order, ladder: vec![Vec::new(); levels], thresholds, mode };
        reference.build_ladder();
        reference
    }

    /// Level 0 is `H_min`; each next level flips a disjoint
    /// `~dim/(levels−1)` slice of the permutation to `H_max`.
    fn build_ladder(&mut self) {
        let (dim, levels) = (self.h_min.len(), self.ladder.len());
        let mut current = self.h_min.clone();
        self.ladder[0] = current.clone();
        for l in 1..levels {
            for &pos in &self.order[(l - 1) * dim / (levels - 1)..l * dim / (levels - 1)] {
                current[pos] = self.h_max[pos];
            }
            self.ladder[l] = current.clone();
        }
    }

    fn encode(&self, alpha: f32) -> Vec<f32> {
        let alpha = if alpha.is_finite() { alpha.clamp(0.0, 1.0) } else { 0.5 };
        match self.mode {
            Quantization::Interpolate => {
                let mut out = Vec::with_capacity(self.h_min.len());
                for ((&lo, &hi), &thr) in self.h_min.iter().zip(&self.h_max).zip(&self.thresholds) {
                    out.push(if alpha >= thr { hi } else { lo });
                }
                out
            }
            Quantization::LevelFlip => {
                let idx = (alpha * (self.ladder.len() - 1) as f32).round() as usize;
                self.ladder[idx.min(self.ladder.len() - 1)].clone()
            }
        }
    }

    /// Redraws the listed anchor dims with `LevelMemory::regenerate_dims`'s
    /// draws, then rebuilds the ladder from the new anchors: the codebook
    /// a regeneration should leave.
    fn regenerate_dims(&mut self, dims: &[usize], seed: u64) {
        let mut rng = init::rng(seed);
        for &d in dims {
            if d >= self.h_min.len() {
                continue;
            }
            self.h_min[d] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            self.h_max[d] = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
        self.build_ladder();
    }
}

fn f32_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Alphas on, between and beyond the level grid: every grid point and the
/// quarter points after it (at most ~130 grid steps, both ends included),
/// the thresholds of ranks 0, 1, dim/2 and dim − 1 with the floats just
/// below and above each (`Interpolate` ties, where `>` and `>=` part),
/// random values in and around `[0, 1]`, and the clamped specials.
fn codebook_alphas(dim: usize, levels: usize, seed: u64) -> Vec<f32> {
    let steps = levels - 1;
    let stride = steps.div_ceil(128).max(1);
    let mut alphas = Vec::new();
    for l in (0..steps).step_by(stride).chain([steps]) {
        for frac in [0.0f32, 0.25, 0.5, 0.75] {
            alphas.push((l as f32 + frac) / steps as f32);
        }
    }
    for rank in [0, 1, dim / 2, dim - 1].into_iter().filter(|&rank| rank < dim) {
        let threshold = (rank as f32 + 0.5) / dim as f32;
        alphas.extend([threshold.next_down(), threshold, threshold.next_up()]);
    }
    let mut rng = init::rng(seed);
    alphas.extend((0..64).map(|_| rng.gen_range(-0.25f32..1.25)));
    alphas.extend([
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -1.0,
        2.0,
        -0.0,
        f32::MIN_POSITIVE,
        1.0 - f32::EPSILON,
    ]);
    alphas
}

/// `encode` and `encode_into` of both modes against the stored ladder, bit
/// for bit, before and after regenerating every third dimension.
fn check_codebook(dim: usize, levels: usize, seed: u64) -> Result<(), TestCaseError> {
    let alphas = codebook_alphas(dim, levels, seed ^ 0xA1FA);
    let dims: Vec<usize> = (0..dim).step_by(3).chain([dim + 5]).collect();
    for mode in [Quantization::Interpolate, Quantization::LevelFlip] {
        let mut memory = LevelMemory::new(dim, levels, mode, seed).unwrap();
        let mut reference = LadderReference::new(dim, levels, mode, seed);
        prop_assert_eq!(memory.num_levels(), levels);
        let mut out = vec![0.0f32; dim];
        for regenerated in [false, true] {
            if regenerated {
                memory.regenerate_dims(&dims, seed ^ 0xD0);
                reference.regenerate_dims(&dims, seed ^ 0xD0);
                prop_assert_eq!(f32_bits(memory.h_min().as_slice()), f32_bits(&reference.h_min));
                prop_assert_eq!(f32_bits(memory.h_max().as_slice()), f32_bits(&reference.h_max));
            }
            for &alpha in &alphas {
                let want = f32_bits(&reference.encode(alpha));
                let got = f32_bits(memory.encode(alpha).as_slice());
                prop_assert!(
                    got == want,
                    "{:?} encode({}) differs: dim {}, levels {}, seed {}, regenerated {}",
                    mode,
                    alpha,
                    dim,
                    levels,
                    seed,
                    regenerated
                );
                memory.encode_into(alpha, &mut out);
                prop_assert!(
                    f32_bits(&out) == want,
                    "{:?} encode_into({}) differs: dim {}, levels {}, seed {}, regenerated {}",
                    mode,
                    alpha,
                    dim,
                    levels,
                    seed,
                    regenerated
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn permutation_is_a_bijection(seed in any::<u64>(), k in 0usize..50) {
        let h = bipolar_hv(seed, 128);
        let roundtrip = h.permute(k).unpermute(k);
        prop_assert_eq!(roundtrip, h);
    }

    #[test]
    fn permutation_preserves_norm(seed in any::<u64>(), k in 0usize..50) {
        let h = bipolar_hv(seed, 256);
        prop_assert!((h.permute(k).norm() - h.norm()).abs() < 1e-4);
    }

    #[test]
    fn binding_is_commutative_and_reversible(sa in any::<u64>(), sb in any::<u64>()) {
        prop_assume!(sa != sb);
        let a = bipolar_hv(sa, 512);
        let b = bipolar_hv(sb, 512);
        let ab = a.bind(&b).unwrap();
        let ba = b.bind(&a).unwrap();
        prop_assert_eq!(&ab, &ba);
        // Reversibility: H_bind ∗ H_1 = H_2 for bipolar inputs.
        let recovered = ab.bind(&a).unwrap();
        prop_assert!((recovered.cosine(&b).unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn bundle_is_similar_to_members(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
        prop_assume!(sa != sb && sb != sc && sa != sc);
        let a = bipolar_hv(sa, 4096);
        let b = bipolar_hv(sb, 4096);
        let outsider = bipolar_hv(sc, 4096);
        let bundle = a.bundle(&b).unwrap();
        // δ(bundle, member) ≫ 0 while δ(bundle, outsider) ≈ 0 (§3.1).
        prop_assert!(bundle.cosine(&a).unwrap() > 0.4);
        prop_assert!(bundle.cosine(&b).unwrap() > 0.4);
        prop_assert!(bundle.cosine(&outsider).unwrap().abs() < 0.15);
    }

    #[test]
    fn bundling_is_associative_for_sums(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
        let a = bipolar_hv(sa, 64);
        let b = bipolar_hv(sb, 64);
        let c = bipolar_hv(sc, 64);
        let left = a.bundle(&b).unwrap().bundle(&c).unwrap();
        let right = a.bundle(&b.bundle(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn binding_distributes_over_bundling(sa in any::<u64>(), sb in any::<u64>(), sc in any::<u64>()) {
        let a = bipolar_hv(sa, 64);
        let b = bipolar_hv(sb, 64);
        let c = bipolar_hv(sc, 64);
        let left = a.bind(&b.bundle(&c).unwrap()).unwrap();
        let right = a.bind(&b).unwrap().bundle(&a.bind(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn level_memory_similarity_monotone(seed in any::<u64>(), mode in prop::bool::ANY) {
        let q = if mode { Quantization::Interpolate } else { Quantization::LevelFlip };
        let m = LevelMemory::new(2048, 16, q, seed).unwrap();
        let alphas = [0.0f32, 0.25, 0.5, 0.75, 1.0];
        let sims: Vec<f32> = alphas
            .iter()
            .map(|&a| m.encode(a).cosine(m.h_min()).unwrap())
            .collect();
        for w in sims.windows(2) {
            prop_assert!(w[1] <= w[0] + 0.08, "similarity to H_min should decay: {:?}", sims);
        }
    }

    #[test]
    fn level_memory_matches_the_stored_ladder(
        seed in any::<u64>(),
        dim in 1usize..300,
        levels in 2usize..70,
    ) {
        check_codebook(dim, levels, seed)?;
    }

    #[test]
    fn encoder_is_deterministic_and_unit_norm(seed in any::<u64>(), phase in -3.0f32..3.0) {
        let cfg = EncoderConfig { dim: 512, sensors: 2, seed, ..EncoderConfig::default() };
        let enc1 = MultiSensorEncoder::new(cfg.clone()).unwrap();
        let enc2 = MultiSensorEncoder::new(cfg).unwrap();
        let w = Matrix::from_fn(12, 2, |t, s| (t as f32 * 0.7 + s as f32 + phase).sin());
        let h1 = enc1.encode_window(&w).unwrap();
        let h2 = enc2.encode_window(&w).unwrap();
        prop_assert_eq!(&h1, &h2);
        prop_assert!((h1.norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn encoder_output_in_similarity_bounds(sa in any::<u64>(), sb in any::<u64>()) {
        let cfg = EncoderConfig { dim: 256, sensors: 1, seed: 7, ..EncoderConfig::default() };
        let enc = MultiSensorEncoder::new(cfg).unwrap();
        let wa = Matrix::from_fn(10, 1, |t, _| ((t as u64 + sa % 17) as f32 * 0.3).sin());
        let wb = Matrix::from_fn(10, 1, |t, _| ((t as u64 + sb % 23) as f32 * 0.9).cos());
        let ha = enc.encode_window(&wa).unwrap();
        let hb = enc.encode_window(&wb).unwrap();
        let sim = ha.cosine(&hb).unwrap();
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&sim));
    }

    #[test]
    fn classifier_fit_never_decreases_final_accuracy_below_chance(seed in 0u64..500) {
        // Clustered data at moderate noise: adaptive HDC must beat chance.
        let mut rng = init::rng(seed);
        let classes = 3usize;
        let dim = 512usize;
        let protos = init::bipolar_matrix(&mut rng, classes, dim);
        let n = 30usize;
        let mut samples = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            let eps = init::normal_vec(&mut rng, dim);
            for (j, &e) in eps.iter().enumerate() {
                samples.set(i, j, protos.get(c, j) + 1.0 * e);
            }
            labels.push(c);
        }
        let mut model = HdcClassifier::new(HdcClassifierConfig {
            dim,
            num_classes: classes,
            learning_rate: 0.1,
            epochs: 10,
        })
        .unwrap();
        let report = model.fit(&samples, &labels).unwrap();
        let acc = *report.train_accuracy.last().unwrap();
        prop_assert!(acc > 1.0 / classes as f32, "accuracy {acc} not above chance");
    }

    #[test]
    fn ensemble_of_identical_models_preserves_predictions(seed in 0u64..200) {
        let mut rng = init::rng(seed);
        let dim = 128usize;
        let protos = init::bipolar_matrix(&mut rng, 2, dim);
        let model = HdcClassifier::from_class_hypervectors(protos).unwrap();
        let ens = HdcClassifier::ensemble(&[&model, &model], &[0.7, 0.3]).unwrap();
        let query = init::normal_vec(&mut rng, dim);
        prop_assert_eq!(model.predict_one(&query).unwrap(), ens.predict_one(&query).unwrap());
    }

    #[test]
    fn fit_and_scoring_match_the_vecops_reference(
        seed in any::<u64>(),
        dim in 1usize..300,
        classes in 1usize..14,
        n in 1usize..41,
        lr_gap in 0.0f32..1.0,
        epochs in 1usize..13,
        seeded in prop::bool::ANY,
    ) {
        check_trainer(seed, dim, classes, n, 1.0 - lr_gap, epochs, seeded)?;
    }

    #[test]
    fn scoring_sums_every_dot_in_index_order(
        seed in any::<u64>(),
        dim in 4usize..300,
        classes in 1usize..14,
    ) {
        // Products with class 0 run 2^40, 2^-14, -2^40, 2^-14, …: summed in
        // index order each 2^-14 after a 2^40 is lost, summed in any other
        // order they survive. The f32 cosine is tiny either way, but not the
        // same, so the scores show the order of the sum.
        let class_hvs = init::bipolar_matrix(&mut init::rng(seed), classes, dim);
        let model = HdcClassifier::from_class_hypervectors(class_hvs.clone()).unwrap();
        let (big, small) = (2f32.powi(40), 2f32.powi(-14));
        let q: Vec<f32> = class_hvs
            .row(0)
            .iter()
            .enumerate()
            .map(|(i, &c)| c * [big, small, -big, small][i % 4])
            .collect();
        let got: Vec<u32> = model.scores(&q).unwrap().iter().map(|s| s.to_bits()).collect();
        let want: Vec<u32> = reference_scores(&class_hvs, &q).iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(got, want);
        // Three rows: one two-sample pass and one single-sample pass.
        let noise = init::normal_vec(&mut init::rng(seed ^ 2), dim);
        let batch = Matrix::from_rows(&[&q, &noise, &q]).unwrap();
        let want: Vec<usize> = batch.iter_rows().map(|x| reference_predict(&class_hvs, x)).collect();
        for threads in [1, 3] {
            prop_assert_eq!(&model.predict_batch(&batch, threads).unwrap(), &want);
        }
    }

    #[test]
    fn encode_batch_rows_match_encode_window(
        seed in any::<u64>(),
        size in 0usize..4,
        bad in any::<u64>(),
    ) {
        // Batch sizes 0, 1 and odd.
        let n = [0usize, 1, 7, 13][size];
        let cfg = EncoderConfig { dim: 97, sensors: 3, seed, ..EncoderConfig::default() };
        let enc = MultiSensorEncoder::new(cfg).unwrap();
        let mut rng = init::rng(seed);
        let mut windows: Vec<Matrix> = (0..n).map(|_| window(&mut rng, 9, 3)).collect();
        for threads in [1, 2, 3, 8] {
            let batch = enc.encode_batch(&windows, threads).unwrap();
            prop_assert_eq!(batch.shape(), (n, 97));
            for (row, w) in batch.iter_rows().zip(&windows) {
                let single = enc.encode_window(w).unwrap();
                let single: Vec<u32> = single.as_slice().iter().map(|x| x.to_bits()).collect();
                let row: Vec<u32> = row.iter().map(|x| x.to_bits()).collect();
                prop_assert_eq!(row, single);
            }
        }
        // A malformed window at a random index, a differently malformed one
        // after it: the batch reports the first one's error.
        if n > 0 {
            let at = (bad % n as u64) as usize;
            windows[at] = window(&mut rng, 9, 2);
            let want = enc.encode_window(&windows[at]).unwrap_err();
            prop_assert_eq!(&want, &HdcError::DimensionMismatch { expected: 3, actual: 2 });
            if at + 1 < n {
                windows[n - 1] = window(&mut rng, 2, 3);
            }
            for threads in [1, 2, 3, 8] {
                prop_assert_eq!(enc.encode_batch(&windows, threads).unwrap_err(), want.clone());
            }
        }
    }
}

/// The trainer oracle at the fleet's dimension, with classes that fill one
/// block of four and leave a remainder, from a zero and a seeded start.
#[test]
fn fit_matches_the_vecops_reference_at_d_4096() {
    for seeded in [false, true] {
        check_trainer(41, 4096, 6, 24, 0.05, 10, seeded).unwrap();
    }
}

/// The codebook oracle at the fleet's dimension and default level count,
/// and with more levels than dimensions.
#[test]
fn level_memory_matches_the_stored_ladder_at_d_4096_and_dense_grids() {
    for seed in [3, 11, 0xC0DE] {
        check_codebook(4096, 64, seed).unwrap();
        check_codebook(7, 50, seed).unwrap();
        check_codebook(100, 5000, seed).unwrap();
    }
}
