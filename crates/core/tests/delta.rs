//! Integration tests for per-tenant delta overlays: chained base+delta
//! scoring must be **bit-exact** with enrolling the same domains into a
//! full clone of the base (property-tested over random windows and a
//! ragged dimension), and `DeltaV1` artifact bytes must round-trip
//! exactly and fail typed — never panic — under truncation, bit flips and
//! duplicate sections.

use std::sync::OnceLock;

use proptest::prelude::*;
use smore::{
    DeltaSmore, Predictor, QuantizedSmore, ServeScratch, Smore, SmoreConfig, SmoreError,
    SnapshotDelta,
};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::Dataset;
use smore_tensor::{init, Matrix};

fn dataset(channels: usize, window_len: usize, seed: u64) -> Dataset {
    generate(&GeneratorConfig {
        name: "delta-test".into(),
        num_classes: 3,
        channels,
        window_len,
        sample_rate_hz: 20.0,
        domains: vec![
            DomainSpec { subjects: vec![0], windows: 24 },
            DomainSpec { subjects: vec![1], windows: 24 },
            DomainSpec { subjects: vec![2], windows: 24 },
        ],
        shift_severity: 0.8,
        seed,
    })
    .unwrap()
}

fn fitted(ds: &Dataset, dim: usize) -> Smore {
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(dim)
            .channels(ds.meta().channels)
            .num_classes(ds.meta().num_classes)
            .epochs(5)
            .threads(2)
            .build()
            .unwrap(),
    )
    .unwrap();
    let all: Vec<usize> = (0..ds.len()).collect();
    model.fit_indices(ds, &all).unwrap();
    model
}

/// A sensor-shaped window never seen by training.
fn perturbed_window(ds: &Dataset, index: usize, gain: f32, noise_seed: u64) -> Matrix {
    let mut rng = init::rng(noise_seed);
    let base = ds.window(index % ds.len());
    let noise = init::normal_matrix(&mut rng, base.rows(), base.cols());
    let mut w = base.scale(gain);
    w.axpy(0.05, &noise).unwrap();
    w
}

/// Enrols the same two post-training domains both ways: into a delta
/// overlay over `base` and into a full clone of `base`. Repeat enrolment
/// seeds the second domain from the first, like the serving engine does.
fn enroll_both(
    ds: &Dataset,
    dense: &Smore,
    base: &QuantizedSmore,
) -> (SnapshotDelta, QuantizedSmore) {
    let mut delta = SnapshotDelta::new(base);
    let mut clone = base.clone();
    let mut extra = Vec::new();
    for (round, (gain, tag)) in [(1.6f32, 7usize), (0.55, 11)].into_iter().enumerate() {
        let windows: Vec<Matrix> = (0..24)
            .map(|i| perturbed_window(ds, 48 + i, gain, 1000 + (round * 100 + i) as u64))
            .collect();
        let labels: Vec<usize> = (0..24).map(|i| ds.label((48 + i) % ds.len())).collect();
        let prep = dense.prepare_domain(&windows, &labels, &extra).unwrap();
        delta.enroll_domain(base, &prep.model, &prep.descriptor, tag).unwrap();
        clone.enroll_domain(&prep.model, &prep.descriptor, tag).unwrap();
        extra.push(prep.model);
    }
    (delta, clone)
}

/// `(dataset, base, delta-with-2-domains, full-clone-with-same-2-domains)`
/// built once — proptest cases only pay for scoring.
fn chained_fixture() -> &'static (Dataset, QuantizedSmore, SnapshotDelta, QuantizedSmore) {
    static FIXTURE: OnceLock<(Dataset, QuantizedSmore, SnapshotDelta, QuantizedSmore)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = dataset(3, 16, 33);
        let dense = fitted(&ds, 512);
        let base = dense.quantize().unwrap();
        let (delta, clone) = enroll_both(&ds, &dense, &base);
        (ds, base, delta, clone)
    })
}

/// Exact f32 bit-pattern equality of two score vectors.
fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: score {i} differs: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: chaining base + delta performs the exact
    /// same float operations in the exact same order as a full clone that
    /// enrolled the same domains — per-class scores and predictions agree
    /// to the bit on arbitrary sensor-shaped windows.
    #[test]
    fn chained_scoring_is_bit_exact_with_a_full_clone(
        index in 0usize..72,
        gain in 0.25f32..2.0,
        noise_seed in any::<u64>(),
    ) {
        let (ds, base, delta, clone) = chained_fixture();
        let chained = DeltaSmore::new(base, delta.domains());
        let w = perturbed_window(ds, index, gain, noise_seed);
        let mut scratch = ServeScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        chained.score_into(&w, &mut scratch, &mut a).unwrap();
        clone.score_into(&w, &mut scratch, &mut b).unwrap();
        assert_bits_equal(&a, &b, "chained vs full clone");
        let pa = chained.predict_window_with(&w, &mut scratch).unwrap().clone();
        let pb = clone.predict_window(&w).unwrap();
        prop_assert_eq!(pa, pb);
    }

    /// `DeltaV1` bytes round-trip to a delta that serves bit-identically
    /// and re-saves canonically.
    #[test]
    fn delta_artifact_round_trip_is_bit_exact(
        index in 0usize..72,
        gain in 0.5f32..1.6,
        noise_seed in any::<u64>(),
    ) {
        let (ds, base, delta, _) = chained_fixture();
        static LOADED: OnceLock<SnapshotDelta> = OnceLock::new();
        let loaded = LOADED.get_or_init(|| {
            let (_, _, delta, _) = chained_fixture();
            let bytes = delta.to_artifact_bytes();
            let loaded = SnapshotDelta::from_artifact_bytes(&bytes).unwrap();
            assert_eq!(loaded.to_artifact_bytes(), bytes, "re-save must be canonical");
            loaded
        });
        prop_assert_eq!(loaded.tags().collect::<Vec<_>>(), delta.tags().collect::<Vec<_>>());
        prop_assert_eq!(&loaded.meta, &delta.meta);
        let w = perturbed_window(ds, index, gain, noise_seed);
        let mut scratch = ServeScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        DeltaSmore::new(base, delta.domains()).score_into(&w, &mut scratch, &mut a).unwrap();
        DeltaSmore::new(base, loaded.domains()).score_into(&w, &mut scratch, &mut b).unwrap();
        assert_bits_equal(&a, &b, "delta artifact round trip");
    }
}

/// The ragged case: dim 200 leaves a 56-bit padded tail in every fourth
/// word — chained popcounts and Gram borders must still match the full
/// clone bit for bit.
#[test]
fn chained_scoring_survives_ragged_dims() {
    let ds = dataset(2, 12, 91);
    let dense = fitted(&ds, 200);
    let base = dense.quantize().unwrap();
    let (delta, clone) = enroll_both(&ds, &dense, &base);

    let chained = DeltaSmore::new(&base, delta.domains());
    let windows: Vec<Matrix> = (0..24)
        .map(|i| perturbed_window(&ds, i * 3, 1.0 + 0.02 * i as f32, 7 + i as u64))
        .collect();
    assert_eq!(
        chained.predict_batch(&windows).unwrap(),
        clone.predict_batch(&windows).unwrap(),
        "ragged-dim chained serving must equal the full clone bit for bit"
    );
    assert_eq!(chained.num_classes(), clone.num_classes());

    // And the ragged delta round-trips through its artifact.
    let loaded = SnapshotDelta::from_artifact_bytes(&delta.to_artifact_bytes()).unwrap();
    let rechained = DeltaSmore::new(&base, loaded.domains());
    assert_eq!(
        rechained.predict_batch(&windows).unwrap(),
        clone.predict_batch(&windows).unwrap(),
        "ragged-dim delta artifact round trip must stay bit-exact"
    );
}

/// The overlay is three orders of magnitude smaller than what it
/// replaces: a full resident clone of the base.
#[test]
fn delta_storage_is_a_small_fraction_of_a_clone() {
    let (_, base, delta, _) = chained_fixture();
    // The clone pays at least the base's packed class planes + Gram again;
    // the delta pays only its two enrolled domains.
    let base_bytes = base.to_artifact_bytes().len();
    let delta_bytes = delta.storage_bytes();
    assert!(
        delta_bytes * 4 < base_bytes,
        "2-domain delta ({delta_bytes} B) must be well under the base artifact ({base_bytes} B)"
    );
    assert_eq!(delta.num_domains(), 2);
    assert!(!delta.is_empty());
}

/// Every truncation of a valid delta artifact is a typed corruption
/// error, never a panic or a silent partial overlay.
#[test]
fn delta_truncation_always_returns_corrupt_artifact() {
    let (_, _, delta, _) = chained_fixture();
    let bytes = delta.to_artifact_bytes();
    let cuts = (0..64).chain((64..bytes.len()).step_by(53)).chain([bytes.len() - 1]);
    for cut in cuts {
        match SnapshotDelta::from_artifact_bytes(&bytes[..cut]) {
            Err(SmoreError::CorruptArtifact { .. }) => {}
            other => panic!("cut at {cut}: expected CorruptArtifact, got {other:?}"),
        }
    }
}

/// Flipping any single bit of the delta artifact is detected by the
/// header checks or the per-section CRCs.
#[test]
fn delta_single_bit_flips_always_return_corrupt_artifact() {
    let (_, _, delta, _) = chained_fixture();
    let bytes = delta.to_artifact_bytes();
    let positions: Vec<usize> = (0..64).chain((64..bytes.len()).step_by(61)).collect();
    for pos in positions {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            match SnapshotDelta::from_artifact_bytes(&flipped) {
                Err(SmoreError::CorruptArtifact { .. }) => {}
                other => panic!("flip {pos}:{bit}: expected CorruptArtifact, got {other:?}"),
            }
        }
    }
}

/// Lengths and counts a crafted file declares are bounded against the
/// bytes present without overflowing: a section length whose end passes
/// `u64::MAX`, and a class count that overflows the per-domain byte bound,
/// are both typed corruption errors (with valid checksums), never an
/// arithmetic-overflow panic.
#[test]
fn delta_crafted_lengths_are_refused_without_overflow() {
    let (_, _, delta, _) = chained_fixture();
    let bytes = delta.to_artifact_bytes();

    // The first section header sits right after the 16-byte container
    // header: `id | crc | len`, so its length is bytes 24..32.
    let mut huge = bytes.clone();
    huge[24..32].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
    let err = SnapshotDelta::from_artifact_bytes(&huge).unwrap_err();
    assert!(matches!(err, SmoreError::CorruptArtifact { .. }), "{err}");

    // That first section is the metadata: `dim | num_classes | …`. Declare
    // a class count near `u64::MAX` and re-checksum the payload.
    let meta_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let mut classes = bytes.clone();
    classes[40..48].copy_from_slice(&(u64::MAX - 4).to_le_bytes());
    let crc = smore::wire::crc32(&classes[32..32 + meta_len]);
    classes[20..24].copy_from_slice(&crc.to_le_bytes());
    let err = SnapshotDelta::from_artifact_bytes(&classes).unwrap_err();
    assert!(matches!(err, SmoreError::CorruptArtifact { .. }), "{err}");
}

/// A crafted container that repeats a section (count bumped, copy
/// appended) must be rejected as a duplicate, and kind confusion between
/// delta and model artifacts is a typed refusal in both directions.
#[test]
fn delta_duplicate_sections_and_kind_confusion_are_refused() {
    let (_, base, delta, _) = chained_fixture();
    let bytes = delta.to_artifact_bytes();

    // Locate the first section block (16-byte container header, then
    // `id | crc | len` + payload) and append a verbatim copy of it.
    let len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    let block = bytes[16..16 + 16 + len].to_vec();
    let mut dup = bytes.clone();
    dup.extend_from_slice(&block);
    let count = u32::from_le_bytes(dup[12..16].try_into().unwrap()) + 1;
    dup[12..16].copy_from_slice(&count.to_le_bytes());
    let err = SnapshotDelta::from_artifact_bytes(&dup).unwrap_err();
    assert!(matches!(&err, SmoreError::CorruptArtifact { .. }), "{err}");
    assert!(err.to_string().contains("duplicate"), "{err}");

    // A copy appended *without* bumping the count is trailing garbage.
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(&block);
    let err = SnapshotDelta::from_artifact_bytes(&trailing).unwrap_err();
    assert!(err.to_string().contains("trailing"), "{err}");

    // Kind confusion: a quantized model is not a delta, and a delta is
    // not a quantized model — both refusals point at the right loader.
    let err = SnapshotDelta::from_artifact_bytes(&base.to_artifact_bytes()).unwrap_err();
    assert!(err.to_string().contains("not a tenant delta"), "{err}");
    assert!(QuantizedSmore::from_artifact_bytes(&bytes).is_err());
    assert!(Smore::from_artifact_bytes(&bytes).is_err());
}
