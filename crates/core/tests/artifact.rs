//! Integration tests for the versioned `.smore` artifact format: bit-exact
//! round trips (property-tested over random windows, ragged dimensions and
//! enrolled domains), a committed golden fixture that fails the suite on
//! silent format drift, and corruption coverage (truncation and bit flips
//! must produce [`SmoreError::CorruptArtifact`], never a panic).

use std::sync::OnceLock;

use proptest::prelude::*;
use smore::artifact::{self, ArtifactKind, FORMAT_VERSION, MAGIC};
use smore::{
    DeltaSmore, Prediction, Predictor, QuantizedSmore, ServeScratch, Smore, SmoreConfig,
    SmoreError, SnapshotDelta,
};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_data::Dataset;
use smore_tensor::{init, Matrix};

fn dataset(channels: usize, window_len: usize, seed: u64) -> Dataset {
    generate(&GeneratorConfig {
        name: "artifact-test".into(),
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

/// `(dataset, dense, quantized, quantized-after-round-trip)` — built once;
/// proptest cases only pay for scoring. `dim = 512` is word-aligned; the
/// ragged fixture below covers the padded-tail bit paths.
fn roundtrip_fixture() -> &'static (Dataset, Smore, QuantizedSmore, QuantizedSmore) {
    static FIXTURE: OnceLock<(Dataset, Smore, QuantizedSmore, QuantizedSmore)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ds = dataset(3, 16, 33);
        let dense = fitted(&ds, 512);
        let quantized = dense.quantize().unwrap();
        let loaded = QuantizedSmore::from_artifact_bytes(&quantized.to_artifact_bytes()).unwrap();
        (ds, dense, quantized, loaded)
    })
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

/// Exact f32 bit-pattern equality of two score vectors.
fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: score {i} differs: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn loaded_quantized_scores_are_bit_exact_on_random_windows(
        index in 0usize..72,
        gain in 0.25f32..2.0,
        noise_seed in any::<u64>(),
    ) {
        let (ds, _, original, loaded) = roundtrip_fixture();
        let w = perturbed_window(ds, index, gain, noise_seed);
        let mut scratch = ServeScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        original.score_into(&w, &mut scratch, &mut a).unwrap();
        loaded.score_into(&w, &mut scratch, &mut b).unwrap();
        assert_bits_equal(&a, &b, "quantized round trip");
        let pa = original.predict_window(&w).unwrap();
        let pb = loaded.predict_window(&w).unwrap();
        prop_assert_eq!(pa, pb);
    }

    #[test]
    fn loaded_dense_model_is_bit_exact_on_random_windows(
        index in 0usize..72,
        gain in 0.5f32..1.6,
        noise_seed in any::<u64>(),
    ) {
        let (ds, dense, _, _) = roundtrip_fixture();
        static LOADED: OnceLock<Smore> = OnceLock::new();
        let loaded = LOADED.get_or_init(|| {
            let (_, dense, _, _) = roundtrip_fixture();
            Smore::from_artifact_bytes(&dense.to_artifact_bytes().unwrap()).unwrap()
        });
        let w = perturbed_window(ds, index, gain, noise_seed);
        prop_assert_eq!(dense.predict_window(&w).unwrap(), loaded.predict_window(&w).unwrap());
    }
}

#[test]
fn quantized_round_trip_survives_ragged_dims_and_enrolment() {
    // dim 200 leaves a 56-bit padded tail in every fourth word — the
    // ragged paths of packing, rotation and artifact validation.
    let ds = dataset(2, 12, 91);
    let mut dense = fitted(&ds, 200);
    let mut quantized = dense.quantize().unwrap();

    let round = |q: &QuantizedSmore| QuantizedSmore::from_artifact_bytes(&q.to_artifact_bytes());
    let windows: Vec<Matrix> = (0..24).map(|i| ds.window(i * 3).clone()).collect();
    let loaded = round(&quantized).unwrap();
    assert_eq!(
        quantized.predict_batch(&windows).unwrap(),
        loaded.predict_batch(&windows).unwrap(),
        "ragged-dim round trip must be bit-exact"
    );

    // Enrol a domain online, then round-trip the grown model.
    let idx: Vec<usize> = (48..72).collect();
    let (w, l, _) = ds.gather(&idx);
    dense.enroll_domain(&w, &l, 9).unwrap();
    let models = dense.domain_models().unwrap();
    let descriptors = dense.descriptors().unwrap().as_matrix().clone();
    quantized.enroll_domain(models.last().unwrap(), descriptors.row(3), 9).unwrap();

    let loaded = round(&quantized).unwrap();
    assert_eq!(loaded.num_domains(), 4);
    assert_eq!(loaded.domain_tags(), quantized.domain_tags());
    assert_eq!(
        quantized.predict_batch(&windows).unwrap(),
        loaded.predict_batch(&windows).unwrap(),
        "round trip with an enrolled domain must be bit-exact"
    );
    // And the loaded model accepts further enrolment (tags validated).
    let mut grown = loaded;
    assert!(grown.enroll_domain(models.last().unwrap(), descriptors.row(3), 9).is_err());
}

#[test]
fn loaded_dense_model_resumes_adaptation() {
    let ds = dataset(3, 16, 57);
    let dense = fitted(&ds, 256);
    let bytes = dense.to_artifact_bytes().unwrap();
    let mut loaded = Smore::from_artifact_bytes(&bytes).unwrap();

    // The canonical encoding makes "same model" checkable as byte equality.
    assert_eq!(loaded.to_artifact_bytes().unwrap(), bytes, "re-save must be canonical");
    assert_eq!(
        dense.quantize().unwrap().to_artifact_bytes(),
        loaded.quantize().unwrap().to_artifact_bytes(),
        "quantizing the loaded model must equal quantizing the original"
    );

    // Resume adaptation: enrol on the loaded model.
    let idx: Vec<usize> = (0..24).collect();
    let (w, l, _) = ds.gather(&idx);
    let report = loaded.enroll_domain(&w, &l, 42).unwrap();
    assert_eq!(report.num_domains, 4);
    assert!(loaded.predict_window(ds.window(0)).unwrap().domain_similarities.len() == 4);
}

#[test]
fn unfitted_dense_model_refuses_to_save() {
    let model =
        Smore::new(SmoreConfig::builder().dim(128).channels(2).num_classes(3).build().unwrap())
            .unwrap();
    assert!(matches!(model.to_artifact_bytes(), Err(SmoreError::NotFitted)));
    assert!(matches!(model.save("/tmp/never-written.smore"), Err(SmoreError::NotFitted)));
}

#[test]
fn save_load_through_the_filesystem_and_io_errors() {
    let ds = dataset(2, 12, 15);
    let dense = fitted(&ds, 128);
    let quantized = dense.quantize().unwrap();
    let dir = std::env::temp_dir().join("smore_artifact_test");
    std::fs::create_dir_all(&dir).unwrap();

    let qpath = dir.join("model.smore");
    quantized.save(&qpath).unwrap();
    let loaded = QuantizedSmore::load(&qpath).unwrap();
    let w = ds.window(5);
    assert_eq!(quantized.predict_window(w).unwrap(), loaded.predict_window(w).unwrap());

    let dpath = dir.join("dense.smore");
    dense.save(&dpath).unwrap();
    assert_eq!(Smore::load(&dpath).unwrap().domain_tags().unwrap(), dense.domain_tags().unwrap());

    // Typed Io errors, with the offending path in the message.
    let missing = dir.join("missing.smore");
    for err in [
        QuantizedSmore::load(&missing).unwrap_err(),
        Smore::load(&missing).unwrap_err(),
        quantized.save(dir.join("no-such-dir").join("x.smore")).unwrap_err(),
    ] {
        match err {
            SmoreError::Io { path, .. } => assert!(path.contains("smore_artifact_test")),
            other => panic!("expected Io, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kind_mismatch_is_a_typed_refusal() {
    let (_, dense, quantized, _) = roundtrip_fixture();
    let dense_bytes = dense.to_artifact_bytes().unwrap();
    let quant_bytes = quantized.to_artifact_bytes();
    assert_eq!(artifact::kind_of(&dense_bytes).unwrap(), ArtifactKind::Dense);
    assert_eq!(artifact::kind_of(&quant_bytes).unwrap(), ArtifactKind::Quantized);
    let err = QuantizedSmore::from_artifact_bytes(&dense_bytes).unwrap_err();
    assert!(
        matches!(&err, SmoreError::CorruptArtifact { .. })
            && err.to_string().contains("Smore::load"),
        "{err}"
    );
    let err = Smore::from_artifact_bytes(&quant_bytes).unwrap_err();
    assert!(
        matches!(&err, SmoreError::CorruptArtifact { .. })
            && err.to_string().contains("QuantizedSmore::load"),
        "{err}"
    );
}

/// Every truncation of a valid artifact must fail with a typed error —
/// never a panic, never a silent partial model.
#[test]
fn truncation_always_returns_corrupt_artifact() {
    let (_, dense, quantized, _) = roundtrip_fixture();
    for (bytes, is_dense) in
        [(quantized.to_artifact_bytes(), false), (dense.to_artifact_bytes().unwrap(), true)]
    {
        // Dense cuts through the whole range plus every boundary-ish cut
        // near the start where the header/section table lives.
        let cuts = (0..64).chain((64..bytes.len()).step_by(97)).chain([bytes.len() - 1]);
        for cut in cuts {
            let r_quant = QuantizedSmore::from_artifact_bytes(&bytes[..cut]);
            let r_dense = Smore::from_artifact_bytes(&bytes[..cut]);
            let err = if is_dense { r_dense.err() } else { r_quant.err() };
            match err {
                Some(SmoreError::CorruptArtifact { .. }) => {}
                other => panic!("cut at {cut}: expected CorruptArtifact, got {other:?}"),
            }
        }
    }
}

/// Flipping any single bit of the artifact must be detected (section CRCs
/// plus validated header/table fields) and reported as CorruptArtifact.
#[test]
fn single_bit_flips_always_return_corrupt_artifact() {
    let (ds, _, quantized, _) = roundtrip_fixture();
    let bytes = quantized.to_artifact_bytes();
    let reference = quantized.predict_window(ds.window(0)).unwrap();
    // Every byte of the 16-byte header + section table regions, then a
    // stride through the payloads (every bit of every 131st byte).
    let positions: Vec<usize> = (0..64).chain((64..bytes.len()).step_by(131)).collect();
    for pos in positions {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            match QuantizedSmore::from_artifact_bytes(&flipped) {
                Err(SmoreError::CorruptArtifact { .. }) => {}
                Err(other) => panic!("flip {pos}:{bit}: expected CorruptArtifact, got {other:?}"),
                Ok(model) => panic!(
                    "flip {pos}:{bit} loaded silently (prediction {:?} vs {:?})",
                    model.predict_window(ds.window(0)),
                    reference
                ),
            }
        }
    }
}

/// A crafted artifact whose section-internal *count* fields are huge must
/// be rejected before any allocation is sized by them: a valid CRC is no
/// protection (whoever writes the file writes the checksum too), so the
/// tamper here recomputes the section checksum like an attacker would.
#[test]
fn huge_internal_counts_are_rejected_without_allocation() {
    fn crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }
    /// Overwrites the leading u64 count of section `id` and re-stamps its
    /// CRC (container layout: 16-byte header, then per section a 16-byte
    /// `id | crc | len` header followed by the payload).
    fn patch_section_count(bytes: &[u8], id: u32, new_count: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let mut pos = 16usize;
        while pos + 16 <= out.len() {
            let sid = u32::from_le_bytes(out[pos..pos + 4].try_into().unwrap());
            let len = u64::from_le_bytes(out[pos + 8..pos + 16].try_into().unwrap()) as usize;
            let start = pos + 16;
            if sid == id {
                out[start..start + 8].copy_from_slice(&new_count.to_le_bytes());
                let crc = crc32(&out[start..start + len]);
                out[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
                return out;
            }
            pos = start + len;
        }
        panic!("section {id} not found");
    }

    let (_, dense, quantized, _) = roundtrip_fixture();
    // Packed descriptors (16), classes (17) and codebooks (19).
    for id in [16u32, 17, 19] {
        let patched = patch_section_count(&quantized.to_artifact_bytes(), id, 1 << 62);
        assert!(
            matches!(
                QuantizedSmore::from_artifact_bytes(&patched),
                Err(SmoreError::CorruptArtifact { .. })
            ),
            "huge count in section {id} must be a typed corruption error"
        );
    }
    // Dense domain models (33).
    let patched = patch_section_count(&dense.to_artifact_bytes().unwrap(), 33, 1 << 62);
    assert!(matches!(
        Smore::from_artifact_bytes(&patched),
        Err(SmoreError::CorruptArtifact { .. })
    ));
}

/// `to_bits()` of every per-class score the committed fixture serves for
/// the 12 windows of [`golden_fixture_locks_the_format`] (an all-zero row
/// is a window with no positive descriptor similarity, hence no ensemble
/// weight).
const GOLDEN_BASE_SCORE_BITS: [[u32; 3]; 12] = [
    [0x3f31_e483, 0xbf03_71c0, 0xbf0f_9632],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x3f08_804c, 0xbedf_dfcf, 0xbe6c_581a],
    [0x3f24_0191, 0xbf0e_3804, 0xbeba_dfb4],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x3f0f_1a7d, 0xbeed_937a, 0xbe87_a634],
    [0x3f42_752e, 0xbf1b_bf0d, 0xbf1a_d977],
    [0x3edd_dc5d, 0xbe93_3cfd, 0xbe72_45de],
    [0x3ef0_f786, 0xbe80_c04c, 0xbea4_3a5d],
    [0x3efe_2839, 0xbe89_c9ab, 0xbeb6_cd6b],
];

/// The same for the fixture chained with the one-domain delta that
/// [`golden_fixture_locks_the_format`] enrols on fixed gain-1.5 windows.
const GOLDEN_CHAINED_SCORE_BITS: [[u32; 3]; 12] = [
    [0x3f22_2a85, 0xbf10_1852, 0xbf19_8f8b],
    [0x3f3c_fe14, 0xbf2d_88be, 0xbf35_9634],
    [0x3f41_7bf1, 0xbf2a_7efb, 0xbf35_89a6],
    [0x3f48_8d3a, 0xbf2e_7506, 0xbf2c_4703],
    [0x3ed4_980a, 0xbedb_4b2b, 0xbe5f_0816],
    [0x3eea_06e9, 0xbf0a_29bb, 0xbeb8_f083],
    [0x3f28_7337, 0xbf0e_6726, 0xbf15_8b95],
    [0x3ef7_506d, 0xbee6_2868, 0xbe86_71ae],
    [0x3f31_6ef0, 0xbf27_ab5c, 0xbf2e_d78d],
    [0x3ea5_4e42, 0xbeb1_e9d5, 0xbead_883b],
    [0x3ed9_7544, 0xbe97_5724, 0xbec6_7620],
    [0x3ee5_f08f, 0xbe9e_3f95, 0xbed7_9e54],
];

/// The `to_bits()` of dense `score_into` on the fixture's training run, over
/// the same 12 windows. The all-zero rows are queries whose Eq. 3 weights
/// all vanish, so the ensembled model is the zero vector.
const GOLDEN_DENSE_SCORE_BITS: [[u32; 3]; 12] = [
    [0x3f4e_9103, 0xbf25_6e5d, 0xbf23_1cd2],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x3f49_140c, 0xbf2e_b2f1, 0xbe88_5d34],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x3f4f_7abd, 0xbf37_d668, 0xbe8d_86dd],
    [0x0000_0000, 0x0000_0000, 0x0000_0000],
    [0x3f35_ad13, 0xbf14_04d1, 0xbec9_7a02],
    [0x3f30_5048, 0xbf02_2e37, 0xbef3_8925],
    [0x3f37_f27b, 0xbf09_f029, 0xbefd_7648],
];

/// [`batch_hash`] of `predict_batch` on the same 12 windows, per backend:
/// the dense model, the committed fixture, and the fixture chained with the
/// one-domain delta. Computed when the dense batch still ran its own
/// allocating path and the packed ones the chained scorer's own batch.
const GOLDEN_DENSE_BATCH_HASH: u64 = 0x5ed4_ea4b_fad3_6cf8;
const GOLDEN_BASE_BATCH_HASH: u64 = 0x92be_65c4_a1ec_321a;
const GOLDEN_CHAINED_BATCH_HASH: u64 = 0x7587_34ac_51b8_6324;

/// FNV-1a (64-bit) over a batch of predictions: per prediction its label,
/// OOD flag, `delta_max` bits, best domain and the bits of every domain
/// similarity.
fn batch_hash(predictions: &[Prediction]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in predictions {
        eat(&(p.label as u64).to_le_bytes());
        eat(&[u8::from(p.is_ood)]);
        eat(&p.delta_max.to_bits().to_le_bytes());
        eat(&(p.best_domain as u64).to_le_bytes());
        eat(&(p.domain_similarities.len() as u64).to_le_bytes());
        p.domain_similarities.iter().for_each(|s| eat(&s.to_bits().to_le_bytes()));
    }
    hash
}

/// The committed golden fixture: regenerating the artifact from the same
/// deterministic training run must reproduce the committed bytes exactly,
/// and the committed bytes must load into a model that predicts exactly
/// like the freshly trained one. Any silent format drift — layout, CRC,
/// section set, canonical encoding, or a behavioural change in
/// training/quantization — fails here first.
///
/// Regenerate (after an *intentional* format bump) with:
/// `SMORE_REGEN_GOLDEN=1 cargo test -p smore --test artifact golden`.
#[test]
fn golden_fixture_locks_the_format() {
    let ds = dataset(2, 12, 77);
    let dense = fitted(&ds, 128);
    let quantized = dense.quantize().unwrap();
    let bytes = quantized.to_artifact_bytes();

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/quantized_v1.smore");
    if std::env::var_os("SMORE_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &bytes).unwrap();
    }
    let committed = std::fs::read(path).expect("golden fixture tests/fixtures/quantized_v1.smore");
    assert_eq!(&committed[..8], MAGIC.as_slice());
    assert_eq!(u16::from_le_bytes([committed[8], committed[9]]), FORMAT_VERSION);
    assert_eq!(
        committed, bytes,
        "freshly written artifact differs from the committed golden fixture — the format (or \
         deterministic training) drifted; if intentional, bump FORMAT_VERSION and regenerate \
         with SMORE_REGEN_GOLDEN=1"
    );

    let loaded = QuantizedSmore::from_artifact_bytes(&committed).unwrap();
    let windows: Vec<Matrix> = (0..12).map(|i| ds.window(i * 6).clone()).collect();
    assert_eq!(
        loaded.predict_batch(&windows).unwrap(),
        quantized.predict_batch(&windows).unwrap(),
        "the committed fixture must serve bit-identically to the in-memory model"
    );

    // Nothing above pins scores across commits: the fresh and the loaded
    // model run the same scorer. Pin its output bits on the committed
    // fixture, alone and chained with a one-domain delta enrolled on fixed
    // gain-1.5 windows, and the dense model's that the fixture was
    // quantized from.
    let enrol: Vec<Matrix> = (0..24).map(|i| ds.window(i * 3).scale(1.5)).collect();
    let labels: Vec<usize> = (0..24).map(|i| ds.label(i * 3)).collect();
    let prep = dense.prepare_domain(&enrol, &labels, &[]).unwrap();
    let mut delta = SnapshotDelta::new(&loaded);
    delta.enroll_domain(&loaded, &prep.model, &prep.descriptor, 9).unwrap();
    let chained = DeltaSmore::new(&loaded, delta.domains());
    let mut scratch = ServeScratch::new();
    let mut scores = Vec::new();
    for (i, w) in windows.iter().enumerate() {
        loaded.score_into(w, &mut scratch, &mut scores).unwrap();
        let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, GOLDEN_BASE_SCORE_BITS[i], "fixture score bits, window {i}");
        chained.score_into(w, &mut scratch, &mut scores).unwrap();
        let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, GOLDEN_CHAINED_SCORE_BITS[i], "chained score bits, window {i}");
        dense.score_into(w, &mut scratch, &mut scores).unwrap();
        let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(bits, GOLDEN_DENSE_SCORE_BITS[i], "dense score bits, window {i}");
    }
    // Pin every backend's batch path too, whole predictions included.
    let batches = [
        ("dense", dense.predict_batch(&windows).unwrap(), GOLDEN_DENSE_BATCH_HASH),
        ("fixture", loaded.predict_batch(&windows).unwrap(), GOLDEN_BASE_BATCH_HASH),
        ("chained", chained.predict_batch(&windows).unwrap(), GOLDEN_CHAINED_BATCH_HASH),
    ];
    for (name, predictions, expected) in batches {
        assert_eq!(batch_hash(&predictions), expected, "{name} predict_batch hash");
    }
}
