//! Pins the bits that training produces, across commits.
//!
//! A small SMORE model of the serving fleet's shape (3 channels × 24-step
//! windows, 4 classes) is trained on three domains, and one domain is
//! enrolled from the fourth the way a drifting tenant enrols. The
//! `to_bits()` of every trained hypervector and every `FitReport` is
//! hashed with FNV-1a and compared against constants.
//! `golden_fixture_locks_the_format` pins the scorer this way;
//! `golden_accuracy`'s accuracy bands would still pass a trainer whose
//! bits had drifted.
//!
//! The constants change only with an intentional change to encoding or
//! training; a faster encoder or trainer must reproduce them exactly.

use smore::{Smore, SmoreConfig};
use smore_data::generator::{generate, DomainSpec, GeneratorConfig};
use smore_hdc::model::FitReport;
use smore_tensor::Matrix;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        values.iter().for_each(|v| self.bytes(&v.to_bits().to_le_bytes()));
    }

    fn count(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn matrix(&mut self, m: &Matrix) {
        self.count(m.rows());
        self.count(m.cols());
        self.f32s(m.as_slice());
    }

    fn report(&mut self, r: &FitReport) {
        self.count(r.epochs_run);
        self.count(r.train_accuracy.len());
        self.f32s(&r.train_accuracy);
        self.count(r.updates_per_epoch.len());
        r.updates_per_epoch.iter().for_each(|&u| self.count(u));
    }
}

fn hash(f: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    f(&mut h);
    h.0
}

// Computed with the per-class `vecops` trainer and the two-copy batch
// encoder, before the blocked kernel and in-place rows replaced them.
const DOMAIN_MODELS: u64 = 0x2105_d1b9_bd6f_ff28;
const DESCRIPTORS: u64 = 0x7bb6_6288_8eb9_b5ba;
const DOMAIN_REPORTS: u64 = 0x6977_acb4_d8c0_faec;
const ENROLLED_MODEL: u64 = 0xc63e_bdef_3442_8d7f;
const ENROLLED_DESCRIPTOR: u64 = 0x4284_6c75_3d80_41d7;
const ENROLLED_REPORT: u64 = 0xf0bd_275a_5b9f_4f79;

#[test]
fn training_and_enrolment_bits_are_pinned() {
    let ds = generate(&GeneratorConfig {
        name: "trained-bits".into(),
        num_classes: 4,
        channels: 3,
        window_len: 24,
        sample_rate_hz: 25.0,
        domains: (0..4)
            .map(|d| DomainSpec { subjects: vec![2 * d, 2 * d + 1], windows: 16 })
            .collect(),
        shift_severity: 1.2,
        seed: 7,
    })
    .unwrap();
    let mut model = Smore::new(
        SmoreConfig::builder()
            .dim(512)
            .channels(3)
            .num_classes(4)
            .epochs(10)
            .threads(2)
            .build()
            .unwrap(),
    )
    .unwrap();
    let (train, drifted): (Vec<usize>, Vec<usize>) =
        (0..ds.len()).partition(|&i| ds.domain(i) != 3);
    let report = model.fit_indices(&ds, &train).unwrap();

    // A drifting tenant's enrolment: held-out windows read 1.5× hot.
    let windows: Vec<Matrix> = drifted.iter().map(|&i| ds.window(i).scale(1.5)).collect();
    let labels: Vec<usize> = drifted.iter().map(|&i| ds.label(i)).collect();
    let prep = model.prepare_domain(&windows, &labels, &[]).unwrap();

    let models = model.domain_models().unwrap();
    let actual = [
        ("domain models", hash(|h| models.iter().for_each(|m| h.matrix(m.class_hypervectors())))),
        ("descriptors", hash(|h| h.matrix(model.descriptors().unwrap().as_matrix()))),
        (
            "domain fit reports",
            hash(|h| report.domain_reports.iter().for_each(|(_, r)| h.report(r))),
        ),
        ("enrolled model", hash(|h| h.matrix(prep.model.class_hypervectors()))),
        ("enrolled descriptor", hash(|h| h.f32s(&prep.descriptor))),
        ("enrolled fit report", hash(|h| h.report(&prep.fit_report))),
    ];
    let pinned = [
        DOMAIN_MODELS,
        DESCRIPTORS,
        DOMAIN_REPORTS,
        ENROLLED_MODEL,
        ENROLLED_DESCRIPTOR,
        ENROLLED_REPORT,
    ];
    for (what, got) in &actual {
        println!("{what}: {got:#018x}");
    }
    for ((what, got), want) in actual.iter().zip(pinned) {
        assert_eq!(*got, want, "{what} bits drifted: got {got:#018x}");
    }
}
