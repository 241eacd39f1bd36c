//! Cross-crate integration tests: the full paper pipeline — synthetic
//! datasets through encoders, SMORE, baselines and the evaluation
//! protocol.

use smore::pipeline::{self, TaskMeta, WindowClassifier};
use smore::{Predictor, Smore, SmoreConfig};
use smore_baselines::baseline_hd::{BaselineHd, BaselineHdConfig};
use smore_baselines::cnn::CnnConfig;
use smore_baselines::domino::{Domino, DominoConfig};
use smore_baselines::mdan::{Mdan, MdanConfig};
use smore_baselines::tent::{Tent, TentConfig};
use smore_data::presets::{self, PresetProfile};
use smore_data::split;

fn tiny_usc() -> smore_data::Dataset {
    let mut profile = PresetProfile::tiny();
    profile.scale = 0.025;
    presets::usc_had(&profile).unwrap()
}

fn small_smore(ds: &smore_data::Dataset, dim: usize) -> Smore {
    Smore::new(
        SmoreConfig::builder()
            .dim(dim)
            .channels(ds.meta().channels)
            .num_classes(ds.meta().num_classes)
            .epochs(10)
            .build()
            .unwrap(),
    )
    .unwrap()
}

#[test]
fn smore_end_to_end_on_usc_preset() {
    let ds = tiny_usc();
    let mut model = small_smore(&ds, 2048);
    let outcome = pipeline::run_lodo(&ds, &mut model, 0).unwrap();
    assert!(
        outcome.accuracy > 1.0 / ds.meta().num_classes as f32,
        "SMORE accuracy {} at or below chance",
        outcome.accuracy
    );
    assert!(outcome.n_train > 0 && outcome.n_test > 0);
}

#[test]
fn smore_beats_pooled_and_tracks_baseline_hd_under_lodo() {
    // The paper's central comparison is SMORE ≫ BaselineHD (+20.25%). On
    // this synthetic substrate the OnlineHD projection baseline is
    // anomalously strong (EXPERIMENTS.md divergence #1), so the robust
    // contracts are: (a) SMORE's domain machinery never loses to the
    // *same-encoder* pooled model — the clean measure of the DA mechanism
    // — and (b) SMORE stays within the documented band of BaselineHD.
    let ds = tiny_usc();
    let dim = 1024;
    let chance = 1.0 / ds.meta().num_classes as f32;

    let smore_mean = pipeline::mean_accuracy(
        &pipeline::run_lodo_all(&ds, || Ok(Box::new(small_smore(&ds, dim)))).unwrap(),
    );

    // Same-encoder pooled ablation: one classifier over all domains, using
    // SMORE's own encoding path.
    let mut pooled_sum = 0.0f32;
    for held in 0..ds.meta().num_domains {
        let (train, test) = split::lodo(&ds, held).unwrap();
        let mut model = small_smore(&ds, dim);
        model.fit_indices(&ds, &train).unwrap();
        let (train_w, train_l, _) = ds.gather(&train);
        let encoded = model.encode(&train_w).unwrap();
        let mut pooled =
            smore_hdc::model::HdcClassifier::new(smore_hdc::model::HdcClassifierConfig {
                dim,
                num_classes: ds.meta().num_classes,
                learning_rate: 0.05,
                epochs: 10,
            })
            .unwrap();
        pooled.fit(&encoded, &train_l).unwrap();
        let (test_w, test_l, _) = ds.gather(&test);
        let test_enc = model.encode(&test_w).unwrap();
        let preds = pooled.predict_batch(&test_enc, 2).unwrap();
        pooled_sum +=
            preds.iter().zip(&test_l).filter(|(p, t)| p == t).count() as f32 / test_l.len() as f32;
    }
    let pooled_mean = pooled_sum / ds.meta().num_domains as f32;

    let baseline_mean = pipeline::mean_accuracy(
        &pipeline::run_lodo_all(&ds, || {
            Ok(Box::new(BaselineHd::new(BaselineHdConfig {
                dim,
                epochs: 10,
                ..BaselineHdConfig::default()
            })))
        })
        .unwrap(),
    );

    assert!(smore_mean > 2.0 * chance, "SMORE mean {smore_mean} too close to chance");
    assert!(
        smore_mean >= pooled_mean - 0.02,
        "SMORE ({smore_mean}) must not lose to the same-encoder pooled model ({pooled_mean})"
    );
    assert!(
        smore_mean >= baseline_mean - 0.08,
        "SMORE ({smore_mean}) fell out of the documented band of BaselineHD ({baseline_mean})"
    );
}

#[test]
fn kfold_inflates_baseline_hd_accuracy() {
    // Figure 1(b): the leaky shuffled protocol scores above honest LODO.
    let ds = tiny_usc();
    let make = || -> Result<Box<dyn WindowClassifier>, pipeline::BoxError> {
        Ok(Box::new(BaselineHd::new(BaselineHdConfig {
            dim: 2048,
            epochs: 10,
            ..BaselineHdConfig::default()
        })))
    };
    let lodo_mean = pipeline::mean_accuracy(&pipeline::run_lodo_all(&ds, make).unwrap());
    let kfold = pipeline::run_kfold(&ds, make, ds.meta().num_domains, 3).unwrap();
    let kfold_mean: f32 = kfold.iter().sum::<f32>() / kfold.len() as f32;
    assert!(
        kfold_mean > lodo_mean + 0.02,
        "k-fold ({kfold_mean}) should inflate over LODO ({lodo_mean})"
    );
}

#[test]
fn all_five_algorithms_run_under_the_shared_protocol() {
    let ds = tiny_usc();
    let chance = 1.0 / ds.meta().num_classes as f32;
    let cnn = CnnConfig {
        conv1_channels: 8,
        conv2_channels: 8,
        kernel: 3,
        feature_width: 16,
        epochs: 4,
        ..CnnConfig::default()
    };
    let mut classifiers: Vec<Box<dyn WindowClassifier>> = vec![
        Box::new(Tent::new(TentConfig {
            cnn: cnn.clone(),
            adaptation_steps: 2,
            ..TentConfig::default()
        })),
        Box::new(Mdan::new(MdanConfig { cnn, ..MdanConfig::default() })),
        Box::new(BaselineHd::new(BaselineHdConfig {
            dim: 1024,
            epochs: 5,
            ..BaselineHdConfig::default()
        })),
        Box::new(Domino::new(DominoConfig {
            dim: 256,
            total_dim_budget: 512,
            regen_per_round: 256,
            epochs: 5,
            ..DominoConfig::default()
        })),
        Box::new(small_smore(&ds, 1024)),
    ];
    for classifier in classifiers.iter_mut() {
        let name = classifier.name().to_string();
        let outcome = pipeline::run_lodo(&ds, classifier.as_mut(), 1)
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(
            outcome.accuracy >= chance * 0.5,
            "{name} accuracy {} collapsed far below chance",
            outcome.accuracy
        );
    }
}

#[test]
fn ood_detector_flags_unseen_domain_more_often() {
    let ds = tiny_usc();
    let (train, test) = split::lodo(&ds, 2).unwrap();
    let mut model = small_smore(&ds, 2048);
    model.fit_indices(&ds, &train).unwrap();

    let delta_of = |idx: &[usize], model: &Smore| -> f32 {
        let (w, _, _) = ds.gather(idx);
        let ps = model.predict_batch(&w).unwrap();
        ps.iter().map(|p| p.delta_max).sum::<f32>() / ps.len() as f32
    };
    let n = 40.min(train.len()).min(test.len());
    let train_delta = delta_of(&train[..n], &model);
    let test_delta = delta_of(&test[..n], &model);
    assert!(
        train_delta > test_delta,
        "held-out windows should sit farther from every descriptor: {train_delta} vs {test_delta}"
    );
}

#[test]
fn deterministic_across_runs() {
    let ds = tiny_usc();
    let (train, test) = split::lodo(&ds, 1).unwrap();
    let run = || {
        let mut model = small_smore(&ds, 1024);
        model.fit_indices(&ds, &train).unwrap();
        let (w, _, _) = ds.gather(&test[..20]);
        model.predict_batch(&w).unwrap()
    };
    assert_eq!(run(), run(), "same seed, same data => identical predictions");
}

#[test]
fn presets_feed_every_classifier_shape() {
    // The DSADS and PAMAP2 presets have many channels; make sure the
    // pipeline handles them end to end at tiny scale.
    let mut profile = PresetProfile::tiny();
    profile.scale = 0.012;
    for (name, make) in presets::all() {
        let ds = make(&profile).unwrap();
        let mut model = small_smore(&ds, 512);
        let outcome =
            pipeline::run_lodo(&ds, &mut model, 0).unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(outcome.accuracy > 0.0, "{name}: zero accuracy");
    }
}

#[test]
fn mdan_uses_target_windows_through_the_protocol() {
    // fit_with_target must accept the unlabelled target set the protocol
    // provides (smoke test that the DA privilege wiring works).
    let ds = tiny_usc();
    let (train, test) = split::lodo(&ds, 0).unwrap();
    let (w, l, d) = ds.gather(&train);
    let (tw, _, _) = ds.gather(&test);
    let meta = TaskMeta {
        num_classes: ds.meta().num_classes,
        num_domains: ds.meta().num_domains - 1,
        channels: ds.meta().channels,
        window_len: ds.meta().window_len,
    };
    let mut mdan = Mdan::new(MdanConfig {
        cnn: CnnConfig {
            conv1_channels: 8,
            conv2_channels: 8,
            kernel: 3,
            feature_width: 16,
            epochs: 3,
            ..CnnConfig::default()
        },
        ..MdanConfig::default()
    });
    mdan.fit_with_target(&w, &l, &d, &meta, &tw).unwrap();
    let preds = mdan.predict(&tw).unwrap();
    assert_eq!(preds.len(), tw.len());
}
