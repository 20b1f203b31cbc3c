//! Property-based equivalence proofs for the compiled flat evaluators:
//! every compilable scheme fitted on an arbitrary dataset must agree
//! with its pointer-walking interpreter on arbitrary probe windows —
//! including NaN- and infinity-bearing ones — both per-window and
//! batched, and a detector restored from an `HBMDFLTS` image must
//! recompile to an evaluator identical to the original's.

use std::sync::OnceLock;

use hbmd::core::snapshot::{decode_fleet, encode_fleet};
use hbmd::core::{ClassifierKind, Detector, DetectorBuilder, FeatureSet};
use hbmd::events::{FeatureVector, HpcEvent};
use hbmd::malware::{AppClass, SampleId};
use hbmd::ml::{Classifier, Dataset, RowsView};
use hbmd::perf::{DataRow, HpcDataset};
use proptest::prelude::*;

/// Feature width of the randomized training sets (kept narrow so tree
/// induction stays fast under proptest).
const WIDTH: usize = 4;

/// Every scheme the compilation pass covers.
const COMPILABLE: [ClassifierKind; 9] = [
    ClassifierKind::ZeroR,
    ClassifierKind::OneR,
    ClassifierKind::DecisionStump,
    ClassifierKind::JRip,
    ClassifierKind::J48,
    ClassifierKind::RepTree,
    ClassifierKind::AdaBoost,
    ClassifierKind::Bagging,
    ClassifierKind::RandomForest,
];

/// An arbitrary (but trainable) dataset: quantized feature values so
/// tree induction finds real split points, proptest-chosen labels with
/// the first rows pinned to distinct classes so no scheme sees a
/// single-class set.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    let row = (prop::collection::vec(0u8..=40, WIDTH), 0usize..3);
    prop::collection::vec(row, 16..48).prop_map(|rows| {
        let mut data = Dataset::new(
            (0..WIDTH).map(|f| format!("f{f}")).collect(),
            vec!["benign".into(), "malware".into(), "firmware".into()],
        )
        .expect("valid schema");
        for (i, (values, label)) in rows.into_iter().enumerate() {
            let label = if i < 2 { i } else { label };
            let values = values.into_iter().map(|v| f64::from(v) * 0.25).collect();
            data.push(values, label).expect("row width matches schema");
        }
        data
    })
}

/// An arbitrary probe window: mostly in-range values, salted with NaN
/// and both infinities so every comparison edge of the flat evaluators
/// is exercised against the interpreters.
fn window_strategy() -> impl Strategy<Value = Vec<f64>> {
    let value = (0u8..8, -2.0..12.0f64).prop_map(|(tag, v)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => v,
    });
    prop::collection::vec(value, WIDTH)
}

fn features(level: f64) -> FeatureVector {
    FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
}

/// The separable full-width set the snapshot-roundtrip detectors train
/// on (same shape as the monitor-codec proptests).
fn synthetic_dataset() -> HpcDataset {
    let mut rows = Vec::new();
    for i in 0..40 {
        let class = AppClass::ALL[i % AppClass::COUNT];
        let level = if class == AppClass::Benign {
            1.0
        } else {
            100.0
        };
        rows.push(DataRow {
            sample: SampleId(i as u32),
            class,
            features: features(level),
        });
    }
    HpcDataset::from_rows(rows)
}

/// Trained detectors over compilable schemes, built once (training is
/// the expensive part) and shared across proptest cases.
fn detectors() -> &'static Vec<Detector> {
    static DETECTORS: OnceLock<Vec<Detector>> = OnceLock::new();
    DETECTORS.get_or_init(|| {
        let dataset = synthetic_dataset();
        let configs: &[(ClassifierKind, FeatureSet)] = &[
            (ClassifierKind::OneR, FeatureSet::Top(8)),
            (ClassifierKind::JRip, FeatureSet::Full16),
            (ClassifierKind::J48, FeatureSet::Top(8)),
            (ClassifierKind::RepTree, FeatureSet::Full16),
            (ClassifierKind::AdaBoost, FeatureSet::Top(8)),
            (ClassifierKind::RandomForest, FeatureSet::Full16),
        ];
        configs
            .iter()
            .map(|&(kind, features)| {
                DetectorBuilder::new()
                    .classifier(kind)
                    .feature_set(features)
                    .train_binary(&dataset)
                    .expect("train on separable data")
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tentpole equivalence: for every compilable scheme fitted on an
    /// arbitrary dataset, the flat evaluator agrees with the
    /// pointer-walking interpreter on every probe window, and batched
    /// columnar prediction equals per-window prediction.
    #[test]
    fn compiled_matches_interpreter(
        data in dataset_strategy(),
        probes in prop::collection::vec(window_strategy(), 1..24),
    ) {
        let flat: Vec<f64> = probes.iter().flatten().copied().collect();
        let batch = RowsView::new(&flat, WIDTH);
        for kind in COMPILABLE {
            let mut model = kind.instantiate();
            if model.fit(&data).is_err() {
                // A degenerate draw (e.g. boosting stopping with no
                // members) has nothing to compile; skip the scheme.
                continue;
            }
            let compiled = model.compile().expect("fitted models compile");
            for probe in &probes {
                prop_assert_eq!(
                    compiled.predict(probe),
                    model.predict(probe),
                    "{} compiled/interpreted disagree on {:?}",
                    kind.name(),
                    probe
                );
            }
            let per_window: Vec<usize> = probes.iter().map(|p| model.predict(p)).collect();
            prop_assert_eq!(
                compiled.predict_batch(batch),
                per_window.clone(),
                "{} batch disagrees with per-window",
                kind.name()
            );
            // The suite dispatch path must route through the same
            // compiled evaluator.
            prop_assert_eq!(
                model.predict_batch(batch),
                per_window,
                "{} TrainedModel::predict_batch disagrees",
                kind.name()
            );
            // Fitted training rows must round-trip too.
            let on_train: Vec<usize> = data.rows().iter().map(|r| model.predict(r)).collect();
            prop_assert_eq!(compiled.predict_batch(data.rows()), on_train);
        }
    }

    /// `HBMDFLTS` roundtrip: the shared fleet detector recompiles
    /// identically after restore, and re-encoding is byte-identical.
    #[test]
    fn fleet_restore_recompiles_identically(
        index in 0usize..6,
        shards in 1u32..8,
        digest in 0u64..u64::MAX,
        level in 0.0..150.0f64,
    ) {
        let detector = &detectors()[index % detectors().len()];
        let bytes = encode_fleet(detector, shards, digest, &[]);
        let restored = decode_fleet(&bytes, digest).expect("clean image decodes");
        prop_assert_eq!(restored.lost_sections, 0);
        prop_assert_eq!(
            encode_fleet(&restored.detector, shards, digest, &[]),
            bytes
        );

        let compiled_before = detector.compiled().expect("compilable scheme");
        let compiled_after = restored.detector.compiled().expect("recompiled on restore");
        prop_assert_eq!(compiled_before.node_count(), compiled_after.node_count());
        prop_assert_eq!(compiled_before.byte_size(), compiled_after.byte_size());
        for &probe in &[level, f64::NAN] {
            let window = features(probe);
            prop_assert_eq!(
                detector.classify(&window),
                restored.detector.classify(&window)
            );
        }
    }
}
