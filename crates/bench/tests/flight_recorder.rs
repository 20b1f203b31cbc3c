//! The flight recorder through the fleet. Its determinism contract:
//! two same-seed fleet runs, each recording into its own hub, must
//! freeze into byte-identical diagnostic bundles — every file, the
//! checksummed `MANIFEST` included. This is what makes a bundle
//! attached to a bug report reproducible evidence rather than a
//! one-off artifact. Each run installs its own obs context, which the
//! fleet's shard threads inherit, so tests running alongside cannot
//! leak counters into a bundle's `metrics.json`.

use std::path::PathBuf;
use std::sync::Arc;

use hbmd_bench::fleet::{run_fleet, FleetConfig};
use hbmd_core::{ClassifierKind, Detector, DetectorBuilder, FeatureSet, StreamState};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleCatalog, SampleId};
use hbmd_obs::recorder::{read_bundle, Event, RecorderHub, Trigger, MANIFEST_FILE};
use hbmd_obs::Obs;
use hbmd_perf::{Collector, CollectorConfig, DataRow, HpcDataset, SamplerConfig};

fn features(level: f64) -> FeatureVector {
    FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
}

/// A detector trained on a perfectly separable synthetic dataset —
/// training is deterministic, so both runs share identical weights.
fn detector() -> Arc<Detector> {
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
    Arc::new(
        DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .feature_set(FeatureSet::Top(8))
            .train_binary(&HpcDataset::from_rows(rows))
            .expect("train on separable data"),
    )
}

/// One full recorded run: fleet over the recorder hub, then an
/// explicit trigger freezing the rings into a bundle. Returns the
/// bundle directory.
fn run_once(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("hbmd-recorder-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let guard = hbmd_obs::install(Obs::new());
    let hub = Arc::new(
        RecorderHub::new(4, 64)
            .with_bundle_dir(&root)
            .with_deterministic(true)
            .with_manifest_json("{\"tool\": \"flight-recorder-test\"}")
            .with_families(AppClass::ALL.iter().map(|c| c.name().to_owned()).collect()),
    );
    let config = FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
        // Park the breaker out of reach: abstention patterns stay
        // stream-local, so the recorded event stream is seed-pure.
        breaker: (257, usize::MAX, 32),
        recorder: Some(Arc::clone(&hub)),
        ..FleetConfig::lossless(8, 4, 32)
    };
    run_fleet(&detector(), &SamplerConfig::fast(), &config).expect("fleet run");
    let mut trigger = Trigger::new("http_request");
    trigger.details = "determinism probe".to_owned();
    let outcome = hub
        .trigger(&trigger)
        .expect("bundle written")
        .expect("not suppressed");
    assert!(outcome.events > 0, "fleet run recorded no events");
    drop(guard);
    outcome.path
}

#[test]
fn same_seed_fleet_runs_freeze_into_byte_identical_bundles() {
    let first = run_once("a");
    let second = run_once("b");
    let bundle_a = read_bundle(&first).expect("first bundle verifies");
    let bundle_b = read_bundle(&second).expect("second bundle verifies");
    assert_eq!(
        bundle_a.entries, bundle_b.entries,
        "bundle manifests diverged between same-seed runs"
    );
    for name in [
        "events.jsonl",
        "metrics.json",
        "manifest.json",
        "trigger.json",
        MANIFEST_FILE,
    ] {
        let a = std::fs::read(first.join(name)).expect("first file");
        let b = std::fs::read(second.join(name)).expect("second file");
        assert_eq!(a, b, "{name} differs between same-seed runs");
    }
    for root in [first, second] {
        let parent = root.parent().expect("bundle parent").to_path_buf();
        let _ = std::fs::remove_dir_all(parent);
    }
}

#[test]
fn suspicious_windows_record_disagreement_events() {
    // A forest trained on sampled windows disagrees with itself on some
    // of the fleet's windows; a low suspicion threshold flags them.
    let catalog = SampleCatalog::scaled(0.03, 17);
    let dataset = Collector::new(CollectorConfig::fast())
        .expect("static config")
        .collect(&catalog)
        .expect("pristine pipeline")
        .dataset;
    let forest = Arc::new(
        DetectorBuilder::new()
            .classifier(ClassifierKind::RandomForest)
            .train_binary(&dataset)
            .expect("train forest"),
    );
    let guard = hbmd_obs::install(Obs::new());
    let hub = Arc::new(RecorderHub::new(1, 1024));
    let config = FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1)
            .and_then(|state| state.with_suspicion_threshold(0.01))
            .expect("valid shape"),
        breaker: (257, usize::MAX, 32),
        recorder: Some(Arc::clone(&hub)),
        ..FleetConfig::lossless(4, 1, 64)
    };
    run_fleet(&forest, &SamplerConfig::fast(), &config).expect("fleet run");

    let disagreements: Vec<(u64, u16)> = hub
        .ring(0)
        .drain()
        .into_iter()
        .filter_map(|(_, event)| match event {
            Event::Disagreement {
                stream,
                threshold_permille,
                ..
            } => Some((stream, threshold_permille)),
            _ => None,
        })
        .collect();
    assert!(!disagreements.is_empty(), "no disagreement event recorded");
    assert!(disagreements
        .iter()
        .all(|&(stream, threshold)| stream < 4 && threshold == 10));
    // One event per trip the streams counted, in the context the shard
    // threads inherited.
    assert_eq!(
        guard
            .registry()
            .snapshot()
            .counter("online.disagreement_trips"),
        disagreements.len() as u64
    );
    drop(guard);
}
