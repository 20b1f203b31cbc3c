//! Integration tests for the sharded fleet pipeline: per-stream
//! verdict streams must be byte-identical at any shard count, a shard
//! kill must stay invisible behind its bulkhead, the multiplexed
//! checkpoint must resume instead of replaying (and be refused under a
//! different config digest), a faulty stream must be quarantined
//! without touching its neighbors, and a NaN burst must degrade — not
//! kill — a shard.

use std::path::PathBuf;

use hbmd_bench::fleet::{run_fleet, FleetConfig};
use hbmd_core::{shard_of, ClassifierKind, Detector, DetectorBuilder, FeatureSet, StreamState};
use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_malware::{AppClass, SampleCatalog, SampleId};
use hbmd_perf::{Collector, CollectorConfig, DataRow, HpcDataset, SamplerConfig};
use std::sync::Arc;

fn features(level: f64) -> FeatureVector {
    FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
}

/// A detector trained on a perfectly separable synthetic dataset, so
/// tests spend no time on collection. Its sanitizer abstains on many
/// real sampled windows, which exercises the stream-health path — the
/// breaker is parked out of reach in these tests so abstention patterns
/// stay stream-local and shard-count independent.
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

/// Lossless fleet config with the shard breaker parked out of reach:
/// the toy-trained sanitizer abstains freely, and an open breaker is a
/// *shard-level* state that would couple streams across the shard.
fn config(streams: u64, shards: usize, windows: u64) -> FleetConfig {
    FleetConfig {
        pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
        breaker: (257, usize::MAX, 32),
        ..FleetConfig::lossless(streams, shards, windows)
    }
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hbmd-fleet-{}-{name}", std::process::id()))
}

#[test]
fn verdict_streams_are_byte_identical_at_any_shard_count() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let single = run_fleet(&detector, &sampler, &config(8, 1, 32)).expect("1 shard");
    assert_eq!(single.verdicts.len(), 8, "every stream captured");
    for shards in [2usize, 8] {
        let multi = run_fleet(&detector, &sampler, &config(8, shards, 32)).expect("sharded run");
        assert_eq!(
            multi.verdicts, single.verdicts,
            "verdicts diverged between 1 and {shards} shards"
        );
        assert_eq!(
            multi.stream_health, single.stream_health,
            "stream health diverged between 1 and {shards} shards"
        );
    }
}

#[test]
fn shard_kill_is_invisible_behind_the_bulkhead() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let (streams, shards, windows) = (8u64, 4usize, 48u64);
    let baseline =
        run_fleet(&detector, &sampler, &config(streams, shards, windows)).expect("baseline run");
    assert_eq!(baseline.restarts, 0);

    let checkpoint = scratch("kill.snap");
    let _ = std::fs::remove_file(&checkpoint);
    let victim = shard_of(0, shards);
    let faulted_config = FleetConfig {
        checkpoint_every: 16,
        checkpoint_path: Some(checkpoint.clone()),
        config_digest: 0xBEEF,
        panic_at: vec![(victim, windows / 2)],
        ..config(streams, shards, windows)
    };
    let faulted = run_fleet(&detector, &sampler, &faulted_config).expect("faulted run");
    assert_eq!(faulted.restarts, 1, "one restart for the injected panic");
    assert_eq!(
        faulted.shards[victim].restarts, 1,
        "the restart happened on the victim shard"
    );
    assert!(
        faulted.shards[victim].max_missed_gap
            <= faulted_config.checkpoint_every + faulted_config.queue_capacity as u64,
        "victim replay gap {} exceeds checkpoint spacing + queue depth",
        faulted.shards[victim].max_missed_gap
    );
    assert!(
        checkpoint.exists(),
        "clean shutdown flushes a final checkpoint"
    );
    for shard in faulted.shards.iter().filter(|s| s.shard != victim) {
        assert_eq!(shard.restarts, 0, "shard {} restarted", shard.shard);
        assert_eq!(
            shard.max_missed_gap, 0,
            "shard {} replayed windows",
            shard.shard
        );
    }
    assert_eq!(
        faulted.verdicts, baseline.verdicts,
        "post-recovery verdicts must match the unfaulted fleet exactly"
    );
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn multiplexed_checkpoint_resumes_every_stream() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let checkpoint = scratch("resume.snap");
    let _ = std::fs::remove_file(&checkpoint);
    let first = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            checkpoint_every: 8,
            checkpoint_path: Some(checkpoint.clone()),
            config_digest: 0xBEEF,
            ..config(4, 2, 32)
        },
    )
    .expect("first run");
    assert_eq!(first.processed, 4 * 32);

    let second = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            checkpoint_every: 8,
            checkpoint_path: Some(checkpoint.clone()),
            config_digest: 0xBEEF,
            ..config(4, 2, 48)
        },
    )
    .expect("resumed run");
    assert_eq!(
        second.processed,
        4 * 16,
        "a resumed fleet picks up every stream at its checkpoint cursor"
    );
    assert_eq!(second.refusals, 0);
    assert_eq!(second.lost_sections, 0);
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn faulty_stream_is_quarantined_without_touching_neighbors() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let quiet = run_fleet(&detector, &sampler, &config(4, 1, 64)).expect("quiet run");
    let faulty = 1u64;
    let stormy = run_fleet(
        &detector,
        &sampler,
        &FleetConfig {
            nan_streams: vec![(faulty, 8, 48)],
            ..config(4, 1, 64)
        },
    )
    .expect("stormy run");
    let (_, quarantines, _) = stormy.stream_health[&faulty];
    assert!(
        quarantines >= 1,
        "a 40-window NaN burst must quarantine the stream"
    );
    assert!(stormy.quarantine_skipped >= 1);
    for (stream, verdicts) in stormy.verdicts.iter().filter(|(s, _)| **s != faulty) {
        assert_eq!(
            Some(verdicts),
            quiet.verdicts.get(stream),
            "stream {stream}'s verdicts changed because a neighbor was quarantined"
        );
    }
}

#[test]
fn mismatched_digest_forces_a_pristine_start() {
    let detector = detector();
    let sampler = SamplerConfig::fast();
    let checkpoint = scratch("digest.snap");
    let _ = std::fs::remove_file(&checkpoint);
    let run = |digest: u64| {
        run_fleet(
            &detector,
            &sampler,
            &FleetConfig {
                checkpoint_every: 16,
                checkpoint_path: Some(checkpoint.clone()),
                config_digest: digest,
                ..config(1, 1, 64)
            },
        )
    };
    run(0xBEEF).expect("first run");

    // Same snapshot, different run configuration: the checkpoint must
    // be refused and the run restarted from scratch, not resumed into
    // a detector trained under different assumptions.
    let other = run(0xF00D).expect("mismatched run");
    assert_eq!(other.refusals, 1, "config-digest mismatch must be refused");
    assert_eq!(other.processed, 64, "refusal falls back to a full run");
    let _ = std::fs::remove_file(&checkpoint);
}

#[test]
fn nan_burst_degrades_and_recovers() {
    // Trained on sampled windows, so the sanitizer accepts the clean
    // windows around the burst and only the burst itself abstains.
    let dataset = Collector::new(CollectorConfig::fast())
        .expect("static config")
        .collect(&SampleCatalog::scaled(0.03, 17))
        .expect("pristine pipeline")
        .dataset;
    let detector = Arc::new(
        DetectorBuilder::new()
            .classifier(ClassifierKind::J48)
            .feature_set(FeatureSet::Top(8))
            .train_binary(&dataset)
            .expect("train on sampled windows"),
    );
    let report = run_fleet(
        &detector,
        &SamplerConfig::fast(),
        &FleetConfig {
            pristine_stream: StreamState::new(4, 3, 1, 1).expect("static shape"),
            queue_capacity: 32,
            nan_streams: vec![(0, 32, 96)],
            ..FleetConfig::lossless(1, 1, 160)
        },
    )
    .expect("stormy run");
    assert!(
        report.trips >= 1,
        "a sustained NaN burst must trip the breaker"
    );
    assert!(report.degraded > 0, "an open breaker must skip windows");
    assert_eq!(report.restarts, 0, "degradation is not a crash");
    assert!(
        report.verdicts[&0]
            .last()
            .expect("capture enabled")
            .is_some(),
        "classification must resume after the burst clears"
    );
}
