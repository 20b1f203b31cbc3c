//! Property-based tests on the multiplexed fleet snapshot codec: an
//! encode→decode→encode cycle is byte-identical for arbitrary fleets of
//! live streams over every scheme and vote-window/hysteresis shape,
//! flipping any single byte of a stream frame loses that stream *alone*
//! (plus the streams framed after it when the flip hit the frame's
//! length field), every stream that does restore is exactly the one
//! that was saved, and corruption anywhere in the header or
//! shared-detector section refuses the whole file.

use std::sync::OnceLock;

use hbmd::core::snapshot::{decode_fleet, encode_fleet, fleet_stream_section_spans, StreamSection};
use hbmd::core::{
    ClassifierKind, Detector, DetectorBuilder, FeatureSet, StreamHealth, StreamHealthConfig,
    StreamState,
};
use hbmd::events::{FeatureVector, HpcEvent};
use hbmd::malware::{AppClass, SampleId};
use hbmd::perf::{DataRow, HpcDataset};
use proptest::prelude::*;

fn features(level: f64) -> FeatureVector {
    FeatureVector::from_slice(&[level; HpcEvent::COUNT]).expect("full-width vector")
}

/// A tiny, perfectly separable dataset: benign rows at 1.0, malware
/// rows at 100.0 on every feature — enough to train any scheme fast.
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

/// Training is the expensive part: the shared detectors are built once
/// and borrowed by every proptest case.
fn detectors() -> &'static Vec<Detector> {
    static DETECTORS: OnceLock<Vec<Detector>> = OnceLock::new();
    DETECTORS.get_or_init(|| {
        let dataset = synthetic_dataset();
        [
            (ClassifierKind::ZeroR, FeatureSet::Full16),
            (ClassifierKind::OneR, FeatureSet::Top(8)),
            (ClassifierKind::DecisionStump, FeatureSet::Full16),
            (ClassifierKind::J48, FeatureSet::Top(8)),
            (ClassifierKind::NaiveBayes, FeatureSet::Full16),
            (ClassifierKind::Logistic, FeatureSet::Top(8)),
            (ClassifierKind::RandomForest, FeatureSet::Full16),
            (ClassifierKind::RandomForest, FeatureSet::Top(8)),
        ]
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

/// Vote-window shapes `(window, threshold, raise_after, clear_after)`:
/// short and long rings, immediate and delayed raise, slow clears.
const SHAPES: [(usize, usize, usize, usize); 7] = [
    (3, 2, 1, 1),
    (4, 3, 2, 2),
    (5, 3, 3, 2),
    (4, 3, 2, 6),
    (8, 5, 1, 4),
    (2, 1, 1, 1),
    (6, 4, 2, 3),
];

/// A fleet of live stream sections: each stream's vote-window shape,
/// ring, hysteresis streaks, health machine, and cursor all carry data
/// shaped by its id and the case seed, so the codec sees latched
/// alarms, mid-quarantine states, and NaN-free/NaN-bearing rings alike.
fn live_sections(detector: &Detector, streams: u64, seed: u64) -> Vec<StreamSection> {
    (0..streams)
        .map(|stream| {
            let (window, threshold, raise, clear) =
                SHAPES[((seed % SHAPES.len() as u64 + stream) % SHAPES.len() as u64) as usize];
            let mut state =
                StreamState::new(window, threshold, raise, clear).expect("static shape");
            let warm = ((seed ^ stream) % 24) as usize;
            for i in 0..warm {
                let window = if (i as u64 + stream).is_multiple_of(3) {
                    features(1.0)
                } else {
                    features(100.0)
                };
                state.observe(detector, &window);
            }
            let mut health = StreamHealth::new(StreamHealthConfig::default());
            for i in 0..((seed >> 8) ^ stream) % 32 {
                health.record((i + stream) % 4 == 0);
            }
            StreamSection {
                stream,
                cursor: seed.wrapping_mul(31).wrapping_add(stream * 1_000),
                state,
                health,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fleet_roundtrip_is_lossless(
        index in 0usize..8,
        streams in 1u64..12,
        shards in 1u32..16,
        seed in 0u64..=u64::MAX,
        digest in 0u64..=u64::MAX,
    ) {
        let detector = &detectors()[index];
        let sections = live_sections(detector, streams, seed);
        let bytes = encode_fleet(detector, shards, digest, &sections);
        let back = decode_fleet(&bytes, digest).expect("decode own encoding");
        prop_assert_eq!(back.shards, shards);
        prop_assert_eq!(back.config_digest, digest);
        prop_assert_eq!(back.lost_sections, 0);
        prop_assert_eq!(back.streams.len(), sections.len());
        // Byte-identical re-encoding is the losslessness proof: every
        // field of every section survived, in order.
        prop_assert_eq!(
            encode_fleet(&back.detector, back.shards, back.config_digest, &back.streams),
            bytes
        );
    }

    #[test]
    fn corrupt_stream_section_is_lost_alone(
        index in 0usize..8,
        streams in 1u64..12,
        seed in 0u64..=u64::MAX,
        digest in 0u64..=u64::MAX,
        victim in 0usize..1_000,
        position in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let detector = &detectors()[index];
        let sections = live_sections(detector, streams, seed);
        let mut bytes = encode_fleet(detector, 4, digest, &sections);
        let spans = fleet_stream_section_spans(&bytes).expect("clean file");
        prop_assert_eq!(spans.len() as u64, streams);
        let victim = victim % spans.len();
        // The victim's whole frame: length field, payload, checksum.
        let frame = spans[victim].start - 8..spans[victim].end + 8;
        let at = frame.start + position % frame.len();
        let length_field = at < spans[victim].start;
        bytes[at] ^= mask;

        match decode_fleet(&bytes, digest) {
            Ok(back) => {
                prop_assert_eq!(back.streams.len() + back.lost_sections, sections.len());
                let ids: Vec<u64> = back.streams.iter().map(|s| s.stream).collect();
                prop_assert!(
                    !ids.contains(&sections[victim].stream),
                    "victim stream {} still present after corruption at byte {}",
                    victim,
                    at
                );
                prop_assert!(
                    sections[..victim].iter().all(|s| ids.contains(&s.stream)),
                    "a stream framed before the hit one was lost"
                );
                if !length_field {
                    prop_assert_eq!(
                        back.lost_sections,
                        1,
                        "a payload or checksum flip lost more than its section"
                    );
                }
                // A corrupted section is never deserialized: every
                // stream that restores is byte-for-byte the one saved.
                let kept: Vec<StreamSection> = sections
                    .iter()
                    .filter(|s| ids.contains(&s.stream))
                    .cloned()
                    .collect();
                prop_assert_eq!(
                    encode_fleet(detector, 4, digest, &back.streams),
                    encode_fleet(detector, 4, digest, &kept)
                );
            }
            // A length-field hit leaves the framing after it untrusted,
            // so refusing the whole file is also safe there — but a
            // payload or checksum flip must fall back per stream.
            Err(e) => prop_assert!(
                length_field,
                "flip at byte {} in a payload or checksum refused the fleet: {}",
                at,
                e
            ),
        }
    }

    #[test]
    fn corrupt_header_or_detector_refuses_the_fleet(
        index in 0usize..8,
        streams in 1u64..8,
        seed in 0u64..=u64::MAX,
        digest in 0u64..=u64::MAX,
        position in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        let detector = &detectors()[index];
        let sections = live_sections(detector, streams, seed);
        let mut bytes = encode_fleet(detector, 4, digest, &sections);
        let spans = fleet_stream_section_spans(&bytes).expect("clean file");
        // Everything before the first stream frame is header + the
        // shared-detector section — all-or-nothing territory.
        let guarded = spans[0].start - 8;
        let at = position % guarded;
        bytes[at] ^= mask;
        prop_assert!(
            decode_fleet(&bytes, digest).is_err(),
            "flipping byte {} with mask {:#04x} was accepted",
            at,
            mask
        );
    }
}
