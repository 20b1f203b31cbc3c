//! Run-time detection-latency extension: how many 10 ms windows does
//! the online monitor need before a freshly launched specimen trips
//! the alarm?
//!
//! The thesis' future-work section calls out "reducing latency in the
//! process of data collection" for real-time deployment; this
//! experiment quantifies the baseline the suite achieves.

use hbmd_malware::{AppClass, Sample, SampleId};
use hbmd_perf::{Sampler, SamplerConfig};

use crate::detector::DetectorBuilder;
use crate::error::CoreError;
use crate::experiments::cache::CollectCache;
use crate::experiments::ExperimentConfig;
use crate::features::FeatureSet;
use crate::online::{OnlineDetector, OnlineVerdict};
use crate::suite::ClassifierKind;

/// Detection-latency statistics for one malware family.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Malware family observed.
    pub class: AppClass,
    /// Specimens that tripped the alarm within the observation budget.
    pub detected: usize,
    /// Specimens observed.
    pub observed: usize,
    /// Mean windows-to-alarm among detected specimens (each window is
    /// one 10 ms sampling period).
    pub mean_windows_to_alarm: f64,
}

impl LatencyRow {
    /// Detection rate within the observation budget.
    pub fn detection_rate(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.detected as f64 / self.observed as f64
        }
    }

    /// Mean time to alarm in simulated milliseconds (10 ms per window).
    pub fn mean_ms_to_alarm(&self) -> f64 {
        self.mean_windows_to_alarm * 10.0
    }
}

/// Measure windows-to-alarm per family: train a J48 detector on the
/// configured collection, then stream `specimens_per_class` *unseen*
/// specimens (fresh ids beyond the catalog) through an
/// [`OnlineDetector`] with a 4-window voting window and a 3-vote
/// threshold, for up to `max_windows` windows each.
///
/// # Errors
///
/// Propagates collection, training, and sampler-configuration errors.
pub fn windows_to_alarm(
    config: &ExperimentConfig,
    specimens_per_class: usize,
    max_windows: usize,
) -> Result<Vec<LatencyRow>, CoreError> {
    windows_to_alarm_with(
        CollectCache::global(),
        config,
        specimens_per_class,
        max_windows,
    )
}

/// [`windows_to_alarm`] against an explicit [`CollectCache`].
///
/// # Errors
///
/// Propagates collection, training, and sampler-configuration errors.
pub fn windows_to_alarm_with(
    cache: &CollectCache,
    config: &ExperimentConfig,
    specimens_per_class: usize,
    max_windows: usize,
) -> Result<Vec<LatencyRow>, CoreError> {
    if specimens_per_class == 0 || max_windows == 0 {
        return Err(CoreError::Config(
            "need at least one specimen and one window".to_owned(),
        ));
    }
    let collection = cache.collect(config)?;
    let detector = DetectorBuilder::new()
        .classifier(ClassifierKind::J48)
        .feature_set(FeatureSet::Top(8))
        .train_binary(&collection.dataset)?;

    let sampler = Sampler::new(SamplerConfig {
        windows_per_sample: max_windows,
        ..config.collector.sampler.clone()
    })?;

    let mut rows = Vec::with_capacity(AppClass::MALWARE.len());
    for class in AppClass::MALWARE {
        let mut detected = 0usize;
        let mut total_windows = 0usize;
        for k in 0..specimens_per_class {
            // Fresh specimen ids beyond any catalog id, so the detector
            // has never seen these samples.
            let sample = Sample::generate(
                SampleId(1_000_000 + (class.index() * specimens_per_class + k) as u32),
                class,
                config.catalog_seed ^ 0xDEC0DE,
            );
            let mut monitor = OnlineDetector::builder(detector.clone())
                .window(4)
                .threshold(3)
                .build()
                .expect("static monitor shape");
            for (w, window) in sampler.collect_sample(&sample).iter().enumerate() {
                if matches!(monitor.observe(window), OnlineVerdict::Alarm { .. }) {
                    detected += 1;
                    total_windows += w + 1;
                    break;
                }
            }
        }
        rows.push(LatencyRow {
            class,
            detected,
            observed: specimens_per_class,
            mean_windows_to_alarm: if detected == 0 {
                f64::NAN
            } else {
                total_windows as f64 / detected as f64
            },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_families_trip_the_alarm_quickly() {
        let rows = windows_to_alarm(&ExperimentConfig::fast(), 4, 16).expect("experiment");
        assert_eq!(rows.len(), 5);
        let total_detected: usize = rows.iter().map(|r| r.detected).sum();
        let total_observed: usize = rows.iter().map(|r| r.observed).sum();
        assert!(
            total_detected as f64 / total_observed as f64 > 0.6,
            "detected {total_detected}/{total_observed}"
        );
        for row in &rows {
            if row.detected > 0 {
                // The voting window needs at least 3 votes.
                assert!(row.mean_windows_to_alarm >= 3.0, "{}", row.class);
                assert!(row.mean_ms_to_alarm() >= 30.0);
            }
        }
    }

    #[test]
    fn degenerate_budgets_are_rejected() {
        assert!(windows_to_alarm(&ExperimentConfig::fast(), 0, 8).is_err());
        assert!(windows_to_alarm(&ExperimentConfig::fast(), 1, 0).is_err());
    }
}
