//! Window sanitisation: the detector's first line of defence against a
//! degraded collection pipeline.
//!
//! A faulted counter stream hands the classifier NaNs (multiplexing
//! starvation), absurd magnitudes (saturated counters), and negative
//! garbage — inputs the trained models were never shown and on which
//! their verdicts are meaningless. The [`Sanitizer`] is fitted on the
//! training split and screens every incoming window:
//!
//! * values that are non-finite, negative, or far beyond the training
//!   range are *invalid*,
//! * a window with few invalid values is **repaired** by median
//!   imputation (the training median of each bad column),
//! * a window that is mostly garbage is **unusable** — the detector
//!   [abstains](crate::Verdict::Abstain) instead of guessing,
//! * a window whose values are individually plausible but *jointly*
//!   absurd — grossly displaced from the training distribution by a
//!   Mahalanobis-style RMS z-score margin — is also **unusable**: an
//!   adversarially shifted window should abstain, not classify.

use hbmd_events::{FeatureVector, HpcEvent};
use hbmd_perf::HpcDataset;

/// Slack factor over the training maximum before a value counts as
/// out-of-range: legitimate unseen workloads run somewhat hotter than
/// the training set, saturated counters run *orders of magnitude*
/// hotter.
const RANGE_SLACK: f64 = 8.0;

/// Default Mahalanobis-style outlier margin: a window whose RMS
/// z-score against the per-column training `(mean, std)` reaches this
/// is abstained on even though every value is individually in range.
/// Deliberately generous — legitimate unseen workloads sit within a
/// few σ of training; a window this far out is either a saturating
/// fault the per-column ceilings missed or an adversarial shift.
const OUTLIER_MARGIN: f64 = 16.0;

/// What screening one window produced.
#[derive(Debug, Clone, PartialEq)]
pub enum SanitizeOutcome {
    /// Every value was plausible; the window is untouched.
    Clean(FeatureVector),
    /// Some values were corrupt and have been imputed from training
    /// medians.
    Repaired {
        /// The window with corrupt columns replaced.
        features: FeatureVector,
        /// How many columns were imputed.
        repaired: usize,
    },
    /// Too much of the window was corrupt to trust a repair.
    Unusable {
        /// How many columns were invalid.
        invalid: usize,
    },
}

impl SanitizeOutcome {
    /// The usable window, if any.
    pub fn features(&self) -> Option<&FeatureVector> {
        match self {
            SanitizeOutcome::Clean(features) | SanitizeOutcome::Repaired { features, .. } => {
                Some(features)
            }
            SanitizeOutcome::Unusable { .. } => None,
        }
    }
}

/// Screens sampling windows against statistics of the training split;
/// the module-level docs describe the imputation/abstention policy.
///
/// # Examples
///
/// ```
/// use hbmd_core::{SanitizeOutcome, Sanitizer};
/// use hbmd_malware::SampleCatalog;
/// use hbmd_perf::{Collector, CollectorConfig};
///
/// let catalog = SampleCatalog::scaled(0.02, 3);
/// let dataset = Collector::new(CollectorConfig::fast())
///     .expect("static config")
///     .collect(&catalog)
///     .expect("pristine pipeline")
///     .dataset;
/// let sanitizer = Sanitizer::fit(&dataset);
///
/// let clean = &dataset.rows()[0].features;
/// assert!(matches!(sanitizer.sanitize(clean), SanitizeOutcome::Clean(_)));
///
/// let mut corrupt = clean.clone();
/// corrupt[hbmd_events::HpcEvent::CacheMisses] = f64::NAN;
/// assert!(matches!(
///     sanitizer.sanitize(&corrupt),
///     SanitizeOutcome::Repaired { repaired: 1, .. }
/// ));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sanitizer {
    /// Per-column training median (imputation value).
    medians: Vec<f64>,
    /// Per-column ceiling: training max × [`RANGE_SLACK`]; infinite for
    /// columns with no finite training data.
    ceilings: Vec<f64>,
    /// Per-column training mean (outlier screening).
    means: Vec<f64>,
    /// Per-column training standard deviation; non-finite or zero
    /// excludes the column from outlier screening.
    stds: Vec<f64>,
    /// Invalid columns tolerated before the window is unusable.
    max_repair: usize,
    /// RMS z-score at which a finite, in-range window still abstains
    /// ([`OUTLIER_MARGIN`] by default; `+inf` disables).
    outlier_margin: f64,
}

impl Sanitizer {
    /// Fit medians and ceilings per feature column on `dataset`
    /// (normally the training split). Never panics: an empty dataset
    /// yields a sanitizer that accepts any finite non-negative window.
    pub fn fit(dataset: &HpcDataset) -> Sanitizer {
        let mut medians = Vec::with_capacity(HpcEvent::COUNT);
        let mut ceilings = Vec::with_capacity(HpcEvent::COUNT);
        let mut means = Vec::with_capacity(HpcEvent::COUNT);
        let mut stds = Vec::with_capacity(HpcEvent::COUNT);
        for j in 0..HpcEvent::COUNT {
            let mut finite: Vec<f64> = dataset
                .rows()
                .iter()
                .map(|r| r.features.as_slice()[j])
                .filter(|v| v.is_finite() && *v >= 0.0)
                .collect();
            if finite.is_empty() {
                medians.push(0.0);
                ceilings.push(f64::INFINITY);
                means.push(0.0);
                stds.push(f64::INFINITY);
                continue;
            }
            finite.sort_by(|a, b| a.total_cmp(b));
            let mid = finite.len() / 2;
            let median = if finite.len() % 2 == 1 {
                finite[mid]
            } else {
                (finite[mid - 1] + finite[mid]) / 2.0
            };
            medians.push(median);
            ceilings.push(finite[finite.len() - 1] * RANGE_SLACK);
            let n = finite.len() as f64;
            let mean = finite.iter().sum::<f64>() / n;
            let var = finite.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            means.push(mean);
            stds.push(var.sqrt());
        }
        Sanitizer {
            medians,
            ceilings,
            means,
            stds,
            max_repair: HpcEvent::COUNT / 4,
            outlier_margin: OUTLIER_MARGIN,
        }
    }

    /// Override how many invalid columns a repair may impute (default:
    /// a quarter of the feature vector — a window needing more than
    /// that is mostly synthetic after imputation, and an imputed
    /// majority would let the medians, not the workload, cast the
    /// vote). Windows with more become [`SanitizeOutcome::Unusable`].
    pub fn with_max_repair(mut self, max_repair: usize) -> Sanitizer {
        self.max_repair = max_repair.min(HpcEvent::COUNT);
        self
    }

    /// Override the Mahalanobis-style outlier margin (RMS z-score;
    /// `f64::INFINITY` disables the screen entirely). Non-finite or
    /// non-positive margins other than `+inf` also disable it.
    pub fn with_outlier_margin(mut self, margin: f64) -> Sanitizer {
        self.outlier_margin = if margin > 0.0 { margin } else { f64::INFINITY };
        self
    }

    /// The armed outlier margin (`+inf` when disabled).
    pub fn outlier_margin(&self) -> f64 {
        self.outlier_margin
    }

    /// RMS z-score of a window against the training distribution, over
    /// the columns with usable spread. `0.0` when no column qualifies.
    pub fn rms_z(&self, values: &[f64]) -> f64 {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for (j, &v) in values.iter().enumerate().take(self.stds.len()) {
            let std = self.stds[j];
            if std > 0.0 && std.is_finite() {
                let z = (v - self.means[j]) / std;
                sum += z * z;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            (sum / n as f64).sqrt()
        }
    }

    /// The per-column imputation medians.
    pub fn medians(&self) -> &[f64] {
        &self.medians
    }

    /// Screen one window. Never panics, whatever the input holds.
    pub fn sanitize(&self, window: &FeatureVector) -> SanitizeOutcome {
        let values = window.as_slice();
        let invalid: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|&(j, &v)| !self.is_valid(j, v))
            .map(|(j, _)| j)
            .collect();
        if invalid.is_empty() {
            if let Some(outliers) = self.joint_outliers(values) {
                return SanitizeOutcome::Unusable { invalid: outliers };
            }
            return SanitizeOutcome::Clean(window.clone());
        }
        if invalid.len() > self.max_repair {
            return SanitizeOutcome::Unusable {
                invalid: invalid.len(),
            };
        }
        let mut repaired = values.to_vec();
        for &j in &invalid {
            repaired[j] = self.medians[j];
        }
        if let Some(outliers) = self.joint_outliers(&repaired) {
            return SanitizeOutcome::Unusable {
                invalid: invalid.len().max(outliers),
            };
        }
        SanitizeOutcome::Repaired {
            features: FeatureVector::from_slice(&repaired).expect("same width"),
            repaired: invalid.len(),
        }
    }

    fn is_valid(&self, column: usize, value: f64) -> bool {
        value.is_finite() && value >= 0.0 && value <= self.ceilings[column]
    }

    /// When the window's RMS z-score reaches the outlier margin,
    /// returns how many columns individually exceed it (at least one:
    /// the RMS is bounded by the max |z|). `None` below the margin.
    fn joint_outliers(&self, values: &[f64]) -> Option<usize> {
        if !self.outlier_margin.is_finite() || self.rms_z(values) < self.outlier_margin {
            return None;
        }
        let count = values
            .iter()
            .enumerate()
            .take(self.stds.len())
            .filter(|&(j, &v)| {
                let std = self.stds[j];
                std > 0.0
                    && std.is_finite()
                    && ((v - self.means[j]) / std).abs() >= self.outlier_margin
            })
            .count();
        Some(count.max(1))
    }
}

use hbmd_ml::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Sanitizer {
    fn snap(&self, w: &mut SnapWriter) {
        self.medians.snap(w);
        self.ceilings.snap(w);
        self.max_repair.snap(w);
        // v2 tail: the outlier screen's training stats and margin.
        self.means.snap(w);
        self.stds.snap(w);
        self.outlier_margin.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let medians: Vec<f64> = Snap::unsnap(r)?;
        let ceilings: Vec<f64> = Snap::unsnap(r)?;
        if medians.len() != ceilings.len() {
            return Err(SnapError::Invalid(format!(
                "sanitizer medians/ceilings length mismatch: {} vs {}",
                medians.len(),
                ceilings.len()
            )));
        }
        let max_repair = Snap::unsnap(r)?;
        let means: Vec<f64> = Snap::unsnap(r)?;
        let stds: Vec<f64> = Snap::unsnap(r)?;
        if means.len() != medians.len() || stds.len() != medians.len() {
            return Err(SnapError::Invalid(format!(
                "sanitizer means/stds length mismatch: {} / {} vs {}",
                means.len(),
                stds.len(),
                medians.len()
            )));
        }
        let outlier_margin: f64 = Snap::unsnap(r)?;
        if outlier_margin.is_nan() || outlier_margin <= 0.0 {
            return Err(SnapError::Invalid(format!(
                "sanitizer outlier margin {outlier_margin} must be positive"
            )));
        }
        Ok(Sanitizer {
            medians,
            ceilings,
            means,
            stds,
            max_repair,
            outlier_margin,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_malware::SampleCatalog;
    use hbmd_perf::{Collector, CollectorConfig};

    fn fitted() -> (HpcDataset, Sanitizer) {
        let catalog = SampleCatalog::scaled(0.02, 5);
        let dataset = Collector::new(CollectorConfig::fast())
            .expect("config")
            .collect(&catalog)
            .expect("collect")
            .dataset;
        let sanitizer = Sanitizer::fit(&dataset);
        (dataset, sanitizer)
    }

    #[test]
    fn training_windows_pass_clean() {
        let (dataset, sanitizer) = fitted();
        for row in dataset.rows() {
            assert!(matches!(
                sanitizer.sanitize(&row.features),
                SanitizeOutcome::Clean(_)
            ));
        }
    }

    #[test]
    fn light_corruption_is_repaired_with_medians() {
        let (dataset, sanitizer) = fitted();
        let mut window = dataset.rows()[0].features.clone();
        window[HpcEvent::BranchInstructions] = f64::NAN;
        window[HpcEvent::BranchMisses] = -4.0;
        match sanitizer.sanitize(&window) {
            SanitizeOutcome::Repaired { features, repaired } => {
                assert_eq!(repaired, 2);
                let j = HpcEvent::BranchInstructions.index();
                assert_eq!(features.as_slice()[j], sanitizer.medians()[j]);
                assert!(features.as_slice().iter().all(|v| v.is_finite()));
            }
            other => panic!("expected repair, got {other:?}"),
        }
    }

    #[test]
    fn saturated_counters_are_out_of_range() {
        let (dataset, sanitizer) = fitted();
        let mut window = dataset.rows()[0].features.clone();
        window[HpcEvent::CacheReferences] = hbmd_perf::SATURATION_CEILING;
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Repaired { repaired: 1, .. }
        ));
    }

    #[test]
    fn garbage_windows_are_unusable() {
        let (_, sanitizer) = fitted();
        let values = vec![f64::NAN; HpcEvent::COUNT];
        let window = FeatureVector::from_slice(&values).expect("16");
        match sanitizer.sanitize(&window) {
            SanitizeOutcome::Unusable { invalid } => {
                assert_eq!(invalid, HpcEvent::COUNT);
            }
            other => panic!("expected unusable, got {other:?}"),
        }
        assert!(sanitizer.sanitize(&window).features().is_none());
    }

    #[test]
    fn empty_fit_accepts_any_finite_window() {
        let sanitizer = Sanitizer::fit(&HpcDataset::default());
        let window = FeatureVector::from_slice(&[1e12; HpcEvent::COUNT]).expect("16");
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Clean(_)
        ));
    }

    #[test]
    fn adversarially_shifted_windows_abstain() {
        let (dataset, sanitizer) = fitted();
        // Every column pushed to 7× its training maximum: individually
        // below the RANGE_SLACK ceilings (8× max), jointly absurd.
        let values: Vec<f64> = (0..HpcEvent::COUNT)
            .map(|j| {
                dataset
                    .rows()
                    .iter()
                    .map(|r| r.features.as_slice()[j])
                    .fold(0.0, f64::max)
                    * 7.0
            })
            .collect();
        let window = FeatureVector::from_slice(&values).expect("16");
        assert!(
            sanitizer.rms_z(&values) >= sanitizer.outlier_margin(),
            "rms z {} under margin {}",
            sanitizer.rms_z(&values),
            sanitizer.outlier_margin()
        );
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Unusable { .. }
        ));
        // Disabling the margin restores the pre-screen behaviour.
        let relaxed = sanitizer.clone().with_outlier_margin(f64::INFINITY);
        assert!(matches!(
            relaxed.sanitize(&window),
            SanitizeOutcome::Clean(_)
        ));
    }

    #[test]
    fn outlier_stats_survive_a_snapshot_roundtrip() {
        use hbmd_ml::snap::{Snap, SnapReader, SnapWriter};
        let (_, sanitizer) = fitted();
        let sanitizer = sanitizer.with_outlier_margin(9.5);
        let mut w = SnapWriter::new();
        sanitizer.snap(&mut w);
        let bytes = w.into_bytes();
        let restored = Sanitizer::unsnap(&mut SnapReader::new(&bytes)).expect("roundtrip");
        assert_eq!(restored, sanitizer);
        assert_eq!(restored.outlier_margin(), 9.5);
    }

    #[test]
    fn max_repair_override_tightens_the_policy() {
        let (dataset, sanitizer) = fitted();
        let sanitizer = sanitizer.with_max_repair(0);
        let mut window = dataset.rows()[0].features.clone();
        window[HpcEvent::BranchInstructions] = f64::NAN;
        assert!(matches!(
            sanitizer.sanitize(&window),
            SanitizeOutcome::Unusable { invalid: 1 }
        ));
    }
}
