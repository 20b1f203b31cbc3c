//! ROC analysis for binary detectors.
//!
//! Malware detection lives and dies by its false-positive rate: a
//! detector that flags 1 % of benign windows still drowns an analyst.
//! This module computes ROC curves and AUC from continuous scores (the
//! probability/margin outputs of [`Mlr`](crate::Mlr) and
//! [`LinearSvm`](crate::LinearSvm)), plus the operating-point helper
//! the run-time layer uses to pick a threshold for a target FPR.

use crate::data::MlError;

/// One ROC operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Score threshold: instances scoring `>= threshold` are flagged.
    pub threshold: f64,
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// True-positive rate (recall) at this threshold.
    pub tpr: f64,
}

/// A receiver-operating-characteristic curve over binary scores.
///
/// # Examples
///
/// ```
/// use hbmd_ml::RocCurve;
///
/// // Perfectly separable scores.
/// let scores = vec![0.1, 0.2, 0.3, 0.8, 0.9];
/// let labels = vec![false, false, false, true, true];
/// let roc = RocCurve::from_scores(&scores, &labels)?;
/// assert!((roc.auc() - 1.0).abs() < 1e-9);
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    points: Vec<RocPoint>,
    auc: f64,
}

impl RocCurve {
    /// Build the curve from scores (`labels[i]` is `true` for
    /// positives). Produces one point per distinct threshold, from
    /// flag-everything to flag-nothing.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for length mismatch and
    /// [`MlError::SingleClass`] when either class is absent.
    pub fn from_scores(scores: &[f64], labels: &[bool]) -> Result<RocCurve, MlError> {
        if scores.len() != labels.len() {
            return Err(MlError::DimensionMismatch {
                expected: scores.len(),
                found: labels.len(),
            });
        }
        let positives = labels.iter().filter(|&&l| l).count();
        let negatives = labels.len() - positives;
        if positives == 0 || negatives == 0 {
            return Err(MlError::SingleClass);
        }

        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut points = vec![RocPoint {
            threshold: f64::INFINITY,
            fpr: 0.0,
            tpr: 0.0,
        }];
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut k = 0usize;
        while k < order.len() {
            let threshold = scores[order[k]];
            // Consume every instance tied at this threshold.
            while k < order.len() && scores[order[k]] == threshold {
                if labels[order[k]] {
                    tp += 1;
                } else {
                    fp += 1;
                }
                k += 1;
            }
            points.push(RocPoint {
                threshold,
                fpr: fp as f64 / negatives as f64,
                tpr: tp as f64 / positives as f64,
            });
        }

        // Trapezoidal AUC.
        let auc = points
            .windows(2)
            .map(|pair| {
                let width = pair[1].fpr - pair[0].fpr;
                width * (pair[0].tpr + pair[1].tpr) / 2.0
            })
            .sum();

        Ok(RocCurve { points, auc })
    }

    /// The operating points, from `(0, 0)` to `(1, 1)`.
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Area under the curve (0.5 = chance, 1.0 = perfect).
    pub fn auc(&self) -> f64 {
        self.auc
    }

    /// The highest-TPR operating point whose FPR does not exceed
    /// `max_fpr` — how a deployment picks its alarm threshold.
    ///
    /// # Panics
    ///
    /// Panics when `max_fpr` is not within `[0, 1]`.
    pub fn operating_point(&self, max_fpr: f64) -> RocPoint {
        assert!(
            (0.0..=1.0).contains(&max_fpr),
            "max_fpr must be a rate in [0, 1]"
        );
        self.points
            .iter()
            .filter(|p| p.fpr <= max_fpr)
            .max_by(|a, b| {
                a.tpr
                    .partial_cmp(&b.tpr)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
            .unwrap_or(self.points[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_has_auc_one() {
        let scores = [0.0, 0.1, 0.2, 0.9, 1.0];
        let labels = [false, false, false, true, true];
        let roc = RocCurve::from_scores(&scores, &labels).expect("roc");
        assert!((roc.auc() - 1.0).abs() < 1e-9);
        let op = roc.operating_point(0.0);
        assert!((op.tpr - 1.0).abs() < 1e-9, "catch everything at FPR 0");
    }

    #[test]
    fn reversed_scores_have_auc_zero() {
        let scores = [1.0, 0.9, 0.1, 0.0];
        let labels = [false, false, true, true];
        let roc = RocCurve::from_scores(&scores, &labels).expect("roc");
        assert!(roc.auc() < 1e-9);
    }

    #[test]
    fn random_scores_hover_near_half() {
        let scores: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761u64 as usize) % 997) as f64)
            .collect();
        let labels: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        let roc = RocCurve::from_scores(&scores, &labels).expect("roc");
        assert!((roc.auc() - 0.5).abs() < 0.06, "auc {}", roc.auc());
    }

    #[test]
    fn ties_are_handled_as_one_step() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        let roc = RocCurve::from_scores(&scores, &labels).expect("roc");
        // One diagonal step: AUC exactly 0.5.
        assert!((roc.auc() - 0.5).abs() < 1e-9);
        assert_eq!(roc.points().len(), 2);
    }

    #[test]
    fn curve_is_monotonic() {
        let scores = [0.9, 0.8, 0.7, 0.6, 0.55, 0.4, 0.3, 0.2];
        let labels = [true, false, true, true, false, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels).expect("roc");
        for pair in roc.points().windows(2) {
            assert!(pair[1].fpr >= pair[0].fpr);
            assert!(pair[1].tpr >= pair[0].tpr);
        }
        let ends = roc.points().last().expect("points");
        assert!((ends.fpr - 1.0).abs() < 1e-9);
        assert!((ends.tpr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn operating_point_respects_the_budget() {
        let scores = [0.9, 0.85, 0.7, 0.6, 0.5, 0.4];
        let labels = [true, true, false, true, false, false];
        let roc = RocCurve::from_scores(&scores, &labels).expect("roc");
        let op = roc.operating_point(0.4);
        assert!(op.fpr <= 0.4);
        assert!(op.tpr >= 2.0 / 4.0);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(RocCurve::from_scores(&[0.5], &[true]).is_err());
        assert!(RocCurve::from_scores(&[0.5, 0.6], &[true]).is_err());
        assert!(RocCurve::from_scores(&[0.1, 0.2], &[false, false]).is_err());
    }

    #[test]
    #[should_panic(expected = "max_fpr")]
    fn bad_fpr_budget_panics() {
        let roc = RocCurve::from_scores(&[0.1, 0.9], &[false, true]).expect("roc");
        let _ = roc.operating_point(1.5);
    }
}
