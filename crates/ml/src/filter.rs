//! Attribute filters: standardisation, min–max normalisation, and
//! median imputation, fitted on training data and applied to anything
//! (the WEKA `Standardize`/`Normalize`/`ReplaceMissingValues` filters).

use crate::data::Dataset;

/// Z-score standardisation: `(x - mean) / std` per feature, with
/// zero-variance features passed through centred.
///
/// # Examples
///
/// ```
/// use hbmd_ml::{Dataset, Standardize};
///
/// let mut data = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()])?;
/// data.push(vec![0.0], 0)?;
/// data.push(vec![10.0], 1)?;
/// let filter = Standardize::fit(&data);
/// let z = filter.transform_row(&[5.0]);
/// assert!(z[0].abs() < 1e-9, "the mean maps to zero");
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardize {
    stats: Vec<(f64, f64)>,
}

impl Standardize {
    /// Fit per-feature means and deviations on `data`.
    pub fn fit(data: &Dataset) -> Standardize {
        Standardize {
            stats: data.feature_stats(),
        }
    }

    /// Transform one row.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the fitted schema.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.stats.len(), "row width mismatch");
        row.iter()
            .zip(&self.stats)
            .map(|(&x, &(mean, std))| {
                if std > 1e-12 {
                    (x - mean) / std
                } else {
                    x - mean
                }
            })
            .collect()
    }

    /// Transform a whole dataset (labels preserved).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let rows = data.rows().iter().map(|r| self.transform_row(r)).collect();
        Dataset::from_rows(
            data.feature_names().to_vec(),
            data.class_names().to_vec(),
            rows,
            data.labels().to_vec(),
        )
        .expect("same schema")
    }
}

/// Min–max normalisation to `[0, 1]` per feature; constant features map
/// to 0.
#[derive(Debug, Clone, PartialEq)]
pub struct MinMaxNormalize {
    ranges: Vec<(f64, f64)>,
}

impl MinMaxNormalize {
    /// Fit per-feature ranges on `data`.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty (a range needs at least one value).
    pub fn fit(data: &Dataset) -> MinMaxNormalize {
        assert!(!data.is_empty(), "cannot fit ranges on an empty dataset");
        let ranges = (0..data.num_features())
            .map(|j| {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                for row in data.rows() {
                    lo = lo.min(row[j]);
                    hi = hi.max(row[j]);
                }
                (lo, hi)
            })
            .collect();
        MinMaxNormalize { ranges }
    }

    /// Transform one row; out-of-range values are clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the fitted schema.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.ranges.len(), "row width mismatch");
        row.iter()
            .zip(&self.ranges)
            .map(|(&x, &(lo, hi))| {
                if hi - lo > 1e-12 {
                    ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Transform a whole dataset (labels preserved).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let rows = data.rows().iter().map(|r| self.transform_row(r)).collect();
        Dataset::from_rows(
            data.feature_names().to_vec(),
            data.class_names().to_vec(),
            rows,
            data.labels().to_vec(),
        )
        .expect("same schema")
    }
}

/// Median imputation for corrupted readings: per-feature medians are
/// fitted over the *finite* training values, then any non-finite value
/// (NaN from a starved multiplexed counter, ±∞ from a scaling blowup)
/// is replaced by its feature's median — WEKA's `ReplaceMissingValues`
/// with medians instead of means, which survive the heavy-tailed
/// corruption fault injection produces.
///
/// # Examples
///
/// ```
/// use hbmd_ml::{Dataset, Impute};
///
/// let mut data = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()])?;
/// data.push(vec![1.0], 0)?;
/// data.push(vec![3.0], 1)?;
/// data.push(vec![100.0], 0)?;
/// let filter = Impute::fit(&data);
/// assert_eq!(filter.transform_row(&[f64::NAN]), vec![3.0]);
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Impute {
    medians: Vec<f64>,
}

impl Impute {
    /// Fit per-feature medians over the finite training values; a
    /// feature with no finite values at all imputes to zero.
    pub fn fit(data: &Dataset) -> Impute {
        let medians = (0..data.num_features())
            .map(|j| {
                let mut finite: Vec<f64> = data
                    .rows()
                    .iter()
                    .map(|r| r[j])
                    .filter(|v| v.is_finite())
                    .collect();
                median_in_place(&mut finite)
            })
            .collect();
        Impute { medians }
    }

    /// The fitted per-feature medians.
    pub fn medians(&self) -> &[f64] {
        &self.medians
    }

    /// Transform one row: non-finite values become their feature's
    /// median, finite values pass through untouched.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the fitted schema.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.medians.len(), "row width mismatch");
        row.iter()
            .zip(&self.medians)
            .map(|(&x, &median)| if x.is_finite() { x } else { median })
            .collect()
    }

    /// Transform a whole dataset (labels preserved).
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let rows = data.rows().iter().map(|r| self.transform_row(r)).collect();
        Dataset::from_rows(
            data.feature_names().to_vec(),
            data.class_names().to_vec(),
            rows,
            data.labels().to_vec(),
        )
        .expect("same schema")
    }
}

/// Median of `values` (sorted in place); zero for an empty slice. Even
/// lengths average the middle pair.
pub(crate) fn median_in_place(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Standardize {
    fn snap(&self, w: &mut SnapWriter) {
        self.stats.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Standardize {
            stats: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(
            vec!["a".into(), "flat".into()],
            vec!["x".into(), "y".into()],
        )
        .expect("schema");
        for i in 0..5 {
            d.push(vec![i as f64 * 2.0, 7.0], i % 2).expect("row");
        }
        d
    }

    #[test]
    fn standardize_produces_zero_mean_unit_variance() {
        let d = toy();
        let f = Standardize::fit(&d);
        let t = f.transform(&d);
        let stats = t.feature_stats();
        assert!(stats[0].0.abs() < 1e-9);
        assert!((stats[0].1 - 1.0).abs() < 1e-9);
        // Constant feature: centred, not scaled.
        assert!(stats[1].0.abs() < 1e-9);
        assert!(stats[1].1.abs() < 1e-9);
    }

    #[test]
    fn standardize_applies_train_stats_to_new_rows() {
        let d = toy();
        let f = Standardize::fit(&d);
        let z = f.transform_row(&[100.0, 7.0]);
        assert!(z[0] > 3.0, "far outlier stays far: {}", z[0]);
        assert_eq!(z[1], 0.0);
    }

    #[test]
    fn minmax_maps_to_unit_interval_and_clamps() {
        let d = toy();
        let f = MinMaxNormalize::fit(&d);
        let t = f.transform(&d);
        for row in t.rows() {
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let clamped = f.transform_row(&[-50.0, 7.0]);
        assert_eq!(clamped[0], 0.0);
        let clamped = f.transform_row(&[999.0, 7.0]);
        assert_eq!(clamped[0], 1.0);
    }

    #[test]
    fn impute_replaces_only_non_finite_values() {
        let mut d = Dataset::new(vec!["a".into(), "b".into()], vec!["x".into(), "y".into()])
            .expect("schema");
        d.push(vec![1.0, f64::NAN], 0).expect("row");
        d.push(vec![3.0, 10.0], 1).expect("row");
        d.push(vec![5.0, 20.0], 0).expect("row");
        let f = Impute::fit(&d);
        // Feature medians ignore the NaN: [1,3,5] → 3, [10,20] → 15.
        assert_eq!(f.medians(), &[3.0, 15.0]);
        assert_eq!(f.transform_row(&[f64::INFINITY, 12.5]), vec![3.0, 12.5]);
        let t = f.transform(&d);
        assert!(t.rows().iter().flatten().all(|v| v.is_finite()));
        assert_eq!(t.labels(), d.labels());
    }

    #[test]
    fn impute_on_hopeless_feature_defaults_to_zero() {
        let mut d = Dataset::new(vec!["a".into()], vec!["x".into(), "y".into()]).expect("schema");
        d.push(vec![f64::NAN], 0).expect("row");
        d.push(vec![f64::NEG_INFINITY], 1).expect("row");
        let f = Impute::fit(&d);
        assert_eq!(f.transform_row(&[f64::NAN]), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let f = Standardize::fit(&toy());
        let _ = f.transform_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn minmax_rejects_empty() {
        let d = Dataset::new(vec!["a".into()], vec!["x".into(), "y".into()]).expect("schema");
        let _ = MinMaxNormalize::fit(&d);
    }
}
