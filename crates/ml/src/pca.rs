//! Principal component analysis with WEKA-style attribute ranking.
//!
//! The reference evaluation ran WEKA's `PrincipalComponents -R 0.95`
//! attribute evaluator with the `Ranker` search to (a) inspect the
//! eigenvectors, (b) rank the original 16 counters, and (c) pick the
//! top-8 / top-4 reduced feature sets per malware class. This module
//! reproduces all three uses plus the top-2-component projection behind
//! the thesis' per-class PCA scatter plots (Figures 9–12).

use crate::data::{Dataset, MlError};
use crate::filter::Standardize;
use crate::linalg::{covariance_matrix, jacobi_eigen, Matrix};

/// One original attribute with its PCA-derived importance score.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAttribute {
    /// Column index in the original dataset.
    pub feature: usize,
    /// Attribute name.
    pub name: String,
    /// Eigenvalue-weighted loading magnitude (higher = more important).
    pub score: f64,
}

/// A fitted PCA model.
///
/// # Examples
///
/// ```
/// use hbmd_ml::{Dataset, Pca};
///
/// let mut data = Dataset::new(
///     vec!["a".into(), "b".into()],
///     vec!["x".into(), "y".into()],
/// )?;
/// for i in 0..20 {
///     // b is a noisy copy of a: one dominant component.
///     data.push(vec![i as f64, i as f64 + (i % 3) as f64 * 0.1], i % 2)?;
/// }
/// let pca = Pca::fit(&data)?;
/// assert!(pca.explained_variance_ratio()[0] > 0.95);
/// let projected = pca.transform_row(&[10.0, 10.0]);
/// assert_eq!(projected.len(), 2);
/// # Ok::<(), hbmd_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    standardize: Standardize,
    feature_names: Vec<String>,
    /// Eigenvalues, descending.
    eigenvalues: Vec<f64>,
    /// Eigenvector `k` is column `k`.
    components: Matrix,
}

impl Pca {
    /// Fit on a dataset's feature matrix (features are standardised
    /// first, as WEKA does).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyDataset`] when `data` has no rows.
    pub fn fit(data: &Dataset) -> Result<Pca, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let _span = hbmd_obs::span!("pca.fit", rows = data.len());
        hbmd_obs::incr("pca.fits");
        let standardize = Standardize::fit(data);
        let rows: Vec<Vec<f64>> = data
            .rows()
            .iter()
            .map(|r| standardize.transform_row(r))
            .collect();
        let cov = covariance_matrix(&rows);
        let (eigenvalues, components) = jacobi_eigen(&cov);
        // Numerical noise can leave tiny negatives; clamp.
        let eigenvalues = eigenvalues.into_iter().map(|v| v.max(0.0)).collect();
        Ok(Pca {
            standardize,
            feature_names: data.feature_names().to_vec(),
            eigenvalues,
            components,
        })
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Eigenvector (principal component) `k` as a loading vector over
    /// the original features.
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range.
    pub fn component(&self, k: usize) -> Vec<f64> {
        self.components.col(k)
    }

    /// Fraction of total variance each component explains.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|&v| v / total).collect()
    }

    /// Number of leading components needed to cover `fraction` of the
    /// variance (WEKA's `-R 0.95`).
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is not within `(0, 1]`.
    pub fn components_for_variance(&self, fraction: f64) -> usize {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let ratios = self.explained_variance_ratio();
        let mut cumulative = 0.0;
        for (k, r) in ratios.iter().enumerate() {
            cumulative += r;
            if cumulative >= fraction - 1e-12 {
                return k + 1;
            }
        }
        ratios.len()
    }

    /// Project one row onto the leading `k` components (all components
    /// when `k >= num_features`).
    pub fn transform_row_k(&self, row: &[f64], k: usize) -> Vec<f64> {
        let x = self.standardize.transform_row(row);
        let k = k.min(self.eigenvalues.len());
        (0..k)
            .map(|c| {
                self.components
                    .col(c)
                    .iter()
                    .zip(&x)
                    .map(|(l, xi)| l * xi)
                    .sum()
            })
            .collect()
    }

    /// Project one row onto all components.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        self.transform_row_k(row, usize::MAX)
    }

    /// Project a whole dataset onto the leading `k` components; feature
    /// names become `PC1..PCk`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero.
    pub fn transform(&self, data: &Dataset, k: usize) -> Dataset {
        assert!(k > 0, "k must be non-zero");
        let k = k.min(self.eigenvalues.len());
        let rows: Vec<Vec<f64>> = data
            .rows()
            .iter()
            .map(|r| self.transform_row_k(r, k))
            .collect();
        Dataset::from_rows(
            (1..=k).map(|i| format!("PC{i}")).collect(),
            data.class_names().to_vec(),
            rows,
            data.labels().to_vec(),
        )
        .expect("projection preserves schema")
    }

    /// Rank the *original* attributes by eigenvalue-weighted loading
    /// magnitude — WEKA's `PrincipalComponents` + `Ranker` output, the
    /// mechanism behind the paper's reduced feature sets (Table 2).
    ///
    /// `variance_fraction` limits the components considered (0.95 in
    /// the reference run).
    pub fn rank_attributes(&self, variance_fraction: f64) -> Vec<RankedAttribute> {
        let use_components = self.components_for_variance(variance_fraction);
        let ratios = self.explained_variance_ratio();
        let mut ranked: Vec<RankedAttribute> = (0..self.feature_names.len())
            .map(|feature| {
                let score = (0..use_components)
                    .map(|c| self.components.get(feature, c).abs() * ratios[c])
                    .sum();
                RankedAttribute {
                    feature,
                    name: self.feature_names[feature].clone(),
                    score,
                }
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.feature.cmp(&b.feature))
        });
        ranked
    }

    /// The indices of the top-`k` ranked original attributes.
    pub fn top_features(&self, k: usize, variance_fraction: f64) -> Vec<usize> {
        self.rank_attributes(variance_fraction)
            .into_iter()
            .take(k)
            .map(|r| r.feature)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three informative correlated features + one pure-noise feature.
    fn structured() -> Dataset {
        let mut d = Dataset::new(
            vec!["s1".into(), "s2".into(), "s3".into(), "noise".into()],
            vec!["a".into(), "b".into()],
        )
        .expect("schema");
        for i in 0..100 {
            let t = i as f64;
            let noise = ((i * 37 + 11) % 17) as f64 - 8.0;
            d.push(
                vec![t, 2.0 * t + 1.0, -t + 0.5, noise],
                usize::from(i >= 50),
            )
            .expect("row");
        }
        d
    }

    #[test]
    fn dominant_component_captures_correlated_block() {
        let pca = Pca::fit(&structured()).expect("fit");
        let ratios = pca.explained_variance_ratio();
        assert!(
            ratios[0] > 0.7,
            "three perfectly correlated features dominate: {ratios:?}"
        );
        assert!((ratios.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranking_prefers_signal_over_noise() {
        let pca = Pca::fit(&structured()).expect("fit");
        let ranked = pca.rank_attributes(0.95);
        assert_eq!(ranked.len(), 4);
        let noise_rank = ranked
            .iter()
            .position(|r| r.name == "noise")
            .expect("noise is ranked");
        assert!(
            noise_rank >= 2,
            "noise should rank low, got position {noise_rank}"
        );
        let top = pca.top_features(2, 0.95);
        assert!(!top.contains(&3), "top-2 excludes the noise column");
    }

    #[test]
    fn components_for_variance_is_monotonic() {
        let pca = Pca::fit(&structured()).expect("fit");
        let k50 = pca.components_for_variance(0.5);
        let k95 = pca.components_for_variance(0.95);
        let k100 = pca.components_for_variance(1.0);
        assert!(k50 <= k95 && k95 <= k100);
        assert!(k100 <= 4);
    }

    #[test]
    fn transform_reduces_dimensionality() {
        let data = structured();
        let pca = Pca::fit(&data).expect("fit");
        let projected = pca.transform(&data, 2);
        assert_eq!(projected.num_features(), 2);
        assert_eq!(
            projected.feature_names(),
            &["PC1".to_owned(), "PC2".to_owned()]
        );
        assert_eq!(projected.len(), data.len());
        assert_eq!(projected.labels(), data.labels());
    }

    #[test]
    fn projection_separates_separable_classes() {
        // Classes live at opposite ends of the dominant direction: PC1
        // must separate them.
        let data = structured();
        let pca = Pca::fit(&data).expect("fit");
        let projected = pca.transform(&data, 1);
        let mean = |class: usize| {
            let values: Vec<f64> = projected
                .iter()
                .filter(|&(_, l)| l == class)
                .map(|(r, _)| r[0])
                .collect();
            values.iter().sum::<f64>() / values.len() as f64
        };
        assert!((mean(0) - mean(1)).abs() > 1.0);
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let d = Dataset::new(vec!["x".into()], vec!["a".into(), "b".into()]).expect("schema");
        assert!(matches!(Pca::fit(&d), Err(MlError::EmptyDataset)));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_variance_fraction_panics() {
        let pca = Pca::fit(&structured()).expect("fit");
        let _ = pca.components_for_variance(0.0);
    }
}
