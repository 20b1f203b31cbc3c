//! Minimal dense linear algebra: just enough for PCA (covariance and a
//! Jacobi eigensolver for symmetric matrices).

/// A dense row-major matrix.
///
/// # Examples
///
/// ```
/// use hbmd_ml::Matrix;
///
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transposed().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty or ragged.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "ragged rows are not a matrix"
        );
        let data = rows.into_iter().flatten().collect();
        Matrix {
            rows: 0,
            cols,
            data,
        }
        .with_recomputed_rows()
    }

    fn with_recomputed_rows(mut self) -> Matrix {
        self.rows = self.data.len() / self.cols;
        self
    }

    /// Row count.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Set the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// One row as a slice.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row out of range");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// One column, copied.
    pub fn col(&self, col: usize) -> Vec<f64> {
        assert!(col < self.cols, "column out of range");
        (0..self.rows).map(|r| self.get(r, col)).collect()
    }

    /// The transpose.
    pub fn transposed(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// `true` when the matrix equals its transpose within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != num_cols`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }
}

/// Covariance matrix of `rows` (population covariance over mean-centred
/// columns).
///
/// # Panics
///
/// Panics when `rows` is empty or ragged.
pub fn covariance_matrix(rows: &[Vec<f64>]) -> Matrix {
    assert!(!rows.is_empty(), "covariance needs at least one row");
    let d = rows[0].len();
    assert!(rows.iter().all(|r| r.len() == d), "ragged rows");
    let n = rows.len() as f64;
    let means: Vec<f64> = (0..d)
        .map(|j| rows.iter().map(|r| r[j]).sum::<f64>() / n)
        .collect();
    let mut cov = Matrix::zeros(d, d);
    for i in 0..d {
        for j in i..d {
            let c = rows
                .iter()
                .map(|r| (r[i] - means[i]) * (r[j] - means[j]))
                .sum::<f64>()
                / n;
            cov.set(i, j, c);
            cov.set(j, i, c);
        }
    }
    cov
}

/// Eigen-decomposition of a symmetric matrix via cyclic Jacobi
/// rotations. Returns `(eigenvalues, eigenvectors)` sorted by descending
/// eigenvalue; eigenvector `k` is the `k`-th *column* of the returned
/// matrix.
///
/// # Panics
///
/// Panics when `m` is not symmetric (tolerance `1e-9`).
pub fn jacobi_eigen(m: &Matrix) -> (Vec<f64>, Matrix) {
    assert!(
        m.is_symmetric(1e-9),
        "jacobi_eigen requires a symmetric matrix"
    );
    let n = m.num_rows();
    let mut a = m.clone();
    let mut v = Matrix::identity(n);

    for _sweep in 0..100 {
        // Largest magnitude off-diagonal element.
        let mut off = 0.0f64;
        for r in 0..n {
            for c in (r + 1)..n {
                off += a.get(r, c).powi(2);
            }
        }
        if off.sqrt() < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-15 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors.set(r, new_col, v.get(r, old_col));
        }
    }
    (eigenvalues, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.num_cols(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_and_symmetry() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 5.0]]);
        assert!(m.is_symmetric(1e-12));
        assert_eq!(m.transposed(), m);
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!(!a.is_symmetric(1e-12));
    }

    #[test]
    fn mul_vec_works() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn covariance_of_known_data() {
        // x and y perfectly correlated: cov = var.
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let cov = covariance_matrix(&rows);
        assert!((cov.get(0, 0) - 2.0).abs() < 1e-9); // var of 0..4 = 2
        assert!((cov.get(0, 1) - 4.0).abs() < 1e-9);
        assert!((cov.get(1, 1) - 8.0).abs() < 1e-9);
        assert!(cov.is_symmetric(1e-12));
    }

    #[test]
    fn jacobi_recovers_diagonal_eigenvalues() {
        let m = Matrix::from_rows(vec![
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let (values, vectors) = jacobi_eigen(&m);
        assert!((values[0] - 3.0).abs() < 1e-9);
        assert!((values[1] - 2.0).abs() < 1e-9);
        assert!((values[2] - 1.0).abs() < 1e-9);
        // First eigenvector is e0.
        assert!((vectors.get(0, 0).abs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jacobi_satisfies_eigen_equation() {
        let m = Matrix::from_rows(vec![
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 1.0],
        ]);
        let (values, vectors) = jacobi_eigen(&m);
        for (k, value) in values.iter().enumerate() {
            let v: Vec<f64> = vectors.col(k);
            let mv = m.mul_vec(&v);
            for i in 0..3 {
                assert!(
                    (mv[i] - value * v[i]).abs() < 1e-6,
                    "A·v = λ·v failed for eigenpair {k}"
                );
            }
        }
        // Eigenvalues descend.
        assert!(values[0] >= values[1] && values[1] >= values[2]);
        // Eigenvectors are unit length.
        for k in 0..3 {
            let norm: f64 = vectors.col(k).iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn jacobi_trace_is_preserved() {
        let m = Matrix::from_rows(vec![
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ]);
        let (values, _) = jacobi_eigen(&m);
        let trace: f64 = values.iter().sum();
        assert!((trace - 6.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn jacobi_rejects_asymmetric() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let _ = jacobi_eigen(&m);
    }
}
