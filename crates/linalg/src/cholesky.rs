//! Cholesky factorisation for symmetric positive-definite systems.

use crate::{DenseMatrix, LinalgError, Result};

/// Cholesky factorisation `A = L · Lᵀ` of a symmetric positive-definite matrix.
///
/// Thermal-conductance matrices built by `thermsched-thermal` are symmetric
/// and positive definite (every node has a path to thermal ground), so
/// Cholesky is the natural factorisation: roughly half the work of LU and it
/// doubles as a cheap positive-definiteness check on the assembled model.
///
/// # Example
///
/// ```
/// use thermsched_linalg::{CholeskyDecomposition, DenseMatrix};
///
/// # fn main() -> Result<(), thermsched_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[
///     vec![4.0, 2.0],
///     vec![2.0, 3.0],
/// ])?;
/// let chol = CholeskyDecomposition::new(&a)?;
/// let x = chol.solve(&[6.0, 5.0])?;
/// assert!((a.mul_vec(&x)?[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyDecomposition {
    /// Lower-triangular factor `L` (upper triangle is zero).
    l: DenseMatrix,
}

impl CholeskyDecomposition {
    /// Factorises the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read; symmetry is checked with a
    /// loose tolerance first so that an accidentally asymmetric matrix fails
    /// loudly rather than silently producing a factor of the wrong matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` has zero rows.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN or infinities.
    /// * [`LinalgError::NotPositiveDefinite`] if `a` is asymmetric or a
    ///   non-positive pivot is found.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty {
                context: "CholeskyDecomposition::new",
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "CholeskyDecomposition::new",
            });
        }
        let sym_tol = 1e-9 * a.max_abs().max(1.0);
        if !a.is_symmetric(sym_tol) {
            return Err(LinalgError::NotPositiveDefinite { index: 0 });
        }

        let mut l = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { index: i });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(CholeskyDecomposition { l })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solves `A · x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        let mut out = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        self.solve_into(b, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Solves `A · x = b` into a caller-provided buffer without allocating.
    ///
    /// `scratch` holds the intermediate vector `y` of the forward
    /// substitution `L · y = b`; `out` receives the solution of the backward
    /// substitution `Lᵀ · x = y`. Both must have length
    /// [`CholeskyDecomposition::dim`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `rhs`, `out` or
    /// `scratch` has a length other than `self.dim()`.
    pub fn solve_into(&self, rhs: &[f64], out: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        let n = self.dim();
        for (len, context) in [
            (rhs.len(), "CholeskyDecomposition::solve_into rhs"),
            (out.len(), "CholeskyDecomposition::solve_into out"),
            (scratch.len(), "CholeskyDecomposition::solve_into scratch"),
        ] {
            if len != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    found: len,
                    context,
                });
            }
        }
        // Forward substitution: L · y = b, y stored in scratch.
        for i in 0..n {
            let mut sum = rhs[i];
            for (j, &yj) in scratch.iter().enumerate().take(i) {
                sum -= self.l.get(i, j) * yj;
            }
            scratch[i] = sum / self.l.get(i, i);
        }
        // Backward substitution: Lᵀ · x = y.
        for i in (0..n).rev() {
            let mut sum = scratch[i];
            for (j, &xj) in out.iter().enumerate().skip(i + 1) {
                sum -= self.l.get(j, i) * xj;
            }
            out[i] = sum / self.l.get(i, i);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorises_and_solves_spd_system() {
        let a = DenseMatrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ])
        .unwrap();
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = chol.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (r, s) in ax.iter().zip(&b) {
            assert!((r - s).abs() < 1e-12);
        }
        // L·Lᵀ reproduces A.
        let l = chol.factor();
        let lt = l.transpose();
        let prod = l.mul_mat(&lt).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((prod.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_matrix() {
        let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]).unwrap();
        assert!(matches!(
            CholeskyDecomposition::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_shape_and_nan_problems() {
        assert!(CholeskyDecomposition::new(&DenseMatrix::zeros(2, 3)).is_err());
        assert!(CholeskyDecomposition::new(&DenseMatrix::zeros(0, 0)).is_err());
        let mut nan = DenseMatrix::identity(2);
        nan.set(1, 1, f64::INFINITY);
        assert!(CholeskyDecomposition::new(&nan).is_err());
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let a = DenseMatrix::identity(3);
        let chol = CholeskyDecomposition::new(&a).unwrap();
        assert!(chol.solve(&[1.0]).is_err());
    }

    #[test]
    fn agrees_with_lu_on_conductance_like_matrix() {
        // A matrix shaped like a thermal conductance matrix: Laplacian plus
        // positive diagonal "ground" terms.
        let a = DenseMatrix::from_rows(&[
            vec![3.0, -1.0, 0.0, -1.0],
            vec![-1.0, 4.0, -2.0, 0.0],
            vec![0.0, -2.0, 5.0, -1.0],
            vec![-1.0, 0.0, -1.0, 3.0],
        ])
        .unwrap();
        let b = [10.0, 0.0, 5.0, 2.5];
        let chol = CholeskyDecomposition::new(&a).unwrap();
        let lu = crate::LuDecomposition::new(&a).unwrap();
        let x1 = chol.solve(&b).unwrap();
        let x2 = lu.solve(&b).unwrap();
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-10);
        }
    }
}
