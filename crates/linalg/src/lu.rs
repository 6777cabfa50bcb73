//! LU factorisation with partial pivoting.

use crate::{DenseMatrix, LinalgError, Result};

/// LU factorisation with partial (row) pivoting of a square matrix.
///
/// The factorisation is computed once and can then be reused to solve
/// `A · x = b` for many right-hand sides, which is exactly the access pattern
/// of the transient thermal solver (the system matrix is fixed by the
/// floorplan and package while the power vector changes every step).
///
/// # Example
///
/// ```
/// use thermsched_linalg::{DenseMatrix, LuDecomposition};
///
/// # fn main() -> Result<(), thermsched_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[
///     vec![2.0, 1.0, 1.0],
///     vec![4.0, -6.0, 0.0],
///     vec![-2.0, 7.0, 2.0],
/// ])?;
/// let lu = LuDecomposition::new(&a)?;
/// let x = lu.solve(&[5.0, -2.0, 9.0])?;
/// let r = a.mul_vec(&x)?;
/// assert!((r[0] - 5.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (below diagonal, implicit unit diagonal) and U (diagonal and
    /// above) factors, stored in-place.
    lu: DenseMatrix,
    /// Row permutation applied during pivoting: `perm[i]` is the original row
    /// now living at position `i`.
    perm: Vec<usize>,
}

/// Pivots smaller than this are treated as exact zeros (singular matrix).
const PIVOT_TOLERANCE: f64 = 1e-14;

impl LuDecomposition {
    /// Factorises `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` has zero rows.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN or infinite entries.
    /// * [`LinalgError::Singular`] if a pivot smaller than `1e-14` (relative to
    ///   the largest element) is encountered.
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
                context: "LuDecomposition::new",
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite {
                context: "LuDecomposition::new",
            });
        }

        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = a.max_abs().max(1.0);

        for k in 0..n {
            // Find the pivot row.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val < PIVOT_TOLERANCE * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                swap_rows(&mut lu, k, pivot_row);
                perm.swap(k, pivot_row);
            }
            let pivot = lu.get(k, k);
            for i in (k + 1)..n {
                let factor = lu.get(i, k) / pivot;
                lu.set(i, k, factor);
                for j in (k + 1)..n {
                    let v = lu.get(i, j) - factor * lu.get(k, j);
                    lu.set(i, j, v);
                }
            }
        }

        Ok(LuDecomposition { lu, perm })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A · x = b` using the precomputed factorisation.
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
    /// `scratch` holds the permuted right-hand side during forward
    /// substitution; `out` receives the solution during back substitution.
    /// Both must have length [`LuDecomposition::dim`]. This is the hot-loop
    /// variant of [`LuDecomposition::solve`] used by the transient thermal
    /// solver, which performs ~1000 solves per simulated second.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `rhs`, `out` or
    /// `scratch` has a length other than `self.dim()`.
    pub fn solve_into(&self, rhs: &[f64], out: &mut [f64], scratch: &mut [f64]) -> Result<()> {
        let n = self.dim();
        for (len, context) in [
            (rhs.len(), "LuDecomposition::solve_into rhs"),
            (out.len(), "LuDecomposition::solve_into out"),
            (scratch.len(), "LuDecomposition::solve_into scratch"),
        ] {
            if len != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    found: len,
                    context,
                });
            }
        }
        // Apply permutation: scratch = P · rhs.
        for (s, &p) in scratch.iter_mut().zip(&self.perm) {
            *s = rhs[p];
        }
        // Forward substitution with unit lower-triangular L (in place),
        // over row slices: the same products in the same order as indexing
        // each element, without a bounds check per element.
        for i in 1..n {
            let (solved, rest) = scratch.split_at_mut(i);
            let mut sum = rest[0];
            for (l, &yj) in self.lu.row(i)[..i].iter().zip(solved.iter()) {
                sum -= l * yj;
            }
            rest[0] = sum;
        }
        // Backward substitution with U, reading y from scratch into out.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let (head, solved) = out.split_at_mut(i + 1);
            let mut sum = scratch[i];
            for (u, &xj) in row[i + 1..].iter().zip(solved.iter()) {
                sum -= u * xj;
            }
            head[i] = sum / row[i];
        }
        Ok(())
    }

    /// Solves `A · X = B` column by column where `B` is given as a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &DenseMatrix) -> Result<DenseMatrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.rows(),
                context: "LuDecomposition::solve_matrix",
            });
        }
        let mut out = DenseMatrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        for j in 0..b.cols() {
            for (i, c) in col.iter_mut().enumerate() {
                *c = b.get(i, j);
            }
            self.solve_into(&col, &mut x, &mut scratch)?;
            for (i, &v) in x.iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Ok(out)
    }
}

fn swap_rows(m: &mut DenseMatrix, a: usize, b: usize) {
    if a == b {
        return;
    }
    for j in 0..m.cols() {
        let tmp = m.get(a, j);
        m.set(a, j, m.get(b, j));
        m.set(b, j, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x).unwrap();
        ax.iter()
            .zip(b)
            .map(|(r, s)| (r - s).abs())
            .fold(0.0_f64, f64::max)
    }

    #[test]
    fn solves_small_system() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ])
        .unwrap();
        let b = [5.0, -2.0, 9.0];
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Zero on the first diagonal entry forces a row swap.
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn rejects_singular_matrix() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square_and_empty_and_non_finite() {
        let rect = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
        let empty = DenseMatrix::zeros(0, 0);
        assert!(matches!(
            LuDecomposition::new(&empty),
            Err(LinalgError::Empty { .. })
        ));
        let mut nan = DenseMatrix::identity(2);
        nan.set(0, 0, f64::NAN);
        assert!(matches!(
            LuDecomposition::new(&nan),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = DenseMatrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_matrix_handles_multiple_rhs() {
        let a = DenseMatrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let b = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let x = lu.solve_matrix(&b).unwrap();
        let prod = a.mul_mat(&x).unwrap();
        assert!((prod.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((prod.get(0, 1)).abs() < 1e-12);
        let wrong = DenseMatrix::zeros(3, 1);
        assert!(lu.solve_matrix(&wrong).is_err());
    }

    #[test]
    fn larger_random_like_system_is_solved_accurately() {
        // Deterministic pseudo-random diagonally dominant matrix.
        let n = 25;
        let mut a = DenseMatrix::zeros(n, n);
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            a.set(i, i, row_sum + 1.0);
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 * 0.37 - 2.0).collect();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    /// The substitution sweeps of `solve_into` as they read element by
    /// element: the reference the row-slice sweeps must match bit for bit.
    #[allow(clippy::needless_range_loop)]
    fn solve_indexed(lu: &LuDecomposition, rhs: &[f64]) -> Vec<f64> {
        let n = lu.dim();
        let mut y: Vec<f64> = lu.perm.iter().map(|&p| rhs[p]).collect();
        for i in 1..n {
            let mut sum = y[i];
            for j in 0..i {
                sum -= lu.lu.get(i, j) * y[j];
            }
            y[i] = sum;
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in i + 1..n {
                sum -= lu.lu.get(i, j) * x[j];
            }
            x[i] = sum / lu.lu.get(i, i);
        }
        x
    }

    #[test]
    fn row_slice_sweeps_match_indexed_sweeps_bit_for_bit() {
        let mut state = 2005u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut pivoted = 0;
        for n in [1, 2, 3, 7, 16, 33] {
            for _ in 0..4 {
                // Dense random entries with a small diagonal, so partial
                // pivoting swaps rows.
                let mut a = DenseMatrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        let scale = if i == j { 1e-3 } else { 1.0 };
                        a.set(i, j, next() * scale + if i == j { 1e-2 } else { 0.0 });
                    }
                }
                let Ok(lu) = LuDecomposition::new(&a) else {
                    continue;
                };
                pivoted += usize::from(lu.perm.iter().enumerate().any(|(i, &p)| i != p));
                let b: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
                let fast = lu.solve(&b).unwrap();
                let reference = solve_indexed(&lu, &b);
                assert_eq!(
                    fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "n = {n}"
                );
            }
        }
        assert!(pivoted > 10, "only {pivoted} systems pivoted");
    }
}
