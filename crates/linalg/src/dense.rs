//! Row-major dense matrix.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// The type is intentionally small: it provides exactly the operations needed
/// by the thermal solver (construction, element access, matrix–vector and
/// matrix–matrix products, transpose, symmetry/diagonal-dominance checks) and
/// the factorisations in [`crate::LuDecomposition`] /
/// [`crate::CholeskyDecomposition`].
///
/// # Example
///
/// ```
/// use thermsched_linalg::DenseMatrix;
///
/// # fn main() -> Result<(), thermsched_linalg::LinalgError> {
/// let mut m = DenseMatrix::zeros(2, 2);
/// m.set(0, 0, 1.0);
/// m.set(1, 1, 2.0);
/// assert_eq!(m.mul_vec(&[3.0, 4.0])?, vec![3.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a square matrix with `diag` on the main diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = DenseMatrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if no rows are supplied and
    /// [`LinalgError::RaggedRows`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty {
                context: "DenseMatrix::from_rows",
            });
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::RaggedRows {
                    first: cols,
                    row: i,
                    len: r.len(),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Adds `value` to the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add_to(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] += value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the underlying row-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y)?;
        Ok(y)
    }

    /// Matrix–vector product `A · x` written into a caller-provided buffer,
    /// avoiding any heap allocation (the hot-loop variant of
    /// [`DenseMatrix::mul_vec`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
                context: "matrix-vector product",
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows,
                found: out.len(),
                context: "matrix-vector product output",
            });
        }
        for (i, yi) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = dot4(row, x);
        }
        Ok(())
    }

    /// Matrix–matrix product `A · B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != other.rows()`.
    pub fn mul_mat(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        self.mul_mat_into(other, &mut out)?;
        Ok(out)
    }

    /// Matrix–matrix product `A · B` written into a caller-provided matrix,
    /// avoiding any heap allocation. `out` is overwritten entirely.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != other.rows()`
    /// or `out` is not `self.rows() × other.cols()`.
    pub fn mul_mat_into(&self, other: &DenseMatrix, out: &mut DenseMatrix) -> Result<()> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: other.rows,
                context: "matrix-matrix product",
            });
        }
        if out.rows != self.rows || out.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows * other.cols,
                found: out.rows * out.cols,
                context: "matrix-matrix product output",
            });
        }
        out.data.fill(0.0);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                let src = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += aik * s;
                }
            }
        }
        Ok(())
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if the matrix is (weakly) diagonally dominant:
    /// `|a_ii| >= sum_{j != i} |a_ij|` for every row.
    pub fn is_diagonally_dominant(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            let mut off = 0.0;
            for j in 0..self.cols {
                if i != j {
                    off += self.get(i, j).abs();
                }
            }
            // Small tolerance guards against floating-point accumulation error.
            if self.get(i, i).abs() + 1e-12 < off {
                return false;
            }
        }
        true
    }

    /// Returns `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute element value (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Scales every element by `alpha`, returning a new matrix.
    pub fn scaled(&self, alpha: f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * alpha).collect(),
        }
    }
}

/// Dot product with four independent accumulator chains, manually unrolled.
///
/// The naive zipped `.sum()` is one serial dependency chain of adds, so each
/// fused multiply-add waits on the previous one. Splitting the reduction over
/// four partial sums lets the optimiser keep four chains in flight (the
/// pinned stable toolchain has no `std::simd`, so the lanes are spelled out
/// by hand). This reassociates the floating-point sum, which is fine for the
/// dense operator paths: their consumers pin results with tolerance bands,
/// not bit-exactness — the bit-exact contracts all live on the banded side.
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut a4 = a.chunks_exact(4);
    let mut b4 = b.chunks_exact(4);
    for (x, y) in (&mut a4).zip(&mut b4) {
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0;
    for (x, y) in a4.remainder().iter().zip(b4.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add for &DenseMatrix {
    type Output = DenseMatrix;

    fn add(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.rows, rhs.rows, "row count mismatch in matrix addition");
        assert_eq!(
            self.cols, rhs.cols,
            "column count mismatch in matrix addition"
        );
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &DenseMatrix {
    type Output = DenseMatrix;

    fn sub(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.rows, rhs.rows,
            "row count mismatch in matrix subtraction"
        );
        assert_eq!(
            self.cols, rhs.cols,
            "column count mismatch in matrix subtraction"
        );
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &DenseMatrix {
    type Output = DenseMatrix;

    fn mul(self, rhs: f64) -> DenseMatrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        assert_eq!(z.as_slice(), &[0.0; 6]);

        let i = DenseMatrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(matches!(
            DenseMatrix::from_rows(&[]),
            Err(LinalgError::Empty { .. })
        ));
        assert!(matches!(
            DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(LinalgError::RaggedRows { .. })
        ));
    }

    #[test]
    fn from_diagonal_builds_diagonal_matrix() {
        let d = DenseMatrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 2), 0.0);
    }

    #[test]
    fn mat_vec_product() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn mat_mat_product_and_transpose() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::identity(2);
        assert_eq!(a.mul_mat(&b).unwrap(), a);
        let at = a.transpose();
        assert_eq!(at.get(0, 1), 3.0);
        assert_eq!(at.get(1, 0), 2.0);
        let c = DenseMatrix::zeros(3, 2);
        assert!(a.mul_mat(&c).is_err());
    }

    #[test]
    fn symmetry_and_dominance_checks() {
        let s = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        assert!(s.is_diagonally_dominant());

        let ns = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));

        let nd = DenseMatrix::from_rows(&[vec![1.0, 5.0], vec![5.0, 1.0]]).unwrap();
        assert!(!nd.is_diagonally_dominant());

        let rect = DenseMatrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
        assert!(!rect.is_diagonally_dominant());
    }

    #[test]
    fn arithmetic_operators() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum.get(0, 0), 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled.get(1, 1), 8.0);
    }

    #[test]
    fn finiteness_and_max_abs() {
        let mut a = DenseMatrix::zeros(2, 2);
        assert!(a.is_finite());
        assert_eq!(a.max_abs(), 0.0);
        a.set(0, 1, -7.5);
        assert_eq!(a.max_abs(), 7.5);
        a.set(1, 0, f64::NAN);
        assert!(!a.is_finite());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        let a = DenseMatrix::zeros(2, 2);
        let _ = a.get(2, 0);
    }

    #[test]
    fn row_access_and_add_to() {
        let mut a = DenseMatrix::zeros(2, 3);
        a.add_to(1, 2, 5.0);
        a.add_to(1, 2, 1.0);
        assert_eq!(a.row(1), &[0.0, 0.0, 6.0]);
    }

    #[test]
    fn display_renders_all_rows() {
        let a = DenseMatrix::identity(2);
        let s = format!("{a}");
        assert!(s.contains("DenseMatrix 2x2"));
        assert_eq!(s.lines().count(), 3);
    }
}
