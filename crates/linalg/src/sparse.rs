//! Compressed-sparse-row matrix.

use crate::{LinalgError, Result};

/// A `(row, col, value)` coordinate entry used to assemble a [`CsrMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Value to accumulate at `(row, col)`.
    pub value: f64,
}

impl Triplet {
    /// Creates a new triplet.
    pub fn new(row: usize, col: usize, value: f64) -> Self {
        Triplet { row, col, value }
    }
}

/// Compressed-sparse-row matrix of `f64` values.
///
/// Used by the thermal solver when the node count grows beyond a few hundred
/// (e.g. fine-grained grid models), where a dense factorisation would waste
/// both memory and time. Duplicate coordinate entries are summed during
/// assembly, which makes stamping conductances element-by-element convenient.
///
/// # Example
///
/// ```
/// use thermsched_linalg::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), thermsched_linalg::LinalgError> {
/// let m = CsrMatrix::from_triplets(
///     2,
///     2,
///     &[Triplet::new(0, 0, 2.0), Triplet::new(1, 1, 3.0), Triplet::new(0, 0, 1.0)],
/// )?;
/// assert_eq!(m.mul_vec(&[1.0, 1.0])?, vec![3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from coordinate triplets, summing duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any triplet lies outside
    /// the `rows × cols` bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[Triplet]) -> Result<Self> {
        for t in triplets {
            if t.row >= rows {
                return Err(LinalgError::DimensionMismatch {
                    expected: rows,
                    found: t.row,
                    context: "CsrMatrix::from_triplets row index",
                });
            }
            if t.col >= cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: cols,
                    found: t.col,
                    context: "CsrMatrix::from_triplets column index",
                });
            }
        }
        // Bucket triplets per row, then sort and merge duplicates.
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for t in triplets {
            per_row[t.row].push((t.col, t.value));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut last_col: Option<usize> = None;
            for &(c, v) in row.iter() {
                if Some(c) == last_col {
                    let n = values.len();
                    values[n - 1] += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                    last_col = Some(c);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
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

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)`; zero if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        for k in start..end {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
                context: "sparse matrix-vector product",
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Returns `true` if the sparsity pattern and values are symmetric within
    /// `tol`. Only meaningful for square matrices.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Converts to a dense matrix (intended for tests and small systems).
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                d.set(i, self.col_idx[k], self.values[k]);
            }
        }
        d
    }

    /// Iterates over stored entries of row `row` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows, "row index out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet::new(0, 0, 4.0),
                Triplet::new(0, 1, -1.0),
                Triplet::new(1, 0, -1.0),
                Triplet::new(1, 1, 4.0),
                Triplet::new(1, 2, -1.0),
                Triplet::new(2, 1, -1.0),
                Triplet::new(2, 2, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn assembly_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 2), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, 1.0), Triplet::new(0, 0, 2.5)])
            .unwrap();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn out_of_bounds_triplets_are_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[Triplet::new(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn mul_vec_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(m.mul_vec(&x).unwrap(), d.mul_vec(&x).unwrap());
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn symmetry_check() {
        assert!(sample().is_symmetric(1e-12));
        let asym = CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
        let rect = CsrMatrix::from_triplets(2, 3, &[]).unwrap();
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn row_entries_iterates_stored_values() {
        let m = sample();
        let row1: Vec<(usize, f64)> = m.row_entries(1).collect();
        assert_eq!(row1, vec![(0, -1.0), (1, 4.0), (2, -1.0)]);
    }

    #[test]
    fn empty_matrix_has_no_entries() {
        let m = CsrMatrix::from_triplets(4, 4, &[]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.mul_vec(&[1.0; 4]).unwrap(), vec![0.0; 4]);
    }
}
