//! Error type shared by every solver in this crate.

use std::error::Error;
use std::fmt;

/// Errors produced by matrix construction and the linear solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// The dimensions of the operands are incompatible.
    DimensionMismatch {
        /// Expected dimension (rows or length, depending on the operation).
        expected: usize,
        /// Dimension that was actually supplied.
        found: usize,
        /// Short description of the operation that failed.
        context: &'static str,
    },
    /// The matrix is not square but the operation requires a square matrix.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A factorisation failed because the matrix is singular (or numerically
    /// indistinguishable from singular).
    Singular {
        /// Pivot index where breakdown was detected.
        pivot: usize,
    },
    /// A Cholesky factorisation failed because the matrix is not positive
    /// definite.
    NotPositiveDefinite {
        /// Row/column index where a non-positive pivot was found.
        index: usize,
    },
    /// A matrix was constructed from rows of unequal length.
    RaggedRows {
        /// Length of the first row.
        first: usize,
        /// Index of the first row whose length differs.
        row: usize,
        /// Length of that row.
        len: usize,
    },
    /// A non-finite (NaN or infinite) value was encountered.
    NonFinite {
        /// Short description of where the value was found.
        context: &'static str,
    },
    /// An empty matrix or vector was supplied where data is required.
    Empty {
        /// Short description of the operation that failed.
        context: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, found {found}"
            ),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular (zero pivot at index {pivot})")
            }
            LinalgError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite (at index {index})")
            }
            LinalgError::RaggedRows { first, row, len } => write!(
                f,
                "ragged rows: row 0 has length {first} but row {row} has length {len}"
            ),
            LinalgError::NonFinite { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            LinalgError::Empty { context } => write!(f, "empty input in {context}"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::Singular { pivot: 3 };
        assert_eq!(e.to_string(), "matrix is singular (zero pivot at index 3)");
        let e = LinalgError::DimensionMismatch {
            expected: 4,
            found: 5,
            context: "mat-vec product",
        };
        assert!(e.to_string().contains("mat-vec product"));
        assert!(e.to_string().starts_with("dimension mismatch"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
