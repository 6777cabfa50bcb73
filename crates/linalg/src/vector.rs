//! Free functions on `&[f64]` vectors.
//!
//! These helpers are deliberately plain-slice based so that callers can use
//! them on `Vec<f64>` buffers they already own without any wrapper type.

use crate::{LinalgError, Result};

/// Dot product of two vectors.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the vectors have different
/// lengths.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), thermsched_linalg::LinalgError> {
/// let d = thermsched_linalg::dot(&[1.0, 2.0], &[3.0, 4.0])?;
/// assert_eq!(d, 11.0);
/// # Ok(())
/// # }
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            expected: a.len(),
            found: b.len(),
            context: "dot product",
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

/// In-place `y += alpha * x`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the vectors have different
/// lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) -> Result<()> {
    if x.len() != y.len() {
        return Err(LinalgError::DimensionMismatch {
            expected: y.len(),
            found: x.len(),
            context: "axpy",
        });
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    Ok(())
}

/// Returns `a - b` as a new vector.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if the vectors have different
/// lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            expected: a.len(),
            found: b.len(),
            context: "vector subtraction",
        });
    }
    Ok(a.iter().zip(b).map(|(x, y)| x - y).collect())
}

/// In-place multiplication of every element by `alpha`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
    }

    #[test]
    fn dot_product_empty_is_zero() {
        assert_eq!(dot(&[], &[]).unwrap(), 0.0);
    }

    #[test]
    fn dot_product_rejects_mismatched_lengths() {
        let err = dot(&[1.0], &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y).unwrap();
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn axpy_rejects_mismatch() {
        let mut y = vec![1.0];
        assert!(axpy(1.0, &[1.0, 2.0], &mut y).is_err());
    }

    #[test]
    fn sub_and_scale() {
        let d = sub(&[3.0, 2.0], &[1.0, 5.0]).unwrap();
        assert_eq!(d, vec![2.0, -3.0]);
        let mut v = vec![1.0, -2.0];
        scale(-2.0, &mut v);
        assert_eq!(v, vec![-2.0, 4.0]);
    }
}
