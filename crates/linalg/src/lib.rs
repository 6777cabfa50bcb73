//! Small, dependency-free linear-algebra kernels for the `thermsched` workspace.
//!
//! The compact thermal model used by `thermsched-thermal` reduces to solving
//! linear systems `G · T = P` where `G` is a symmetric, strictly diagonally
//! dominant thermal-conductance matrix (steady state), and to repeatedly
//! solving slightly perturbed systems during transient integration. The
//! matrices involved are small (tens to a few hundred nodes), so simple dense
//! factorisations are more than adequate, and the grid models' larger
//! systems are banded; this crate provides the direct solvers for both
//! without pulling a large external dependency into the workspace.
//!
//! # Contents
//!
//! * [`DenseMatrix`] — row-major dense matrix with the usual arithmetic.
//! * [`LuDecomposition`] — LU factorisation with partial pivoting.
//! * [`CholeskyDecomposition`] — Cholesky factorisation for SPD systems.
//! * [`AffineStepOperator`] — the `k`-step operator of an affine recurrence,
//!   built by repeated squaring (the transient solver's fast path).
//! * [`CsrMatrix`] — compressed-sparse-row matrix for larger grids.
//! * [`BandedCholesky`] — direct factorisation of SPD banded systems (the
//!   grid models), with `O(n · b)` allocation-free repeated solves.
//! * [`ImplicitStepOperator`] — the factorised implicit-Euler stepping
//!   matrix `C/Δt + G` of a sparse network (the grid transient path).
//! * [`AdiStepOperator`] — Peaceman–Rachford alternating-direction stepping
//!   that exploits the grid's Kronecker structure: `O(n)` per step instead
//!   of `O(n · b)`, for high-resolution dies.
//!
//! The factorisations additionally expose allocation-free `solve_into`
//! variants for hot loops that solve against the same matrix thousands of
//! times per simulated second, and `solve_mat_into` multi-RHS variants that
//! advance many column-blocked right-hand sides through one pass over the
//! factor (bit-identical per column to the single-RHS solve).
//!
//! # Example
//!
//! ```
//! use thermsched_linalg::{DenseMatrix, LuDecomposition};
//!
//! # fn main() -> Result<(), thermsched_linalg::LinalgError> {
//! let a = DenseMatrix::from_rows(&[
//!     vec![4.0, 1.0],
//!     vec![1.0, 3.0],
//! ])?;
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((a.mul_vec(&x)?[0] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adi;
mod banded;
mod cholesky;
mod dense;
mod error;
mod lu;
mod sparse;
mod step_operator;

pub use adi::AdiStepOperator;
pub use banded::{BandedCholesky, ImplicitStepOperator};
pub use cholesky::CholeskyDecomposition;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use sparse::{CsrMatrix, Triplet};
pub use step_operator::AffineStepOperator;

/// Convenience result alias used throughout this crate.
pub type Result<T, E = LinalgError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_roundtrip() {
        let a = DenseMatrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&[2.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
    }
}
