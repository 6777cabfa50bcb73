//! Banded Cholesky factorisation and the implicit-Euler step operator built
//! on top of it.
//!
//! The grid thermal model assembles its conductance matrix over a regular
//! `nx × ny` mesh; numbered row-major, every cell couples only to itself and
//! its four mesh neighbours, so the matrix is symmetric positive definite
//! with half-bandwidth `nx`. A dense factorisation of such a system wastes
//! `O(n³)` work and `O(n²)` memory on structural zeros, while an iterative
//! solve (the steady-state path) pays tens of matrix passes *per right-hand
//! side* — ruinous for transient integration, which solves against the same
//! matrix once per time step. [`BandedCholesky`] factorises the band once in
//! `O(n · b²)` and then solves each right-hand side in `O(n · b)` without
//! allocating, and [`ImplicitStepOperator`] packages the factorisation of
//! the implicit-Euler stepping matrix `C/Δt + G` together with the `C/Δt`
//! diagonal so a whole transient simulation is a sequence of
//! [`ImplicitStepOperator::step_into`] calls — the sparse-system counterpart
//! of what [`crate::AffineStepOperator`] does for the dense RC path.

use crate::{CsrMatrix, LinalgError, Result};

/// Cholesky factorisation `A = L · Lᵀ` of a symmetric positive-definite
/// banded matrix, stored by diagonals.
///
/// The half-bandwidth is detected from the sparsity pattern of the input
/// [`CsrMatrix`]; entries outside the band do not exist by construction.
/// Factor once, then call [`BandedCholesky::solve_into`] per right-hand
/// side — the access pattern of transient integration, which solves against
/// one fixed stepping matrix thousands of times per simulated second.
///
/// # One operation order, and the latency floor
///
/// Every solve, and every [`ImplicitStepOperator`] step, computes each
/// element with the same floating-point operations in the same order:
///
/// * forward, `y[i] = (r[i] − L[i][lo]·y[lo] − … − L[i][i−1]·y[i−1]) / L[i][i]`,
///   the terms subtracted in ascending column order;
/// * backward, `x[i] = (y[i] − L[hi][i]·x[hi] − … − L[i+1][i]·x[i+1]) / L[i][i]`,
///   the terms subtracted in descending row order;
///
/// where `r[i]` is the given right-hand side, or `C/Δt[i]·x[i] + p[i]` in a
/// step. So a lane of a multi-RHS solve equals a single solve, and a
/// session's result does not depend on how it was batched, bit for bit.
///
/// A single lane is bound by latency, not arithmetic: in both sweeps row
/// `i` waits on the row solved just before it. The one substitution kernel
/// keeps that row's value in a register and subtracts its term last, as the
/// order above has it, so the chain from one row to the next is one
/// multiply, one subtract and one divide; a row's other terms are ready
/// earlier and overlap the rows before it. That chain is the floor for this
/// order. A fused multiply-add would shorten it, and so would multiplying
/// by a stored reciprocal of the diagonal, but each rounds differently from
/// a multiply then a subtract, or from a divide, and would move every grid
/// result; the kernel uses neither. Both sweeps are dot products, the
/// backward one over a column-major copy of the factor, so each reads
/// contiguous band entries and stores each element once. A multi-RHS solve
/// runs the same kernel on [`BandedCholesky::BLOCK_LANES`] independent
/// lanes side by side, which fills the latency of one lane with the work of
/// the others.
///
/// # Example
///
/// ```
/// use thermsched_linalg::{BandedCholesky, CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), thermsched_linalg::LinalgError> {
/// // Tridiagonal SPD system.
/// let a = CsrMatrix::from_triplets(
///     3,
///     3,
///     &[
///         Triplet::new(0, 0, 2.0),
///         Triplet::new(0, 1, -1.0),
///         Triplet::new(1, 0, -1.0),
///         Triplet::new(1, 1, 2.0),
///         Triplet::new(1, 2, -1.0),
///         Triplet::new(2, 1, -1.0),
///         Triplet::new(2, 2, 2.0),
///     ],
/// )?;
/// let chol = BandedCholesky::new(&a)?;
/// let x = chol.solve(&[1.0, 0.0, 1.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedCholesky {
    /// Dimension of the factorised matrix.
    dim: usize,
    /// Half-bandwidth `b`: `A[i][j] = 0` whenever `|i - j| > b`.
    bandwidth: usize,
    /// Row-major band storage of `L`: `bands[i * (b + 1) + (b - (i - j))]`
    /// holds `L[i][j]` for `i - b <= j <= i` (leading rows are left-padded
    /// with zeros).
    bands: Vec<f64>,
    /// Column-major copy of the sub-diagonal band, which the backward
    /// sweep reads: `columns[j * b + d]` holds `L[j + 1 + d][j]` (trailing
    /// columns are right-padded with zeros).
    columns: Vec<f64>,
}

impl BandedCholesky {
    /// Factorises a symmetric positive-definite matrix given in CSR form.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if the matrix is not square.
    /// * [`LinalgError::Empty`] if it has zero rows.
    /// * [`LinalgError::NonFinite`] if it contains NaN or infinite entries.
    /// * [`LinalgError::NotPositiveDefinite`] if it is asymmetric beyond
    ///   `1e-9` or a non-positive pivot is encountered.
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty {
                context: "BandedCholesky::new",
            });
        }
        if !a.is_symmetric(1e-9) {
            return Err(LinalgError::NotPositiveDefinite { index: 0 });
        }

        let mut bandwidth = 0usize;
        for i in 0..n {
            for (j, value) in a.row_entries(i) {
                if !value.is_finite() {
                    return Err(LinalgError::NonFinite {
                        context: "BandedCholesky::new",
                    });
                }
                bandwidth = bandwidth.max(i.abs_diff(j));
            }
        }

        // Copy the lower triangle into band storage, then factorise in place.
        let width = bandwidth + 1;
        let mut bands = vec![0.0; n * width];
        for i in 0..n {
            for (j, value) in a.row_entries(i) {
                if j <= i {
                    bands[i * width + (bandwidth - (i - j))] = value;
                }
            }
        }

        for i in 0..n {
            let lo = i.saturating_sub(bandwidth);
            for j in lo..=i {
                // sum = A[i][j] - Σ_k L[i][k] · L[j][k], k in the band overlap.
                let mut sum = bands[i * width + (bandwidth - (i - j))];
                let k_lo = lo.max(j.saturating_sub(bandwidth));
                for k in k_lo..j {
                    sum -= bands[i * width + (bandwidth - (i - k))]
                        * bands[j * width + (bandwidth - (j - k))];
                }
                if j == i {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { index: i });
                    }
                    bands[i * width + bandwidth] = sum.sqrt();
                } else {
                    bands[i * width + (bandwidth - (i - j))] = sum / bands[j * width + bandwidth];
                }
            }
        }

        let mut columns = vec![0.0; n * bandwidth];
        for j in 0..n {
            for i in j + 1..n.min(j + 1 + bandwidth) {
                columns[j * bandwidth + (i - j - 1)] = bands[i * width + (bandwidth - (i - j))];
            }
        }
        Ok(BandedCholesky {
            dim: n,
            bandwidth,
            bands,
            columns,
        })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Detected half-bandwidth of the factorised matrix.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Solves `A · x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.dim];
        self.solve_into(b, &mut out)?;
        Ok(out)
    }

    /// Solves `A · x = b` into a caller-provided buffer without allocating:
    /// forward substitution with `L` writes into `out`, then backward
    /// substitution with `Lᵀ` finishes in place. `rhs` and `out` may not
    /// alias but no scratch buffer is needed. Cost is `O(n · b)` per call.
    ///
    /// This is the single-lane case of the substitution kernel that every
    /// solve and step here runs; see the [type docs](BandedCholesky) for
    /// its operation order and why it sits at the substitution latency
    /// floor.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `rhs` or `out` has a
    /// length other than `self.dim()`.
    pub fn solve_into(&self, rhs: &[f64], out: &mut [f64]) -> Result<()> {
        let n = self.dim;
        for (len, context) in [
            (rhs.len(), "BandedCholesky::solve_into rhs"),
            (out.len(), "BandedCholesky::solve_into out"),
        ] {
            if len != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    found: len,
                    context,
                });
            }
        }
        self.sweep::<1>(|_, r| rhs[r], out, 1, 0);
        Ok(())
    }

    /// Solves `A · X = B` for a column-blocked right-hand-side matrix: `rhs`
    /// and `out` hold `dim × columns` values in row-major layout
    /// (`rhs[i * columns + c]` is row `i` of column `c`), so the `columns`
    /// systems advance through one pass over the factor instead of
    /// re-traversing the band per right-hand side.
    ///
    /// The columns are solved in blocks of [`Self::BLOCK_LANES`], then one
    /// block of four if at least four are left, then one at a time, each
    /// block with its lanes' partial sums side by side in registers. Lanes
    /// are independent dependency chains, so a block keeps several
    /// substitutions in flight where a single lane waits on its own
    /// divisions. They share no arithmetic, and each runs the one operation
    /// order of the [type docs](BandedCholesky), so the result is
    /// **bit-identical** to `columns` single solves. (A zero-padded last
    /// block of eight measures slower than the narrower blocks it would
    /// replace.)
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `columns` is zero or
    /// either slice has a length other than `self.dim() * columns`.
    pub fn solve_mat_into(&self, rhs: &[f64], out: &mut [f64], columns: usize) -> Result<()> {
        let n = self.dim;
        if columns == 0 {
            return Err(LinalgError::DimensionMismatch {
                expected: 1,
                found: 0,
                context: "BandedCholesky::solve_mat_into columns",
            });
        }
        for (len, context) in [
            (rhs.len(), "BandedCholesky::solve_mat_into rhs"),
            (out.len(), "BandedCholesky::solve_mat_into out"),
        ] {
            if len != n * columns {
                return Err(LinalgError::DimensionMismatch {
                    expected: n * columns,
                    found: len,
                    context,
                });
            }
        }
        self.sweep_blocks(|_, r| rhs[r], out, columns);
        Ok(())
    }

    /// Lanes per block of the multi-RHS kernel: [`Self::solve_mat_into`]
    /// and [`ImplicitStepOperator::step_mat_into`] advance this many
    /// columns side by side. A caller splitting columns over threads keeps
    /// every block whole by cutting at multiples of it.
    pub const BLOCK_LANES: usize = 8;

    /// Runs [`Self::sweep`] over all `k` columns: blocks of
    /// [`Self::BLOCK_LANES`], then one of four, then single lanes.
    fn sweep_blocks(&self, rhs: impl Fn(usize, usize) -> f64 + Copy, out: &mut [f64], k: usize) {
        let mut c0 = 0;
        while k - c0 >= Self::BLOCK_LANES {
            self.sweep::<{ Self::BLOCK_LANES }>(rhs, out, k, c0);
            c0 += Self::BLOCK_LANES;
        }
        if k - c0 >= 4 {
            self.sweep::<4>(rhs, out, k, c0);
            c0 += 4;
        }
        for c in c0..k {
            self.sweep::<1>(rhs, out, k, c);
        }
    }

    /// The substitution kernel: solves lanes `c0..c0 + L` of the row-major
    /// `dim × k` system into `out`, reading row `i`'s right-hand side at
    /// flat index `r` as `rhs(i, r)` when the forward sweep reaches it. Each
    /// lane's partial sums stay in registers, and the last term of each row
    /// comes from the registers the row before it was divided into.
    fn sweep<const L: usize>(
        &self,
        rhs: impl Fn(usize, usize) -> f64,
        out: &mut [f64],
        k: usize,
        c0: usize,
    ) {
        let b = self.bandwidth;
        let n = self.dim;
        // Forward: L · Y = B. `carried` is row i - 1.
        let mut carried = [0.0; L];
        for (i, row) in self.bands.chunks_exact(b + 1).enumerate() {
            let (band, diag) = row.split_at(b);
            let lo = i.saturating_sub(b);
            let mut acc: [f64; L] = std::array::from_fn(|q| rhs(i, i * k + c0 + q));
            let (solved, rest) = out.split_at_mut(i * k);
            if let Some((nearest, farther)) = band[b - (i - lo)..].split_last() {
                for (l, y) in farther.iter().zip(solved[lo * k..].chunks_exact(k)) {
                    let y = lanes::<L>(y, c0);
                    for q in 0..L {
                        acc[q] -= l * y[q];
                    }
                }
                for q in 0..L {
                    acc[q] -= nearest * carried[q];
                }
            }
            carried = acc.map(|sum| sum / diag[0]);
            *lanes_mut::<L>(rest, c0) = carried;
        }
        // Backward: Lᵀ · X = Y over the columns of L. `carried` is row
        // i + 1.
        for i in (0..n).rev() {
            let hi = (i + b).min(n - 1);
            let (above, below) = out.split_at_mut((i + 1) * k);
            let mut acc = *lanes::<L>(above, i * k + c0);
            if let Some((nearest, farther)) = self.columns[i * b..i * b + (hi - i)].split_first() {
                let solved = below[k..(hi - i) * k].chunks_exact(k);
                for (l, x) in farther.iter().zip(solved).rev() {
                    let x = lanes::<L>(x, c0);
                    for q in 0..L {
                        acc[q] -= l * x[q];
                    }
                }
                for q in 0..L {
                    acc[q] -= nearest * carried[q];
                }
            }
            let diag = self.bands[i * (b + 1) + b];
            carried = acc.map(|sum| sum / diag);
            *lanes_mut::<L>(above, i * k + c0) = carried;
        }
    }

    /// Allocating convenience wrapper around
    /// [`BandedCholesky::solve_mat_into`].
    ///
    /// # Errors
    ///
    /// See [`BandedCholesky::solve_mat_into`].
    pub fn solve_mat(&self, rhs: &[f64], columns: usize) -> Result<Vec<f64>> {
        let mut out = vec![0.0; rhs.len()];
        self.solve_mat_into(rhs, &mut out, columns)?;
        Ok(out)
    }
}

/// The `L` lanes of `v` from `at`.
fn lanes<const L: usize>(v: &[f64], at: usize) -> &[f64; L] {
    v[at..at + L].try_into().expect("a block of L lanes")
}

/// The `L` lanes of `v` from `at`, mutably.
fn lanes_mut<const L: usize>(v: &mut [f64], at: usize) -> &mut [f64; L] {
    (&mut v[at..at + L]).try_into().expect("a block of L lanes")
}

/// The factorised implicit-Euler step operator of a thermal (or any
/// diffusion-like) network with conductance `G` and diagonal capacitance
/// `C`: one step of `C · dx/dt = p − G · x` discretised implicitly is
/// `(C/Δt + G) · x_{k+1} = C/Δt · x_k + p`.
///
/// The stepping matrix is factorised once at construction
/// ([`BandedCholesky`], `O(n · b²)`); each [`ImplicitStepOperator::step_into`]
/// then costs one `O(n · b)` banded solve with zero allocation. This is the
/// sparse-grid counterpart of the dense [`crate::AffineStepOperator`] fast
/// path: the expensive, shape-dependent work happens exactly once per
/// (matrix, Δt) pair and is shareable across every simulation over the same
/// grid shape.
///
/// # Example
///
/// ```
/// use thermsched_linalg::{CsrMatrix, ImplicitStepOperator, Triplet};
///
/// # fn main() -> Result<(), thermsched_linalg::LinalgError> {
/// // One node leaking to ground: C dx/dt = p - g x, steady state p/g = 2.
/// let g = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, 0.5)])?;
/// let op = ImplicitStepOperator::new(&g, &[1.0], 0.1)?;
/// let mut x = vec![0.0];
/// let mut next = vec![0.0];
/// for _ in 0..400 {
///     op.step_into(&x, &[1.0], &mut next)?;
///     std::mem::swap(&mut x, &mut next);
/// }
/// assert!((x[0] - 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImplicitStepOperator {
    factorisation: BandedCholesky,
    capacitance_over_dt: Vec<f64>,
    time_step: f64,
}

impl ImplicitStepOperator {
    /// Builds and factorises the stepping matrix `C/Δt + G`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `capacitance.len()` differs
    ///   from the dimension of `conductance`.
    /// * [`LinalgError::NonFinite`] if the time step or a capacitance is
    ///   non-positive or non-finite.
    /// * Factorisation errors from [`BandedCholesky::new`].
    pub fn new(conductance: &CsrMatrix, capacitance: &[f64], time_step: f64) -> Result<Self> {
        if capacitance.len() != conductance.rows() {
            return Err(LinalgError::DimensionMismatch {
                expected: conductance.rows(),
                found: capacitance.len(),
                context: "ImplicitStepOperator::new capacitance",
            });
        }
        if !(time_step > 0.0 && time_step.is_finite()) {
            return Err(LinalgError::NonFinite {
                context: "ImplicitStepOperator::new time_step",
            });
        }
        if capacitance.iter().any(|c| !(*c > 0.0 && c.is_finite())) {
            return Err(LinalgError::NonFinite {
                context: "ImplicitStepOperator::new capacitance",
            });
        }
        let capacitance_over_dt: Vec<f64> = capacitance.iter().map(|c| c / time_step).collect();
        // Stamp C/Δt onto the diagonal of G and refactorise in band form.
        let n = conductance.rows();
        let mut triplets = Vec::with_capacity(conductance.nnz() + n);
        for (i, &c_over_dt) in capacitance_over_dt.iter().enumerate() {
            for (j, value) in conductance.row_entries(i) {
                triplets.push(crate::Triplet::new(i, j, value));
            }
            triplets.push(crate::Triplet::new(i, i, c_over_dt));
        }
        let lhs = CsrMatrix::from_triplets(n, n, &triplets)?;
        Ok(ImplicitStepOperator {
            factorisation: BandedCholesky::new(&lhs)?,
            capacitance_over_dt,
            time_step,
        })
    }

    /// Dimension of the state vector.
    pub fn dim(&self) -> usize {
        self.factorisation.dim()
    }

    /// The integration time step in seconds the operator was built for.
    pub fn time_step(&self) -> f64 {
        self.time_step
    }

    /// Borrows the factorised stepping matrix.
    pub fn factorisation(&self) -> &BandedCholesky {
        &self.factorisation
    }

    /// Advances one implicit-Euler step: solves
    /// `(C/Δt + G) · next = C/Δt · state + power` into `next`, stamping each
    /// row's right-hand side as the forward sweep reaches it. Allocation-free;
    /// the sweep is [`BandedCholesky::solve_into`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any slice has a length
    /// other than `self.dim()`.
    pub fn step_into(&self, state: &[f64], power: &[f64], next: &mut [f64]) -> Result<()> {
        let n = self.dim();
        for (len, context) in [
            (state.len(), "ImplicitStepOperator::step_into state"),
            (power.len(), "ImplicitStepOperator::step_into power"),
            (next.len(), "ImplicitStepOperator::step_into next"),
        ] {
            if len != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    found: len,
                    context,
                });
            }
        }
        let c = &self.capacitance_over_dt;
        self.factorisation
            .sweep::<1>(|i, r| c[i] * state[r] + power[r], next, 1, 0);
        Ok(())
    }

    /// Advances `steps` implicit-Euler steps from rest (zero state) under
    /// constant `power`, reusing the caller's buffers; `state` holds the
    /// final state on return. Allocation-free after the caller sizes both
    /// buffers to [`ImplicitStepOperator::dim`].
    ///
    /// # Errors
    ///
    /// See [`ImplicitStepOperator::step_into`].
    pub fn advance_from_rest_into(
        &self,
        power: &[f64],
        steps: usize,
        state: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) -> Result<()> {
        state.iter_mut().for_each(|s| *s = 0.0);
        for _ in 0..steps {
            self.step_into(state, power, next)?;
            std::mem::swap(state, next);
        }
        Ok(())
    }

    /// Multi-RHS variant of [`ImplicitStepOperator::step_into`]: advances
    /// `columns` independent states one implicit-Euler step in a single
    /// matrix-matrix pass. All three buffers are `dim × columns` row-major
    /// matrices (`state[i * columns + c]` is node `i` of lane `c`). The
    /// right-hand side is stamped per lane exactly as the single step
    /// stamps it and [`BandedCholesky::solve_mat_into`]'s blocks are
    /// bit-identical per column to the single solve, so the result of lane
    /// `c` equals a standalone `step_into` on that lane, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `columns` is zero or any
    /// slice has a length other than `self.dim() * columns`.
    pub fn step_mat_into(
        &self,
        state: &[f64],
        power: &[f64],
        next: &mut [f64],
        columns: usize,
    ) -> Result<()> {
        let n = self.dim();
        if columns == 0 {
            return Err(LinalgError::DimensionMismatch {
                expected: 1,
                found: 0,
                context: "ImplicitStepOperator::step_mat_into columns",
            });
        }
        for (len, context) in [
            (state.len(), "ImplicitStepOperator::step_mat_into state"),
            (power.len(), "ImplicitStepOperator::step_mat_into power"),
            (next.len(), "ImplicitStepOperator::step_mat_into next"),
        ] {
            if len != n * columns {
                return Err(LinalgError::DimensionMismatch {
                    expected: n * columns,
                    found: len,
                    context,
                });
            }
        }
        let c = &self.capacitance_over_dt;
        self.factorisation
            .sweep_blocks(|i, r| c[i] * state[r] + power[r], next, columns);
        Ok(())
    }

    /// Multi-RHS variant of [`ImplicitStepOperator::advance_from_rest_into`]:
    /// drives `columns` lanes from rest under their own constant per-lane
    /// `power` columns for `steps` steps. `state` holds the final `dim ×
    /// columns` matrix on return; per lane the trajectory is bit-identical
    /// to a standalone [`ImplicitStepOperator::advance_from_rest_into`].
    ///
    /// # Errors
    ///
    /// See [`ImplicitStepOperator::step_mat_into`].
    pub fn advance_many_from_rest_into(
        &self,
        power: &[f64],
        steps: usize,
        state: &mut Vec<f64>,
        next: &mut Vec<f64>,
        columns: usize,
    ) -> Result<()> {
        state.iter_mut().for_each(|s| *s = 0.0);
        for _ in 0..steps {
            self.step_mat_into(state, power, next, columns)?;
            std::mem::swap(state, next);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CholeskyDecomposition, Triplet};

    /// 2D 5-point Laplacian-like SPD grid matrix with a leak to ground.
    fn grid_matrix(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut t = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                let c = iy * nx + ix;
                t.push(Triplet::new(c, c, 0.35));
                if ix + 1 < nx {
                    let e = c + 1;
                    t.push(Triplet::new(c, c, 1.0));
                    t.push(Triplet::new(e, e, 1.0));
                    t.push(Triplet::new(c, e, -1.0));
                    t.push(Triplet::new(e, c, -1.0));
                }
                if iy + 1 < ny {
                    let no = c + nx;
                    t.push(Triplet::new(c, c, 0.8));
                    t.push(Triplet::new(no, no, 0.8));
                    t.push(Triplet::new(c, no, -0.8));
                    t.push(Triplet::new(no, c, -0.8));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn bandwidth_is_detected_from_the_pattern() {
        let a = grid_matrix(5, 4);
        let chol = BandedCholesky::new(&a).unwrap();
        assert_eq!(chol.dim(), 20);
        assert_eq!(chol.bandwidth(), 5);
    }

    #[test]
    fn banded_solve_matches_dense_cholesky() {
        let a = grid_matrix(6, 5);
        let banded = BandedCholesky::new(&a).unwrap();
        let dense = CholeskyDecomposition::new(&a.to_dense()).unwrap();
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.7).sin() + 1.5).collect();
        let x = banded.solve(&b).unwrap();
        for (x, y) in x.iter().zip(&dense.solve(&b).unwrap()) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn dense_matrices_factorise_too() {
        // Fully dense SPD matrix: bandwidth n-1 degenerates to plain Cholesky.
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet::new(0, 0, 4.0),
                Triplet::new(0, 1, 1.0),
                Triplet::new(0, 2, 0.5),
                Triplet::new(1, 0, 1.0),
                Triplet::new(1, 1, 3.0),
                Triplet::new(1, 2, 0.25),
                Triplet::new(2, 0, 0.5),
                Triplet::new(2, 1, 0.25),
                Triplet::new(2, 2, 2.0),
            ],
        )
        .unwrap();
        let chol = BandedCholesky::new(&a).unwrap();
        assert_eq!(chol.bandwidth(), 2);
        let x = chol.solve(&[1.0, 2.0, 3.0]).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-12);
        assert!((r[1] - 2.0).abs() < 1e-12);
        assert!((r[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_matrices() {
        let rect = CsrMatrix::from_triplets(2, 3, &[]).unwrap();
        assert!(matches!(
            BandedCholesky::new(&rect),
            Err(LinalgError::NotSquare { .. })
        ));
        let empty = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        assert!(matches!(
            BandedCholesky::new(&empty),
            Err(LinalgError::Empty { .. })
        ));
        let asym = CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 1, 1.0)]).unwrap();
        assert!(matches!(
            BandedCholesky::new(&asym),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let nan = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, f64::NAN)]).unwrap();
        assert!(matches!(
            BandedCholesky::new(&nan),
            Err(LinalgError::NonFinite { .. })
        ));
        // Indefinite: zero diagonal.
        let indef = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, 0.0)]).unwrap();
        assert!(matches!(
            BandedCholesky::new(&indef),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn solve_into_rejects_wrong_lengths() {
        let a = grid_matrix(2, 2);
        let chol = BandedCholesky::new(&a).unwrap();
        let mut out = vec![0.0; 4];
        assert!(chol.solve_into(&[1.0; 3], &mut out).is_err());
        let mut short = vec![0.0; 3];
        assert!(chol.solve_into(&[1.0; 4], &mut short).is_err());
    }

    #[test]
    fn step_operator_matches_the_closed_form_on_one_node() {
        // C dx/dt = p - g x with implicit Euler: x_{k+1} = (C/dt x_k + p) / (C/dt + g).
        let g = CsrMatrix::from_triplets(1, 1, &[Triplet::new(0, 0, 2.0)]).unwrap();
        let op = ImplicitStepOperator::new(&g, &[4.0], 0.5).unwrap();
        assert_eq!(op.dim(), 1);
        assert_eq!(op.time_step(), 0.5);
        let mut x = 0.0;
        let mut state = vec![0.0];
        let mut next = vec![0.0];
        for _ in 0..10 {
            op.step_into(&state, &[3.0], &mut next).unwrap();
            std::mem::swap(&mut state, &mut next);
            x = (8.0 * x + 3.0) / 10.0;
            assert!((state[0] - x).abs() < 1e-12);
        }
    }

    #[test]
    fn advancing_from_rest_converges_to_the_steady_state() {
        let a = grid_matrix(4, 4);
        let op = ImplicitStepOperator::new(&a, &[0.2; 16], 0.05).unwrap();
        let power: Vec<f64> = (0..16).map(|i| 0.5 + (i % 3) as f64).collect();
        let mut state = vec![0.0; 16];
        let mut next = vec![0.0; 16];
        op.advance_from_rest_into(&power, 4000, &mut state, &mut next)
            .unwrap();
        let steady = BandedCholesky::new(&a).unwrap().solve(&power).unwrap();
        for (x, s) in state.iter().zip(&steady) {
            assert!((x - s).abs() < 1e-6, "{x} vs {s}");
        }
    }

    #[test]
    fn steps_from_rest_rise_monotonically_under_constant_power() {
        let a = grid_matrix(3, 3);
        let op = ImplicitStepOperator::new(&a, &[0.1; 9], 0.02).unwrap();
        let power = vec![1.0; 9];
        let mut state = vec![0.0; 9];
        let mut next = vec![0.0; 9];
        for _ in 0..50 {
            op.step_into(&state, &power, &mut next).unwrap();
            for (n, s) in next.iter().zip(&state) {
                assert!(n + 1e-12 >= *s, "iterates must not decrease");
            }
            std::mem::swap(&mut state, &mut next);
        }
    }

    /// splitmix64: a seeded stream of values in `[-1, 1)`.
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    /// A seeded SPD matrix of dimension `n` with every entry of half-band
    /// `b` nonzero: off-diagonals of magnitude 0.1 to 1, each row
    /// diagonally dominant.
    fn seeded_band_matrix(n: usize, b: usize, seed: u64) -> CsrMatrix {
        let mut rng = Seeded(seed);
        let mut t = Vec::new();
        let mut diag = vec![1.0; n];
        for i in 0..n {
            for j in i.saturating_sub(b)..i {
                let v = rng.next();
                let v = v.signum() * (0.1 + 0.9 * v.abs());
                t.push(Triplet::new(i, j, v));
                t.push(Triplet::new(j, i, v));
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
        for (i, d) in diag.into_iter().enumerate() {
            t.push(Triplet::new(i, i, d + rng.next().abs()));
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    /// The substitution sweeps in their plain order, which every kernel
    /// must reproduce bit for bit: an indexed dot-form forward sweep (terms
    /// in ascending column order) and an axpy backward sweep (each `x[i]`
    /// subtracted from the rows above it as soon as it is known).
    #[allow(clippy::needless_range_loop)]
    fn reference_solve(chol: &BandedCholesky, rhs: &[f64]) -> Vec<f64> {
        let (n, b) = (chol.dim, chol.bandwidth);
        let l = |i: usize, j: usize| chol.bands[i * (b + 1) + (b - (i - j))];
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut sum = rhs[i];
            for j in i.saturating_sub(b)..i {
                sum -= l(i, j) * out[j];
            }
            out[i] = sum / l(i, i);
        }
        for i in (0..n).rev() {
            let x = out[i] / l(i, i);
            out[i] = x;
            for j in i.saturating_sub(b)..i {
                out[j] -= l(i, j) * x;
            }
        }
        out
    }

    /// One implicit-Euler step in the plain order: the right-hand side
    /// stamped in a separate pass, then [`reference_solve`].
    fn reference_step(op: &ImplicitStepOperator, state: &[f64], power: &[f64]) -> Vec<f64> {
        let rhs: Vec<f64> = (0..op.dim())
            .map(|i| op.capacitance_over_dt[i] * state[i] + power[i])
            .collect();
        reference_solve(&op.factorisation, &rhs)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Column `c` of a row-major `n × k` matrix.
    fn column(matrix: &[f64], k: usize, c: usize) -> Vec<f64> {
        matrix.iter().skip(c).step_by(k).copied().collect()
    }

    #[test]
    fn every_kernel_matches_the_reference_order_bit_for_bit() {
        // (n, b): diagonal matrices with one row and with several, full
        // bands (b = n - 1), and grid-like half-bands over many rows.
        let shapes = [
            (1, 0),
            (3, 0),
            (9, 0),
            (2, 1),
            (5, 4),
            (17, 16),
            (12, 1),
            (30, 3),
            (40, 7),
            (64, 12),
        ];
        for (shape, &(n, b)) in shapes.iter().enumerate() {
            let seed = 0x5eed_0000 + shape as u64;
            let g = seeded_band_matrix(n, b, seed);
            let chol = BandedCholesky::new(&g).unwrap();
            assert_eq!(chol.bandwidth(), b, "{n}×{n} band");
            let capacitance: Vec<f64> = (0..n).map(|i| 0.05 + 0.01 * (i % 7) as f64).collect();
            let op = ImplicitStepOperator::new(&g, &capacitance, 1e-3).unwrap();
            let mut rng = Seeded(seed ^ 0xface);
            for k in 1..=17 {
                let what = format!("n {n}, b {b}, {k} columns");
                let rhs: Vec<f64> = (0..n * k).map(|_| 4.0 * rng.next()).collect();
                let state: Vec<f64> = (0..n * k).map(|_| 30.0 * rng.next()).collect();
                let solved = chol.solve_mat(&rhs, k).unwrap();
                let mut stepped = vec![0.0; n * k];
                op.step_mat_into(&state, &rhs, &mut stepped, k).unwrap();
                let mut single = vec![0.0; n];
                for c in 0..k {
                    let (rhs, state) = (column(&rhs, k, c), column(&state, k, c));
                    let expected = reference_solve(&chol, &rhs);
                    assert_eq!(bits(&column(&solved, k, c)), bits(&expected), "{what}");
                    chol.solve_into(&rhs, &mut single).unwrap();
                    assert_eq!(bits(&single), bits(&expected), "{what}");
                    let expected = reference_step(&op, &state, &rhs);
                    assert_eq!(bits(&column(&stepped, k, c)), bits(&expected), "{what}");
                    op.step_into(&state, &rhs, &mut single).unwrap();
                    assert_eq!(bits(&single), bits(&expected), "{what}");
                }
            }
        }
    }

    #[test]
    fn multi_rhs_solve_is_bit_identical_to_repeated_single_solves() {
        let a = grid_matrix(6, 5);
        let chol = BandedCholesky::new(&a).unwrap();
        let n = chol.dim();
        // Column counts straddling the 8- and 4-lane block boundaries,
        // including the degenerate single-column case.
        for k in [1usize, 3, 4, 5, 8, 11] {
            let rhs: Vec<f64> = (0..n * k)
                .map(|i| (i as f64 * 0.31).sin() * 4.0 + 0.5)
                .collect();
            let mat = chol.solve_mat(&rhs, k).unwrap();
            let mut single_rhs = vec![0.0; n];
            let mut single_out = vec![0.0; n];
            for c in 0..k {
                for i in 0..n {
                    single_rhs[i] = rhs[i * k + c];
                }
                chol.solve_into(&single_rhs, &mut single_out).unwrap();
                for i in 0..n {
                    assert_eq!(
                        mat[i * k + c],
                        single_out[i],
                        "lane {c} row {i} diverged from the single solve"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_rhs_steps_are_bit_identical_to_per_lane_stepping() {
        let a = grid_matrix(4, 4);
        let op = ImplicitStepOperator::new(&a, &[0.2; 16], 0.05).unwrap();
        let n = op.dim();
        let k = 6;
        let powers: Vec<f64> = (0..n * k).map(|i| 0.3 + (i % 7) as f64 * 0.4).collect();
        let steps = 40;

        let mut state = vec![0.0; n * k];
        let mut next = vec![0.0; n * k];
        op.advance_many_from_rest_into(&powers, steps, &mut state, &mut next, k)
            .unwrap();

        let mut lane_power = vec![0.0; n];
        let mut lane_state = vec![0.0; n];
        let mut lane_next = vec![0.0; n];
        for c in 0..k {
            for i in 0..n {
                lane_power[i] = powers[i * k + c];
            }
            op.advance_from_rest_into(&lane_power, steps, &mut lane_state, &mut lane_next)
                .unwrap();
            for i in 0..n {
                assert_eq!(state[i * k + c], lane_state[i], "lane {c} node {i}");
            }
        }
    }

    #[test]
    fn multi_rhs_entry_points_reject_malformed_shapes() {
        let a = grid_matrix(3, 3);
        let chol = BandedCholesky::new(&a).unwrap();
        let mut out = vec![0.0; 18];
        assert!(chol.solve_mat_into(&[0.0; 18], &mut out, 0).is_err());
        assert!(chol.solve_mat_into(&[0.0; 17], &mut out, 2).is_err());
        assert!(chol.solve_mat_into(&[0.0; 18], &mut out[..17], 2).is_err());
        let op = ImplicitStepOperator::new(&a, &[1.0; 9], 0.1).unwrap();
        let mut next = vec![0.0; 18];
        assert!(op
            .step_mat_into(&[0.0; 18], &[0.0; 18], &mut next, 0)
            .is_err());
        assert!(op
            .step_mat_into(&[0.0; 9], &[0.0; 18], &mut next, 2)
            .is_err());
        assert!(op
            .step_mat_into(&[0.0; 18], &[0.0; 18], &mut next[..17], 2)
            .is_err());
    }

    #[test]
    fn step_operator_rejects_malformed_inputs() {
        let a = grid_matrix(2, 2);
        assert!(ImplicitStepOperator::new(&a, &[1.0; 3], 0.1).is_err());
        assert!(ImplicitStepOperator::new(&a, &[1.0; 4], 0.0).is_err());
        assert!(ImplicitStepOperator::new(&a, &[1.0; 4], f64::NAN).is_err());
        assert!(ImplicitStepOperator::new(&a, &[1.0, 1.0, -1.0, 1.0], 0.1).is_err());
        let op = ImplicitStepOperator::new(&a, &[1.0; 4], 0.1).unwrap();
        let mut next = vec![0.0; 4];
        assert!(op.step_into(&[0.0; 3], &[0.0; 4], &mut next).is_err());
        assert!(op.step_into(&[0.0; 4], &[0.0; 3], &mut next).is_err());
        assert!(op.step_into(&[0.0; 4], &[0.0; 4], &mut next[..3]).is_err());
    }
}
