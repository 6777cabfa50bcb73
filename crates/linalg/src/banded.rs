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

        Ok(BandedCholesky {
            dim: n,
            bandwidth,
            bands,
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
    /// alias but no scratch buffer is needed. Cost is `O(n · b)` per call —
    /// the hot-loop variant used by [`ImplicitStepOperator::step_into`].
    ///
    /// Both substitution sweeps traverse the factor's band rows
    /// *contiguously*: the backward sweep is written in column-oriented
    /// (saxpy) form, so `Lᵀ` is applied through the same cache-friendly row
    /// slices as `L` instead of striding down a column of band storage. The
    /// per-element accumulation order is exactly the per-column order of
    /// [`BandedCholesky::solve_mat_into`], which is what makes the multi-RHS
    /// path bit-identical to repeated single solves.
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
        let b = self.bandwidth;
        let width = b + 1;
        // Forward: L · y = rhs. One dot product of the band row against the
        // already-solved prefix per row, accumulated in ascending-j order.
        for i in 0..n {
            let mut sum = rhs[i];
            let lo = i.saturating_sub(b);
            let row = &self.bands[i * width + (b - (i - lo))..i * width + b];
            for (l, &y) in row.iter().zip(&out[lo..i]) {
                sum -= l * y;
            }
            out[i] = sum / self.bands[i * width + b];
        }
        // Backward: Lᵀ · x = y in column-oriented form — once x[i] is known,
        // its contribution `L[i][j] · x[i]` is swept out of every pending
        // y[j] through the contiguous band row i (an axpy), instead of each
        // x[i] gathering its own strided column of Lᵀ.
        for i in (0..n).rev() {
            let xi = out[i] / self.bands[i * width + b];
            out[i] = xi;
            let lo = i.saturating_sub(b);
            let row = &self.bands[i * width + (b - (i - lo))..i * width + b];
            for (l, y) in row.iter().zip(&mut out[lo..i]) {
                *y -= l * xi;
            }
        }
        Ok(())
    }

    /// Solves `A · X = B` for a column-blocked right-hand-side matrix: `rhs`
    /// and `out` hold `dim × columns` values in row-major layout
    /// (`rhs[i * columns + c]` is row `i` of column `c`), so the `columns`
    /// systems advance through one pass over the factor instead of
    /// re-traversing the band per right-hand side.
    ///
    /// The inner kernel is register-blocked four lanes wide: each block of
    /// four columns runs the whole forward/backward substitution with its
    /// partial sums held in four independent register accumulators, so one
    /// pass over the factor advances four systems and the per-row working
    /// set never round-trips through memory (the naive lane-axpy form
    /// re-reads and re-writes every lane for every band coefficient, which
    /// measures no faster than repeated single solves). Lanes of a row are
    /// independent, so the blocking cannot change any lane's result: per
    /// column the accumulation order is identical to
    /// [`BandedCholesky::solve_into`], making this **bit-identical** to
    /// `columns` single solves — the property suite enforces it.
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
        let mut c0 = 0;
        while c0 + 4 <= columns {
            self.solve_lanes4(rhs, out, columns, c0);
            c0 += 4;
        }
        for c in c0..columns {
            self.solve_lane(rhs, out, columns, c);
        }
        Ok(())
    }

    /// Solves lanes `c0..c0 + 4` of the row-major `dim × k` system with the
    /// four partial sums in register accumulators. Per lane the operation
    /// order matches [`BandedCholesky::solve_into`] exactly.
    fn solve_lanes4(&self, rhs: &[f64], out: &mut [f64], k: usize, c0: usize) {
        let n = self.dim;
        let b = self.bandwidth;
        let width = b + 1;
        // Forward: L · Y = B. The four accumulators are independent
        // dependency chains fed by one contiguous band-row stream.
        for i in 0..n {
            let lo = i.saturating_sub(b);
            let band_row = &self.bands[i * width + (b - (i - lo))..i * width + b];
            let r = i * k + c0;
            let mut acc = [rhs[r], rhs[r + 1], rhs[r + 2], rhs[r + 3]];
            for (l, j) in band_row.iter().zip(lo..i) {
                let y = &out[j * k + c0..j * k + c0 + 4];
                acc[0] -= l * y[0];
                acc[1] -= l * y[1];
                acc[2] -= l * y[2];
                acc[3] -= l * y[3];
            }
            let diag = self.bands[i * width + b];
            let row = &mut out[r..r + 4];
            row[0] = acc[0] / diag;
            row[1] = acc[1] / diag;
            row[2] = acc[2] / diag;
            row[3] = acc[3] / diag;
        }
        // Backward: Lᵀ · X = Y in the same column-oriented sweep as
        // `solve_into` — once a row's four x values are known (and kept in
        // registers), their contributions sweep out of every pending row.
        for i in (0..n).rev() {
            let lo = i.saturating_sub(b);
            let band_row = &self.bands[i * width + (b - (i - lo))..i * width + b];
            let diag = self.bands[i * width + b];
            let r = i * k + c0;
            let x = [
                out[r] / diag,
                out[r + 1] / diag,
                out[r + 2] / diag,
                out[r + 3] / diag,
            ];
            out[r..r + 4].copy_from_slice(&x);
            for (l, j) in band_row.iter().zip(lo..i) {
                let y = &mut out[j * k + c0..j * k + c0 + 4];
                y[0] -= l * x[0];
                y[1] -= l * x[1];
                y[2] -= l * x[2];
                y[3] -= l * x[3];
            }
        }
    }

    /// Solves the single strided lane `c` of the row-major `dim × k` system
    /// — the remainder path of [`BandedCholesky::solve_mat_into`], with the
    /// operation order of [`BandedCholesky::solve_into`].
    fn solve_lane(&self, rhs: &[f64], out: &mut [f64], k: usize, c: usize) {
        let n = self.dim;
        let b = self.bandwidth;
        let width = b + 1;
        for i in 0..n {
            let lo = i.saturating_sub(b);
            let band_row = &self.bands[i * width + (b - (i - lo))..i * width + b];
            let mut sum = rhs[i * k + c];
            for (l, j) in band_row.iter().zip(lo..i) {
                sum -= l * out[j * k + c];
            }
            out[i * k + c] = sum / self.bands[i * width + b];
        }
        for i in (0..n).rev() {
            let lo = i.saturating_sub(b);
            let band_row = &self.bands[i * width + (b - (i - lo))..i * width + b];
            let xi = out[i * k + c] / self.bands[i * width + b];
            out[i * k + c] = xi;
            for (l, j) in band_row.iter().zip(lo..i) {
                out[j * k + c] -= l * xi;
            }
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

/// `dst[c] -= coef * src[c]` over all lanes, manually unrolled four wide.
///
/// The pinned toolchain is stable (no `std::simd`), so the 4-lane blocks are
/// spelled out by hand; each lane is an independent dependency chain, which
/// is what lets the optimiser keep four fused multiply-subtracts in flight.
/// Per lane the operation is a single `-=`, so unrolling cannot change any
/// lane's result.
#[inline]
pub(crate) fn axpy_neg(coef: f64, src: &[f64], dst: &mut [f64]) {
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (d4, s4) in (&mut d).zip(&mut s) {
        d4[0] -= coef * s4[0];
        d4[1] -= coef * s4[1];
        d4[2] -= coef * s4[2];
        d4[3] -= coef * s4[3];
    }
    for (dr, sr) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dr -= coef * *sr;
    }
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
/// let mut scratch = vec![0.0];
/// for _ in 0..400 {
///     op.step_into(&x, &[1.0], &mut next, &mut scratch)?;
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
    /// `(C/Δt + G) · next = C/Δt · state + power` into `next`, using
    /// `scratch` for the right-hand side. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any slice has a length
    /// other than `self.dim()`.
    pub fn step_into(
        &self,
        state: &[f64],
        power: &[f64],
        next: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<()> {
        let n = self.dim();
        for (len, context) in [
            (state.len(), "ImplicitStepOperator::step_into state"),
            (power.len(), "ImplicitStepOperator::step_into power"),
            (scratch.len(), "ImplicitStepOperator::step_into scratch"),
        ] {
            if len != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    found: len,
                    context,
                });
            }
        }
        for (s, ((&c, &x), &p)) in scratch
            .iter_mut()
            .zip(self.capacitance_over_dt.iter().zip(state).zip(power))
        {
            *s = c * x + p;
        }
        self.factorisation.solve_into(scratch, next)
    }

    /// Advances `steps` implicit-Euler steps from rest (zero state) under
    /// constant `power`, reusing the caller's buffers; `state` holds the
    /// final state on return. Allocation-free after the caller sizes the
    /// three buffers to [`ImplicitStepOperator::dim`].
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
        scratch: &mut [f64],
    ) -> Result<()> {
        state.iter_mut().for_each(|s| *s = 0.0);
        for _ in 0..steps {
            self.step_into(state, power, next, scratch)?;
            std::mem::swap(state, next);
        }
        Ok(())
    }

    /// Multi-RHS variant of [`ImplicitStepOperator::step_into`]: advances
    /// `columns` independent states one implicit-Euler step in a single
    /// matrix-matrix pass. All four buffers are `dim × columns` row-major
    /// matrices (`state[i * columns + c]` is node `i` of lane `c`). Because
    /// the stamped right-hand side is elementwise per lane and
    /// [`BandedCholesky::solve_mat_into`] is bit-identical per column to the
    /// single solve, the result of lane `c` equals a standalone `step_into`
    /// on that lane, bit for bit.
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
        scratch: &mut [f64],
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
            (scratch.len(), "ImplicitStepOperator::step_mat_into scratch"),
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
        for (i, &c) in self.capacitance_over_dt.iter().enumerate() {
            let row = i * columns..(i + 1) * columns;
            for ((s, &x), &p) in scratch[row.clone()]
                .iter_mut()
                .zip(&state[row.clone()])
                .zip(&power[row])
            {
                *s = c * x + p;
            }
        }
        self.factorisation.solve_mat_into(scratch, next, columns)
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
        scratch: &mut [f64],
        columns: usize,
    ) -> Result<()> {
        state.iter_mut().for_each(|s| *s = 0.0);
        for _ in 0..steps {
            self.step_mat_into(state, power, next, scratch, columns)?;
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
        let mut scratch = vec![0.0];
        for _ in 0..10 {
            op.step_into(&state, &[3.0], &mut next, &mut scratch)
                .unwrap();
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
        let mut scratch = vec![0.0; 16];
        op.advance_from_rest_into(&power, 4000, &mut state, &mut next, &mut scratch)
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
        let mut scratch = vec![0.0; 9];
        for _ in 0..50 {
            op.step_into(&state, &power, &mut next, &mut scratch)
                .unwrap();
            for (n, s) in next.iter().zip(&state) {
                assert!(n + 1e-12 >= *s, "iterates must not decrease");
            }
            std::mem::swap(&mut state, &mut next);
        }
    }

    #[test]
    fn multi_rhs_solve_is_bit_identical_to_repeated_single_solves() {
        let a = grid_matrix(6, 5);
        let chol = BandedCholesky::new(&a).unwrap();
        let n = chol.dim();
        // Column counts straddling the 4-lane unroll boundary, including the
        // degenerate single-column case.
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
        let mut scratch = vec![0.0; n * k];
        op.advance_many_from_rest_into(&powers, steps, &mut state, &mut next, &mut scratch, k)
            .unwrap();

        let mut lane_power = vec![0.0; n];
        let mut lane_state = vec![0.0; n];
        let mut lane_next = vec![0.0; n];
        let mut lane_scratch = vec![0.0; n];
        for c in 0..k {
            for i in 0..n {
                lane_power[i] = powers[i * k + c];
            }
            op.advance_from_rest_into(
                &lane_power,
                steps,
                &mut lane_state,
                &mut lane_next,
                &mut lane_scratch,
            )
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
        let mut scratch = vec![0.0; 18];
        assert!(op
            .step_mat_into(&[0.0; 18], &[0.0; 18], &mut next, &mut scratch, 0)
            .is_err());
        assert!(op
            .step_mat_into(&[0.0; 9], &[0.0; 18], &mut next, &mut scratch, 2)
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
        let mut scratch = vec![0.0; 4];
        assert!(op
            .step_into(&[0.0; 3], &[0.0; 4], &mut next, &mut scratch)
            .is_err());
        assert!(op
            .step_into(&[0.0; 4], &[0.0; 3], &mut next, &mut scratch)
            .is_err());
    }
}
