//! Alternating-direction-implicit (ADI) stepping for grid-structured RC
//! networks.
//!
//! The grid thermal model's conductance matrix has Kronecker structure:
//!
//! ```text
//! G = g_v · I  +  I_ny ⊗ Tx  +  Ty ⊗ I_nx
//! ```
//!
//! where `Tx = g_x · L_nx` and `Ty = g_y · L_ny` are scaled 1D Laplacians
//! along the die's x and y directions and `g_v` is the uniform vertical leak
//! to the package. A banded Cholesky factorisation of `C/Δt + G` costs
//! `O(n · b²)` to build and `O(n · b)` per step with `b = nx`; both grow
//! quickly with resolution. The Peaceman–Rachford ADI splitting instead
//! solves only *tridiagonal* systems — `O(n)` setup and `O(n)` per step —
//! which is what pushes feasible die resolution from 24×24 toward 128×128+.
//!
//! # The splitting
//!
//! With `Hx = I ⊗ Tx + (g_v/2)·I`, `Hy = Ty ⊗ I + (g_v/2)·I` (so
//! `Hx + Hy = G`, both SPD, and they commute because they act on different
//! Kronecker factors), one full step of size `Δt` is the classic pair of
//! half-steps, `r = 2c/Δt`:
//!
//! ```text
//! (r·I + Hx) u*      = (r·I − Hy) uⁿ  + p      x-implicit sweep
//! (r·I + Hy) uⁿ⁺¹    = (r·I − Hx) u*  + p      y-implicit sweep
//! ```
//!
//! Commuting SPD splits make the step operator's spectral radius `< 1` for
//! *any* `Δt > 0` (unconditional stability), and the fixed point satisfies
//! `G·u = p` exactly — the scheme converges to the true steady state, not an
//! approximation of it (the unit suite pins this).
//!
//! # Why it is fast
//!
//! Coefficients are uniform, so **one** `nx`-point tridiagonal factorisation
//! serves all `ny` x-sweeps and one `ny`-point factorisation serves all `nx`
//! y-sweeps. The x-sweeps run over contiguous rows; the y-sweeps are done in
//! lockstep across all `nx` lanes of a grid row at a time, so every inner
//! loop in the operator walks contiguous memory through the 4-lane unrolled
//! [`axpy_neg`]-style kernels.

use crate::{LinalgError, Result};

/// `dst[c] -= coef * src[c]` over all lanes, manually unrolled four wide.
///
/// The pinned toolchain is stable (no `std::simd`), so the 4-lane blocks are
/// spelled out by hand; each lane is an independent dependency chain, which
/// is what lets the optimiser keep four multiply-subtracts in flight.
/// Per lane the operation is a single `-=`, so unrolling cannot change any
/// lane's result.
#[inline]
fn axpy_neg(coef: f64, src: &[f64], dst: &mut [f64]) {
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

/// Shared constant-coefficient tridiagonal factorisation: the Thomas
/// algorithm's forward-elimination multipliers and pivots for a symmetric
/// matrix with per-row diagonal `d[i]` and constant off-diagonal `off`.
#[derive(Debug, Clone)]
struct TridiagFactor {
    /// Elimination multipliers `w[i] = off / pivot[i-1]` (index 0 unused).
    mults: Vec<f64>,
    /// Pivots `pivot[i] = d[i] - w[i] · off`.
    pivots: Vec<f64>,
    /// The constant sub/super-diagonal entry.
    off: f64,
}

impl TridiagFactor {
    /// Factorises `diag(d) + off · (sub + super)` where `d[i] = base +
    /// coupling · degree(i)` is the 1D Laplacian diagonal (degree 1 at the
    /// two boundary points, 2 in the interior) shifted by `base`.
    fn laplacian(n: usize, base: f64, coupling: f64) -> Result<Self> {
        let off = -coupling;
        let degree = |i: usize| -> f64 {
            if n == 1 {
                0.0
            } else if i == 0 || i == n - 1 {
                1.0
            } else {
                2.0
            }
        };
        let mut mults = vec![0.0; n];
        let mut pivots = vec![0.0; n];
        pivots[0] = base + coupling * degree(0);
        for i in 1..n {
            if pivots[i - 1] <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { index: i - 1 });
            }
            mults[i] = off / pivots[i - 1];
            pivots[i] = base + coupling * degree(i) - mults[i] * off;
        }
        if pivots[n - 1] <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { index: n - 1 });
        }
        Ok(TridiagFactor { mults, pivots, off })
    }

    /// Solves one system in place over a contiguous slice (scalar Thomas
    /// sweep) — used row by row for the x-direction.
    #[inline]
    fn solve_contiguous(&self, b: &mut [f64]) {
        let n = b.len();
        for i in 1..n {
            b[i] -= self.mults[i] * b[i - 1];
        }
        b[n - 1] /= self.pivots[n - 1];
        for i in (0..n - 1).rev() {
            b[i] = (b[i] - self.off * b[i + 1]) / self.pivots[i];
        }
    }

    /// Solves `lanes` systems in lockstep over a row-major `n × lanes`
    /// matrix — the y-direction sweep, where each grid *row* of `lanes`
    /// values is contiguous and the recurrence strides across rows. Every
    /// inner loop is a full-row axpy/scale, the vectorisable direction.
    #[inline]
    fn solve_lanes(&self, data: &mut [f64], lanes: usize) {
        let n = self.pivots.len();
        for i in 1..n {
            let (prev, cur) = data.split_at_mut(i * lanes);
            axpy_neg(self.mults[i], &prev[(i - 1) * lanes..], &mut cur[..lanes]);
        }
        let last_pivot = self.pivots[n - 1];
        for v in &mut data[(n - 1) * lanes..] {
            *v /= last_pivot;
        }
        for i in (0..n - 1).rev() {
            let (cur, next) = data.split_at_mut((i + 1) * lanes);
            let cur = &mut cur[i * lanes..];
            let next = &next[..lanes];
            let pivot = self.pivots[i];
            let off = self.off;
            let mut c4 = cur.chunks_exact_mut(4);
            let mut n4 = next.chunks_exact(4);
            for (c, nx) in (&mut c4).zip(&mut n4) {
                c[0] = (c[0] - off * nx[0]) / pivot;
                c[1] = (c[1] - off * nx[1]) / pivot;
                c[2] = (c[2] - off * nx[2]) / pivot;
                c[3] = (c[3] - off * nx[3]) / pivot;
            }
            for (c, nx) in c4.into_remainder().iter_mut().zip(n4.remainder()) {
                *c = (*c - off * nx) / pivot;
            }
        }
    }
}

/// Peaceman–Rachford ADI step operator for a uniform `nx × ny` grid RC
/// network — the structure-exploiting counterpart of
/// [`crate::ImplicitStepOperator`].
///
/// Setup and each step cost `O(nx · ny)` (two tridiagonal factorisations of
/// sizes `nx` and `ny`, shared by every sweep), versus `O(n · b²)` setup and
/// `O(n · b)` per step for the banded factorisation. The operator is
/// unconditionally stable and its fixed point under constant power is the
/// exact steady state `G · u = p`; mid-transient iterates differ from
/// implicit Euler by `O(Δt)`, so consumers pin it against the banded
/// reference with a tolerance band rather than bit-exactness.
///
/// All states are *rises over ambient*; `step_into` mirrors the buffer
/// discipline of [`crate::ImplicitStepOperator::step_into`].
#[derive(Debug, Clone)]
pub struct AdiStepOperator {
    nx: usize,
    ny: usize,
    g_lat_x: f64,
    g_lat_y: f64,
    g_vertical_half: f64,
    /// `2c/Δt` — the Peaceman–Rachford half-step coefficient.
    r: f64,
    time_step: f64,
    x_factor: TridiagFactor,
    y_factor: TridiagFactor,
}

impl AdiStepOperator {
    /// Builds the operator for an `nx × ny` grid with uniform lateral
    /// conductances `g_lat_x`/`g_lat_y` (per neighbouring cell pair along
    /// each direction), uniform vertical conductance `g_vertical` per cell,
    /// uniform per-cell `capacitance` and step size `time_step`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for a zero-sized grid,
    /// [`LinalgError::NonFinite`] for non-finite coefficients and
    /// [`LinalgError::NotPositiveDefinite`] when `g_vertical`, `capacitance`
    /// or `time_step` is not strictly positive or a lateral conductance is
    /// negative (the split operators must stay SPD).
    pub fn new(
        nx: usize,
        ny: usize,
        g_lat_x: f64,
        g_lat_y: f64,
        g_vertical: f64,
        capacitance: f64,
        time_step: f64,
    ) -> Result<Self> {
        if nx == 0 || ny == 0 {
            return Err(LinalgError::Empty {
                context: "AdiStepOperator::new grid",
            });
        }
        for (value, context) in [
            (g_lat_x, "AdiStepOperator::new g_lat_x"),
            (g_lat_y, "AdiStepOperator::new g_lat_y"),
            (g_vertical, "AdiStepOperator::new g_vertical"),
            (capacitance, "AdiStepOperator::new capacitance"),
            (time_step, "AdiStepOperator::new time_step"),
        ] {
            if !value.is_finite() {
                return Err(LinalgError::NonFinite { context });
            }
        }
        if g_vertical <= 0.0 || capacitance <= 0.0 || time_step <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { index: 0 });
        }
        if g_lat_x < 0.0 || g_lat_y < 0.0 {
            return Err(LinalgError::NotPositiveDefinite { index: 0 });
        }
        let r = 2.0 * capacitance / time_step;
        let g_vertical_half = 0.5 * g_vertical;
        let x_factor = TridiagFactor::laplacian(nx, r + g_vertical_half, g_lat_x)?;
        let y_factor = TridiagFactor::laplacian(ny, r + g_vertical_half, g_lat_y)?;
        Ok(AdiStepOperator {
            nx,
            ny,
            g_lat_x,
            g_lat_y,
            g_vertical_half,
            r,
            time_step,
            x_factor,
            y_factor,
        })
    }

    /// Number of grid cells (`nx · ny`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.nx * self.ny
    }

    /// The step size `Δt` the operator was built for.
    #[must_use]
    pub fn time_step(&self) -> f64 {
        self.time_step
    }

    /// Advances one full Peaceman–Rachford step: two alternating tridiagonal
    /// half-sweeps. `state` is the current rise field, `power` the constant
    /// per-cell injection over the step; `next` receives `uⁿ⁺¹` and
    /// `scratch` holds the intermediate `u*`. Allocation-free.
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
            (state.len(), "AdiStepOperator::step_into state"),
            (power.len(), "AdiStepOperator::step_into power"),
            (next.len(), "AdiStepOperator::step_into next"),
            (scratch.len(), "AdiStepOperator::step_into scratch"),
        ] {
            if len != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    found: len,
                    context,
                });
            }
        }
        // Half-step 1: scratch = (r·I − Hy)·state + power, then x-sweeps.
        self.stamp_minus_hy(state, power, scratch);
        for row in scratch.chunks_exact_mut(self.nx) {
            self.x_factor.solve_contiguous(row);
        }
        // Half-step 2: next = (r·I − Hx)·u* + power, then lockstep y-sweeps.
        self.stamp_minus_hx(scratch, power, next);
        self.y_factor.solve_lanes(next, self.nx);
        Ok(())
    }

    /// Advances `steps` Peaceman–Rachford steps from rest (zero rise) under
    /// constant `power`; `state` holds the final field on return. Mirrors
    /// [`crate::ImplicitStepOperator::advance_from_rest_into`].
    ///
    /// # Errors
    ///
    /// See [`AdiStepOperator::step_into`].
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

    /// `out = (r·I − Hy)·u + p` where `Hy = Ty ⊗ I + (g_v/2)·I`: each grid
    /// row combines with its north/south neighbour rows, all as contiguous
    /// `nx`-lane operations.
    fn stamp_minus_hy(&self, u: &[f64], p: &[f64], out: &mut [f64]) {
        let (nx, ny, gy) = (self.nx, self.ny, self.g_lat_y);
        for iy in 0..ny {
            let degree = if ny == 1 {
                0.0
            } else if iy == 0 || iy == ny - 1 {
                1.0
            } else {
                2.0
            };
            let diag = self.r - self.g_vertical_half - gy * degree;
            let row = iy * nx..(iy + 1) * nx;
            for ((o, &ui), &pi) in out[row.clone()]
                .iter_mut()
                .zip(&u[row.clone()])
                .zip(&p[row])
            {
                *o = diag * ui + pi;
            }
            if iy > 0 {
                let (north, cur) = (&u[(iy - 1) * nx..iy * nx], &mut out[iy * nx..(iy + 1) * nx]);
                axpy_neg(-gy, north, cur);
            }
            if iy + 1 < ny {
                let (south, cur) = (
                    &u[(iy + 1) * nx..(iy + 2) * nx],
                    &mut out[iy * nx..(iy + 1) * nx],
                );
                axpy_neg(-gy, south, cur);
            }
        }
    }

    /// `out = (r·I − Hx)·u + p` where `Hx = I ⊗ Tx + (g_v/2)·I`: each cell
    /// combines with its east/west neighbours inside its own contiguous row.
    fn stamp_minus_hx(&self, u: &[f64], p: &[f64], out: &mut [f64]) {
        let (nx, gx) = (self.nx, self.g_lat_x);
        for ((row_out, row_u), row_p) in out
            .chunks_exact_mut(nx)
            .zip(u.chunks_exact(nx))
            .zip(p.chunks_exact(nx))
        {
            for (ix, ((o, &ui), &pi)) in row_out.iter_mut().zip(row_u).zip(row_p).enumerate() {
                let degree = if nx == 1 {
                    0.0
                } else if ix == 0 || ix == nx - 1 {
                    1.0
                } else {
                    2.0
                };
                let mut v = (self.r - self.g_vertical_half - gx * degree) * ui + pi;
                if ix > 0 {
                    v += gx * row_u[ix - 1];
                }
                if ix + 1 < nx {
                    v += gx * row_u[ix + 1];
                }
                *o = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BandedCholesky, CsrMatrix, ImplicitStepOperator, Triplet};

    /// Assembles the full grid conductance matrix the ADI operator splits,
    /// exactly as the grid thermal model stamps it.
    fn grid_conductance(nx: usize, ny: usize, gx: f64, gy: f64, gv: f64) -> CsrMatrix {
        let n = nx * ny;
        let mut t = Vec::new();
        for iy in 0..ny {
            for ix in 0..nx {
                let c = iy * nx + ix;
                t.push(Triplet::new(c, c, gv));
                if ix + 1 < nx {
                    let e = c + 1;
                    t.push(Triplet::new(c, c, gx));
                    t.push(Triplet::new(e, e, gx));
                    t.push(Triplet::new(c, e, -gx));
                    t.push(Triplet::new(e, c, -gx));
                }
                if iy + 1 < ny {
                    let s = c + nx;
                    t.push(Triplet::new(c, c, gy));
                    t.push(Triplet::new(s, s, gy));
                    t.push(Triplet::new(c, s, -gy));
                    t.push(Triplet::new(s, c, -gy));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    fn ramp_power(n: usize) -> Vec<f64> {
        (0..n).map(|i| 0.4 + (i % 5) as f64 * 0.7).collect()
    }

    #[test]
    fn fixed_point_is_the_exact_steady_state() {
        let (nx, ny, gx, gy, gv) = (7, 5, 1.3, 0.9, 0.25);
        let op = AdiStepOperator::new(nx, ny, gx, gy, gv, 0.05, 0.02).unwrap();
        assert_eq!(op.dim(), 35);
        let power = ramp_power(35);
        let mut state = vec![0.0; 35];
        let mut next = vec![0.0; 35];
        let mut scratch = vec![0.0; 35];
        op.advance_from_rest_into(&power, 6000, &mut state, &mut next, &mut scratch)
            .unwrap();
        let g = grid_conductance(nx, ny, gx, gy, gv);
        let steady = BandedCholesky::new(&g).unwrap().solve(&power).unwrap();
        for (cell, (x, s)) in state.iter().zip(&steady).enumerate() {
            assert!(
                (x - s).abs() < 1e-8 * s.abs().max(1.0),
                "cell {cell}: {x} vs {s}"
            );
        }
    }

    #[test]
    fn transient_tracks_implicit_euler_within_a_step_size_band() {
        // Both schemes are consistent discretisations of the same ODE, so at
        // matched small steps their mid-transient iterates differ by O(Δt):
        // within 10% of the local rise here (the worst step is the first,
        // where first-order Euler lags the second-order splitting most).
        let (nx, ny, gx, gy, gv) = (6, 6, 1.0, 1.4, 0.3);
        let dt = 5e-3;
        let adi = AdiStepOperator::new(nx, ny, gx, gy, gv, 0.04, dt).unwrap();
        let g = grid_conductance(nx, ny, gx, gy, gv);
        let euler = ImplicitStepOperator::new(&g, &[0.04; 36], dt).unwrap();
        let power = ramp_power(36);

        let mut a_state = vec![0.0; 36];
        let mut a_next = vec![0.0; 36];
        let mut a_scratch = vec![0.0; 36];
        let mut e_state = vec![0.0; 36];
        let mut e_next = vec![0.0; 36];
        for step in 1..=200 {
            adi.step_into(&a_state, &power, &mut a_next, &mut a_scratch)
                .unwrap();
            std::mem::swap(&mut a_state, &mut a_next);
            euler.step_into(&e_state, &power, &mut e_next).unwrap();
            std::mem::swap(&mut e_state, &mut e_next);
            for (cell, (a, e)) in a_state.iter().zip(&e_state).enumerate() {
                assert!(
                    (a - e).abs() <= 0.10 * e.abs().max(0.5),
                    "step {step} cell {cell}: adi {a} vs euler {e}"
                );
            }
        }
    }

    #[test]
    fn large_steps_remain_stable_and_still_converge() {
        // Unconditional stability: a step size 25x the problem's slowest
        // time constant (c/g_v = 0.2 s) must neither blow up nor stall short
        // of the steady state. Note ADI's damping factor approaches 1 as
        // Δt → ∞ (each eigenvalue factor is (r−λ)/(r+λ) with r = 2c/Δt), so
        // huge steps stay *stable* but converge slowly — hence 2000 steps.
        let (nx, ny, gx, gy, gv) = (8, 4, 2.0, 1.1, 0.5);
        let op = AdiStepOperator::new(nx, ny, gx, gy, gv, 0.1, 5.0).unwrap();
        let power = ramp_power(32);
        let mut state = vec![0.0; 32];
        let mut next = vec![0.0; 32];
        let mut scratch = vec![0.0; 32];
        op.advance_from_rest_into(&power, 2000, &mut state, &mut next, &mut scratch)
            .unwrap();
        let g = grid_conductance(nx, ny, gx, gy, gv);
        let steady = BandedCholesky::new(&g).unwrap().solve(&power).unwrap();
        for (x, s) in state.iter().zip(&steady) {
            assert!(x.is_finite());
            assert!((x - s).abs() < 1e-6 * s.abs().max(1.0));
        }
    }

    #[test]
    fn degenerate_single_row_and_column_grids_work() {
        for (nx, ny) in [(1usize, 6usize), (6, 1), (1, 1)] {
            let n = nx * ny;
            let op = AdiStepOperator::new(nx, ny, 1.2, 0.8, 0.4, 0.02, 0.01).unwrap();
            let power = ramp_power(n);
            let mut state = vec![0.0; n];
            let mut next = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            op.advance_from_rest_into(&power, 3000, &mut state, &mut next, &mut scratch)
                .unwrap();
            let g = grid_conductance(nx, ny, 1.2, 0.8, 0.4);
            let steady = BandedCholesky::new(&g).unwrap().solve(&power).unwrap();
            for (x, s) in state.iter().zip(&steady) {
                assert!(
                    (x - s).abs() < 1e-8 * s.abs().max(1.0),
                    "{nx}x{ny}: {x} vs {s}"
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_grids_and_inputs() {
        assert!(AdiStepOperator::new(0, 4, 1.0, 1.0, 1.0, 1.0, 0.1).is_err());
        assert!(AdiStepOperator::new(4, 0, 1.0, 1.0, 1.0, 1.0, 0.1).is_err());
        assert!(AdiStepOperator::new(4, 4, -1.0, 1.0, 1.0, 1.0, 0.1).is_err());
        assert!(AdiStepOperator::new(4, 4, 1.0, 1.0, 0.0, 1.0, 0.1).is_err());
        assert!(AdiStepOperator::new(4, 4, 1.0, 1.0, 1.0, 0.0, 0.1).is_err());
        assert!(AdiStepOperator::new(4, 4, 1.0, 1.0, 1.0, 1.0, 0.0).is_err());
        assert!(AdiStepOperator::new(4, 4, f64::NAN, 1.0, 1.0, 1.0, 0.1).is_err());
        let op = AdiStepOperator::new(3, 3, 1.0, 1.0, 1.0, 1.0, 0.1).unwrap();
        let mut next = vec![0.0; 9];
        let mut scratch = vec![0.0; 9];
        assert!(op
            .step_into(&[0.0; 8], &[0.0; 9], &mut next, &mut scratch)
            .is_err());
        assert!(op
            .step_into(&[0.0; 9], &[0.0; 8], &mut next, &mut scratch)
            .is_err());
    }
}
