//! Fine-grained grid thermal model.
//!
//! The block-level RC model in [`crate::ThermalNetwork`] lumps every
//! floorplan block into a single node. HotSpot — the simulator the paper used
//! for validation — also offers a *grid mode* in which the die is discretised
//! into a regular mesh of thermal cells, which resolves intra-block gradients
//! and the exact geometry of hot-spot formation. This module provides the
//! equivalent.
//!
//! The grid model solves both fidelities. Its steady state (the paper's
//! modification 1 upper bound) is assembled as a sparse system and solved
//! directly through a banded Cholesky factorisation of the conductance
//! matrix, built once at construction; its transient response integrates the same
//! network with per-cell die capacitances through an implicit-Euler
//! recurrence whose stepping matrix `C/Δt + G` is factorised exactly once
//! per (grid shape, Δt) by [`thermsched_linalg::BandedCholesky`] — every
//! step is then one allocation-free `O(n · b)` banded solve. The scheduler
//! consumes the model through the same [`ThermalSimulator`] trait as the
//! block-level simulator, so the two can be swapped to study
//! guidance-vs-validation fidelity at either granularity.

use thermsched_floorplan::{BlockId, Floorplan};
use thermsched_linalg::{
    AdiStepOperator, BandedCholesky, CsrMatrix, ImplicitStepOperator, Triplet,
};

use crate::simulator::steady_bound;
use crate::transient::{raise_max, step_count};
use crate::{
    PackageConfig, PowerMap, PowerTrace, Result, SessionThermalResult, SimulationFidelity,
    Temperatures, ThermalError, ThermalSimulator, TransientConfig, TransientMethod,
};

/// Resolution of the thermal grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridResolution {
    /// Number of grid columns across the die width.
    pub columns: usize,
    /// Number of grid rows across the die height.
    pub rows: usize,
}

impl Default for GridResolution {
    fn default() -> Self {
        GridResolution {
            columns: 32,
            rows: 32,
        }
    }
}

impl GridResolution {
    /// Creates a resolution after validating it.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] if either dimension is zero.
    pub fn new(columns: usize, rows: usize) -> Result<Self> {
        if columns == 0 {
            return Err(ThermalError::InvalidParameter {
                name: "grid_columns",
                value: 0.0,
            });
        }
        if rows == 0 {
            return Err(ThermalError::InvalidParameter {
                name: "grid_rows",
                value: 0.0,
            });
        }
        Ok(GridResolution { columns, rows })
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.columns * self.rows
    }
}

/// Fine-grained grid thermal simulator.
///
/// The die bounding box is divided into `columns × rows` cells. Each cell is
/// coupled laterally to its four neighbours through the silicon sheet
/// conductance and vertically to the ambient through the per-area die,
/// interface and (area-apportioned) package resistance. Cell powers are the
/// block powers spread uniformly over the cells whose centres fall inside the
/// block.
///
/// Sessions are evaluated at the configured [`SimulationFidelity`]:
///
/// * [`SimulationFidelity::Transient`] (the default) integrates the cell
///   network `C · dΔT/dt = P − G · ΔT` with implicit Euler, where each
///   cell's capacitance is the die material's heat capacity over the cell
///   volume and the package is treated as a quasi-static resistance (its
///   own time constants are seconds-scale and only *delay* heating, so the
///   approximation is conservative). The stepping matrix is factorised
///   once at construction; with [`TransientMethod::Auto`] a from-ambient
///   constant-power session skips per-step maximum tracking entirely,
///   because the implicit-Euler iterates rise monotonically from rest (the
///   stepping matrix is an M-matrix and cell powers are non-negative), so
///   the per-block session maximum provably equals the final value.
/// * [`SimulationFidelity::SteadyState`] reports the steady-state solution
///   as the per-block maximum — the paper's "modification 1" upper bound,
///   selected via [`GridThermalSimulator::with_fidelity`].
///
/// # Example
///
/// ```
/// use thermsched_floorplan::library;
/// use thermsched_thermal::{GridResolution, GridThermalSimulator, PowerMap, ThermalSimulator};
///
/// # fn main() -> Result<(), thermsched_thermal::ThermalError> {
/// let fp = library::alpha21364();
/// let sim = GridThermalSimulator::new(&fp, &Default::default(), GridResolution::new(24, 24)?)?;
/// let mut power = PowerMap::zeros(fp.block_count());
/// power.set(fp.index_of("IntExec").unwrap(), 20.0)?;
/// let session = sim.simulate_session(&power, 1.0)?;
/// assert!(session.max_temperature() > sim.ambient());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GridThermalSimulator {
    resolution: GridResolution,
    /// For each cell, the floorplan block covering its centre (if any).
    cell_block: Vec<Option<BlockId>>,
    /// For each block, the indices of its cells.
    block_cells: Vec<Vec<usize>>,
    block_count: usize,
    ambient: f64,
    /// Factorised steady-state conductance matrix `G` over the cells.
    steady: BandedCholesky,
    /// The transient stepping engine selected by the configured
    /// [`TransientMethod`].
    stepper: GridStepper,
    time_step: f64,
    method: TransientMethod,
    fidelity: SimulationFidelity,
}

/// Transient stepping engine behind [`GridThermalSimulator`]: the banded
/// implicit-Euler factorisation (reference and fast paths) or the
/// Peaceman–Rachford ADI splitting ([`TransientMethod::Adi`], which skips
/// the `O(n · b²)` banded stepping factorisation entirely — only the two
/// shared tridiagonal factors are built).
#[derive(Debug)]
enum GridStepper {
    Banded(ImplicitStepOperator),
    Adi(AdiStepOperator),
}

impl GridStepper {
    /// One implicit step from `state` under cell powers `power`; only the
    /// ADI half-steps use `scratch`.
    fn step_into(
        &self,
        state: &[f64],
        power: &[f64],
        next: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<()> {
        match self {
            GridStepper::Banded(op) => op.step_into(state, power, next)?,
            GridStepper::Adi(op) => op.step_into(state, power, next, scratch)?,
        }
        Ok(())
    }

    /// `steps` implicit steps from rest; the final rise lands in `state`.
    fn advance_from_rest_into(
        &self,
        power: &[f64],
        steps: usize,
        state: &mut Vec<f64>,
        next: &mut Vec<f64>,
        scratch: &mut [f64],
    ) -> Result<()> {
        match self {
            GridStepper::Banded(op) => op.advance_from_rest_into(power, steps, state, next)?,
            GridStepper::Adi(op) => {
                op.advance_from_rest_into(power, steps, state, next, scratch)?
            }
        }
        Ok(())
    }
}

impl GridThermalSimulator {
    /// Sessions that [`crate::ThermalBackend::simulate_sessions`] advances
    /// side by side in one block of the multi-RHS kernel
    /// ([`BandedCholesky::BLOCK_LANES`]). A caller splitting a batch keeps
    /// every block whole by cutting it at multiples of this.
    pub const BATCH_BLOCK: usize = BandedCholesky::BLOCK_LANES;

    /// Builds the grid model for a floorplan, package and resolution, with
    /// the default transient configuration ([`TransientConfig::default`]:
    /// 1 ms steps, [`TransientMethod::Auto`]) and transient fidelity.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidParameter`] if the package or resolution is
    ///   invalid, or if some block covers no grid cell (the resolution is too
    ///   coarse for the smallest block).
    pub fn new(
        floorplan: &Floorplan,
        package: &PackageConfig,
        resolution: GridResolution,
    ) -> Result<Self> {
        Self::with_config(floorplan, package, resolution, TransientConfig::default())
    }

    /// Builds the grid model with an explicit transient configuration (time
    /// step and solution path for from-ambient sessions).
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidDuration`] if the time step is non-positive
    ///   or non-finite.
    /// * See [`GridThermalSimulator::new`] for the remaining cases.
    pub fn with_config(
        floorplan: &Floorplan,
        package: &PackageConfig,
        resolution: GridResolution,
        transient: TransientConfig,
    ) -> Result<Self> {
        package.validate()?;
        if !(transient.time_step > 0.0 && transient.time_step.is_finite()) {
            return Err(ThermalError::InvalidDuration {
                value: transient.time_step,
            });
        }
        let bounds = floorplan.bounds();
        let nx = resolution.columns;
        let ny = resolution.rows;
        let cell_w = bounds.width / nx as f64;
        let cell_h = bounds.height / ny as f64;

        // Map cells to blocks by cell-centre containment; cells whose centre
        // falls on a block boundary (or in floating-point slivers between
        // abutting blocks) are assigned to the nearest block so that a fully
        // tiled die always yields a fully covered grid.
        let mut cell_block = vec![None; resolution.cell_count()];
        let mut block_cells = vec![Vec::new(); floorplan.block_count()];
        for iy in 0..ny {
            for ix in 0..nx {
                let cx = bounds.x + (ix as f64 + 0.5) * cell_w;
                let cy = bounds.y + (iy as f64 + 0.5) * cell_h;
                let cell = iy * nx + ix;
                let mut assigned = None;
                for (id, block) in floorplan.iter() {
                    let r = block.rect();
                    if cx >= r.x && cx < r.right() && cy >= r.y && cy < r.top() {
                        assigned = Some(id);
                        break;
                    }
                }
                if assigned.is_none() {
                    // Nearest block by centre-to-rectangle distance, but only
                    // when the centre is essentially on a boundary (within one
                    // cell); genuine whitespace stays unassigned (background
                    // silicon with no power source).
                    let mut best: Option<(BlockId, f64)> = None;
                    for (id, block) in floorplan.iter() {
                        let r = block.rect();
                        let dx = (r.x - cx).max(cx - r.right()).max(0.0);
                        let dy = (r.y - cy).max(cy - r.top()).max(0.0);
                        let d = (dx * dx + dy * dy).sqrt();
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((id, d));
                        }
                    }
                    if let Some((id, d)) = best {
                        if d < cell_w.min(cell_h) {
                            assigned = Some(id);
                        }
                    }
                }
                if let Some(id) = assigned {
                    cell_block[cell] = Some(id);
                    block_cells[id].push(cell);
                }
            }
        }
        for (id, cells) in block_cells.iter().enumerate() {
            if cells.is_empty() {
                return Err(ThermalError::InvalidParameter {
                    name: "grid resolution too coarse for block",
                    value: id as f64,
                });
            }
        }

        // Assemble the sparse conductance matrix.
        let k_die = package.die_material.conductivity;
        let t_die = package.die_thickness;
        let cell_area = cell_w * cell_h;
        // Per-area vertical resistance: die + interface + package share.
        let die_area = bounds.area();
        let a_spreader = package.spreader_side * package.spreader_side;
        let a_sink = package.sink_side * package.sink_side;
        let package_resistance = package.spreader_thickness
            / (package.spreader_material.conductivity * a_spreader)
            + package.sink_thickness / (package.sink_material.conductivity * a_sink)
            + package.convection_resistance;
        let r_area = t_die / k_die
            + package.interface_thickness / package.interface_material.conductivity
            + package_resistance * die_area;
        let g_vertical = cell_area / r_area;

        // Lateral sheet conductance between orthogonally adjacent cells:
        // G = k * t * (shared edge) / (centre distance).
        let g_lat_x = k_die * t_die * cell_h / cell_w;
        let g_lat_y = k_die * t_die * cell_w / cell_h;

        let mut triplets = Vec::with_capacity(resolution.cell_count() * 5);
        for iy in 0..ny {
            for ix in 0..nx {
                let cell = iy * nx + ix;
                triplets.push(Triplet::new(cell, cell, g_vertical));
                if ix + 1 < nx {
                    let east = cell + 1;
                    triplets.push(Triplet::new(cell, cell, g_lat_x));
                    triplets.push(Triplet::new(east, east, g_lat_x));
                    triplets.push(Triplet::new(cell, east, -g_lat_x));
                    triplets.push(Triplet::new(east, cell, -g_lat_x));
                }
                if iy + 1 < ny {
                    let north = cell + nx;
                    triplets.push(Triplet::new(cell, cell, g_lat_y));
                    triplets.push(Triplet::new(north, north, g_lat_y));
                    triplets.push(Triplet::new(cell, north, -g_lat_y));
                    triplets.push(Triplet::new(north, cell, -g_lat_y));
                }
            }
        }
        let conductance =
            CsrMatrix::from_triplets(resolution.cell_count(), resolution.cell_count(), &triplets)?;

        // Per-cell thermal capacitance: die material heat capacity over the
        // cell volume. The package stack is treated as quasi-static
        // resistance (see the type-level docs).
        let cell_capacitance = package.die_material.volumetric_heat_capacity * cell_area * t_die;
        let stepper = match transient.method {
            // ADI splits G along its Kronecker factors: only two shared
            // tridiagonal factorisations are built, never the O(n·b²)
            // banded stepping matrix — the saving that makes 128×128+
            // resolutions affordable.
            TransientMethod::Adi => GridStepper::Adi(AdiStepOperator::new(
                nx,
                ny,
                g_lat_x,
                g_lat_y,
                g_vertical,
                cell_capacitance,
                transient.time_step,
            )?),
            TransientMethod::Auto | TransientMethod::ImplicitEuler => {
                let capacitance = vec![cell_capacitance; resolution.cell_count()];
                GridStepper::Banded(ImplicitStepOperator::new(
                    &conductance,
                    &capacitance,
                    transient.time_step,
                )?)
            }
        };
        // Factor the steady-state system too: G is SPD and banded just like
        // the stepping matrix, so every steady solve is one O(n·b) pass
        // instead of tens of conjugate-gradient matrix sweeps.
        let steady = BandedCholesky::new(&conductance)?;

        Ok(GridThermalSimulator {
            resolution,
            cell_block,
            block_cells,
            block_count: floorplan.block_count(),
            ambient: package.ambient,
            steady,
            stepper,
            time_step: transient.time_step,
            method: transient.method,
            fidelity: SimulationFidelity::default(),
        })
    }

    /// Selects how session maxima are computed: the full transient
    /// integration (default) or the steady-state upper bound.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: SimulationFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The configured fidelity.
    pub fn fidelity(&self) -> SimulationFidelity {
        self.fidelity
    }

    /// The transient integration time step in seconds.
    pub fn time_step(&self) -> f64 {
        self.time_step
    }

    /// The transient method from-ambient session simulations are served by.
    pub fn transient_method(&self) -> TransientMethod {
        self.method
    }

    /// The grid resolution.
    pub fn resolution(&self) -> GridResolution {
        self.resolution
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.resolution.cell_count()
    }

    /// The block covering cell `cell`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_block(&self, cell: usize) -> Option<BlockId> {
        self.cell_block[cell]
    }

    /// Solves the steady-state cell temperatures (°C) for a per-block power
    /// map.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerLengthMismatch`] if the power map does not cover
    ///   the floorplan's blocks.
    /// * [`ThermalError::Solver`] if the banded solve fails.
    pub fn cell_temperatures(&self, power: &PowerMap) -> Result<Vec<f64>> {
        let rhs = self.cell_power_vector(power)?;
        let solution = self.steady.solve(&rhs)?;
        Ok(solution.iter().map(|dt| dt + self.ambient).collect())
    }

    /// Cell temperatures (°C) after integrating `duration` seconds of
    /// constant power from a uniformly ambient die with implicit Euler: the
    /// stepper's from-rest advance, with no per-step maximum tracking.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerLengthMismatch`] if the power map does not
    ///   cover the floorplan's blocks.
    /// * [`ThermalError::InvalidDuration`] if `duration` is non-positive,
    ///   non-finite, or needs more steps than the step rule allows.
    pub fn transient_cell_temperatures(&self, power: &PowerMap, duration: f64) -> Result<Vec<f64>> {
        let steps = step_count(duration, self.time_step)?;
        let p = self.cell_power_vector(power)?;
        let n = self.cell_count();
        let mut rise = vec![0.0; n];
        let mut next = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        self.stepper
            .advance_from_rest_into(&p, steps, &mut rise, &mut next, &mut scratch)?;
        Ok(rise.iter().map(|r| r + self.ambient).collect())
    }

    /// Steps constant-power `phases` from the cell temperature rise `rise`
    /// one implicit step at a time, tracking the per-cell running maximum
    /// at every step: the reference and ADI from-ambient sessions (one
    /// phase) and every trace, where no monotone-rise argument holds.
    fn step_tracked<'p>(
        &self,
        phases: impl IntoIterator<Item = (&'p PowerMap, f64)>,
        mut rise: Vec<f64>,
        duration: f64,
    ) -> Result<SessionThermalResult> {
        let n = self.cell_count();
        let mut max_rise = rise.clone();
        let mut next = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        for (power, phase_duration) in phases {
            let steps = step_count(phase_duration, self.time_step)?;
            let p = self.cell_power_vector(power)?;
            for _ in 0..steps {
                self.stepper.step_into(&rise, &p, &mut next, &mut scratch)?;
                std::mem::swap(&mut rise, &mut next);
                raise_max(&mut max_rise, &rise);
            }
        }
        let final_cells: Vec<f64> = rise.iter().map(|r| r + self.ambient).collect();
        let max_cells: Vec<f64> = max_rise.iter().map(|r| r + self.ambient).collect();
        Ok(SessionThermalResult {
            max_block_temperatures: self.block_maxima(&max_cells),
            final_temperatures: Temperatures::new(self.block_means(&final_cells), self.block_count),
            duration,
        })
    }

    /// Expands a warm-start state to a per-cell temperature-rise vector:
    /// either the full cell state, or portable per-block temperatures spread
    /// uniformly over each block's cells (unassigned background cells start
    /// at ambient).
    fn initial_cell_rise(&self, initial: &Temperatures) -> Result<Vec<f64>> {
        let values = initial.node_temperatures();
        let n = self.cell_count();
        let mut rise = vec![0.0; n];
        if values.len() == n {
            for (r, &v) in rise.iter_mut().zip(values) {
                *r = v - self.ambient;
            }
        } else if values.len() == self.block_count {
            for (block, cells) in self.block_cells.iter().enumerate() {
                let block_rise = values[block] - self.ambient;
                for &cell in cells {
                    rise[cell] = block_rise;
                }
            }
        } else {
            return Err(ThermalError::PowerLengthMismatch {
                expected: n,
                found: values.len(),
            });
        }
        Ok(rise)
    }

    /// Reduces final absolute cell temperatures to per-block means.
    fn block_means(&self, cells: &[f64]) -> Vec<f64> {
        self.block_cells
            .iter()
            .map(|ids| ids.iter().map(|&c| cells[c]).sum::<f64>() / ids.len() as f64)
            .collect()
    }

    /// Spreads the per-block power map uniformly over each block's cells.
    fn cell_power_vector(&self, power: &PowerMap) -> Result<Vec<f64>> {
        if power.block_count() != self.block_count {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.block_count,
                found: power.block_count(),
            });
        }
        let mut rhs = vec![0.0; self.cell_count()];
        for (block, cells) in self.block_cells.iter().enumerate() {
            let p = power.power(block);
            if p > 0.0 {
                let per_cell = p / cells.len() as f64;
                for &cell in cells {
                    rhs[cell] += per_cell;
                }
            }
        }
        Ok(rhs)
    }

    /// Reduces cell temperatures to per-block maxima.
    fn block_maxima(&self, cells: &[f64]) -> Vec<f64> {
        self.block_cells
            .iter()
            .map(|ids| {
                ids.iter()
                    .map(|&c| cells[c])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }

    /// The session result of absolute cell temperatures that are both the
    /// interval maximum and the final state — a from-rest fast-path run
    /// (single or batched lane alike, so batched lanes stay bit-identical)
    /// or a steady solution: per-block maxima, and per-block means as the
    /// final state.
    fn session_from_final_cells(&self, final_cells: &[f64], duration: f64) -> SessionThermalResult {
        SessionThermalResult {
            max_block_temperatures: self.block_maxima(final_cells),
            final_temperatures: Temperatures::new(self.block_means(final_cells), self.block_count),
            duration,
        }
    }
}

impl crate::ThermalBackend for GridThermalSimulator {
    fn fidelity(&self) -> crate::SimulationFidelity {
        self.fidelity
    }

    fn supports_fast_path(&self) -> bool {
        // From-ambient constant-power sessions skip max tracking through the
        // monotone-rise argument and run on the precomputed banded
        // factorisation; a steady-state-fidelity grid never integrates.
        self.fidelity == SimulationFidelity::Transient && self.method.uses_fast_path()
    }

    fn backend_name(&self) -> &'static str {
        match (self.fidelity, self.method) {
            (SimulationFidelity::Transient, TransientMethod::Adi) => "grid-transient-adi",
            (SimulationFidelity::Transient, _) => "grid-transient",
            (SimulationFidelity::SteadyState, _) => "grid-steady-state",
        }
    }

    /// Simulates many same-duration sessions in one multi-RHS pass over the
    /// banded factorisation: the per-lane power vectors become the columns
    /// of one `n × k` right-hand-side matrix and the whole batch advances
    /// through [`ImplicitStepOperator::advance_many_from_rest_into`] — one
    /// traversal of the factor per step instead of `k`.
    ///
    /// Only the banded fast path batches; every other configuration —
    /// steady-state fidelity, the implicit-Euler reference, ADI — runs
    /// [`ThermalSimulator::simulate_session`] per lane. The multi-RHS
    /// kernels are bit-identical per column to the single-RHS solve, so
    /// each lane's result is **bit-identical** to its standalone simulation
    /// either way.
    fn simulate_sessions(
        &self,
        powers: &[PowerMap],
        duration: f64,
    ) -> Result<Vec<SessionThermalResult>> {
        let k = powers.len();
        let op = match &self.stepper {
            GridStepper::Banded(op) if k > 1 && self.supports_fast_path() => op,
            _ => {
                return powers
                    .iter()
                    .map(|p| self.simulate_session(p, duration))
                    .collect();
            }
        };
        let steps = step_count(duration, self.time_step)?;
        let n = self.cell_count();
        let mut p_mat = vec![0.0; n * k];
        for (c, power) in powers.iter().enumerate() {
            let p = self.cell_power_vector(power)?;
            for (i, v) in p.into_iter().enumerate() {
                p_mat[i * k + c] = v;
            }
        }
        let mut state = vec![0.0; n * k];
        let mut next = vec![0.0; n * k];
        op.advance_many_from_rest_into(&p_mat, steps, &mut state, &mut next, k)?;
        let mut lane = vec![0.0; n];
        let mut out = Vec::with_capacity(k);
        for c in 0..k {
            for (i, cell) in lane.iter_mut().enumerate() {
                *cell = state[i * k + c] + self.ambient;
            }
            out.push(self.session_from_final_cells(&lane, duration));
        }
        Ok(out)
    }
}

impl ThermalSimulator for GridThermalSimulator {
    fn block_count(&self) -> usize {
        self.block_count
    }

    fn ambient(&self) -> f64 {
        self.ambient
    }

    fn simulate_session(&self, power: &PowerMap, duration: f64) -> Result<SessionThermalResult> {
        match self.fidelity {
            // From rest the iterates rise monotonically (see the type docs),
            // so the final cells are the maxima and no step is tracked.
            SimulationFidelity::Transient if self.method.uses_fast_path() => {
                let final_cells = self.transient_cell_temperatures(power, duration)?;
                Ok(self.session_from_final_cells(&final_cells, duration))
            }
            SimulationFidelity::Transient => {
                self.step_tracked([(power, duration)], vec![0.0; self.cell_count()], duration)
            }
            SimulationFidelity::SteadyState => steady_bound([power], duration, |p, d| {
                Ok(self.session_from_final_cells(&self.cell_temperatures(p)?, d))
            }),
        }
    }

    fn simulate_trace(
        &self,
        trace: &PowerTrace,
        initial: Option<&Temperatures>,
    ) -> Result<SessionThermalResult> {
        if trace.block_count() != self.block_count {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.block_count,
                found: trace.block_count(),
            });
        }
        let canon = trace.canonical();
        match self.fidelity {
            SimulationFidelity::Transient => {
                if canon.phase_count() == 1 && initial.is_none() {
                    // Constant power from ambient: exactly the session entry
                    // point, so traced results stay bit-identical to it.
                    let (power, duration) = &canon.phases()[0];
                    return self.simulate_session(power, *duration);
                }
                let rise = match initial {
                    Some(t) => self.initial_cell_rise(t)?,
                    None => vec![0.0; self.cell_count()],
                };
                self.step_tracked(
                    canon.phases().iter().map(|(power, d)| (power, *d)),
                    rise,
                    canon.total_duration(),
                )
            }
            SimulationFidelity::SteadyState => steady_bound(
                canon.phases().iter().map(|(power, _)| power),
                canon.total_duration(),
                |p, d| Ok(self.session_from_final_cells(&self.cell_temperatures(p)?, d)),
            ),
        }
    }

    fn steady_state(&self, power: &PowerMap) -> Result<Temperatures> {
        let cells = self.cell_temperatures(power)?;
        Ok(Temperatures::new(
            self.block_maxima(&cells),
            self.block_count,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RcThermalSimulator;
    use thermsched_floorplan::library;

    fn grid_sim(n: usize) -> (GridThermalSimulator, Floorplan) {
        let fp = library::alpha21364();
        let sim = GridThermalSimulator::new(
            &fp,
            &PackageConfig::default(),
            GridResolution::new(n, n).unwrap(),
        )
        .unwrap();
        (sim, fp)
    }

    #[test]
    fn resolution_validation() {
        assert!(GridResolution::new(0, 4).is_err());
        assert!(GridResolution::new(4, 0).is_err());
        assert_eq!(GridResolution::default().cell_count(), 1024);
    }

    #[test]
    fn every_cell_maps_to_a_block_on_a_fully_tiled_die() {
        let (sim, fp) = grid_sim(24);
        assert_eq!(sim.cell_count(), 576);
        assert_eq!(sim.block_count(), fp.block_count());
        for cell in 0..sim.cell_count() {
            assert!(sim.cell_block(cell).is_some());
        }
    }

    #[test]
    fn too_coarse_resolution_is_rejected() {
        // A 2x2 grid cannot give every one of the 15 blocks a cell.
        let fp = library::alpha21364();
        let err = GridThermalSimulator::new(
            &fp,
            &PackageConfig::default(),
            GridResolution::new(2, 2).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, ThermalError::InvalidParameter { .. }));
    }

    #[test]
    fn zero_power_is_ambient_everywhere() {
        let (sim, fp) = grid_sim(16);
        let temps = sim
            .cell_temperatures(&PowerMap::zeros(fp.block_count()))
            .unwrap();
        for t in temps {
            assert!((t - sim.ambient()).abs() < 1e-6);
        }
    }

    #[test]
    fn heated_block_contains_the_hottest_cell() {
        let (sim, fp) = grid_sim(24);
        let idx = fp.index_of("IntExec").unwrap();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(idx, 21.0).unwrap();
        let cells = sim.cell_temperatures(&p).unwrap();
        let (hottest_cell, _) =
            cells
                .iter()
                .enumerate()
                .fold(
                    (0, f64::NEG_INFINITY),
                    |acc, (i, &t)| {
                        if t > acc.1 {
                            (i, t)
                        } else {
                            acc
                        }
                    },
                );
        assert_eq!(sim.cell_block(hottest_cell), Some(idx));
    }

    #[test]
    fn agrees_qualitatively_with_the_block_level_model() {
        // Same power map: both models must name the same hottest block and
        // agree on the temperature ordering of heated vs idle blocks.
        let fp = library::alpha21364();
        let grid = GridThermalSimulator::new(
            &fp,
            &PackageConfig::default(),
            GridResolution::new(32, 32).unwrap(),
        )
        .unwrap();
        let block = RcThermalSimulator::from_floorplan(&fp).unwrap();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("FPAdd").unwrap(), 20.0).unwrap();
        p.set(fp.index_of("Dcache").unwrap(), 17.0).unwrap();
        let tg = grid.steady_state(&p).unwrap();
        let tb = block.steady_state(&p).unwrap();
        assert_eq!(tg.hottest_block().unwrap().0, tb.hottest_block().unwrap().0);
        // Within a factor-of-two band on the temperature rise of the hottest
        // block (the models differ in spreading fidelity, not in physics).
        let rg = tg.max_block_temperature() - 45.0;
        let rb = tb.max_block_temperature() - 45.0;
        assert!(
            rg > 0.5 * rb && rg < 2.0 * rb,
            "grid {rg:.1} vs block {rb:.1}"
        );
    }

    #[test]
    fn refining_the_grid_converges() {
        let fp = library::alpha21364();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("Bpred").unwrap(), 8.0).unwrap();
        let coarse = GridThermalSimulator::new(
            &fp,
            &PackageConfig::default(),
            GridResolution::new(24, 24).unwrap(),
        )
        .unwrap();
        let fine = GridThermalSimulator::new(
            &fp,
            &PackageConfig::default(),
            GridResolution::new(48, 48).unwrap(),
        )
        .unwrap();
        let tc = coarse.steady_state(&p).unwrap().max_block_temperature();
        let tf = fine.steady_state(&p).unwrap().max_block_temperature();
        assert!(
            (tc - tf).abs() < 0.25 * (tf - 45.0).abs().max(1.0),
            "coarse {tc:.2} vs fine {tf:.2}"
        );
    }

    #[test]
    fn session_api_reports_maxima_and_validates_inputs() {
        let (sim, fp) = grid_sim(16);
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(0, 30.0).unwrap();
        let session = sim.simulate_session(&p, 1.0).unwrap();
        assert!(session.max_temperature() > sim.ambient());
        assert_eq!(session.max_block_temperatures.len(), fp.block_count());
        assert!(sim.simulate_session(&p, 0.0).is_err());
        assert!(sim.simulate_session(&PowerMap::zeros(3), 1.0).is_err());
    }

    #[test]
    fn transient_session_is_bounded_by_its_steady_state() {
        let (sim, fp) = grid_sim(16);
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 18.0).unwrap();
        p.set(fp.index_of("Dcache").unwrap(), 12.0).unwrap();
        let steady = sim.steady_state(&p).unwrap();
        let mut previous = vec![sim.ambient(); fp.block_count()];
        for duration in [0.01, 0.05, 0.25, 1.0] {
            let session = sim.simulate_session(&p, duration).unwrap();
            for (block, prev) in previous.iter_mut().enumerate() {
                let t = session.block_max_temperature(block);
                assert!(
                    t <= steady.block(block) + 1e-6,
                    "block {block} at {duration}s: {t} above steady {}",
                    steady.block(block)
                );
                assert!(
                    t + 1e-9 >= *prev,
                    "block {block}: transient must rise with session length"
                );
                *prev = t;
            }
        }
    }

    #[test]
    fn transient_fast_path_matches_the_reference_exactly() {
        let fp = library::alpha21364();
        let resolution = GridResolution::new(16, 16).unwrap();
        let fast = GridThermalSimulator::new(&fp, &PackageConfig::default(), resolution).unwrap();
        let reference = GridThermalSimulator::with_config(
            &fp,
            &PackageConfig::default(),
            resolution,
            crate::TransientConfig::reference(),
        )
        .unwrap();
        assert_eq!(fast.transient_method(), TransientMethod::Auto);
        assert_eq!(reference.transient_method(), TransientMethod::ImplicitEuler);
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("FPMul").unwrap(), 14.0).unwrap();
        p.set(fp.index_of("Bpred").unwrap(), 6.0).unwrap();
        for duration in [0.003, 0.04, 0.3] {
            let f = fast.simulate_session(&p, duration).unwrap();
            let r = reference.simulate_session(&p, duration).unwrap();
            // From ambient the monotone-rise argument makes the two paths
            // bit-identical: skipping max tracking loses nothing.
            assert_eq!(f.max_block_temperatures, r.max_block_temperatures);
            assert_eq!(f.final_temperatures, r.final_temperatures);
        }
    }

    #[test]
    fn long_transient_sessions_converge_to_the_steady_state() {
        let fp = library::alpha21364();
        let sim = GridThermalSimulator::with_config(
            &fp,
            &PackageConfig::default(),
            GridResolution::new(16, 16).unwrap(),
            crate::TransientConfig {
                time_step: 5e-3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sim.time_step(), 5e-3);
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 20.0).unwrap();
        let steady = sim.cell_temperatures(&p).unwrap();
        let settled = sim.transient_cell_temperatures(&p, 2.0).unwrap();
        for (t, s) in settled.iter().zip(&steady) {
            let rise = (s - sim.ambient()).abs().max(1.0);
            assert!(
                (t - s).abs() < 5e-3 * rise,
                "cell should be settled: {t} vs {s}"
            );
        }
    }

    #[test]
    fn fidelity_selects_the_session_evaluation() {
        use crate::ThermalBackend;
        let (sim, fp) = grid_sim(16);
        assert_eq!(sim.fidelity(), SimulationFidelity::Transient);
        assert!(sim.supports_fast_path());
        assert_eq!(ThermalBackend::backend_name(&sim), "grid-transient");
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 15.0).unwrap();
        let transient = sim.simulate_session(&p, 0.05).unwrap();
        let sim = sim.with_fidelity(SimulationFidelity::SteadyState);
        assert!(!sim.supports_fast_path());
        assert_eq!(ThermalBackend::backend_name(&sim), "grid-steady-state");
        let steady = sim.simulate_session(&p, 0.05).unwrap();
        // The short transient sits strictly below the steady upper bound.
        assert!(transient.max_temperature() < steady.max_temperature());
        // Steady-fidelity sessions reproduce the steady-state solution.
        let direct = sim.steady_state(&p).unwrap();
        for block in 0..fp.block_count() {
            assert!((steady.block_max_temperature(block) - direct.block(block)).abs() < 1e-12);
        }
    }

    #[test]
    fn transient_entry_points_validate_inputs() {
        let (sim, fp) = grid_sim(16);
        let p = PowerMap::zeros(fp.block_count());
        assert!(sim.simulate_session(&p, 0.0).is_err());
        assert!(sim.simulate_session(&p, f64::NAN).is_err());
        assert!(sim.simulate_session(&PowerMap::zeros(3), 1.0).is_err());
        assert!(sim.transient_cell_temperatures(&p, -1.0).is_err());
        let bad = crate::TransientConfig {
            time_step: 0.0,
            ..Default::default()
        };
        assert!(GridThermalSimulator::with_config(
            &library::alpha21364(),
            &PackageConfig::default(),
            GridResolution::new(16, 16).unwrap(),
            bad,
        )
        .is_err());
    }

    #[test]
    fn batched_sessions_are_bit_identical_to_sequential_sessions() {
        use crate::ThermalBackend;
        let (sim, fp) = grid_sim(16);
        // Lane counts straddling the 8- and 4-lane block boundaries.
        for lanes in [2usize, 5, 9] {
            let powers: Vec<PowerMap> = (0..lanes)
                .map(|lane| {
                    let mut p = PowerMap::zeros(fp.block_count());
                    p.set(lane % fp.block_count(), 6.0 + lane as f64 * 1.3)
                        .unwrap();
                    p.set((lane + 4) % fp.block_count(), 3.5).unwrap();
                    p
                })
                .collect();
            let batched = sim.simulate_sessions(&powers, 0.08).unwrap();
            assert_eq!(batched.len(), lanes);
            for (power, batch) in powers.iter().zip(&batched) {
                assert_eq!(batch, &sim.simulate_session(power, 0.08).unwrap());
            }
        }
        // Non-batching configurations fall back to the sequential loop and
        // still agree with themselves.
        let reference = GridThermalSimulator::with_config(
            &fp,
            &PackageConfig::default(),
            GridResolution::new(16, 16).unwrap(),
            crate::TransientConfig::reference(),
        )
        .unwrap();
        let powers: Vec<PowerMap> = (0..3)
            .map(|lane| {
                let mut p = PowerMap::zeros(fp.block_count());
                p.set(lane, 8.0).unwrap();
                p
            })
            .collect();
        let batched = reference.simulate_sessions(&powers, 0.05).unwrap();
        for (power, batch) in powers.iter().zip(&batched) {
            assert_eq!(batch, &reference.simulate_session(power, 0.05).unwrap());
        }
    }

    #[test]
    fn adi_method_tracks_the_banded_reference_within_a_band() {
        use crate::ThermalBackend;
        let fp = library::alpha21364();
        let resolution = GridResolution::new(16, 16).unwrap();
        let config = crate::TransientConfig {
            time_step: 2e-3,
            ..Default::default()
        };
        let banded =
            GridThermalSimulator::with_config(&fp, &PackageConfig::default(), resolution, config)
                .unwrap();
        let adi = GridThermalSimulator::with_config(
            &fp,
            &PackageConfig::default(),
            resolution,
            config.with_method(TransientMethod::Adi),
        )
        .unwrap();
        assert_eq!(adi.transient_method(), TransientMethod::Adi);
        assert_eq!(ThermalBackend::backend_name(&adi), "grid-transient-adi");
        assert!(!adi.supports_fast_path(), "ADI maxima are tracked per step");

        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 18.0).unwrap();
        p.set(fp.index_of("FPMul").unwrap(), 9.0).unwrap();
        // Mid-transient: the schemes differ O(Δt); every block stays within
        // 5% of the *peak* rise (splitting error shows up most, relatively,
        // on far-field blocks whose own rise is still tiny).
        for duration in [0.02, 0.1, 0.5] {
            let b = banded.simulate_session(&p, duration).unwrap();
            let a = adi.simulate_session(&p, duration).unwrap();
            let peak_rise = (0..fp.block_count())
                .map(|block| b.block_max_temperature(block) - banded.ambient())
                .fold(0.0f64, f64::max);
            for block in 0..fp.block_count() {
                let rise_b = b.block_max_temperature(block) - banded.ambient();
                let rise_a = a.block_max_temperature(block) - adi.ambient();
                assert!(
                    (rise_a - rise_b).abs() <= 0.05 * peak_rise,
                    "block {block} at {duration}s: adi rise {rise_a} vs banded {rise_b} \
                     (peak {peak_rise})"
                );
            }
        }
        // Deep in the settled regime both land on the same steady state.
        let b = banded.simulate_session(&p, 3.0).unwrap();
        let a = adi.simulate_session(&p, 3.0).unwrap();
        for block in 0..fp.block_count() {
            let rise = (b.block_max_temperature(block) - banded.ambient()).max(1.0);
            assert!(
                (a.block_max_temperature(block) - b.block_max_temperature(block)).abs()
                    < 0.01 * rise,
                "block {block}: steady limits diverged"
            );
        }
    }

    #[test]
    fn constant_trace_is_bit_identical_to_a_grid_session() {
        let (sim, fp) = grid_sim(16);
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 16.0).unwrap();
        let session = sim.simulate_session(&p, 0.2).unwrap();
        let single = PowerTrace::constant(p.clone(), 0.2).unwrap();
        assert_eq!(sim.simulate_trace(&single, None).unwrap(), session);
        // k identical phases canonicalise back to the constant session.
        let split = PowerTrace::new(vec![(p.clone(), 0.05), (p.clone(), 0.05), (p, 0.1)]).unwrap();
        assert_eq!(sim.simulate_trace(&split, None).unwrap(), session);
    }

    #[test]
    fn traced_grid_runs_agree_across_methods_and_bound_by_phases() {
        let fp = library::alpha21364();
        let resolution = GridResolution::new(16, 16).unwrap();
        let auto = GridThermalSimulator::new(&fp, &PackageConfig::default(), resolution).unwrap();
        let reference = GridThermalSimulator::with_config(
            &fp,
            &PackageConfig::default(),
            resolution,
            crate::TransientConfig::reference(),
        )
        .unwrap();
        let mut high = PowerMap::zeros(fp.block_count());
        high.set(fp.index_of("FPMul").unwrap(), 15.0).unwrap();
        let low = high.scaled(0.3).unwrap();
        let idle = PowerMap::zeros(fp.block_count());
        let trace = PowerTrace::new(vec![(high.clone(), 0.1), (idle, 0.05), (low, 0.1)]).unwrap();
        // Both methods share the banded stepper; trace integration is the
        // same per-step loop, so the results agree exactly.
        let a = auto.simulate_trace(&trace, None).unwrap();
        let r = reference.simulate_trace(&trace, None).unwrap();
        assert_eq!(a, r);
        // The trace maximum is dominated by the hottest (first) phase and
        // bounded by that phase's steady state.
        let hot_block = fp.index_of("FPMul").unwrap();
        let steady = auto.steady_state(&high).unwrap();
        assert!(a.max_block_temperatures[hot_block] <= steady.block(hot_block) + 1e-6);
        assert!(a.max_block_temperatures[hot_block] > auto.ambient());
    }

    #[test]
    fn grid_warm_start_accepts_block_temperatures_and_decays() {
        let (sim, fp) = grid_sim(16);
        let hot = fp.index_of("Bpred").unwrap();
        let mut blocks = vec![sim.ambient(); fp.block_count()];
        blocks[hot] = 90.0;
        let initial = Temperatures::new(blocks, fp.block_count());
        let idle = PowerTrace::constant(PowerMap::zeros(fp.block_count()), 0.5).unwrap();
        let warm = sim.simulate_trace(&idle, Some(&initial)).unwrap();
        // The pre-heated block's maximum is its start value; it decays.
        assert!((warm.max_block_temperatures[hot] - 90.0).abs() < 1e-9);
        assert!(warm.final_temperatures.block(hot) < 90.0);
        // Wrong-length warm starts are rejected.
        let bad = Temperatures::new(vec![45.0; 7], 7);
        assert!(sim.simulate_trace(&idle, Some(&bad)).is_err());
    }

    #[test]
    fn small_block_runs_hotter_than_large_block_at_equal_power() {
        let (sim, fp) = grid_sim(32);
        let small = fp.index_of("Bpred").unwrap();
        let large = fp.index_of("L2_bottom").unwrap();
        let mut ps = PowerMap::zeros(fp.block_count());
        ps.set(small, 10.0).unwrap();
        let mut pl = PowerMap::zeros(fp.block_count());
        pl.set(large, 10.0).unwrap();
        let ts = sim.steady_state(&ps).unwrap().block(small);
        let tl = sim.steady_state(&pl).unwrap().block(large);
        assert!(ts > tl, "power density must dominate: {ts:.1} vs {tl:.1}");
    }
}
