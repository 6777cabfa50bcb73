//! Transient (time-domain) solution of the thermal network.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use thermsched_linalg::{AffineStepOperator, DenseMatrix, LuDecomposition};

use crate::{
    PowerMap, PowerTrace, Result, SessionThermalResult, Temperatures, ThermalError, ThermalNetwork,
};

/// The most steps one constant-power interval may take: a longer interval
/// is refused instead of stepped (or squared) for ever.
const MAX_STEPS: usize = u32::MAX as usize;

/// The step rule of both backends: the number of time steps that cover
/// `duration`, at least one.
///
/// # Errors
///
/// [`ThermalError::InvalidDuration`] if `duration` is non-positive or
/// non-finite, or needs more than `u32::MAX` steps.
pub(crate) fn step_count(duration: f64, time_step: f64) -> Result<usize> {
    let steps = (duration / time_step).ceil().max(1.0);
    if duration > 0.0 && duration.is_finite() && steps <= MAX_STEPS as f64 {
        Ok(steps as usize)
    } else {
        Err(ThermalError::InvalidDuration { value: duration })
    }
}

/// Raises each running maximum to its value, where the value is larger.
pub(crate) fn raise_max(max: &mut [f64], values: &[f64]) {
    for (m, &v) in max.iter_mut().zip(values) {
        if v > *m {
            *m = v;
        }
    }
}

/// Which transient solution path the solver uses for from-ambient
/// constant-power simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransientMethod {
    /// Pick the fastest path that is exact for each request: from-ambient
    /// constant-power simulations (the scheduler's usage pattern, where the
    /// precomputed operator is provably exact — see
    /// [`TransientSolver::simulate_from_ambient`]) go through the
    /// precomputed-operator path — the dense step operator
    /// `A = (C/Δt + G)⁻¹ · (C/Δt)` is built once and whole sessions advance
    /// through `(Aᵏ, S_k)` powers assembled by repeated squaring, so a
    /// `k`-step session costs `O(n³ · log k)` instead of `O(n² · k)` — while
    /// simulations from an arbitrary initial state fall back to sequential
    /// implicit-Euler stepping. This is the default: fast wherever exactness
    /// is guaranteed, reference behaviour everywhere else.
    #[default]
    Auto,
    /// Step the implicit-Euler recurrence one time step at a time for every
    /// request. Exact for any initial state and power history; this is the
    /// reference path the fast path is validated against.
    ImplicitEuler,
    /// Peaceman–Rachford alternating-direction-implicit stepping
    /// ([`thermsched_linalg::AdiStepOperator`]): the structure-exploiting
    /// path for grid-structured networks, `O(n)` per step via shared
    /// tridiagonal sweeps instead of `O(n · b)` banded solves — the knob
    /// that makes 128×128+ die resolutions affordable. Only the grid
    /// simulator has the Kronecker structure ADI splits; the dense RC
    /// solver treats this method as the sequential implicit-Euler
    /// reference (no structure to exploit, and no precomputed-operator
    /// fast path either, since ADI iterates are not provably monotone).
    Adi,
}

impl TransientMethod {
    /// Whether this method serves from-ambient constant-power simulations
    /// through the precomputed-operator fast path. ADI opts out: its
    /// iterates are not provably monotone from rest, so session maxima are
    /// tracked step by step instead of read off the final state.
    pub fn uses_fast_path(self) -> bool {
        !matches!(self, TransientMethod::ImplicitEuler | TransientMethod::Adi)
    }
}

/// Configuration of the implicit-Euler transient integrator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Integration time step in seconds.
    pub time_step: f64,
    /// Solution path for from-ambient constant-power simulations.
    pub method: TransientMethod,
}

impl Default for TransientConfig {
    fn default() -> Self {
        // Die-level thermal time constants are on the order of milliseconds;
        // 1 ms resolves them while keeping second-long sessions cheap. The
        // default method is Auto: precomputed-operator fast path wherever it
        // is exact, implicit-Euler stepping otherwise.
        TransientConfig {
            time_step: 1e-3,
            method: TransientMethod::default(),
        }
    }
}

impl TransientConfig {
    /// The default time step with the sequential implicit-Euler reference
    /// path for every request (the configuration equivalence suites compare
    /// the fast default against).
    pub fn reference() -> Self {
        TransientConfig {
            method: TransientMethod::ImplicitEuler,
            ..TransientConfig::default()
        }
    }

    /// Sets the solution path.
    #[must_use]
    pub fn with_method(mut self, method: TransientMethod) -> Self {
        self.method = method;
        self
    }
}

/// Implicit-Euler transient solver.
///
/// Each step solves `(C/Δt + G) · ΔT_{k+1} = C/Δt · ΔT_k + P`; the left-hand
/// matrix is constant, so it is factorised once per solver and reused for
/// every step and every simulated session. Implicit Euler is unconditionally
/// stable, which matters because the network mixes millisecond block time
/// constants with a heat-sink constant of many seconds.
///
/// # Example
///
/// ```
/// use thermsched_floorplan::library;
/// use thermsched_thermal::{PackageConfig, PowerMap, ThermalNetwork, TransientSolver};
///
/// # fn main() -> Result<(), thermsched_thermal::ThermalError> {
/// let fp = library::alpha21364();
/// let net = ThermalNetwork::build(&fp, &PackageConfig::default())?;
/// let solver = TransientSolver::new(&net, Default::default())?;
/// let mut p = PowerMap::zeros(fp.block_count());
/// p.set(0, 10.0)?;
/// let result = solver.simulate_from_ambient(&p, 0.5)?;
/// assert!(result.max_temperature() > net.ambient());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TransientSolver {
    factorisation: LuDecomposition,
    capacitance_over_dt: Vec<f64>,
    block_count: usize,
    node_count: usize,
    ambient: f64,
    time_step: f64,
    method: TransientMethod,
    /// The single-step operator `A = (C/Δt + G)⁻¹ · (C/Δt)`, precomputed at
    /// construction time when the fast path is selected.
    step_matrix: Option<DenseMatrix>,
    /// `k → (Aᵏ, S_k)` cache: the powered operator depends only on the step
    /// count, so every session of the same duration after the first costs a
    /// single solve plus a matrix–vector product. Guarded by a mutex so the
    /// solver stays shareable across the scheduler's phase-1 threads.
    powered: Mutex<HashMap<usize, Arc<AffineStepOperator>>>,
}

impl TransientSolver {
    /// Builds the solver for a network and integrator configuration.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidDuration`] if the time step is non-positive or
    ///   non-finite.
    /// * [`ThermalError::Solver`] if the stepping matrix cannot be factorised.
    pub fn new(network: &ThermalNetwork, config: TransientConfig) -> Result<Self> {
        if !(config.time_step > 0.0 && config.time_step.is_finite()) {
            return Err(ThermalError::InvalidDuration {
                value: config.time_step,
            });
        }
        let node_count = network.node_count();
        let capacitance_over_dt: Vec<f64> = network
            .capacitance()
            .iter()
            .map(|c| c / config.time_step)
            .collect();
        let mut lhs: DenseMatrix = network.conductance().clone();
        for (i, &c) in capacitance_over_dt.iter().enumerate() {
            lhs.add_to(i, i, c);
        }
        let factorisation = LuDecomposition::new(&lhs)?;
        let step_matrix = if config.method.uses_fast_path() {
            Some(factorisation.solve_matrix(&DenseMatrix::from_diagonal(&capacitance_over_dt))?)
        } else {
            None
        };
        Ok(TransientSolver {
            factorisation,
            capacitance_over_dt,
            block_count: network.block_count(),
            node_count,
            ambient: network.ambient(),
            time_step: config.time_step,
            method: config.method,
            step_matrix,
            powered: Mutex::new(HashMap::new()),
        })
    }

    /// Integration time step in seconds.
    pub fn time_step(&self) -> f64 {
        self.time_step
    }

    /// The solution path this solver uses for from-ambient simulations.
    pub fn method(&self) -> TransientMethod {
        self.method
    }

    /// Number of floorplan blocks covered.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Simulates `duration` seconds starting from a uniform ambient die.
    ///
    /// With [`TransientMethod::Auto`] the whole interval is
    /// advanced in one application of the `k`-step operator. That is exact
    /// here (and only here): starting from ambient, the temperature-rise
    /// state is zero, the step matrix `A` and the per-step increment
    /// `b = (C/Δt + G)⁻¹ · p` are element-wise non-negative (the stepping
    /// matrix is an M-matrix and power maps are non-negative), so the
    /// implicit-Euler iterates rise monotonically and the per-block maximum
    /// over the interval equals the final value the operator produces.
    ///
    /// # Errors
    ///
    /// See [`TransientSolver::simulate`].
    pub fn simulate_from_ambient(
        &self,
        power: &PowerMap,
        duration: f64,
    ) -> Result<SessionThermalResult> {
        if !self.method.uses_fast_path() {
            let initial = vec![self.ambient; self.node_count];
            return self.simulate(power, duration, &initial);
        }
        // The fast path: the final rise `S_k · b` through the cached
        // `k`-step operator.
        self.check_power(power)?;
        let steps = step_count(duration, self.time_step)?;
        let mut p = vec![0.0; self.node_count];
        p[..self.block_count].copy_from_slice(power.as_slice());
        let b = self.factorisation.solve(&p)?;
        let rise = self.with_powered(steps, |op| Ok(op.apply_from_rest(&b)?))?;
        Ok(self.result_from_rise(&rise, &rise, duration))
    }

    /// Applies the cached `steps`-step operator `(Aᵏ, S_k)`, building it
    /// first if this is the first request for that step count.
    fn with_powered<T>(
        &self,
        steps: usize,
        apply: impl FnOnce(&AffineStepOperator) -> Result<T>,
    ) -> Result<T> {
        // The operator is cloned out under the lock and applied after the
        // guard drops, so sessions sharing this solver do not serialise on
        // the matrix–vector product.
        let cached = self
            .powered
            .lock()
            .expect("operator cache lock")
            .get(&steps)
            .cloned();
        if let Some(op) = cached {
            return apply(&op);
        }
        // Build the operator outside the lock so concurrent callers (the
        // scheduler's phase-1 threads) don't serialise on the O(n³·log k)
        // squaring; a racing duplicate is dropped by or_insert and both
        // race outcomes are deterministic.
        let step_matrix = self
            .step_matrix
            .as_ref()
            .expect("fast path implies a precomputed step matrix");
        let op = Arc::new(AffineStepOperator::single(step_matrix)?.pow(steps)?);
        let out = apply(&op)?;
        self.powered
            .lock()
            .expect("operator cache lock")
            .entry(steps)
            .or_insert(op);
        Ok(out)
    }

    /// The result of an interval that ended at temperature rise `rise` with
    /// per-block maximum rise `max_rise` (both over ambient).
    fn result_from_rise(
        &self,
        max_rise: &[f64],
        rise: &[f64],
        duration: f64,
    ) -> SessionThermalResult {
        SessionThermalResult {
            max_block_temperatures: max_rise[..self.block_count]
                .iter()
                .map(|r| r + self.ambient)
                .collect(),
            final_temperatures: Temperatures::new(
                rise.iter().map(|r| r + self.ambient).collect(),
                self.block_count,
            ),
            duration,
        }
    }

    /// Refuses a power map that does not cover exactly the model's blocks.
    fn check_power(&self, power: &PowerMap) -> Result<()> {
        if power.block_count() != self.block_count {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.block_count,
                found: power.block_count(),
            });
        }
        Ok(())
    }

    /// Simulates a piecewise-constant [`PowerTrace`], optionally starting
    /// from the given absolute node temperatures instead of ambient.
    ///
    /// The trace is first canonicalised ([`PowerTrace::canonical`]); a
    /// canonical single phase from ambient is served by
    /// [`TransientSolver::simulate_from_ambient`], so constant-power traces
    /// are **bit-identical** to plain sessions. With
    /// [`TransientMethod::Auto`], every remaining phase is probed with one
    /// implicit-Euler step: if the iterate moves monotonically (all nodes
    /// rising, or all falling — preserved by induction because the step
    /// matrix is element-wise non-negative), the phase's block maxima sit at
    /// its endpoints and the whole phase advances through one cached
    /// `k`-step operator; otherwise the fast path falls back to per-step
    /// integration with per-step maximum tracking, because the from-ambient
    /// monotone-rise argument does not hold off-ambient. Reference methods
    /// integrate every phase step by step.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerLengthMismatch`] if the trace's block count or
    ///   the initial vector's length does not match the model.
    /// * [`ThermalError::InvalidDuration`] if a phase needs more steps than
    ///   the step rule allows.
    /// * [`ThermalError::Solver`] if a linear solve fails.
    pub fn simulate_trace(
        &self,
        trace: &PowerTrace,
        initial_node_temperatures: Option<&[f64]>,
    ) -> Result<SessionThermalResult> {
        if trace.block_count() != self.block_count {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.block_count,
                found: trace.block_count(),
            });
        }
        if let Some(initial) = initial_node_temperatures {
            if initial.len() != self.node_count {
                return Err(ThermalError::PowerLengthMismatch {
                    expected: self.node_count,
                    found: initial.len(),
                });
            }
        }
        let canon = trace.canonical();
        if canon.phase_count() == 1 && initial_node_temperatures.is_none() {
            let (power, duration) = &canon.phases()[0];
            return self.simulate_from_ambient(power, *duration);
        }
        if self.method.uses_fast_path() {
            self.simulate_trace_with_operators(&canon, initial_node_temperatures)
        } else {
            self.simulate_trace_stepping(&canon, initial_node_temperatures)
        }
    }

    /// Reference trace integration: sequential implicit-Euler phases chained
    /// through the phase-boundary state, maxima merged across phases.
    fn simulate_trace_stepping(
        &self,
        trace: &PowerTrace,
        initial_node_temperatures: Option<&[f64]>,
    ) -> Result<SessionThermalResult> {
        let mut state: Vec<f64> = match initial_node_temperatures {
            Some(t) => t.to_vec(),
            None => vec![self.ambient; self.node_count],
        };
        let mut max_block = vec![f64::NEG_INFINITY; self.block_count];
        let mut last = None;
        for (power, phase_duration) in trace.phases() {
            let r = self.simulate(power, *phase_duration, &state)?;
            raise_max(&mut max_block, &r.max_block_temperatures);
            state.copy_from_slice(r.final_temperatures.node_temperatures());
            last = Some(r.final_temperatures);
        }
        Ok(SessionThermalResult {
            max_block_temperatures: max_block,
            final_temperatures: last.expect("traces are validated non-empty"),
            duration: trace.total_duration(),
        })
    }

    /// Fast trace integration: per-phase monotonicity probe, one cached
    /// `k`-step operator per monotone phase, per-step fallback otherwise.
    fn simulate_trace_with_operators(
        &self,
        trace: &PowerTrace,
        initial_node_temperatures: Option<&[f64]>,
    ) -> Result<SessionThermalResult> {
        let step_matrix = self
            .step_matrix
            .as_ref()
            .expect("fast path implies a precomputed step matrix");
        // State is the temperature rise over ambient, as in `simulate`.
        let mut rise: Vec<f64> = match initial_node_temperatures {
            Some(t) => t.iter().map(|t| t - self.ambient).collect(),
            None => vec![0.0; self.node_count],
        };
        let mut max_rise: Vec<f64> = rise[..self.block_count].to_vec();
        let mut p = vec![0.0; self.node_count];
        let mut next = vec![0.0; self.node_count];
        let mut out = vec![0.0; self.node_count];
        let mut scratch = vec![0.0; self.node_count];
        // One implicit-Euler step `next = A·rise + b`.
        let step = |rise: &[f64], b: &[f64], next: &mut [f64]| -> Result<()> {
            step_matrix.mul_vec_into(rise, next)?;
            for (n, &bi) in next.iter_mut().zip(b) {
                *n += bi;
            }
            Ok(())
        };
        for (power, duration) in trace.phases() {
            let steps = step_count(*duration, self.time_step)?;
            p[..self.block_count].copy_from_slice(power.as_slice());
            let b = self.factorisation.solve(&p)?;

            // One-step probe `x₁ = A·x₀ + b` decides the phase direction.
            step(&rise, &b, &mut next)?;
            let rising = next.iter().zip(&rise).all(|(n, c)| n >= c);
            let falling = next.iter().zip(&rise).all(|(n, c)| n <= c);

            if (rising || falling) && steps > 1 {
                // Monotone phase: the per-block extreme sits at an endpoint
                // (the start is already in `max_rise`, the end is recorded
                // below), so the whole phase advances in one operator
                // application.
                self.with_powered(steps, |op| {
                    Ok(op.apply_into(&rise, &b, &mut out, &mut scratch)?)
                })?;
                std::mem::swap(&mut rise, &mut out);
                raise_max(&mut max_rise, &rise);
            } else {
                // A one-step phase, or mixed directions (possible only
                // off-ambient): no endpoint argument holds, so track the
                // maximum at every step. The probe was the first step.
                std::mem::swap(&mut rise, &mut next);
                raise_max(&mut max_rise, &rise);
                for _ in 1..steps {
                    step(&rise, &b, &mut next)?;
                    std::mem::swap(&mut rise, &mut next);
                    raise_max(&mut max_rise, &rise);
                }
            }
        }
        Ok(self.result_from_rise(&max_rise, &rise, trace.total_duration()))
    }

    /// Simulates `duration` seconds of constant power starting from the given
    /// absolute node temperatures.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::PowerLengthMismatch`] if the power map or the initial
    ///   temperature vector has the wrong length.
    /// * [`ThermalError::InvalidDuration`] if `duration` is non-positive,
    ///   non-finite, or needs more steps than the step rule allows.
    /// * [`ThermalError::Solver`] if a step's linear solve fails.
    pub fn simulate(
        &self,
        power: &PowerMap,
        duration: f64,
        initial_node_temperatures: &[f64],
    ) -> Result<SessionThermalResult> {
        self.check_power(power)?;
        let steps = step_count(duration, self.time_step)?;
        if initial_node_temperatures.len() != self.node_count {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.node_count,
                found: initial_node_temperatures.len(),
            });
        }

        let mut p = vec![0.0; self.node_count];
        p[..self.block_count].copy_from_slice(power.as_slice());

        // State is the temperature rise over ambient. All buffers are
        // allocated once here; the step loop itself is allocation-free.
        let mut rise: Vec<f64> = initial_node_temperatures
            .iter()
            .map(|t| t - self.ambient)
            .collect();
        let mut max_rise: Vec<f64> = rise[..self.block_count].to_vec();

        let mut rhs = vec![0.0; self.node_count];
        let mut next = vec![0.0; self.node_count];
        let mut scratch = vec![0.0; self.node_count];
        for _ in 0..steps {
            for i in 0..self.node_count {
                rhs[i] = self.capacitance_over_dt[i] * rise[i] + p[i];
            }
            self.factorisation
                .solve_into(&rhs, &mut next, &mut scratch)?;
            std::mem::swap(&mut rise, &mut next);
            raise_max(&mut max_rise, &rise);
        }
        Ok(self.result_from_rise(&max_rise, &rise, duration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PackageConfig, SteadyStateSolver};
    use thermsched_floorplan::library;

    fn setup() -> (ThermalNetwork, thermsched_floorplan::Floorplan) {
        let fp = library::alpha21364();
        let net = ThermalNetwork::build(&fp, &PackageConfig::default()).unwrap();
        (net, fp)
    }

    #[test]
    fn rejects_bad_configuration_and_inputs() {
        let (net, fp) = setup();
        assert!(TransientSolver::new(
            &net,
            TransientConfig {
                time_step: 0.0,
                ..TransientConfig::default()
            }
        )
        .is_err());
        let solver = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let p = PowerMap::zeros(fp.block_count());
        assert!(solver.simulate_from_ambient(&p, 0.0).is_err());
        assert!(solver.simulate_from_ambient(&p, f64::NAN).is_err());
        assert!(solver
            .simulate_from_ambient(&PowerMap::zeros(2), 1.0)
            .is_err());
        let bad_initial = vec![45.0; 3];
        assert!(solver.simulate(&p, 1.0, &bad_initial).is_err());
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let (net, fp) = setup();
        let solver = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let r = solver
            .simulate_from_ambient(&PowerMap::zeros(fp.block_count()), 0.1)
            .unwrap();
        for &t in r.final_temperatures.block_temperatures() {
            assert!((t - 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn temperature_rises_monotonically_toward_steady_state() {
        let (net, fp) = setup();
        let solver = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let steady = SteadyStateSolver::new(&net).unwrap();
        let idx = fp.index_of("IntExec").unwrap();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(idx, 20.0).unwrap();

        let short = solver.simulate_from_ambient(&p, 0.05).unwrap();
        let long = solver.simulate_from_ambient(&p, 1.0).unwrap();
        let ss = steady.solve(&p).unwrap();

        let t_short = short.final_temperatures.block(idx);
        let t_long = long.final_temperatures.block(idx);
        let t_ss = ss.block(idx);
        assert!(t_short < t_long + 1e-9);
        // The transient never overshoots the steady state (first-order RC).
        assert!(t_long <= t_ss + 1e-6);
        assert!(long.max_temperature() <= t_ss + 1e-6);
    }

    #[test]
    fn die_reaches_quasi_steady_state_within_a_second() {
        // With the sink held cold by its large capacitance, the die-level
        // temperature differences settle within tens of milliseconds, so a
        // one-second session probes essentially the quasi-steady profile.
        let (net, fp) = setup();
        let solver = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let idx = fp.index_of("Bpred").unwrap();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(idx, 15.0).unwrap();
        let half = solver.simulate_from_ambient(&p, 0.5).unwrap();
        let one = solver.simulate_from_ambient(&p, 1.0).unwrap();
        let diff = one.final_temperatures.block(idx) - half.final_temperatures.block(idx);
        assert!(diff.abs() < 1.0, "die should be near quasi-steady: {diff}");
    }

    #[test]
    fn continuing_a_simulation_matches_a_single_longer_run() {
        let (net, fp) = setup();
        let solver = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let idx = fp.index_of("FPMul").unwrap();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(idx, 10.0).unwrap();

        let first = solver.simulate_from_ambient(&p, 0.2).unwrap();
        let resumed = solver
            .simulate(&p, 0.2, first.final_temperatures.node_temperatures())
            .unwrap();
        let single = solver.simulate_from_ambient(&p, 0.4).unwrap();
        let a = resumed.final_temperatures.block(idx);
        let b = single.final_temperatures.block(idx);
        assert!(
            (a - b).abs() < 1e-6,
            "chained vs single run differ: {a} vs {b}"
        );
    }

    #[test]
    fn fast_path_matches_reference_on_sessions() {
        let (net, fp) = setup();
        let reference = TransientSolver::new(&net, TransientConfig::reference()).unwrap();
        let fast = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        assert_eq!(reference.method(), TransientMethod::ImplicitEuler);
        assert_eq!(fast.method(), TransientMethod::Auto);
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 20.0).unwrap();
        p.set(fp.index_of("Bpred").unwrap(), 8.0).unwrap();
        for duration in [0.001, 0.017, 0.25, 1.0] {
            let r = reference.simulate_from_ambient(&p, duration).unwrap();
            let f = fast.simulate_from_ambient(&p, duration).unwrap();
            for (a, b) in r
                .max_block_temperatures
                .iter()
                .zip(&f.max_block_temperatures)
            {
                assert!((a - b).abs() < 1e-6, "duration {duration}: {a} vs {b}");
            }
            for (a, b) in r
                .final_temperatures
                .node_temperatures()
                .iter()
                .zip(f.final_temperatures.node_temperatures())
            {
                assert!((a - b).abs() < 1e-6);
            }
        }
        // A second run of the same duration hits the powered-operator cache
        // and must give bit-identical results.
        let once = fast.simulate_from_ambient(&p, 1.0).unwrap();
        let twice = fast.simulate_from_ambient(&p, 1.0).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn the_powered_operator_is_applied_outside_its_lock() {
        let (net, _) = setup();
        let fast = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        // The first call builds the operator, the second reads it from the
        // cache: neither may hold the lock while applying it.
        for _ in 0..2 {
            fast.with_powered(40, |op| {
                assert!(fast.powered.try_lock().is_ok(), "applied under the lock");
                Ok(op.apply_from_rest(&vec![1.0; net.node_count()])?)
            })
            .unwrap();
        }
        assert_eq!(fast.powered.lock().unwrap().len(), 1);
    }

    #[test]
    fn fast_path_validates_inputs_like_the_reference() {
        let (net, fp) = setup();
        let fast = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let p = PowerMap::zeros(fp.block_count());
        assert!(fast.simulate_from_ambient(&p, 0.0).is_err());
        assert!(fast.simulate_from_ambient(&p, f64::NAN).is_err());
        assert!(fast
            .simulate_from_ambient(&PowerMap::zeros(2), 1.0)
            .is_err());
    }

    #[test]
    fn fast_solver_still_steps_from_arbitrary_initial_state() {
        let (net, fp) = setup();
        let reference = TransientSolver::new(&net, TransientConfig::reference()).unwrap();
        let fast = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("FPMul").unwrap(), 10.0).unwrap();
        let warm = reference.simulate_from_ambient(&p, 0.2).unwrap();
        let a = reference
            .simulate(&p, 0.2, warm.final_temperatures.node_temperatures())
            .unwrap();
        let b = fast
            .simulate(&p, 0.2, warm.final_temperatures.node_temperatures())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn auto_is_the_default_and_selects_the_fast_path() {
        assert_eq!(TransientMethod::default(), TransientMethod::Auto);
        assert!(TransientMethod::Auto.uses_fast_path());
        assert!(!TransientMethod::ImplicitEuler.uses_fast_path());
        assert!(!TransientMethod::Adi.uses_fast_path());
        assert_eq!(
            TransientConfig::reference().method,
            TransientMethod::ImplicitEuler
        );

        let (net, _) = setup();
        let auto = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        assert_eq!(auto.method(), TransientMethod::Auto);
    }

    #[test]
    fn constant_trace_is_bit_identical_to_a_session() {
        let (net, fp) = setup();
        for config in [TransientConfig::default(), TransientConfig::reference()] {
            let solver = TransientSolver::new(&net, config).unwrap();
            let mut p = PowerMap::zeros(fp.block_count());
            p.set(fp.index_of("IntExec").unwrap(), 14.0).unwrap();
            let session = solver.simulate_from_ambient(&p, 1.0).unwrap();
            let single = PowerTrace::constant(p.clone(), 1.0).unwrap();
            assert_eq!(solver.simulate_trace(&single, None).unwrap(), session);
            // k identical phases canonicalise to the same constant session.
            let split =
                PowerTrace::new(vec![(p.clone(), 0.25), (p.clone(), 0.25), (p, 0.5)]).unwrap();
            assert_eq!(solver.simulate_trace(&split, None).unwrap(), session);
        }
    }

    #[test]
    fn traced_fast_path_matches_stepped_reference() {
        let (net, fp) = setup();
        let reference = TransientSolver::new(&net, TransientConfig::reference()).unwrap();
        let fast = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let mut high = PowerMap::zeros(fp.block_count());
        high.set(fp.index_of("IntExec").unwrap(), 20.0).unwrap();
        let mut low = PowerMap::zeros(fp.block_count());
        low.set(fp.index_of("IntExec").unwrap(), 4.0).unwrap();
        let idle = PowerMap::zeros(fp.block_count());
        let trace = PowerTrace::new(vec![
            (high.clone(), 0.3),
            (idle, 0.2),
            (low, 0.25),
            (high, 0.25),
        ])
        .unwrap();
        let r = reference.simulate_trace(&trace, None).unwrap();
        let f = fast.simulate_trace(&trace, None).unwrap();
        assert!((r.duration - f.duration).abs() < 1e-12);
        for (a, b) in r
            .max_block_temperatures
            .iter()
            .zip(&f.max_block_temperatures)
        {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in r
            .final_temperatures
            .node_temperatures()
            .iter()
            .zip(f.final_temperatures.node_temperatures())
        {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_started_stages_match_one_concatenated_trace() {
        let (net, fp) = setup();
        let solver = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let mut high = PowerMap::zeros(fp.block_count());
        high.set(fp.index_of("Bpred").unwrap(), 16.0).unwrap();
        let low = high.scaled(0.25).unwrap();
        let stage1 = PowerTrace::constant(high.clone(), 0.4).unwrap();
        let stage2 = PowerTrace::constant(low.clone(), 0.3).unwrap();
        let first = solver.simulate_trace(&stage1, None).unwrap();
        let second = solver
            .simulate_trace(&stage2, Some(first.final_temperatures.node_temperatures()))
            .unwrap();
        let whole = solver
            .simulate_trace(
                &PowerTrace::new(vec![(high, 0.4), (low, 0.3)]).unwrap(),
                None,
            )
            .unwrap();
        for (a, b) in second
            .final_temperatures
            .node_temperatures()
            .iter()
            .zip(whole.final_temperatures.node_temperatures())
        {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn auto_fallback_tracks_per_step_maxima_off_ambient() {
        // From a state with one block far above ambient and no power, heat
        // diffuses: neighbours first *rise* as the hot block's heat arrives,
        // then decay toward ambient — the per-block maximum lies strictly
        // inside the interval. The from-ambient monotone-rise argument does
        // not apply, so Auto must engage per-step maximum tracking (this was
        // previously only documented, never asserted).
        let (net, fp) = setup();
        let reference = TransientSolver::new(&net, TransientConfig::reference()).unwrap();
        let fast = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let hot = fp.index_of("IntExec").unwrap();
        let node_count = reference.node_count;
        let mut initial = vec![45.0; node_count];
        initial[hot] = 145.0;
        let idle = PowerTrace::constant(PowerMap::zeros(fp.block_count()), 1.0).unwrap();
        let r = reference.simulate_trace(&idle, Some(&initial)).unwrap();
        let f = fast.simulate_trace(&idle, Some(&initial)).unwrap();
        // Some neighbour peaks mid-interval: its max exceeds both endpoints.
        let overshoot = (0..fp.block_count()).any(|i| {
            i != hot
                && r.max_block_temperatures[i] > initial[i] + 1e-3
                && r.max_block_temperatures[i] > r.final_temperatures.block(i) + 1e-3
        });
        assert!(overshoot, "expected a mid-interval neighbour maximum");
        for (a, b) in r
            .max_block_temperatures
            .iter()
            .zip(&f.max_block_temperatures)
        {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn simulate_trace_validates_inputs() {
        let (net, fp) = setup();
        let solver = TransientSolver::new(&net, TransientConfig::default()).unwrap();
        let wrong = PowerTrace::constant(PowerMap::zeros(2), 1.0).unwrap();
        assert!(matches!(
            solver.simulate_trace(&wrong, None),
            Err(ThermalError::PowerLengthMismatch { .. })
        ));
        let ok = PowerTrace::constant(PowerMap::zeros(fp.block_count()), 1.0).unwrap();
        let short_initial = vec![45.0; 3];
        assert!(matches!(
            solver.simulate_trace(&ok, Some(&short_initial)),
            Err(ThermalError::PowerLengthMismatch { .. })
        ));
    }

    #[test]
    fn step_count_matches_duration() {
        let (net, fp) = setup();
        let solver = TransientSolver::new(
            &net,
            TransientConfig {
                time_step: 0.01,
                ..TransientConfig::default()
            },
        )
        .unwrap();
        let r = solver
            .simulate_from_ambient(&PowerMap::zeros(fp.block_count()), 0.1)
            .unwrap();
        assert_eq!(r.duration, 0.1);
        assert_eq!(step_count(r.duration, solver.time_step()), Ok(10));
        assert_eq!(solver.time_step(), 0.01);
        assert_eq!(solver.block_count(), fp.block_count());
    }

    #[test]
    fn step_rule_takes_at_least_one_step_and_at_most_the_limit() {
        assert_eq!(step_count(0.1, 0.01), Ok(10));
        assert_eq!(step_count(1e-9, 1.0), Ok(1));
        // At a 1 s step the counts are exact, so the limit is sharp.
        let limit = MAX_STEPS as f64;
        assert_eq!(step_count(limit, 1.0), Ok(MAX_STEPS));
        assert_eq!(
            step_count(limit + 1.0, 1.0),
            Err(ThermalError::InvalidDuration { value: limit + 1.0 })
        );
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300] {
            assert!(matches!(
                step_count(bad, 1.0),
                Err(ThermalError::InvalidDuration { .. })
            ));
        }
    }
}
