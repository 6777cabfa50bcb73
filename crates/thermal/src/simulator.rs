//! High-level session-oriented simulation API used by the test scheduler.

use thermsched_floorplan::{BlockId, Floorplan};

use crate::transient::raise_max;
use crate::{
    PackageConfig, PowerMap, PowerTrace, Result, SteadyStateSolver, Temperatures, ThermalError,
    ThermalNetwork, TransientConfig, TransientSolver,
};

/// Per-session thermal simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionThermalResult {
    /// Maximum temperature reached by each block during the session (°C).
    pub max_block_temperatures: Vec<f64>,
    /// Node temperatures at the end of the session (°C).
    pub final_temperatures: Temperatures,
    /// Simulated session duration in seconds.
    pub duration: f64,
}

impl SessionThermalResult {
    /// Hottest temperature reached by any block during the session.
    pub fn max_temperature(&self) -> f64 {
        self.max_block_temperatures
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Maximum temperature reached by one block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_max_temperature(&self, id: BlockId) -> f64 {
        self.max_block_temperatures[id]
    }

    /// Blocks whose maximum temperature reached or exceeded `limit` (°C).
    pub fn violating_blocks(&self, limit: f64) -> Vec<BlockId> {
        self.max_block_temperatures
            .iter()
            .enumerate()
            .filter(|(_, &t)| t >= limit)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The steady-state upper bound of a session or trace, shared by both
/// backends: each constant-power phase is bounded by its own steady
/// solution `phase(power, duration)`, so the per-block maximum is the
/// element-wise maximum over the phases and the final state is the last
/// phase's. A warm start has no influence (it decays under any constant
/// bound), and a session is the one-phase case.
///
/// # Errors
///
/// [`ThermalError::InvalidDuration`] if `duration` is non-positive or
/// non-finite, and whatever `phase` returns.
pub(crate) fn steady_bound<'p>(
    powers: impl IntoIterator<Item = &'p PowerMap>,
    duration: f64,
    phase: impl Fn(&PowerMap, f64) -> Result<SessionThermalResult>,
) -> Result<SessionThermalResult> {
    if !(duration > 0.0 && duration.is_finite()) {
        return Err(ThermalError::InvalidDuration { value: duration });
    }
    let mut powers = powers.into_iter();
    let first = powers.next().expect("sessions and traces have a phase");
    let mut bound = phase(first, duration)?;
    for power in powers {
        let next = phase(power, duration)?;
        raise_max(
            &mut bound.max_block_temperatures,
            &next.max_block_temperatures,
        );
        bound.final_temperatures = next.final_temperatures;
    }
    Ok(bound)
}

/// How session maximum temperatures are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimulationFidelity {
    /// Integrate the transient response over the session and record the
    /// per-block maximum (the paper's validation flow with HotSpot).
    #[default]
    Transient,
    /// Use the steady-state solution as the per-block maximum. This is the
    /// paper's "modification 1" upper bound and is substantially cheaper.
    SteadyState,
}

/// A thermal simulator that can evaluate test sessions.
///
/// The scheduler in the `thermsched` core crate is generic over this trait so
/// that alternative simulators (e.g. a grid-level model or a wrapper around an
/// external tool) can be swapped in; the paper itself notes that "other IC
/// thermal simulation tools could be used just as well".
pub trait ThermalSimulator {
    /// Number of floorplan blocks known to the simulator.
    fn block_count(&self) -> usize;

    /// Ambient temperature in °C.
    fn ambient(&self) -> f64;

    /// Simulates a test session with the given per-block power for `duration`
    /// seconds, starting from an ambient-temperature die.
    ///
    /// # Errors
    ///
    /// Implementations return an error for malformed power maps or durations.
    fn simulate_session(&self, power: &PowerMap, duration: f64) -> Result<SessionThermalResult>;

    /// Simulates a piecewise-constant [`PowerTrace`], optionally
    /// warm-starting from a caller-supplied temperature state instead of
    /// ambient.
    ///
    /// `initial` may carry either portable per-block temperatures (length
    /// [`ThermalSimulator::block_count`]; any internal nodes start at
    /// ambient) or the simulator's own full final state as returned in
    /// [`SessionThermalResult::final_temperatures`]. A single-phase trace
    /// from ambient must be bit-identical to
    /// [`ThermalSimulator::simulate_session`].
    ///
    /// The default implementation serves exactly that constant-from-ambient
    /// case and rejects everything else with [`ThermalError::InvalidTrace`];
    /// the library backends override it with full trace integration.
    ///
    /// # Errors
    ///
    /// Implementations return an error for malformed traces or initial
    /// states the backend cannot interpret.
    fn simulate_trace(
        &self,
        trace: &PowerTrace,
        initial: Option<&Temperatures>,
    ) -> Result<SessionThermalResult> {
        let canon = trace.canonical();
        if initial.is_none() && canon.phase_count() == 1 {
            let (power, duration) = &canon.phases()[0];
            return self.simulate_session(power, *duration);
        }
        Err(ThermalError::InvalidTrace {
            message: "this simulator does not support multi-phase traces or warm starts",
        })
    }

    /// Steady-state temperatures under the given power map.
    ///
    /// # Errors
    ///
    /// Implementations return an error for malformed power maps.
    fn steady_state(&self, power: &PowerMap) -> Result<Temperatures>;
}

/// The RC-equivalent compact simulator: the crate's reference implementation
/// of [`ThermalSimulator`], playing the role HotSpot plays in the paper.
///
/// # Example
///
/// ```
/// use thermsched_floorplan::library;
/// use thermsched_thermal::{PowerMap, RcThermalSimulator, ThermalSimulator};
///
/// # fn main() -> Result<(), thermsched_thermal::ThermalError> {
/// let fp = library::figure1_system();
/// let sim = RcThermalSimulator::from_floorplan(&fp)?;
/// let mut p = PowerMap::zeros(fp.block_count());
/// p.set(fp.index_of("C2").unwrap(), 15.0)?;
/// let session = sim.simulate_session(&p, 1.0)?;
/// assert!(session.max_temperature() > sim.ambient());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RcThermalSimulator {
    network: ThermalNetwork,
    steady: SteadyStateSolver,
    transient: TransientSolver,
    fidelity: SimulationFidelity,
}

impl RcThermalSimulator {
    /// Builds a simulator for a floorplan with the default package and
    /// transient settings. The default transient method is
    /// [`crate::TransientMethod::Auto`]: whole constant-power sessions are
    /// advanced through the precomputed-operator fast path (`O(n³ · log k)`
    /// instead of `k` sequential steps, exact for from-ambient sessions),
    /// with automatic fallback to implicit-Euler stepping for simulations
    /// from an arbitrary initial state.
    ///
    /// # Errors
    ///
    /// Propagates model construction and factorisation errors.
    pub fn from_floorplan(floorplan: &Floorplan) -> Result<Self> {
        Self::new(
            floorplan,
            &PackageConfig::default(),
            TransientConfig::default(),
        )
    }

    /// Builds a simulator like [`RcThermalSimulator::from_floorplan`] but
    /// with the sequential implicit-Euler reference path
    /// ([`crate::TransientMethod::ImplicitEuler`]) for every request. The
    /// equivalence suites compare the fast default against this
    /// configuration; results agree to well within 1e-6 °C.
    ///
    /// # Errors
    ///
    /// Propagates model construction and factorisation errors.
    pub fn reference_from_floorplan(floorplan: &Floorplan) -> Result<Self> {
        Self::new(
            floorplan,
            &PackageConfig::default(),
            TransientConfig::reference(),
        )
    }

    /// Builds a simulator with explicit package and transient configuration.
    ///
    /// # Errors
    ///
    /// Propagates model construction and factorisation errors.
    pub fn new(
        floorplan: &Floorplan,
        package: &PackageConfig,
        transient: TransientConfig,
    ) -> Result<Self> {
        let network = ThermalNetwork::build(floorplan, package)?;
        let steady = SteadyStateSolver::new(&network)?;
        let transient = TransientSolver::new(&network, transient)?;
        Ok(RcThermalSimulator {
            network,
            steady,
            transient,
            fidelity: SimulationFidelity::default(),
        })
    }

    /// Selects how session maxima are computed.
    #[must_use]
    pub fn with_fidelity(mut self, fidelity: SimulationFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Borrows the underlying thermal network (for the session thermal model,
    /// which reuses its lateral/edge resistances).
    pub fn network(&self) -> &ThermalNetwork {
        &self.network
    }

    /// The configured fidelity.
    pub fn fidelity(&self) -> SimulationFidelity {
        self.fidelity
    }

    /// The transient method session simulations are served by.
    pub fn transient_method(&self) -> crate::TransientMethod {
        self.transient.method()
    }

    /// Expands a warm-start state to a full node vector: either the solver's
    /// own node state, or portable per-block temperatures with every
    /// internal node at ambient.
    fn initial_nodes(&self, initial: &Temperatures) -> Result<Vec<f64>> {
        let values = initial.node_temperatures();
        let node_count = self.network.node_count();
        if values.len() == node_count {
            return Ok(values.to_vec());
        }
        if values.len() == self.network.block_count() {
            let mut nodes = vec![self.network.ambient(); node_count];
            nodes[..values.len()].copy_from_slice(values);
            return Ok(nodes);
        }
        Err(ThermalError::PowerLengthMismatch {
            expected: node_count,
            found: values.len(),
        })
    }

    /// One phase of the steady-state bound: the steady solution is both the
    /// maximum and the final state.
    fn steady_phase(&self, power: &PowerMap, duration: f64) -> Result<SessionThermalResult> {
        let t = self.steady.solve(power)?;
        Ok(SessionThermalResult {
            max_block_temperatures: t.block_temperatures().to_vec(),
            final_temperatures: t,
            duration,
        })
    }
}

impl crate::ThermalBackend for RcThermalSimulator {
    fn fidelity(&self) -> SimulationFidelity {
        self.fidelity
    }

    fn supports_fast_path(&self) -> bool {
        self.transient.method().uses_fast_path()
    }

    fn backend_name(&self) -> &'static str {
        "rc-compact"
    }
}

impl ThermalSimulator for RcThermalSimulator {
    fn block_count(&self) -> usize {
        self.network.block_count()
    }

    fn ambient(&self) -> f64 {
        self.network.ambient()
    }

    fn simulate_session(&self, power: &PowerMap, duration: f64) -> Result<SessionThermalResult> {
        match self.fidelity {
            SimulationFidelity::Transient => self.transient.simulate_from_ambient(power, duration),
            SimulationFidelity::SteadyState => {
                steady_bound([power], duration, |p, d| self.steady_phase(p, d))
            }
        }
    }

    fn simulate_trace(
        &self,
        trace: &PowerTrace,
        initial: Option<&Temperatures>,
    ) -> Result<SessionThermalResult> {
        match self.fidelity {
            SimulationFidelity::Transient => {
                let initial_nodes = initial.map(|t| self.initial_nodes(t)).transpose()?;
                self.transient
                    .simulate_trace(trace, initial_nodes.as_deref())
            }
            SimulationFidelity::SteadyState => {
                let canon = trace.canonical();
                steady_bound(
                    canon.phases().iter().map(|(power, _)| power),
                    canon.total_duration(),
                    |p, d| self.steady_phase(p, d),
                )
            }
        }
    }

    fn steady_state(&self, power: &PowerMap) -> Result<Temperatures> {
        self.steady.solve(power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_floorplan::library;

    fn sim() -> (RcThermalSimulator, Floorplan) {
        let fp = library::alpha21364();
        let sim = RcThermalSimulator::from_floorplan(&fp).unwrap();
        (sim, fp)
    }

    #[test]
    fn block_count_and_ambient_are_exposed() {
        let (sim, fp) = sim();
        assert_eq!(sim.block_count(), fp.block_count());
        assert_eq!(sim.ambient(), 45.0);
        assert_eq!(sim.fidelity(), SimulationFidelity::Transient);
    }

    #[test]
    fn transient_session_max_is_bounded_by_steady_state() {
        let (sim, fp) = sim();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 18.0).unwrap();
        p.set(fp.index_of("Dcache").unwrap(), 12.0).unwrap();
        let session = sim.simulate_session(&p, 1.0).unwrap();
        let steady = sim.steady_state(&p).unwrap();
        for i in 0..fp.block_count() {
            assert!(session.max_block_temperatures[i] <= steady.block(i) + 1e-6);
        }
        assert!(session.max_temperature() <= steady.max_block_temperature() + 1e-6);
    }

    #[test]
    fn steady_state_fidelity_reports_steady_maxima() {
        let (sim, fp) = sim();
        let sim = sim.with_fidelity(SimulationFidelity::SteadyState);
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("Bpred").unwrap(), 9.0).unwrap();
        let session = sim.simulate_session(&p, 1.0).unwrap();
        let steady = sim.steady_state(&p).unwrap();
        for i in 0..fp.block_count() {
            assert!((session.max_block_temperatures[i] - steady.block(i)).abs() < 1e-12);
        }
        assert!(sim.simulate_session(&p, -1.0).is_err());
    }

    #[test]
    fn violating_blocks_filters_by_limit() {
        let (sim, fp) = sim();
        let bpred = fp.index_of("Bpred").unwrap();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(bpred, 20.0).unwrap();
        let session = sim.simulate_session(&p, 1.0).unwrap();
        let hot = session.block_max_temperature(bpred);
        assert!(session.violating_blocks(hot + 1.0).is_empty());
        let violators = session.violating_blocks(hot - 0.5);
        assert!(violators.contains(&bpred));
    }

    #[test]
    fn figure1_small_cores_run_hotter_than_large_cores_at_equal_power() {
        // The crux of the paper's motivational example: equal total power,
        // very different peak temperature.
        let fp = library::figure1_system();
        let sim = RcThermalSimulator::from_floorplan(&fp).unwrap();
        let mut small = PowerMap::zeros(fp.block_count());
        for name in ["C2", "C3", "C4"] {
            small.set(fp.index_of(name).unwrap(), 15.0).unwrap();
        }
        let mut large = PowerMap::zeros(fp.block_count());
        for name in ["C5", "C6", "C7"] {
            large.set(fp.index_of(name).unwrap(), 15.0).unwrap();
        }
        assert!((small.total() - large.total()).abs() < 1e-12);
        let t_small = sim.simulate_session(&small, 1.0).unwrap().max_temperature();
        let t_large = sim.simulate_session(&large, 1.0).unwrap().max_temperature();
        assert!(
            t_small > t_large + 10.0,
            "small-core session should be much hotter: {t_small:.1} vs {t_large:.1}"
        );
    }

    #[test]
    fn network_accessor_reflects_floorplan() {
        let (sim, fp) = sim();
        assert_eq!(sim.network().block_count(), fp.block_count());
    }

    #[test]
    fn trace_session_equivalence_through_the_trait() {
        let (sim, fp) = sim();
        let mut p = PowerMap::zeros(fp.block_count());
        p.set(fp.index_of("IntExec").unwrap(), 11.0).unwrap();
        let session = sim.simulate_session(&p, 1.0).unwrap();
        let traced = sim
            .simulate_trace(&crate::PowerTrace::constant(p, 1.0).unwrap(), None)
            .unwrap();
        assert_eq!(session, traced);
    }

    #[test]
    fn block_level_warm_start_heats_internal_nodes_from_ambient() {
        let (sim, fp) = sim();
        let hot = fp.index_of("Bpred").unwrap();
        let mut blocks = vec![sim.ambient(); fp.block_count()];
        blocks[hot] = 95.0;
        let initial = Temperatures::new(blocks, fp.block_count());
        let idle = crate::PowerTrace::constant(PowerMap::zeros(fp.block_count()), 0.5).unwrap();
        let warm = sim.simulate_trace(&idle, Some(&initial)).unwrap();
        // The hot block's maximum is its (decaying) start temperature.
        assert!((warm.max_block_temperatures[hot] - 95.0).abs() < 1e-9);
        // A wrong-length initial state is rejected.
        let bad = Temperatures::new(vec![45.0; 3], 3);
        assert!(sim.simulate_trace(&idle, Some(&bad)).is_err());
    }

    #[test]
    fn steady_fidelity_traces_bound_each_phase() {
        let (sim, fp) = sim();
        let sim = sim.with_fidelity(SimulationFidelity::SteadyState);
        let mut high = PowerMap::zeros(fp.block_count());
        high.set(fp.index_of("IntExec").unwrap(), 15.0).unwrap();
        let low = high.scaled(0.2).unwrap();
        let trace = crate::PowerTrace::new(vec![(high.clone(), 0.5), (low.clone(), 0.5)]).unwrap();
        let traced = sim.simulate_trace(&trace, None).unwrap();
        let high_ss = sim.steady_state(&high).unwrap();
        let low_ss = sim.steady_state(&low).unwrap();
        for i in 0..fp.block_count() {
            assert!(
                (traced.max_block_temperatures[i] - high_ss.block(i).max(low_ss.block(i))).abs()
                    < 1e-12
            );
            assert!((traced.final_temperatures.block(i) - low_ss.block(i)).abs() < 1e-12);
        }
    }
}
