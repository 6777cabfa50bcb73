//! The thermal layer, measured from outside the program.
//!
//! [`TimedBackend`] wraps a real backend, delegates every trait method to
//! it and counts and times the three simulation entry points. [`replay`]
//! schedules every job of a finished run again through that decorator on
//! one thread and checks that each job comes out as the runner reported.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use thermsched::{
    Engine, NestedParallelismGuard, OperatorCacheHandle, SessionCacheHandle, TestSession,
};
use thermsched_service::{BackendKind, Corpus, JobMetrics, Scenario, ServiceReport};
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, PowerMap, PowerTrace, RcThermalSimulator,
    SessionThermalResult, SimulationFidelity, Temperatures, ThermalBackend, ThermalSimulator,
    TransientConfig,
};

/// Calls and nanoseconds per simulation entry point.
#[derive(Debug, Default)]
pub struct ThermalCounters {
    session_calls: AtomicU64,
    session_nanos: AtomicU64,
    trace_calls: AtomicU64,
    trace_nanos: AtomicU64,
    trace_phases: AtomicU64,
    warm_calls: AtomicU64,
    batch_calls: AtomicU64,
    batch_lanes: AtomicU64,
    batch_nanos: AtomicU64,
}

/// A point-in-time copy of [`ThermalCounters`], times in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThermalSample {
    pub session_calls: u64,
    pub session_s: f64,
    pub trace_calls: u64,
    pub trace_s: f64,
    pub trace_phases: u64,
    pub warm_calls: u64,
    pub batch_calls: u64,
    pub batch_lanes: u64,
    pub batch_s: f64,
}

impl ThermalCounters {
    pub fn sample(&self) -> ThermalSample {
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let seconds = |cell: &AtomicU64| load(cell) as f64 * 1e-9;
        ThermalSample {
            session_calls: load(&self.session_calls),
            session_s: seconds(&self.session_nanos),
            trace_calls: load(&self.trace_calls),
            trace_s: seconds(&self.trace_nanos),
            trace_phases: load(&self.trace_phases),
            warm_calls: load(&self.warm_calls),
            batch_calls: load(&self.batch_calls),
            batch_lanes: load(&self.batch_lanes),
            batch_s: seconds(&self.batch_nanos),
        }
    }
}

/// Runs `f`, counting one call in `calls` and its wall time in `nanos`.
fn timed<T>(calls: &AtomicU64, nanos: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    nanos.fetch_add(elapsed, Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
    out
}

/// A [`ThermalBackend`] that delegates to `inner` and records every
/// simulation call in shared counters. The capability queries are
/// forwarded too, so the engine takes the same path as on `inner`.
pub struct TimedBackend {
    inner: Arc<dyn ThermalBackend>,
    counters: Arc<ThermalCounters>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn ThermalBackend>, counters: Arc<ThermalCounters>) -> Self {
        TimedBackend { inner, counters }
    }
}

impl ThermalSimulator for TimedBackend {
    fn block_count(&self) -> usize {
        self.inner.block_count()
    }

    fn ambient(&self) -> f64 {
        self.inner.ambient()
    }

    fn simulate_session(
        &self,
        power: &PowerMap,
        duration: f64,
    ) -> thermsched_thermal::Result<SessionThermalResult> {
        let c = &self.counters;
        timed(&c.session_calls, &c.session_nanos, || {
            self.inner.simulate_session(power, duration)
        })
    }

    fn simulate_trace(
        &self,
        trace: &PowerTrace,
        initial: Option<&Temperatures>,
    ) -> thermsched_thermal::Result<SessionThermalResult> {
        let c = &self.counters;
        c.trace_phases
            .fetch_add(trace.phase_count() as u64, Ordering::Relaxed);
        if initial.is_some() {
            c.warm_calls.fetch_add(1, Ordering::Relaxed);
        }
        timed(&c.trace_calls, &c.trace_nanos, || {
            self.inner.simulate_trace(trace, initial)
        })
    }

    fn steady_state(&self, power: &PowerMap) -> thermsched_thermal::Result<Temperatures> {
        self.inner.steady_state(power)
    }
}

impl ThermalBackend for TimedBackend {
    fn fidelity(&self) -> SimulationFidelity {
        self.inner.fidelity()
    }

    fn supports_fast_path(&self) -> bool {
        self.inner.supports_fast_path()
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn simulate_sessions(
        &self,
        powers: &[PowerMap],
        duration: f64,
    ) -> thermsched_thermal::Result<Vec<SessionThermalResult>> {
        let c = &self.counters;
        c.batch_lanes
            .fetch_add(powers.len() as u64, Ordering::Relaxed);
        timed(&c.batch_calls, &c.batch_nanos, || {
            self.inner.simulate_sessions(powers, duration)
        })
    }
}

/// Builds the backend the service runner builds for `scenario` under
/// `kind`. The replay's per-job check catches any drift from the runner.
fn build_backend(
    kind: BackendKind,
    scenario: &Scenario,
) -> Result<Arc<dyn ThermalBackend>, String> {
    let floorplan = scenario.sut.floorplan();
    let backend: Arc<dyn ThermalBackend> = match kind {
        BackendKind::RcCompact => {
            Arc::new(RcThermalSimulator::from_floorplan(floorplan).map_err(|e| e.to_string())?)
        }
        BackendKind::GridTransient { cells_per_core } => {
            let resolution = GridResolution::new(
                scenario.grid.0 * cells_per_core,
                scenario.grid.1 * cells_per_core,
            )
            .map_err(|e| e.to_string())?;
            Arc::new(
                GridThermalSimulator::with_config(
                    floorplan,
                    &PackageConfig::default(),
                    resolution,
                    TransientConfig::default(),
                )
                .map_err(|e| e.to_string())?,
            )
        }
        BackendKind::GridAdi { .. } => return Err("no workload replays grid-adi".to_owned()),
    };
    Ok(backend)
}

/// What one replay measured.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    pub thermal: ThermalSample,
    /// Wall time inside the engine's schedule calls.
    pub engine_s: f64,
}

/// Replays `report`'s jobs through [`TimedBackend`]s on this thread: one
/// backend per operator key, one fresh session store per scenario. For a
/// backend that batches, the runner's same-shape prewarm is reissued as
/// `simulate_sessions` calls first, so the batch path is timed too; its
/// results are not published, so phase 1 runs in the engine as well.
///
/// # Errors
///
/// A message naming the first job whose schedule length or maximum
/// temperature differs from the runner's, or any build or schedule error.
pub fn replay(
    corpus: &Corpus,
    kind: BackendKind,
    report: &ServiceReport,
) -> Result<Replay, String> {
    let _sequential = NestedParallelismGuard::enter();
    let operators = OperatorCacheHandle::new();
    let backends = corpus
        .scenarios()
        .iter()
        .map(|s| operators.get_or_try_build(kind.key(s), || build_backend(kind, s)))
        .collect::<Result<Vec<_>, String>>()?;
    let counters = Arc::new(ThermalCounters::default());
    let timed: Vec<TimedBackend> = backends
        .iter()
        .map(|b| TimedBackend::new(Arc::clone(b), Arc::clone(&counters)))
        .collect();

    if matches!(kind, BackendKind::GridTransient { .. }) {
        replay_prewarm(corpus, kind, &timed)?;
    }

    let mut jobs_of: Vec<Vec<usize>> = vec![Vec::new(); corpus.scenarios().len()];
    for (index, job) in corpus.jobs().iter().enumerate() {
        jobs_of[job.scenario].push(index);
    }
    let mut engine_s = 0.0;
    for ((scenario, indices), backend) in corpus.scenarios().iter().zip(&jobs_of).zip(&timed) {
        if indices.is_empty() {
            continue;
        }
        let engine = Engine::builder()
            .sut(&scenario.sut)
            .dyn_backend(backend)
            .cache(SessionCacheHandle::sharded(8))
            .build()
            .map_err(|e| e.to_string())?;
        for &index in indices {
            let job = &corpus.jobs()[index];
            let online = job.online_context().map_err(|e| e.to_string())?;
            let started = Instant::now();
            let outcome = match &online {
                Some(online) => engine.schedule_online_with(job.config, online),
                None => engine.schedule_with(job.config),
            }
            .map_err(|e| format!("replay of job {index}: {e}"))?;
            engine_s += started.elapsed().as_secs_f64();
            let replayed = JobMetrics::from(&outcome);
            let ran = report.jobs()[index]
                .outcome
                .metrics()
                .ok_or_else(|| format!("job {index} did not complete in the run"))?;
            if replayed.schedule_length != ran.schedule_length
                || replayed.max_temperature != ran.max_temperature
            {
                return Err(format!(
                    "replay of job {index} differs from the run: length {} vs {}, max {} vs {}",
                    replayed.schedule_length,
                    ran.schedule_length,
                    replayed.max_temperature,
                    ran.max_temperature
                ));
            }
        }
    }
    Ok(Replay {
        thermal: counters.sample(),
        engine_s,
    })
}

/// Reissues the runner's same-shape prewarm: every scenario's single-core
/// sessions, grouped by operator key and duration, one batch per group.
fn replay_prewarm(
    corpus: &Corpus,
    kind: BackendKind,
    backends: &[TimedBackend],
) -> Result<(), String> {
    let mut groups: BTreeMap<(String, u64), (usize, f64, Vec<PowerMap>)> = BTreeMap::new();
    for (index, scenario) in corpus.scenarios().iter().enumerate() {
        let key = kind.key(scenario).to_string();
        for core in 0..scenario.sut.core_count() {
            let session = TestSession::new([core], &scenario.sut);
            let power = session
                .power_map(&scenario.sut)
                .map_err(|e| e.to_string())?;
            groups
                .entry((key.clone(), session.duration().to_bits()))
                .or_insert_with(|| (index, session.duration(), Vec::new()))
                .2
                .push(power);
        }
    }
    for (backend, duration, powers) in groups.into_values() {
        backends[backend]
            .simulate_sessions(&powers, duration)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// A backend that answers every method with a recognisable value and
    /// logs which method was called.
    #[derive(Default)]
    struct Probe {
        calls: Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn log(&self, name: &'static str) {
            self.calls.lock().expect("probe log").push(name);
        }

        fn result(&self, duration: f64) -> SessionThermalResult {
            SessionThermalResult {
                max_block_temperatures: vec![duration],
                final_temperatures: Temperatures::new(vec![duration], 1),
                duration,
            }
        }
    }

    impl ThermalSimulator for Probe {
        fn block_count(&self) -> usize {
            self.log("block_count");
            7
        }
        fn ambient(&self) -> f64 {
            self.log("ambient");
            41.5
        }
        fn simulate_session(
            &self,
            _: &PowerMap,
            duration: f64,
        ) -> thermsched_thermal::Result<SessionThermalResult> {
            self.log("simulate_session");
            Ok(self.result(duration))
        }
        fn simulate_trace(
            &self,
            trace: &PowerTrace,
            _: Option<&Temperatures>,
        ) -> thermsched_thermal::Result<SessionThermalResult> {
            self.log("simulate_trace");
            Ok(self.result(trace.total_duration()))
        }
        fn steady_state(&self, _: &PowerMap) -> thermsched_thermal::Result<Temperatures> {
            self.log("steady_state");
            Ok(Temperatures::new(vec![3.0], 1))
        }
    }

    impl ThermalBackend for Probe {
        fn fidelity(&self) -> SimulationFidelity {
            self.log("fidelity");
            SimulationFidelity::SteadyState
        }
        fn supports_fast_path(&self) -> bool {
            self.log("supports_fast_path");
            false
        }
        fn backend_name(&self) -> &'static str {
            self.log("backend_name");
            "probe"
        }
        fn simulate_sessions(
            &self,
            powers: &[PowerMap],
            duration: f64,
        ) -> thermsched_thermal::Result<Vec<SessionThermalResult>> {
            self.log("simulate_sessions");
            Ok(powers.iter().map(|_| self.result(duration)).collect())
        }
    }

    #[test]
    fn decorator_delegates_every_trait_method_and_counts_simulations() {
        let probe = Arc::new(Probe::default());
        let counters = Arc::new(ThermalCounters::default());
        let timed = TimedBackend::new(probe.clone(), Arc::clone(&counters));
        let power = PowerMap::zeros(1);
        let trace = PowerTrace::new(vec![(power.clone(), 0.5), (power.clone(), 0.25)]).unwrap();
        let warm = Temperatures::new(vec![50.0], 1);

        assert_eq!(timed.block_count(), 7);
        assert_eq!(timed.ambient(), 41.5);
        assert_eq!(timed.simulate_session(&power, 2.0).unwrap().duration, 2.0);
        assert_eq!(timed.simulate_trace(&trace, None).unwrap().duration, 0.75);
        assert_eq!(
            timed.simulate_trace(&trace, Some(&warm)).unwrap().duration,
            0.75
        );
        assert_eq!(
            timed.steady_state(&power).unwrap().block_temperatures(),
            &[3.0]
        );
        assert_eq!(timed.fidelity(), SimulationFidelity::SteadyState);
        assert!(!timed.supports_fast_path());
        assert_eq!(timed.backend_name(), "probe");
        let batch = timed
            .simulate_sessions(&[power.clone(), power], 1.0)
            .unwrap();
        assert_eq!(batch.len(), 2);

        // The batch reached the inner override, not the default loop over
        // simulate_session.
        assert_eq!(
            *probe.calls.lock().unwrap(),
            vec![
                "block_count",
                "ambient",
                "simulate_session",
                "simulate_trace",
                "simulate_trace",
                "steady_state",
                "fidelity",
                "supports_fast_path",
                "backend_name",
                "simulate_sessions",
            ]
        );
        let sample = counters.sample();
        assert_eq!(sample.session_calls, 1);
        assert_eq!(sample.trace_calls, 2);
        assert_eq!(sample.trace_phases, 4);
        assert_eq!(sample.warm_calls, 1);
        assert_eq!(sample.batch_calls, 1);
        assert_eq!(sample.batch_lanes, 2);
    }
}
