//! The `Engine` facade: one owner for the backend, configuration and
//! long-lived session cache behind the whole scheduling stack.
//!
//! The engine is constructed once per (system under test, backend) pair
//! through a builder, holds a [`SessionCacheHandle`] that stays warm across
//! every run it executes, and exposes the operations the drivers need
//! ([`Engine::schedule`], [`Engine::evaluate`], [`Engine::sweep`]). The
//! backend is stored as a `&dyn ThermalBackend` (or owned `Box`), so the
//! facade works identically for the RC-compact and grid simulators — and,
//! because the fast transient path is the library default,
//! `Engine::builder()` with default settings schedules through the
//! precomputed-operator path automatically.

use std::fmt;

use thermsched_obs::Tracer;
use thermsched_soc::SystemUnderTest;
use thermsched_thermal::{PackageConfig, RcThermalSimulator, ThermalBackend, TransientConfig};

use crate::{
    OnlineContext, Result, ScheduleCheckpoint, ScheduleError, ScheduleEvaluation, ScheduleOutcome,
    ScheduleValidator, SchedulerConfig, SessionCacheHandle, SessionThermalModel, SweepReport,
    SweepRunner, SweepSpec, TestSchedule, ThermalAwareScheduler,
};

/// The backend an engine drives: borrowed from the caller or owned by the
/// engine itself (the builder's default construction path).
enum BackendHandle<'a> {
    Borrowed(&'a dyn ThermalBackend),
    Owned(Box<dyn ThermalBackend>),
}

impl BackendHandle<'_> {
    fn as_dyn(&self) -> &dyn ThermalBackend {
        match self {
            BackendHandle::Borrowed(backend) => *backend,
            BackendHandle::Owned(backend) => backend.as_ref(),
        }
    }
}

/// Facade over the scheduling stack: a system under test, a thermal backend,
/// a base configuration and a session cache that outlives individual runs.
///
/// # Example
///
/// ```
/// use thermsched::Engine;
/// use thermsched_soc::library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sut = library::alpha21364_sut();
/// // Default settings: RC-compact backend with the fast transient path,
/// // TL = 165 C, STCL = 50 (the paper's mid-range operating point).
/// let engine = Engine::builder().sut(&sut).build()?;
/// assert!(engine.backend().supports_fast_path());
/// let outcome = engine.schedule()?;
/// assert!(outcome.max_temperature < 165.0);
/// # Ok(())
/// # }
/// ```
pub struct Engine<'a> {
    sut: &'a SystemUnderTest,
    backend: BackendHandle<'a>,
    package: PackageConfig,
    config: SchedulerConfig,
    model: SessionThermalModel,
    cache: SessionCacheHandle,
    tracer: Tracer,
}

impl fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend.as_dyn().backend_name())
            .field("cores", &self.sut.core_count())
            .field("config", &self.config)
            .field("cached_sessions", &self.cache.len())
            .finish()
    }
}

impl<'a> Engine<'a> {
    /// Starts building an engine. [`EngineBuilder::sut`] is the only
    /// required call; everything else has a library default.
    pub fn builder() -> EngineBuilder<'a> {
        EngineBuilder::default()
    }

    /// The system under test this engine schedules.
    pub fn sut(&self) -> &'a SystemUnderTest {
        self.sut
    }

    /// The thermal backend sessions are validated against.
    pub fn backend(&self) -> &dyn ThermalBackend {
        self.backend.as_dyn()
    }

    /// The base configuration runs start from (sweeps override `TL`/`STCL`
    /// and variant knobs per point).
    pub fn config(&self) -> SchedulerConfig {
        self.config
    }

    /// The shared session cache. Clone the handle to share warm results
    /// with another engine over the *same* backend and system under test —
    /// cache keys are core sets, so mixing backends would serve wrong
    /// results.
    pub fn cache(&self) -> &SessionCacheHandle {
        &self.cache
    }

    /// Installs a span recorder for subsequent runs: `schedule*` and
    /// `evaluate` record spans into it, and hand it down to the scheduler's
    /// phase-1/phase-2 instrumentation. Services swap in a job-scoped
    /// handle per dispatched job; the default is the free disabled tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The currently installed span recorder.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Generates a schedule with the engine's base configuration, serving
    /// repeat simulations from the shared cache and publishing fresh ones
    /// back to it.
    ///
    /// # Errors
    ///
    /// See [`ThermalAwareScheduler::schedule`].
    pub fn schedule(&self) -> Result<ScheduleOutcome> {
        self.schedule_with(self.config)
    }

    /// Generates a schedule with an explicit configuration (the engine's
    /// base configuration is ignored for this run), still sharing the
    /// engine's session cache. Used by [`SweepRunner`] for every sweep
    /// point.
    ///
    /// # Errors
    ///
    /// See [`ThermalAwareScheduler::schedule`].
    pub fn schedule_with(&self, config: SchedulerConfig) -> Result<ScheduleOutcome> {
        let mut span = self.tracer.span("engine.schedule");
        let outcome = self.scheduler_for(config)?.schedule_with_cache(&self.cache);
        Self::stamp_schedule_span(&mut span, &config, &outcome);
        outcome
    }

    /// Like [`Engine::schedule_with`], but consulting a cooperative
    /// [`ScheduleCheckpoint`] at every scheduling checkpoint — the hook a
    /// service uses to enforce deadline budgets and cancellation on runs it
    /// dispatched. An interrupted run returns
    /// [`ScheduleError::Interrupted`] after publishing everything it
    /// simulated to the engine's cache.
    ///
    /// # Errors
    ///
    /// See [`ThermalAwareScheduler::schedule_with_cache_and_checkpoint`].
    pub fn schedule_with_checkpoint(
        &self,
        config: SchedulerConfig,
        checkpoint: &dyn ScheduleCheckpoint,
    ) -> Result<ScheduleOutcome> {
        let mut span = self.tracer.span("engine.schedule");
        let outcome = self
            .scheduler_for(config)?
            .schedule_with_cache_and_checkpoint(&self.cache, checkpoint);
        Self::stamp_schedule_span(&mut span, &config, &outcome);
        outcome
    }

    /// Generates a schedule under an [`OnlineContext`] (power-trace shape
    /// and/or warm start) with the engine's base configuration. Online
    /// results live under their own cache keys
    /// ([`crate::SessionCache::online_key`]), so they never alias — and are
    /// never served from — the constant-power entries offline runs share.
    ///
    /// # Errors
    ///
    /// See [`ThermalAwareScheduler::with_online`] and
    /// [`ThermalAwareScheduler::schedule`].
    pub fn schedule_online(&self, online: &OnlineContext) -> Result<ScheduleOutcome> {
        self.schedule_online_with(self.config, online)
    }

    /// Like [`Engine::schedule_online`], but with an explicit configuration
    /// for this run.
    ///
    /// # Errors
    ///
    /// See [`Engine::schedule_online`].
    pub fn schedule_online_with(
        &self,
        config: SchedulerConfig,
        online: &OnlineContext,
    ) -> Result<ScheduleOutcome> {
        let mut span = self.tracer.span("engine.schedule");
        Self::stamp_online_span(&mut span, online);
        let outcome = self
            .scheduler_for(config)
            .and_then(|s| s.with_online(online.clone()))
            .and_then(|s| s.schedule_with_cache(&self.cache));
        Self::stamp_schedule_span(&mut span, &config, &outcome);
        outcome
    }

    /// Like [`Engine::schedule_online_with`], but consulting a cooperative
    /// [`ScheduleCheckpoint`] — the entry point a service uses to dispatch
    /// online jobs under deadline budgets.
    ///
    /// # Errors
    ///
    /// See [`Engine::schedule_online`], plus
    /// [`ScheduleError::Interrupted`] when the checkpoint fires.
    pub fn schedule_online_with_checkpoint(
        &self,
        config: SchedulerConfig,
        online: &OnlineContext,
        checkpoint: &dyn ScheduleCheckpoint,
    ) -> Result<ScheduleOutcome> {
        let mut span = self.tracer.span("engine.schedule");
        Self::stamp_online_span(&mut span, online);
        let outcome = self
            .scheduler_for(config)
            .and_then(|s| s.with_online(online.clone()))
            .and_then(|s| s.schedule_with_cache_and_checkpoint(&self.cache, checkpoint));
        Self::stamp_schedule_span(&mut span, &config, &outcome);
        outcome
    }

    /// Stamps the online-context attributes onto an `engine.schedule` span:
    /// the trace's segment count and whether the run was warm-started. Both
    /// are part of the job's identity — pure functions of its inputs — so
    /// they belong to the structural slice.
    fn stamp_online_span(span: &mut thermsched_obs::Span, online: &OnlineContext) {
        if !span.is_recording() {
            return;
        }
        span.attr(
            "trace_segments",
            online.trace().map_or(0, |t| t.segment_count()),
        );
        span.attr("warm_start", online.warm_start().is_some());
    }

    /// Stamps the outcome-level structural attributes onto an
    /// `engine.schedule` span — every value is a pure function of the
    /// configuration and corpus (the deterministic simulators guarantee
    /// it), so they belong to the structural slice.
    fn stamp_schedule_span(
        span: &mut thermsched_obs::Span,
        config: &SchedulerConfig,
        outcome: &Result<ScheduleOutcome>,
    ) {
        if !span.is_recording() {
            return;
        }
        span.attr("tl", config.temperature_limit);
        span.attr("stcl", config.stc_limit);
        match outcome {
            Ok(outcome) => {
                span.attr("sessions", outcome.session_count());
                span.attr("schedule_length", outcome.schedule_length());
                span.attr("max_temperature", outcome.max_temperature);
            }
            Err(err) => span.attr("error", err.kind_name()),
        }
    }

    fn scheduler_for<'s>(
        &'s self,
        config: SchedulerConfig,
    ) -> Result<ThermalAwareScheduler<'s, dyn ThermalBackend + 's>> {
        // The guidance model depends only on the session-model options (and
        // the floorplan/package, which are fixed per engine); lend the
        // prebuilt model unless a run overrides those options.
        let scheduler = if config.session_model == self.config.session_model {
            ThermalAwareScheduler::with_model_ref(
                self.sut,
                self.backend.as_dyn(),
                config,
                &self.model,
            )
        } else {
            let model = SessionThermalModel::new(self.sut, &self.package, config.session_model)?;
            ThermalAwareScheduler::with_model(self.sut, self.backend.as_dyn(), config, model)
        };
        scheduler.map(|s| s.with_tracer(self.tracer.clone()))
    }

    /// Thermally evaluates an arbitrary schedule (e.g. a baseline
    /// scheduler's output) against the engine's backend.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn evaluate(&self, schedule: &TestSchedule) -> Result<ScheduleEvaluation> {
        let mut span = self.tracer.span("engine.evaluate");
        span.attr("sessions", schedule.session_count());
        ScheduleValidator::new(self.sut, self.backend.as_dyn())?.evaluate(schedule)
    }

    /// Runs a declarative sweep over this engine — shorthand for
    /// [`SweepRunner::new`] followed by [`SweepRunner::run`].
    ///
    /// # Errors
    ///
    /// See [`SweepRunner::run`].
    pub fn sweep(&self, spec: &SweepSpec) -> Result<SweepReport> {
        SweepRunner::new(self).run(spec)
    }
}

/// Builder for [`Engine`]; obtained from [`Engine::builder`].
#[derive(Default)]
pub struct EngineBuilder<'a> {
    sut: Option<&'a SystemUnderTest>,
    backend: Option<BackendHandle<'a>>,
    package: Option<PackageConfig>,
    config: Option<SchedulerConfig>,
    cache: Option<SessionCacheHandle>,
    tracer: Option<Tracer>,
}

impl fmt::Debug for EngineBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("sut", &self.sut.map(SystemUnderTest::core_count))
            .field(
                "backend",
                &self.backend.as_ref().map(|b| b.as_dyn().backend_name()),
            )
            .field("config", &self.config)
            .finish()
    }
}

impl<'a> EngineBuilder<'a> {
    /// The system under test to schedule (required).
    #[must_use]
    pub fn sut(mut self, sut: &'a SystemUnderTest) -> Self {
        self.sut = Some(sut);
        self
    }

    /// Borrows the thermal backend sessions are validated against. Without
    /// any backend call, `build` constructs an [`RcThermalSimulator`] from
    /// the system's floorplan with the default (fast) transient settings.
    #[must_use]
    pub fn backend<B: ThermalBackend>(mut self, backend: &'a B) -> Self {
        self.backend = Some(BackendHandle::Borrowed(backend));
        self
    }

    /// Borrows an already-erased backend (`&dyn ThermalBackend`).
    #[must_use]
    pub fn dyn_backend(mut self, backend: &'a dyn ThermalBackend) -> Self {
        self.backend = Some(BackendHandle::Borrowed(backend));
        self
    }

    /// Hands the engine ownership of a backend.
    #[must_use]
    pub fn owned_backend(mut self, backend: Box<dyn ThermalBackend>) -> Self {
        self.backend = Some(BackendHandle::Owned(backend));
        self
    }

    /// The package description used when the builder constructs the default
    /// backend and when it builds guidance models (defaults to
    /// [`PackageConfig::default`]).
    #[must_use]
    pub fn package(mut self, package: PackageConfig) -> Self {
        self.package = Some(package);
        self
    }

    /// The base scheduler configuration (defaults to the paper's mid-range
    /// operating point, `TL` = 165 °C and `STCL` = 50).
    #[must_use]
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Shares an existing session cache instead of starting cold — pass a
    /// clone of another engine's [`Engine::cache`] handle when both engines
    /// drive the same backend and system under test.
    #[must_use]
    pub fn cache(mut self, cache: SessionCacheHandle) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a span recorder from the start (equivalent to
    /// [`Engine::set_tracer`] right after `build`). Defaults to the free
    /// disabled tracer.
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::MissingComponent`] if no system under test was
    ///   supplied.
    /// * [`ScheduleError::CoreCountMismatch`] if the backend models a
    ///   different number of blocks than the system has cores.
    /// * [`ScheduleError::InvalidConfig`] for invalid configurations, and
    ///   propagated model/simulator construction errors.
    pub fn build(self) -> Result<Engine<'a>> {
        let sut = self.sut.ok_or(ScheduleError::MissingComponent {
            component: "system under test (EngineBuilder::sut)",
        })?;
        let package = self.package.unwrap_or_default();
        let config = match self.config {
            Some(config) => {
                config.validate()?;
                config
            }
            None => SchedulerConfig::new(165.0, 50.0)?,
        };
        let backend = match self.backend {
            Some(backend) => backend,
            None => BackendHandle::Owned(Box::new(RcThermalSimulator::new(
                sut.floorplan(),
                &package,
                TransientConfig::default(),
            )?)),
        };
        if backend.as_dyn().block_count() != sut.core_count() {
            return Err(ScheduleError::CoreCountMismatch {
                sut: sut.core_count(),
                simulator: backend.as_dyn().block_count(),
            });
        }
        let model = SessionThermalModel::new(sut, &package, config.session_model)?;
        Ok(Engine {
            sut,
            backend,
            package,
            config,
            model,
            cache: self.cache.unwrap_or_default(),
            tracer: self.tracer.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_soc::library;
    use thermsched_thermal::{GridResolution, GridThermalSimulator, SimulationFidelity};

    #[test]
    fn builder_requires_a_sut() {
        let err = Engine::builder().build().unwrap_err();
        assert!(matches!(err, ScheduleError::MissingComponent { .. }));
        assert!(err.to_string().contains("system under test"));
    }

    #[test]
    fn default_build_uses_the_fast_rc_backend() {
        let sut = library::alpha21364_sut();
        let engine = Engine::builder().sut(&sut).build().unwrap();
        assert!(engine.backend().supports_fast_path());
        assert_eq!(engine.backend().backend_name(), "rc-compact");
        assert_eq!(engine.backend().fidelity(), SimulationFidelity::Transient);
        assert_eq!(engine.config().temperature_limit, 165.0);
        assert_eq!(engine.config().stc_limit, 50.0);
        let outcome = engine.schedule().unwrap();
        assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
        assert!(outcome.max_temperature < 165.0);
        // The engine's cache survived the run.
        assert!(!engine.cache().is_empty());
        let warm = engine.schedule().unwrap();
        assert!(warm.warm_cache_hits >= sut.core_count());
        assert_eq!(warm.schedule, outcome.schedule);
    }

    #[test]
    fn borrowed_and_dyn_backends_are_accepted() {
        let sut = library::alpha21364_sut();
        let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
        let borrowed = Engine::builder().sut(&sut).backend(&sim).build().unwrap();
        let dynamic = Engine::builder()
            .sut(&sut)
            .dyn_backend(&sim)
            .build()
            .unwrap();
        assert_eq!(
            borrowed.schedule().unwrap().schedule,
            dynamic.schedule().unwrap().schedule
        );
    }

    #[test]
    fn grid_backend_reports_its_capabilities_through_the_engine() {
        let sut = library::alpha21364_sut();
        let grid = GridThermalSimulator::new(
            sut.floorplan(),
            &PackageConfig::default(),
            GridResolution::new(24, 24).unwrap(),
        )
        .unwrap();
        let engine = Engine::builder().sut(&sut).backend(&grid).build().unwrap();
        // The grid backend is full fidelity by default since it gained its
        // transient path; the steady-state upper-bound model is opt-in.
        assert!(engine.backend().supports_fast_path());
        assert_eq!(engine.backend().fidelity(), SimulationFidelity::Transient);
        let steady = GridThermalSimulator::new(
            sut.floorplan(),
            &PackageConfig::default(),
            GridResolution::new(24, 24).unwrap(),
        )
        .unwrap()
        .with_fidelity(SimulationFidelity::SteadyState);
        let steady_engine = Engine::builder()
            .sut(&sut)
            .backend(&steady)
            .build()
            .unwrap();
        assert!(!steady_engine.backend().supports_fast_path());
        assert_eq!(
            steady_engine.backend().fidelity(),
            SimulationFidelity::SteadyState
        );
        // The facade validates arbitrary schedules through the grid too.
        let schedule = crate::SequentialScheduler::new().schedule(&sut);
        let eval = engine.evaluate(&schedule).unwrap();
        assert_eq!(eval.sessions.len(), sut.core_count());
    }

    #[test]
    fn mismatched_backend_is_rejected_at_build_time() {
        let sut = library::alpha21364_sut();
        let other = library::figure1_sut();
        let sim = RcThermalSimulator::from_floorplan(other.floorplan()).unwrap();
        let err = Engine::builder()
            .sut(&sut)
            .backend(&sim)
            .build()
            .unwrap_err();
        assert!(matches!(err, ScheduleError::CoreCountMismatch { .. }));
    }

    #[test]
    fn shared_cache_handles_connect_engines() {
        let sut = library::alpha21364_sut();
        let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
        let first = Engine::builder().sut(&sut).backend(&sim).build().unwrap();
        first.schedule().unwrap();
        let second = Engine::builder()
            .sut(&sut)
            .backend(&sim)
            .cache(first.cache().clone())
            .build()
            .unwrap();
        let warm = second.schedule().unwrap();
        assert!(
            warm.warm_cache_hits > 0,
            "second engine must see the first engine's results"
        );
    }

    #[test]
    fn schedule_with_checkpoint_enforces_effort_budgets() {
        use crate::{EffortBudget, InterruptReason};

        let sut = library::alpha21364_sut();
        let engine = Engine::builder().sut(&sut).build().unwrap();
        let config = engine.config();
        // Phase 1 alone costs 15 simulated seconds here, so a 1 s budget
        // interrupts before any phase-2 simulation runs.
        let err = engine
            .schedule_with_checkpoint(config, &EffortBudget::new(1.0))
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Interrupted {
                reason: InterruptReason::DeadlineExceeded { .. },
                ..
            }
        ));
        // The interrupted run still warmed the engine's cache.
        assert!(!engine.cache().is_empty());
        // A generous budget reproduces the unconstrained schedule.
        let constrained = engine
            .schedule_with_checkpoint(config, &EffortBudget::new(1e9))
            .unwrap();
        assert_eq!(constrained.schedule, engine.schedule().unwrap().schedule);
    }

    #[test]
    fn engine_spans_parent_the_scheduler_phases() {
        use thermsched_obs::{ObsClock, TracerConfig};

        let sut = library::alpha21364_sut();
        let tracer = Tracer::new(TracerConfig {
            clock: ObsClock::Virtual,
            ..TracerConfig::default()
        });
        let mut engine = Engine::builder().sut(&sut).build().unwrap();
        engine.set_tracer(tracer.for_job(5));
        assert!(engine.tracer().is_enabled());
        engine.schedule().unwrap();

        let mut spans = tracer.drain();
        spans.sort_by_key(|s| s.seq);
        assert_eq!(spans[0].name, "engine.schedule");
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.job == Some(5)));
        // Every scheduler-phase span nests (directly or transitively) under
        // the engine.schedule root.
        for span in &spans[1..] {
            assert!(span.parent.is_some(), "span {} has no parent", span.name);
        }
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"scheduler.phase1"));
        assert!(names.contains(&"scheduler.phase2"));

        // Swapping back to a disabled tracer stops recording.
        engine.set_tracer(Tracer::disabled());
        engine.schedule().unwrap();
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn online_scheduling_chains_state_and_stamps_span_attrs() {
        use crate::{EffortBudget, OnlineContext, TraceProfile, TraceSegment};
        use thermsched_obs::{AttrValue, ObsClock, TracerConfig};

        let sut = library::alpha21364_sut();
        let tracer = Tracer::new(TracerConfig {
            clock: ObsClock::Virtual,
            ..TracerConfig::default()
        });
        let mut engine = Engine::builder().sut(&sut).build().unwrap();
        engine.set_tracer(tracer.for_job(1));

        let profile = TraceProfile::new(vec![
            TraceSegment::new(1.0, 0.75),
            TraceSegment::new(0.0, 0.25),
        ])
        .unwrap();
        let first = engine
            .schedule_online(&OnlineContext::new().with_trace(profile.clone()))
            .unwrap();
        let finals = first.final_temperatures.clone().unwrap();

        // Chain: the next job re-plans from the state the first left behind.
        let chained = OnlineContext::new()
            .with_trace(profile)
            .with_warm_start(finals.block_temperatures().to_vec())
            .unwrap();
        let second = engine.schedule_online(&chained).unwrap();
        assert!(second.schedule.covers_exactly_once(sut.core_count()));

        let spans = tracer.drain();
        let schedule_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "engine.schedule")
            .collect();
        assert_eq!(schedule_spans.len(), 2);
        for (span, warm) in schedule_spans.iter().zip([false, true]) {
            let segments = span
                .structural_attrs()
                .find(|a| a.key == "trace_segments")
                .expect("trace_segments attr");
            assert_eq!(segments.value, AttrValue::Unsigned(2));
            let warm_attr = span
                .structural_attrs()
                .find(|a| a.key == "warm_start")
                .expect("warm_start attr");
            assert_eq!(warm_attr.value, AttrValue::Bool(warm));
        }

        // The checkpoint variant with a generous budget agrees exactly.
        let again = engine
            .schedule_online_with_checkpoint(engine.config(), &chained, &EffortBudget::new(1e9))
            .unwrap();
        assert_eq!(again.schedule, second.schedule);
        assert_eq!(again.session_records, second.session_records);
    }

    #[test]
    fn schedule_with_overrides_without_touching_the_base_config() {
        let sut = library::alpha21364_sut();
        let engine = Engine::builder().sut(&sut).build().unwrap();
        let tight = engine
            .schedule_with(SchedulerConfig::new(165.0, 20.0).unwrap())
            .unwrap();
        let loose = engine
            .schedule_with(SchedulerConfig::new(165.0, 100.0).unwrap())
            .unwrap();
        assert!(tight.schedule_length() >= loose.schedule_length());
        assert_eq!(engine.config().stc_limit, 50.0, "base config unchanged");
    }
}
