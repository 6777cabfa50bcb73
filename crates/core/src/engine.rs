//! The `Engine` facade: one owner for the backend, configuration and
//! long-lived session cache behind the whole scheduling stack.
//!
//! A builder puts an engine together from a system under test, a thermal
//! backend, a base configuration, a guidance model and a
//! [`SessionCacheHandle`] that stays warm across runs. The engine then
//! exposes [`Engine::run`] and its `schedule*` forwards, [`Engine::evaluate`]
//! and [`Engine::sweep`], and never changes. The backend and the model may
//! be borrowed, so an engine over borrowed parts and a cloned cache handle
//! is cheap to build per run. With default settings, `Engine::builder()`
//! schedules on the RC-compact backend's fast precomputed-operator path.

use std::borrow::Cow;
use std::fmt;

use thermsched_obs::Tracer;
use thermsched_soc::SystemUnderTest;
use thermsched_thermal::{PackageConfig, RcThermalSimulator, ThermalBackend};

use crate::{
    BaselineComparison, OnlineContext, PowerConstrainedScheduler, Result, ScheduleCheckpoint,
    ScheduleError, ScheduleEvaluation, ScheduleOutcome, ScheduleValidator, SchedulerConfig,
    SessionCacheHandle, SessionThermalModel, SweepPoint, SweepReport, SweepSpec, SweepVariant,
    TestSchedule, TestSession, ThermalAwareScheduler,
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
    config: SchedulerConfig,
    model: Cow<'a, SessionThermalModel>,
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

    /// Generates a schedule with the engine's base configuration, serving
    /// repeat simulations from the shared cache and publishing fresh ones
    /// back to it.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn schedule(&self) -> Result<ScheduleOutcome> {
        self.run(self.config, None, None)
    }

    /// Generates a schedule with an explicit configuration (the engine's
    /// base configuration is ignored for this run), still sharing the
    /// engine's session cache. [`Engine::sweep`] runs every point through
    /// it.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn schedule_with(&self, config: SchedulerConfig) -> Result<ScheduleOutcome> {
        self.run(config, None, None)
    }

    /// Generates a schedule under an [`OnlineContext`] (power-trace shape
    /// and/or warm start) with an explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn schedule_online_with(
        &self,
        config: SchedulerConfig,
        online: &OnlineContext,
    ) -> Result<ScheduleOutcome> {
        self.run(config, Some(online), None)
    }

    /// Runs Algorithm 1 with `config`, optionally under an [`OnlineContext`]
    /// and a cooperative [`ScheduleCheckpoint`]: the one entry point every
    /// `schedule*` method and the service forward to.
    ///
    /// An offline run shares the engine's session cache. An online run
    /// reuses its own validations only: it neither reads nor writes the
    /// cache, which holds the constant-power results offline runs share. An
    /// empty context is an offline run, in its span too.
    /// The checkpoint is how a service enforces deadline budgets and
    /// cancellation; an interrupted run publishes everything it simulated
    /// before returning [`ScheduleError::Interrupted`].
    ///
    /// Every call records one `engine.schedule` span whose attributes are
    /// pure functions of the inputs, in this order: `trace_segments` and
    /// `warm_start` (online runs only), `tl` and `stcl`, then either
    /// `sessions`, `schedule_length` and `max_temperature` or the `error`
    /// kind — also when the scheduler fails to build.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidConfig`] for an invalid configuration or a
    ///   warm start of the wrong length.
    /// * [`ScheduleError::Interrupted`] when the checkpoint fires.
    /// * The run errors of [`ThermalAwareScheduler::schedule`].
    pub fn run(
        &self,
        config: SchedulerConfig,
        online: Option<&OnlineContext>,
        checkpoint: Option<&dyn ScheduleCheckpoint>,
    ) -> Result<ScheduleOutcome> {
        let online = online.filter(|online| !online.is_empty());
        let mut span = self.tracer.span("engine.schedule");
        let outcome = self
            .scheduler_for(config, online)
            .and_then(|scheduler| scheduler.run(Some(&self.cache), checkpoint));
        if span.is_recording() {
            if let Some(online) = online {
                let segments = online.trace().map_or(0, |t| t.segment_count());
                span.attr("trace_segments", segments);
                span.attr("warm_start", online.warm_start().is_some());
            }
            span.attr("tl", config.temperature_limit);
            span.attr("stcl", config.stc_limit);
            match &outcome {
                Ok(outcome) => {
                    span.attr("sessions", outcome.session_count());
                    span.attr("schedule_length", outcome.schedule_length());
                    span.attr("max_temperature", outcome.max_temperature);
                }
                Err(err) => span.attr("error", err.kind_name()),
            }
        }
        outcome
    }

    fn scheduler_for<'s>(
        &'s self,
        config: SchedulerConfig,
        online: Option<&'s OnlineContext>,
    ) -> Result<ThermalAwareScheduler<'s, dyn ThermalBackend + 's>> {
        // The guidance model depends only on the session-model options, the
        // engine's floorplan and the package; lend the engine's model unless
        // a run asks for other options.
        let model = if config.session_model == self.model.options() {
            Cow::Borrowed(self.model.as_ref())
        } else {
            Cow::Owned(SessionThermalModel::new(
                self.sut,
                &PackageConfig::default(),
                config.session_model,
            )?)
        };
        let scheduler =
            ThermalAwareScheduler::with_model(self.sut, self.backend.as_dyn(), config, model)?
                .with_tracer(self.tracer.clone());
        match online {
            Some(online) => scheduler.with_online(online),
            None => Ok(scheduler),
        }
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

    /// Runs a declarative sweep over this engine. Every grid point is an
    /// independent scheduling run, so the points fan out across the machine
    /// with the ordered parallel map phase 1 uses, and the engine's session
    /// cache turns the overlap between points (identical phase-1 runs,
    /// recurring candidate sets) into lookups. Points come back in
    /// variant-major, then row-major `(TL, STCL)` order regardless of which
    /// thread computed them.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures (invalid per-point configurations,
    /// core-level violations under the failing policy, exhausted iteration
    /// budgets, simulation errors).
    pub fn sweep(&self, spec: &SweepSpec) -> Result<SweepReport> {
        let default_variant = [SweepVariant::default()];
        let variants: &[SweepVariant] = if spec.variants.is_empty() {
            &default_variant
        } else {
            &spec.variants
        };
        let combos: Vec<(&SweepVariant, f64, f64)> = variants
            .iter()
            .flat_map(|variant| {
                spec.temperature_limits.iter().flat_map(move |&tl| {
                    spec.stc_limits.iter().map(move |&stcl| (variant, tl, stcl))
                })
            })
            .collect();
        let points = crate::parallel::parallel_map_ordered(
            &combos,
            |(variant, tl, stcl)| -> Result<SweepPoint> {
                let config = variant.apply(SchedulerConfig {
                    temperature_limit: tl,
                    stc_limit: stcl,
                    ..self.config
                });
                config.validate()?;
                let outcome = self.schedule_with(config)?;
                let baseline = if spec.compare_baseline {
                    Some(self.baseline_comparison(&outcome, tl)?)
                } else {
                    None
                };
                Ok(SweepPoint {
                    temperature_limit: tl,
                    stc_limit: stcl,
                    schedule_length: outcome.schedule_length(),
                    session_count: outcome.session_count(),
                    simulation_effort: outcome.simulation_effort,
                    discarded_sessions: outcome.discarded_sessions,
                    max_temperature: outcome.max_temperature,
                    label: variant.label.clone(),
                    cached_validations: outcome.cached_validations,
                    warm_cache_hits: outcome.warm_cache_hits,
                    baseline,
                })
            },
        );
        Ok(SweepReport {
            points: points.into_iter().collect::<Result<_>>()?,
        })
    }

    /// The matched-budget baseline comparison for one already-computed
    /// thermal-aware outcome: the power-constrained scheduler is given the
    /// largest committed session power and its schedule is thermally
    /// evaluated against the engine's backend.
    fn baseline_comparison(
        &self,
        outcome: &ScheduleOutcome,
        temperature_limit: f64,
    ) -> Result<BaselineComparison> {
        let power_budget = outcome
            .schedule
            .iter()
            .map(TestSession::total_power)
            .fold(0.0_f64, f64::max)
            .max(1.0);
        let baseline = PowerConstrainedScheduler::new(power_budget)?.schedule(self.sut)?;
        let evaluation = self.evaluate(&baseline)?;
        Ok(BaselineComparison {
            thermal_aware_length: outcome.schedule_length(),
            thermal_aware_max_temperature: outcome.max_temperature,
            power_constrained_length: baseline.total_length(),
            power_constrained_max_temperature: evaluation.max_temperature(),
            power_budget,
            power_constrained_violations: evaluation.violating_sessions(temperature_limit).len(),
        })
    }
}

/// Builder for [`Engine`]; obtained from [`Engine::builder`].
#[derive(Default)]
pub struct EngineBuilder<'a> {
    sut: Option<&'a SystemUnderTest>,
    backend: Option<BackendHandle<'a>>,
    config: Option<SchedulerConfig>,
    model: Option<&'a SessionThermalModel>,
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

    /// The base scheduler configuration (defaults to the paper's mid-range
    /// operating point, `TL` = 165 °C and `STCL` = 50).
    #[must_use]
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Lends the guidance model, built for this system: runs with its
    /// session-model options use it, others build their own. Defaults to one
    /// built for the base configuration with the default package.
    #[must_use]
    pub fn model(mut self, model: &'a SessionThermalModel) -> Self {
        self.model = Some(model);
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

    /// The span recorder `run`, `schedule*` and `evaluate` record into and
    /// hand down to the scheduler's phases (services pass a job-scoped
    /// handle). Defaults to the free disabled tracer.
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
    /// * [`ScheduleError::InvalidConfig`] for invalid configurations or a
    ///   lent guidance model of another core count, and propagated
    ///   model/simulator construction errors.
    pub fn build(self) -> Result<Engine<'a>> {
        let sut = self.sut.ok_or(ScheduleError::MissingComponent {
            component: "system under test (EngineBuilder::sut)",
        })?;
        let config = match self.config {
            Some(config) => {
                config.validate()?;
                config
            }
            None => SchedulerConfig::new(165.0, 50.0)?,
        };
        let backend = match self.backend {
            Some(backend) => backend,
            None => BackendHandle::Owned(Box::new(RcThermalSimulator::from_floorplan(
                sut.floorplan(),
            )?)),
        };
        if backend.as_dyn().block_count() != sut.core_count() {
            return Err(ScheduleError::CoreCountMismatch {
                sut: sut.core_count(),
                simulator: backend.as_dyn().block_count(),
            });
        }
        let model = match self.model {
            Some(model) if model.core_count() != sut.core_count() => {
                return Err(ScheduleError::InvalidConfig {
                    name: "guidance model core count",
                    value: model.core_count() as f64,
                })
            }
            Some(model) => Cow::Borrowed(model),
            None => Cow::Owned(SessionThermalModel::new(
                sut,
                &PackageConfig::default(),
                config.session_model,
            )?),
        };
        Ok(Engine {
            sut,
            backend,
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
    fn a_lent_model_schedules_like_the_engines_own() {
        use crate::SessionModelOptions;

        let sut = library::alpha21364_sut();
        let model = SessionThermalModel::new(
            &sut,
            &PackageConfig::default(),
            SessionModelOptions::default(),
        )
        .unwrap();
        let own = Engine::builder().sut(&sut).build().unwrap();
        let lent = Engine::builder().sut(&sut).model(&model).build().unwrap();
        assert_eq!(lent.schedule().unwrap(), own.schedule().unwrap());
        // A run with other session-model options builds its own model.
        let vertical = SchedulerConfig {
            session_model: SessionModelOptions {
                include_vertical_path: true,
                ..SessionModelOptions::default()
            },
            ..own.config()
        };
        assert_ne!(vertical.session_model, model.options());
        assert_eq!(
            lent.schedule_with(vertical).unwrap(),
            own.schedule_with(vertical).unwrap()
        );
        // A model of another system is refused.
        let other = library::figure1_sut();
        let foreign = SessionThermalModel::new(
            &other,
            &PackageConfig::default(),
            SessionModelOptions::default(),
        )
        .unwrap();
        let err = Engine::builder()
            .sut(&sut)
            .model(&foreign)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                ScheduleError::InvalidConfig {
                    name: "guidance model core count",
                    ..
                }
            ),
            "{err:?}"
        );
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
            .run(config, None, Some(&EffortBudget::new(1.0)))
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
            .run(config, None, Some(&EffortBudget::new(1e9)))
            .unwrap();
        assert_eq!(constrained.schedule, engine.schedule().unwrap().schedule);
    }

    #[test]
    fn engine_spans_parent_the_scheduler_phases() {
        use thermsched_obs::{ClockKind, TracerConfig};

        let sut = library::alpha21364_sut();
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        let engine = Engine::builder()
            .sut(&sut)
            .tracer(tracer.for_job(5))
            .build()
            .unwrap();
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

        // An engine built without a tracer records nothing.
        let untraced = Engine::builder().sut(&sut).build().unwrap();
        untraced.schedule().unwrap();
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn online_scheduling_chains_state_and_stamps_span_attrs() {
        use crate::{EffortBudget, OnlineContext, TraceProfile, TraceSegment};
        use thermsched_obs::{AttrValue, ClockKind, TracerConfig};

        let sut = library::alpha21364_sut();
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        let engine = Engine::builder()
            .sut(&sut)
            .tracer(tracer.for_job(1))
            .build()
            .unwrap();

        let profile = TraceProfile::new(vec![
            TraceSegment::new(1.0, 0.75),
            TraceSegment::new(0.0, 0.25),
        ])
        .unwrap();
        let first = engine
            .schedule_online_with(
                engine.config(),
                &OnlineContext::new().with_trace(profile.clone()),
            )
            .unwrap();
        let finals = first.final_temperatures.clone().unwrap();

        // Chain: the next job re-plans from the state the first left behind.
        let chained = OnlineContext::new()
            .with_trace(profile)
            .with_warm_start(finals.block_temperatures().to_vec())
            .unwrap();
        let second = engine
            .schedule_online_with(engine.config(), &chained)
            .unwrap();
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

        // A run with a generous checkpoint budget agrees exactly.
        let again = engine
            .run(
                engine.config(),
                Some(&chained),
                Some(&EffortBudget::new(1e9)),
            )
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

    #[test]
    fn a_scheduler_that_fails_to_build_records_why_on_both_paths() {
        use crate::{OnlineContext, TraceProfile};
        use thermsched_obs::{ClockKind, TracerConfig};

        let sut = library::alpha21364_sut();
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        let engine = Engine::builder()
            .sut(&sut)
            .tracer(tracer.for_job(2))
            .build()
            .unwrap();
        let invalid = SchedulerConfig {
            stc_limit: -1.0,
            ..engine.config()
        };
        // An empty context is an offline run, in its span too.
        let empty = OnlineContext::new();
        let traced = OnlineContext::new().with_trace(TraceProfile::constant());
        for (online, attrs) in [(None, 3), (Some(&empty), 3), (Some(&traced), 5)] {
            let err = engine.run(invalid, online, None).unwrap_err();
            assert!(
                matches!(err, ScheduleError::InvalidConfig { .. }),
                "{err:?}"
            );
            let spans = tracer.drain();
            assert_eq!(spans.len(), 1, "the build fails before any phase span");
            assert_eq!(spans[0].name, "engine.schedule");
            let keys: Vec<&str> = spans[0]
                .structural_attrs()
                .map(|a| a.key.as_str())
                .collect();
            assert!(keys.ends_with(&["tl", "stcl", "error"]), "{keys:?}");
            assert_eq!(keys.len(), attrs, "{keys:?}");
        }
    }
}
