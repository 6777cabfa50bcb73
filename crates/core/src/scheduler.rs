//! The thermal-aware test-schedule generator (Algorithm 1 of the paper).

use std::borrow::Cow;
use std::collections::HashMap;

use thermsched_obs::Tracer;
use thermsched_soc::SystemUnderTest;
use thermsched_thermal::{PackageConfig, SessionThermalResult, Temperatures, ThermalBackend};

use crate::session_model::SessionFill;
use crate::{
    CoreOrdering, CoreViolationPolicy, CoreWeights, OnlineContext, Result, ScheduleCheckpoint,
    ScheduleError, ScheduleProgress, SchedulerConfig, SessionCacheHandle, SessionThermalModel,
    TestSchedule, TestSession,
};

/// Cache key of a core set: its core ids in ascending order.
fn session_key<I: IntoIterator<Item = usize>>(cores: I) -> Vec<usize> {
    let mut key: Vec<usize> = cores.into_iter().collect();
    key.sort_unstable();
    key
}

/// The thermal-validation results that admitted one committed session into
/// the schedule.
///
/// Records are produced in schedule order: the `i`-th record describes the
/// `i`-th session of [`ScheduleOutcome::schedule`] (zip them to pair
/// sessions with their validation data — the session itself lives only in
/// the schedule so the commit path never clones it).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Per-block maximum temperatures observed during the validating
    /// simulation (°C).
    pub block_max_temperatures: Vec<f64>,
    /// Hottest block temperature during the session (°C).
    pub max_temperature: f64,
}

/// The result of a complete scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// The generated thermal-safe schedule.
    pub schedule: TestSchedule,
    /// Validation record of every committed session, in schedule order.
    pub session_records: Vec<SessionRecord>,
    /// Cumulative simulated test-session time (seconds) spent validating
    /// candidate sessions, including discarded attempts. This is the paper's
    /// "simulation effort" metric.
    pub simulation_effort: f64,
    /// Simulated time (seconds) spent in the per-core characterisation pass
    /// (lines 1–7 of Algorithm 1). Reported separately because the paper's
    /// simulation-effort numbers count only session validation.
    pub characterization_effort: f64,
    /// Number of candidate sessions discarded because of thermal violations.
    pub discarded_sessions: usize,
    /// Number of candidate validations served without a fresh simulation:
    /// single-core candidates read from phase 1's characterisation,
    /// re-attempted candidates from the run's memo, and candidates another
    /// run published to a shared store. Cached attempts still accrue
    /// `simulation_effort` — the paper's metric counts attempts, not
    /// wall-clock — but cost no simulation time.
    pub cached_validations: usize,
    /// Number of simulations avoided because a *shared* session cache (see
    /// [`crate::SessionCacheHandle`] and [`ThermalAwareScheduler::run`])
    /// already held the result from an earlier run against the same
    /// backend: one per core when another run published the phase-1
    /// characterisation, plus phase-2 candidate validations another run
    /// attempted first.
    /// Always zero for [`ThermalAwareScheduler::schedule`], whose cache
    /// lives and dies with the call, and for online runs, which never
    /// consult a shared store.
    pub warm_cache_hits: usize,
    /// Hottest temperature reached by any committed session (°C).
    pub max_temperature: f64,
    /// Best-case maximum temperature of every core (tested alone), in °C.
    pub bcmt: Vec<f64>,
    /// The temperature limit actually enforced (differs from the configured
    /// one only under [`CoreViolationPolicy::RaiseLimit`]).
    pub effective_temperature_limit: f64,
    /// Final per-core weights after all violation-driven adjustments.
    pub final_weights: CoreWeights,
    /// Temperature state at the end of the *last committed session's*
    /// validating simulation — the state an online caller chains into the
    /// next run's warm start. `None` only for empty schedules. In-memory
    /// only: this field is never serialised, so job reports and golden
    /// snapshots are unaffected by it.
    pub final_temperatures: Option<Temperatures>,
}

impl ScheduleOutcome {
    /// Total schedule length in seconds.
    pub fn schedule_length(&self) -> f64 {
        self.schedule.total_length()
    }

    /// Number of test sessions in the schedule.
    pub fn session_count(&self) -> usize {
        self.schedule.session_count()
    }

    /// Ratio of simulation effort to schedule length; `1.0` means every
    /// candidate session was accepted at the first attempt.
    ///
    /// Defined for every outcome: an empty schedule (a zero-core system
    /// under test, where both effort and length are zero) reports `1.0`,
    /// the ratio's minimum — no candidate needed a second attempt — rather
    /// than a `NaN` from `0/0`.
    pub fn effort_ratio(&self) -> f64 {
        let len = self.schedule_length();
        if len > 0.0 && len.is_finite() {
            self.simulation_effort / len
        } else {
            1.0
        }
    }

    /// Fraction of phase-2 validation attempts (committed plus discarded
    /// candidate sessions) served from a session cache instead of a fresh
    /// simulation, in `[0, 1]`.
    ///
    /// Defined for every outcome: with no attempts at all (empty schedule)
    /// the fraction is `0.0` rather than a `NaN` from `0/0`.
    pub fn cached_fraction(&self) -> f64 {
        let attempts = self.session_count() + self.discarded_sessions;
        if attempts == 0 {
            0.0
        } else {
            self.cached_validations as f64 / attempts as f64
        }
    }
}

/// Thermal-aware test-schedule generator.
///
/// The scheduler is generic over the [`ThermalBackend`] used for session
/// validation — including `dyn ThermalBackend`, which is how the
/// [`crate::Engine`] facade drives it — so that the guidance model (cheap)
/// and the validator (expensive) can be varied independently, the central
/// trade-off the paper explores.
///
/// # Example
///
/// ```
/// use thermsched::{SchedulerConfig, ThermalAwareScheduler};
/// use thermsched_soc::library;
/// use thermsched_thermal::RcThermalSimulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sut = library::alpha21364_sut();
/// let simulator = RcThermalSimulator::from_floorplan(sut.floorplan())?;
/// let config = SchedulerConfig::new(165.0, 50.0)?;
/// let scheduler = ThermalAwareScheduler::new(&sut, &simulator, config)?;
/// let outcome = scheduler.schedule()?;
/// assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
/// assert!(outcome.max_temperature < 165.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ThermalAwareScheduler<'a, S: ThermalBackend + ?Sized> {
    sut: &'a SystemUnderTest,
    simulator: &'a S,
    /// Owned when [`ThermalAwareScheduler::new`] builds it, borrowed when
    /// the [`crate::Engine`] lends its prebuilt model — the facade must not
    /// pay a model clone per run.
    model: Cow<'a, SessionThermalModel>,
    config: SchedulerConfig,
    /// Online context (power-trace shape and/or warm start), borrowed from
    /// the caller; `None` for the classic offline run. Kept out of
    /// [`SchedulerConfig`] so the config stays `Copy`.
    online: Option<&'a OnlineContext>,
    /// Span recorder for the phase-1/phase-2 seams; disabled (free) unless
    /// [`ThermalAwareScheduler::with_tracer`] installs an enabled handle.
    tracer: Tracer,
}

impl<'a, S: ThermalBackend + ?Sized> ThermalAwareScheduler<'a, S> {
    /// Creates a scheduler whose guidance model is built from the default
    /// package description.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::InvalidConfig`] if the configuration is invalid.
    /// * [`ScheduleError::CoreCountMismatch`] if the simulator does not model
    ///   the same number of blocks as the system under test.
    pub fn new(
        sut: &'a SystemUnderTest,
        simulator: &'a S,
        config: SchedulerConfig,
    ) -> Result<Self> {
        let model = SessionThermalModel::new(sut, &PackageConfig::default(), config.session_model)?;
        Self::with_model(sut, simulator, config, Cow::Owned(model))
    }

    /// Creates a scheduler with an explicitly-built guidance model (use this
    /// when the simulator was built with a non-default package so that model
    /// and validator stay consistent). The model is owned or borrowed: the
    /// [`crate::Engine`] lends its prebuilt model, so a run pays no clone.
    ///
    /// # Errors
    ///
    /// Same as [`ThermalAwareScheduler::new`].
    pub fn with_model(
        sut: &'a SystemUnderTest,
        simulator: &'a S,
        config: SchedulerConfig,
        model: Cow<'a, SessionThermalModel>,
    ) -> Result<Self> {
        config.validate()?;
        if simulator.block_count() != sut.core_count() {
            return Err(ScheduleError::CoreCountMismatch {
                sut: sut.core_count(),
                simulator: simulator.block_count(),
            });
        }
        Ok(ThermalAwareScheduler {
            sut,
            simulator,
            model,
            config,
            online: None,
            tracer: Tracer::disabled(),
        })
    }

    /// Attaches an [`OnlineContext`]: every candidate validation then runs
    /// the context's materialised power trace (warm-started when the
    /// context carries a temperature vector). Its results depend on the
    /// context, so the run reuses them within itself only and leaves any
    /// shared store untouched, which holds constant-power results alone. An
    /// empty context is normalised away and behaves exactly like
    /// [`ThermalAwareScheduler::schedule`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] if the warm-start vector's length
    /// differs from the system's core count.
    pub fn with_online(mut self, online: &'a OnlineContext) -> Result<Self> {
        online.check_core_count(self.sut.core_count())?;
        self.online = (!online.is_empty()).then_some(online);
        Ok(self)
    }

    /// Installs a span recorder; phase-1 characterisation, phase-2 session
    /// generation and the shared-store probe/publish batches record spans
    /// into it. A disabled tracer (the default) costs nothing.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The configuration this scheduler runs with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Borrows the guidance session thermal model.
    pub fn session_model(&self) -> &SessionThermalModel {
        &self.model
    }
}

impl<'a, S: ThermalBackend + ?Sized> ThermalAwareScheduler<'a, S> {
    /// Validates one candidate session: the classic constant-power
    /// simulation offline, or a trace simulation (materialised shape,
    /// optional warm start) when an [`OnlineContext`] is active.
    fn validate(&self, session: &TestSession) -> Result<SessionThermalResult> {
        let (power, duration) = (session.power_map(self.sut)?, session.duration());
        Ok(match self.online {
            None => self.simulator.simulate_session(&power, duration)?,
            Some(context) => {
                let trace = context.session_trace(&power, duration)?;
                self.simulator
                    .simulate_trace(&trace, context.warm_start())?
            }
        })
    }

    /// Phase 1 (lines 1–7): every core tested alone, in core order. With a
    /// shared store, a characterisation an earlier run published is read
    /// as it stands (counted as one warm hit per core); otherwise every
    /// core is simulated, fanned out across the machine with scoped
    /// threads, and a shared store keeps the first one published.
    fn characterise_cores<'s>(
        &self,
        shared: Option<&'s SessionCacheHandle>,
        warm_cache_hits: &mut usize,
    ) -> Result<Cow<'s, [SessionThermalResult]>> {
        let n = self.sut.core_count();
        if let Some(shared) = shared {
            let mut probe = self.tracer.span("store.probe");
            probe.attr("keys", n);
            let held = shared.characterisation(n);
            // Warmth depends on what earlier runs published — observed.
            probe.attr_observed("hits", held.map_or(0, <[_]>::len));
            drop(probe);
            if let Some(held) = held {
                *warm_cache_hits += n;
                self.tracer
                    .span("store.publish")
                    .attr_observed("entries", 0usize);
                return Ok(Cow::Borrowed(held));
            }
        }
        let cores: Vec<usize> = (0..n).collect();
        let results = crate::parallel::parallel_map_ordered(&cores, |core| {
            self.validate(&TestSession::new([core], self.sut))
        })
        .into_iter()
        .collect::<Result<Vec<SessionThermalResult>>>()?;
        Ok(match shared {
            Some(shared) => {
                let mut publish = self.tracer.span("store.publish");
                publish.attr_observed("entries", n);
                Cow::Borrowed(shared.characterise(results))
            }
            None => Cow::Owned(results),
        })
    }

    /// Runs Algorithm 1 and returns the generated schedule together with its
    /// cost metrics.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::CoreLevelViolation`] if a core overheats even when
    ///   tested alone and the policy is [`CoreViolationPolicy::Fail`].
    /// * [`ScheduleError::IterationBudgetExhausted`] if the iteration budget
    ///   runs out before every core is scheduled.
    /// * [`ScheduleError::Thermal`] if a validating simulation fails.
    pub fn schedule(&self) -> Result<ScheduleOutcome> {
        self.run(None, None)
    }

    /// Runs Algorithm 1 with an optional shared session store and an
    /// optional cooperative checkpoint: the one run path behind
    /// [`ThermalAwareScheduler::schedule`] and every [`crate::Engine`] run.
    ///
    /// With `shared`, results already cached by earlier runs against the
    /// same backend are reused (counted in
    /// [`ScheduleOutcome::warm_cache_hits`]), and every fresh simulation is
    /// published back for later runs: phase 1 reads the store's
    /// characterisation or publishes the one it simulated, and phase-2
    /// candidates go in one batched store operation at end-of-run (so a
    /// cold run pays `O(1)` lock round trips, not one per candidate).
    /// Phase 2 reads every single-core candidate from the characterisation.
    /// The schedule is identical to an uncached run — the
    /// simulators are deterministic — and the paper's `simulation_effort`
    /// metric counts attempts either way. The store must only be shared
    /// between runs that use the same backend and system under test (keys
    /// are core sets); the [`crate::Engine`] facade enforces this by owning
    /// one handle per backend. A run with an online context ignores
    /// `shared` (see [`ThermalAwareScheduler::with_online`]).
    ///
    /// With `checkpoint`, the run consults it after phase-1
    /// characterisation and before every phase-2 iteration. When it breaks,
    /// the run stops before its next simulation and returns
    /// [`ScheduleError::Interrupted`] — *after* flushing everything it
    /// already simulated to `shared`, exactly like a failing run.
    ///
    /// # Errors
    ///
    /// See [`ThermalAwareScheduler::schedule`], plus
    /// [`ScheduleError::Interrupted`] when the checkpoint fires.
    pub fn run(
        &self,
        shared: Option<&SessionCacheHandle>,
        checkpoint: Option<&dyn ScheduleCheckpoint>,
    ) -> Result<ScheduleOutcome> {
        let n = self.sut.core_count();
        let mut warm_cache_hits = 0usize;
        // The shared store holds constant-power, from-ambient results only.
        let shared = shared.filter(|_| self.online.is_none());

        // ---- Phase 1 (lines 1-7): per-core characterisation. ----
        let mut phase1_span = self.tracer.span("scheduler.phase1");
        phase1_span.attr("cores", n);
        // Phase 2 reads every single-core candidate from this slice.
        let singles = self.characterise_cores(shared, &mut warm_cache_hits)?;
        let mut bcmt = Vec::with_capacity(n);
        let mut characterization_effort = 0.0;
        for (core, result) in singles.iter().enumerate() {
            bcmt.push(result.block_max_temperature(core));
            characterization_effort += result.duration;
        }
        phase1_span.attr("characterization_effort", characterization_effort);
        drop(phase1_span);

        let mut effective_limit = self.config.temperature_limit;
        for (core, &t) in bcmt.iter().enumerate() {
            if t >= effective_limit {
                match self.config.core_violation_policy {
                    CoreViolationPolicy::Fail => {
                        return Err(ScheduleError::CoreLevelViolation {
                            core,
                            bcmt: t,
                            limit: self.config.temperature_limit,
                        })
                    }
                    CoreViolationPolicy::RaiseLimit { margin } => {
                        effective_limit = effective_limit.max(t + margin);
                    }
                }
            }
        }

        // ---- Phase 2 (lines 8-29): session generation. ----
        let mut available: Vec<usize> = (0..n).collect();
        let mut weights = CoreWeights::ones(n);
        let mut schedule = TestSchedule::new();
        let mut session_records = Vec::new();
        let mut simulation_effort = 0.0;
        let mut discarded_sessions = 0usize;
        let mut cached_validations = 0usize;
        let mut max_temperature = f64::NEG_INFINITY;
        let mut final_temperatures: Option<Temperatures> = None;
        let mut iterations = 0usize;
        // The per-run memo: every multi-core validation this run made, by
        // core set.
        let mut memo: HashMap<Vec<usize>, SessionThermalResult> = HashMap::new();
        // Livelock guard for weight_factor == 1.0 (the "no adaptation"
        // ablation): remembers every discarded candidate and its hottest
        // violator so a recurring candidate is shrunk instead of being
        // re-attempted forever. Remembering only the *last* discard is not
        // enough — the greedy fill regenerates the full candidate each
        // iteration, so candidate and shrunk candidate alternate without
        // ever making progress. With the paper's factor of 1.1 the weights
        // change after every discard, so this guard never fires and the
        // algorithm behaves exactly as published.
        let mut discarded_violators: HashMap<Vec<usize>, usize> = HashMap::new();
        // Fresh phase-2 simulations destined for the shared store. They are
        // published in ONE batched store operation after the loop instead of
        // one lock round trip per candidate, which is what a cold run would
        // otherwise pay. The clone itself is unavoidable either way (the
        // per-run cache needs the result too).
        // The loop runs inside an immediately-invoked closure so that a
        // FAILING run (exhausted iteration budget, simulation error) still
        // flushes what it simulated: a batch service isolates failed jobs
        // and keeps going, and sibling jobs on the same system must not
        // re-pay simulations a failed run already did.
        let mut pending_publish: Vec<(Vec<usize>, SessionThermalResult)> = Vec::new();

        let mut phase2_span = self.tracer.span("scheduler.phase2");
        let generation: Result<()> = (|| {
            while !available.is_empty() {
                // Cooperative checkpoint: consulted before every simulation
                // batch with a purely simulated-domain snapshot (the first
                // call, right after phase 1, sees zero iterations and zero
                // validation effort). Interrupting here — inside the closure
                // — still flushes `pending_publish` below, so an interrupted
                // run leaves the shared store as warm as a failed one.
                if let Some(checkpoint) = checkpoint {
                    let progress = ScheduleProgress {
                        iterations,
                        committed_sessions: schedule.session_count(),
                        simulation_effort,
                        characterization_effort,
                    };
                    if let std::ops::ControlFlow::Break(reason) = checkpoint.check(&progress) {
                        return Err(ScheduleError::Interrupted {
                            reason,
                            spent_effort: progress.spent_effort(),
                        });
                    }
                }
                iterations += 1;
                if iterations > self.config.max_iterations {
                    return Err(ScheduleError::IterationBudgetExhausted {
                        iterations: iterations - 1,
                        remaining: available.len(),
                    });
                }

                // Lines 9-15: greedily fill a session under the STC limit.
                let ordered = self.order_candidates(&available, &weights);
                let mut fill = SessionFill::new(&self.model, &weights);
                for &candidate in &ordered {
                    fill.try_add(candidate, self.config.stc_limit);
                }
                let mut active = fill.into_cores();
                if active.is_empty() {
                    // Every remaining core exceeds the STC limit on its own. The
                    // paper does not cover this corner; to guarantee progress we
                    // schedule the least-characteristic core alone (it cannot
                    // violate TL because its BCMT was checked in phase 1).
                    let fallback = ordered
                        .iter()
                        .map(|&c| (self.model.session_characteristic(&[c], &weights), c))
                        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite characteristics"))
                        .expect("available set is non-empty")
                        .1;
                    active.push(fallback);
                }

                // Livelock guard (see above): only possible when the weights are
                // frozen, i.e. weight_factor == 1.0. Shrinking chains terminate
                // because singletons never violate (their BCMT passed phase 1).
                if self.config.weight_factor == 1.0 {
                    while active.len() > 1 {
                        let key = session_key(active.iter().copied());
                        match discarded_violators.get(&key) {
                            Some(&violator) => active.retain(|&c| c != violator),
                            None => break,
                        }
                    }
                }

                // Lines 16-23: validate the candidate session thermally. A
                // single core is read from phase 1's characterisation; the
                // per-run memo turns re-attempted candidates into lookups,
                // and the shared store (when present) extends that to
                // candidates first attempted by earlier runs. Either way the
                // attempt accrues the full session duration of simulation
                // effort, so the paper's cost metric is unaffected.
                let session = TestSession::new(active.iter().copied(), self.sut);
                // Any larger candidate is keyed by its core set.
                let key = (active.len() > 1).then(|| session_key(session.cores()));
                let result = match &key {
                    None => {
                        cached_validations += 1;
                        &singles[active[0]]
                    }
                    Some(key) => {
                        if memo.contains_key(key) {
                            cached_validations += 1;
                        } else if let Some(result) = shared.and_then(|s| s.lookup(key)) {
                            cached_validations += 1;
                            warm_cache_hits += 1;
                            memo.insert(key.clone(), result);
                        } else {
                            let result = self.validate(&session)?;
                            if shared.is_some() {
                                pending_publish.push((key.clone(), result.clone()));
                            }
                            memo.insert(key.clone(), result);
                        }
                        &memo[key]
                    }
                };
                simulation_effort += session.duration();

                let violators: Vec<usize> = active
                    .iter()
                    .copied()
                    .filter(|&c| result.block_max_temperature(c) >= effective_limit)
                    .collect();
                let session_max = active
                    .iter()
                    .map(|&c| result.block_max_temperature(c))
                    .fold(f64::NEG_INFINITY, f64::max);
                let hottest_violator = violators.iter().copied().max_by(|&a, &b| {
                    result
                        .block_max_temperature(a)
                        .partial_cmp(&result.block_max_temperature(b))
                        .expect("finite temperatures")
                });

                if violators.is_empty() {
                    // Lines 24-27: commit the session. A committed core set can
                    // never recur, so a memo entry moves straight into the
                    // record; a single core's result is cloned from the slice.
                    let result = match &key {
                        None => singles[active[0]].clone(),
                        Some(key) => memo.remove(key).expect("candidate was just validated"),
                    };
                    max_temperature = max_temperature.max(session_max);
                    available.retain(|c| !active.contains(c));
                    final_temperatures = Some(result.final_temperatures);
                    session_records.push(SessionRecord {
                        block_max_temperatures: result.max_block_temperatures,
                        max_temperature: session_max,
                    });
                    schedule.push(session);
                } else {
                    // Lines 19-22: discard and penalise the violators. The
                    // result stays cached: a recurring candidate (common while
                    // the weights settle) is served without re-simulation.
                    discarded_sessions += 1;
                    let hottest_violator =
                        hottest_violator.expect("violators are non-empty in this branch");
                    // `key` is the sorted candidate set already; the guard
                    // never looks a single core up.
                    if let Some(key) = key {
                        discarded_violators.insert(key, hottest_violator);
                    }
                    for v in violators {
                        weights.multiply(v, self.config.weight_factor);
                    }
                }
            }
            Ok(())
        })();

        if let Some(shared) = shared {
            let mut publish = self.tracer.span("store.publish");
            publish.attr_observed("entries", pending_publish.len());
            shared.store_batch(pending_publish);
        }
        // Every phase-2 attribute below is a pure function of the inputs
        // (iteration counts, effort, interrupt reasons from simulated-domain
        // budgets) *except* the cache counters, which depend on what
        // concurrent runs published — those stay observed.
        phase2_span.attr("iterations", iterations);
        phase2_span.attr("committed_sessions", schedule.session_count());
        phase2_span.attr("discarded_sessions", discarded_sessions);
        phase2_span.attr("simulation_effort", simulation_effort);
        phase2_span.attr_observed("cached_validations", cached_validations);
        phase2_span.attr_observed("warm_cache_hits", warm_cache_hits);
        if let Err(ScheduleError::Interrupted { reason, .. }) = &generation {
            phase2_span.attr(
                "interrupt",
                match reason {
                    crate::InterruptReason::DeadlineExceeded { .. } => "deadline",
                    crate::InterruptReason::Cancelled => "cancelled",
                },
            );
        }
        drop(phase2_span);
        generation?;

        Ok(ScheduleOutcome {
            schedule,
            session_records,
            simulation_effort,
            characterization_effort,
            discarded_sessions,
            cached_validations,
            warm_cache_hits,
            max_temperature,
            bcmt,
            effective_temperature_limit: effective_limit,
            final_weights: weights,
            final_temperatures,
        })
    }

    /// Orders the available cores according to the configured strategy.
    fn order_candidates(&self, available: &[usize], weights: &CoreWeights) -> Vec<usize> {
        let mut ordered = available.to_vec();
        match self.config.ordering {
            CoreOrdering::AsGiven => {}
            CoreOrdering::DescendingPower => {
                ordered.sort_by(|&a, &b| {
                    self.sut
                        .test_power(b)
                        .partial_cmp(&self.sut.test_power(a))
                        .expect("finite powers")
                });
            }
            CoreOrdering::DescendingCharacteristic | CoreOrdering::AscendingCharacteristic => {
                // Precompute each core's characteristic once: evaluating it
                // inside the comparator costs an equivalent-resistance
                // reduction per comparison, i.e. O(n² · log n) per ordering.
                let mut keyed: Vec<(f64, usize)> = ordered
                    .iter()
                    .map(|&c| (self.model.session_characteristic(&[c], weights), c))
                    .collect();
                keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite STC"));
                if self.config.ordering == CoreOrdering::DescendingCharacteristic {
                    keyed.reverse();
                }
                ordered.clear();
                ordered.extend(keyed.into_iter().map(|(_, c)| c));
            }
        }
        ordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_soc::library;
    use thermsched_thermal::{RcThermalSimulator, ThermalSimulator};

    fn setup() -> (thermsched_soc::SystemUnderTest, RcThermalSimulator) {
        let sut = library::alpha21364_sut();
        let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
        (sut, sim)
    }

    #[test]
    fn schedules_every_core_exactly_once() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let scheduler = ThermalAwareScheduler::new(&sut, &sim, config).unwrap();
        let outcome = scheduler.schedule().unwrap();
        assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
        assert_eq!(outcome.session_records.len(), outcome.session_count());
        assert!(outcome.schedule_length() >= 1.0);
        assert!(outcome.schedule_length() <= sut.sequential_test_time());
    }

    #[test]
    fn committed_sessions_respect_the_temperature_limit() {
        let (sut, sim) = setup();
        for tl in [145.0, 165.0, 185.0] {
            let config = SchedulerConfig::new(tl, 60.0).unwrap();
            let scheduler = ThermalAwareScheduler::new(&sut, &sim, config).unwrap();
            let outcome = scheduler.schedule().unwrap();
            assert!(
                outcome.max_temperature < tl,
                "TL={tl}: max temperature {:.1} violates the limit",
                outcome.max_temperature
            );
            for record in &outcome.session_records {
                assert!(record.max_temperature < tl);
            }
        }
    }

    #[test]
    fn simulation_effort_counts_discarded_sessions() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(150.0, 90.0).unwrap();
        let scheduler = ThermalAwareScheduler::new(&sut, &sim, config).unwrap();
        let outcome = scheduler.schedule().unwrap();
        // Effort = committed sessions + discarded attempts (1 s each here).
        let expected = outcome.schedule_length() + outcome.discarded_sessions as f64 * 1.0;
        assert!((outcome.simulation_effort - expected).abs() < 1e-9);
        assert!(outcome.effort_ratio() >= 1.0);
        assert_eq!(outcome.characterization_effort, 15.0);
    }

    #[test]
    fn tight_stcl_gives_longer_schedule_and_first_attempt_success() {
        let (sut, sim) = setup();
        let tight = SchedulerConfig::new(165.0, 20.0).unwrap();
        let loose = SchedulerConfig::new(165.0, 100.0).unwrap();
        let tight_outcome = ThermalAwareScheduler::new(&sut, &sim, tight)
            .unwrap()
            .schedule()
            .unwrap();
        let loose_outcome = ThermalAwareScheduler::new(&sut, &sim, loose)
            .unwrap()
            .schedule()
            .unwrap();
        assert!(
            tight_outcome.schedule_length() >= loose_outcome.schedule_length(),
            "tight STCL should not give a shorter schedule ({} vs {})",
            tight_outcome.schedule_length(),
            loose_outcome.schedule_length()
        );
        assert!(tight_outcome.discarded_sessions <= loose_outcome.discarded_sessions);
    }

    #[test]
    fn higher_temperature_limit_never_lengthens_the_schedule() {
        let (sut, sim) = setup();
        let low =
            ThermalAwareScheduler::new(&sut, &sim, SchedulerConfig::new(145.0, 70.0).unwrap())
                .unwrap()
                .schedule()
                .unwrap();
        let high =
            ThermalAwareScheduler::new(&sut, &sim, SchedulerConfig::new(185.0, 70.0).unwrap())
                .unwrap()
                .schedule()
                .unwrap();
        assert!(high.schedule_length() <= low.schedule_length());
    }

    #[test]
    fn bcmt_is_reported_for_every_core() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(outcome.bcmt.len(), sut.core_count());
        for &t in &outcome.bcmt {
            assert!(t > sim.ambient());
            assert!(
                t < 145.0,
                "library calibration keeps single cores below 145 C"
            );
        }
        assert_eq!(outcome.effective_temperature_limit, 165.0);
    }

    #[test]
    fn core_level_violation_fails_or_raises_limit_per_policy() {
        let (sut, sim) = setup();
        // A limit below the hottest single-core temperature triggers phase 1.
        let hottest_bcmt = {
            let config = SchedulerConfig::new(200.0, 50.0).unwrap();
            let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
                .unwrap()
                .schedule()
                .unwrap();
            outcome.bcmt.iter().cloned().fold(0.0, f64::max)
        };
        let low_limit = hottest_bcmt - 5.0;

        let fail_config = SchedulerConfig::new(low_limit, 50.0).unwrap();
        let err = ThermalAwareScheduler::new(&sut, &sim, fail_config)
            .unwrap()
            .schedule()
            .unwrap_err();
        assert!(matches!(err, ScheduleError::CoreLevelViolation { .. }));

        let raise_config = SchedulerConfig::new(low_limit, 50.0)
            .unwrap()
            .with_core_violation_policy(CoreViolationPolicy::RaiseLimit { margin: 1.0 });
        let outcome = ThermalAwareScheduler::new(&sut, &sim, raise_config)
            .unwrap()
            .schedule()
            .unwrap();
        assert!(outcome.effective_temperature_limit >= hottest_bcmt + 1.0 - 1e-9);
        assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
    }

    #[test]
    fn all_orderings_produce_complete_thermal_safe_schedules() {
        let (sut, sim) = setup();
        for ordering in CoreOrdering::ALL {
            let config = SchedulerConfig::new(160.0, 60.0)
                .unwrap()
                .with_ordering(ordering);
            let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
                .unwrap()
                .schedule()
                .unwrap();
            assert!(outcome.schedule.covers_exactly_once(sut.core_count()));
            assert!(outcome.max_temperature < 160.0);
        }
    }

    #[test]
    fn weights_are_bumped_only_when_sessions_are_discarded() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(150.0, 100.0).unwrap();
        let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .schedule()
            .unwrap();
        if outcome.discarded_sessions == 0 {
            assert_eq!(outcome.final_weights.bumped_core_count(), 0);
        } else {
            assert!(outcome.final_weights.bumped_core_count() > 0);
            assert!(outcome.final_weights.max_weight() > 1.0);
        }
    }

    #[test]
    fn shared_cache_reuses_results_across_runs_without_changing_outputs() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let scheduler = ThermalAwareScheduler::new(&sut, &sim, config).unwrap();

        let cold = scheduler.schedule().unwrap();
        assert_eq!(cold.warm_cache_hits, 0, "per-call cache is always cold");

        let cache = SessionCacheHandle::new();
        let first = scheduler.run(Some(&cache), None).unwrap();
        assert_eq!(first.warm_cache_hits, 0, "first run populates the cache");
        assert!(
            cache.len() >= sut.core_count(),
            "phase-1 singletons and every validated candidate are published"
        );

        let second = scheduler.run(Some(&cache), None).unwrap();
        assert!(
            second.warm_cache_hits >= sut.core_count(),
            "re-running warm serves at least every phase-1 characterisation \
             from the shared cache, got {}",
            second.warm_cache_hits
        );

        // Warm or cold, the deterministic simulators produce one answer.
        assert_eq!(cold.schedule, first.schedule);
        assert_eq!(first.schedule, second.schedule);
        assert_eq!(first.session_records, second.session_records);
        assert_eq!(cold.simulation_effort, second.simulation_effort);
        assert_eq!(cold.discarded_sessions, second.discarded_sessions);
        assert_eq!(cold.bcmt, second.bcmt);
    }

    #[test]
    fn empty_online_context_is_exactly_the_offline_run() {
        use crate::OnlineContext;

        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let offline = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .schedule()
            .unwrap();
        let normalised = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .with_online(&OnlineContext::new())
            .unwrap()
            .schedule()
            .unwrap();
        assert_eq!(offline, normalised);
        assert!(offline.final_temperatures.is_some());
    }

    #[test]
    fn constant_profile_reproduces_offline_results_under_online_keys() {
        use crate::{OnlineContext, TraceProfile};

        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let cache = SessionCacheHandle::new();

        let offline = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .run(Some(&cache), None)
            .unwrap();
        let offline_stats = cache.stats();
        let offline_entries = cache.len();

        // A constant trace shape is the same physics, so every result is
        // bit-identical — but it is an online run, so it neither reads nor
        // writes the shared store.
        let online = OnlineContext::new().with_trace(TraceProfile::constant());
        let traced = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .with_online(&online)
            .unwrap()
            .run(Some(&cache), None)
            .unwrap();
        assert_eq!(traced.schedule, offline.schedule);
        assert_eq!(traced.session_records, offline.session_records);
        assert_eq!(traced.final_temperatures, offline.final_temperatures);
        assert_eq!(
            traced.warm_cache_hits, 0,
            "an online run must not be served the warm offline entries"
        );
        assert_eq!(cache.stats(), offline_stats, "the store saw no traffic");
        assert_eq!(cache.len(), offline_entries);

        // Re-running the same online context is identical, and still cold.
        let again = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .with_online(&online)
            .unwrap()
            .run(Some(&cache), None)
            .unwrap();
        assert_eq!(again, traced);
        assert_eq!(cache.stats(), offline_stats);
    }

    #[test]
    fn traced_warm_started_runs_are_deterministic_and_validated() {
        use crate::{OnlineContext, TraceProfile, TraceSegment};

        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let profile = TraceProfile::new(vec![
            TraceSegment::new(1.0, 0.5),
            TraceSegment::new(0.25, 0.25),
            TraceSegment::new(1.0, 0.25),
        ])
        .unwrap();
        let warm = vec![60.0; sut.core_count()];
        let online = OnlineContext::new()
            .with_trace(profile)
            .with_warm_start(warm)
            .unwrap();

        let run = |online: &OnlineContext| {
            ThermalAwareScheduler::new(&sut, &sim, config)
                .unwrap()
                .with_online(online)
                .unwrap()
                .schedule()
                .unwrap()
        };
        let first = run(&online);
        let second = run(&online);
        assert_eq!(first, second, "online runs are fully deterministic");
        assert!(first.schedule.covers_exactly_once(sut.core_count()));
        assert!(first.max_temperature < 165.0);
        let finals = first.final_temperatures.as_ref().unwrap();
        assert_eq!(finals.block_count(), sut.core_count());

        // A warm start of the wrong length is rejected up front.
        let short = OnlineContext::new().with_warm_start(vec![60.0]).unwrap();
        let err = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .with_online(&short)
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::InvalidConfig {
                name: "warm start temperature count",
                ..
            }
        ));
    }

    #[test]
    fn effort_ratio_and_cached_fraction_are_defined_for_empty_outcomes() {
        let empty = ScheduleOutcome {
            schedule: TestSchedule::new(),
            session_records: Vec::new(),
            simulation_effort: 0.0,
            characterization_effort: 0.0,
            discarded_sessions: 0,
            cached_validations: 0,
            warm_cache_hits: 0,
            max_temperature: f64::NEG_INFINITY,
            bcmt: Vec::new(),
            effective_temperature_limit: 165.0,
            final_weights: CoreWeights::ones(0),
            final_temperatures: None,
        };
        // Zero schedule length and zero effort must not yield NaN/inf.
        assert_eq!(empty.effort_ratio(), 1.0);
        assert_eq!(empty.cached_fraction(), 0.0);
        assert!(empty.effort_ratio().is_finite());
        assert!(empty.cached_fraction().is_finite());
    }

    #[test]
    fn cached_fraction_is_bounded_on_real_runs() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(150.0, 90.0).unwrap();
        let outcome = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .schedule()
            .unwrap();
        let f = outcome.cached_fraction();
        assert!((0.0..=1.0).contains(&f), "cached fraction {f} out of range");
        assert!(outcome.effort_ratio() >= 1.0);
    }

    #[test]
    fn mismatched_simulator_is_rejected() {
        let sut = library::alpha21364_sut();
        let other = library::figure1_sut();
        let sim = RcThermalSimulator::from_floorplan(other.floorplan()).unwrap();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let err = ThermalAwareScheduler::new(&sut, &sim, config).unwrap_err();
        assert!(matches!(err, ScheduleError::CoreCountMismatch { .. }));
    }

    #[test]
    fn failed_runs_still_publish_their_simulations() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(150.0, 100.0)
            .unwrap()
            .with_max_iterations(1);
        let scheduler = ThermalAwareScheduler::new(&sut, &sim, config).unwrap();
        let cache = SessionCacheHandle::new();
        let err = scheduler.run(Some(&cache), None).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::IterationBudgetExhausted { .. }
        ));
        // The failed run characterised every core AND validated one
        // multi-core candidate; all of it must reach the shared store so
        // sibling runs don't re-pay the work.
        assert!(
            cache.len() > sut.core_count(),
            "expected phase-1 singletons plus the phase-2 candidate, got {}",
            cache.len()
        );
    }

    #[test]
    fn checkpoint_budget_interrupts_deterministically() {
        use crate::{EffortBudget, InterruptReason};

        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let scheduler = ThermalAwareScheduler::new(&sut, &sim, config).unwrap();
        let full = scheduler.schedule().unwrap();
        let total = full.simulation_effort + full.characterization_effort;

        // A budget beyond the full run's effort never fires and changes
        // nothing about the outcome.
        let cache = SessionCacheHandle::new();
        let outcome = scheduler
            .run(Some(&cache), Some(&EffortBudget::new(total + 1.0)))
            .unwrap();
        assert_eq!(outcome.schedule, full.schedule);
        assert_eq!(outcome.simulation_effort, full.simulation_effort);

        // A budget below the phase-1 cost fires before the first phase-2
        // simulation; the spent effort is exactly the characterisation pass
        // (15 cores × 1 s), deterministically.
        let err = scheduler
            .run(None, Some(&EffortBudget::new(1.0)))
            .unwrap_err();
        match err {
            ScheduleError::Interrupted {
                reason,
                spent_effort,
            } => {
                assert_eq!(reason, InterruptReason::DeadlineExceeded { budget: 1.0 });
                assert_eq!(spent_effort, 15.0);
            }
            other => panic!("expected an interrupted run, got {other:?}"),
        }
    }

    #[test]
    fn interrupted_runs_flush_their_simulations() {
        use crate::InterruptReason;
        use std::ops::ControlFlow;

        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let scheduler = ThermalAwareScheduler::new(&sut, &sim, config).unwrap();
        let cache = SessionCacheHandle::new();
        let after_one_iteration = |p: &ScheduleProgress| {
            if p.iterations >= 1 {
                ControlFlow::Break(InterruptReason::Cancelled)
            } else {
                ControlFlow::Continue(())
            }
        };
        let err = scheduler
            .run(Some(&cache), Some(&after_one_iteration))
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Interrupted {
                reason: InterruptReason::Cancelled,
                ..
            }
        ));
        // The cancelled run characterised every core and validated one
        // candidate; all of it must reach the shared store.
        assert!(
            cache.len() > sut.core_count(),
            "expected phase-1 singletons plus the first phase-2 candidate, got {}",
            cache.len()
        );
    }

    #[test]
    fn tracer_records_phase_spans_with_deterministic_structure() {
        use thermsched_obs::{ClockKind, Tracer, TracerConfig};

        let (sut, sim) = setup();
        let config = SchedulerConfig::new(165.0, 50.0).unwrap();
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        let scheduler = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .with_tracer(tracer.for_job(0));
        let cache = SessionCacheHandle::new();
        let outcome = scheduler.run(Some(&cache), None).unwrap();

        let mut spans = tracer.drain();
        spans.sort_by_key(|s| s.seq);
        let shape: Vec<(&str, Option<u64>)> =
            spans.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("scheduler.phase1", None),
                ("store.probe", Some(0)),
                ("store.publish", Some(0)),
                ("scheduler.phase2", None),
                ("store.publish", Some(3)),
            ]
        );
        let phase2 = &spans[3];
        let structural: Vec<&str> = phase2.structural_attrs().map(|a| a.key.as_str()).collect();
        assert_eq!(
            structural,
            vec![
                "iterations",
                "committed_sessions",
                "discarded_sessions",
                "simulation_effort"
            ]
        );
        let committed = phase2
            .structural_attrs()
            .find(|a| a.key == "committed_sessions")
            .unwrap();
        assert_eq!(
            committed.value,
            thermsched_obs::AttrValue::Unsigned(outcome.session_count() as u64)
        );
        assert_eq!(tracer.dropped_spans(), 0);
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let (sut, sim) = setup();
        let config = SchedulerConfig::new(150.0, 100.0)
            .unwrap()
            .with_max_iterations(1);
        let result = ThermalAwareScheduler::new(&sut, &sim, config)
            .unwrap()
            .schedule();
        // Either the first session succeeded and the next iteration is needed
        // (budget exhausted) — or with a single iteration the whole system
        // happened to fit one session, which the STC limit prevents here.
        assert!(matches!(
            result,
            Err(ScheduleError::IterationBudgetExhausted { .. })
        ));
    }
}
