//! The concurrent batch runner: a job queue drained by a pool of scoped
//! worker threads with per-job panic isolation.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use thermsched::OperatorKey;
use thermsched_obs::{MetricsRegistry, Tracer};
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, RcThermalSimulator, ThermalBackend,
    TransientConfig, TransientMethod,
};

use crate::executor::{Executor, Mode};
use crate::{
    ClockKind, Corpus, FaultPlan, JobHandle, Result, RetryPolicy, Scenario, ServiceError,
    ServiceReport,
};

/// Which thermal backend validates every job of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendKind {
    /// The block-level RC-compact simulator with the precomputed-operator
    /// fast transient path — one node per core, the service default.
    #[default]
    RcCompact,
    /// The fine-grained grid simulator on its full-fidelity transient path:
    /// each core is resolved into `cells_per_core × cells_per_core` thermal
    /// cells and sessions integrate the cell network with implicit Euler
    /// over a banded factorisation shared via the operator cache.
    GridTransient {
        /// Cells per core edge; a scenario on a `c × r` core grid runs at
        /// grid resolution `(c · cells_per_core) × (r · cells_per_core)`.
        cells_per_core: usize,
    },
    /// The grid simulator on the Peaceman–Rachford ADI path
    /// ([`TransientMethod::Adi`]): `O(n)` per step through shared
    /// tridiagonal sweeps instead of `O(n · b)` banded solves, for
    /// resolutions where the banded factorisation stops being affordable.
    /// Session maxima are tracked per step (ADI iterates are not provably
    /// monotone), so this kind never uses the fast path or the multi-RHS
    /// batcher — its leverage is per-step cost at high resolution.
    GridAdi {
        /// Cells per core edge, as for [`BackendKind::GridTransient`].
        cells_per_core: usize,
        /// Integration step in seconds (part of the operator-cache key: two
        /// ADI backends with different steps never alias).
        time_step: f64,
    },
}

impl BackendKind {
    /// Short label for reports (`"rc-compact"`, `"grid-transient(4)"`,
    /// `"grid-adi(4)"`).
    pub fn label(self) -> String {
        match self {
            BackendKind::RcCompact => "rc-compact".to_owned(),
            BackendKind::GridTransient { cells_per_core } => {
                format!("grid-transient({cells_per_core})")
            }
            BackendKind::GridAdi { cells_per_core, .. } => {
                format!("grid-adi({cells_per_core})")
            }
        }
    }

    /// The transient configuration this kind builds its backend with — used
    /// by both [`BackendKind::key`] and the builder, so the cache key can
    /// never drift from what construction actually depends on.
    fn transient_config(self) -> TransientConfig {
        match self {
            BackendKind::RcCompact | BackendKind::GridTransient { .. } => {
                TransientConfig::default()
            }
            BackendKind::GridAdi { time_step, .. } => TransientConfig {
                time_step,
                method: TransientMethod::Adi,
            },
        }
    }

    /// The cell resolution of this kind's grid over one scenario, or `None`
    /// for the block-level RC model.
    fn resolution(self, scenario: &Scenario) -> Option<(usize, usize)> {
        match self {
            BackendKind::RcCompact => None,
            BackendKind::GridTransient { cells_per_core }
            | BackendKind::GridAdi { cells_per_core, .. } => Some((
                scenario.grid.0 * cells_per_core,
                scenario.grid.1 * cells_per_core,
            )),
        }
    }

    /// The operator-cache identity of this kind over one scenario: exactly
    /// what the backend is built from. That is the kind label and transient
    /// method, the cell resolution (grid kinds), the time step's bits, and
    /// every block rect of the floorplan as f64 bits in block order — not
    /// the scenario's core size, nor its grid label beyond the resolution:
    /// decoding ties the label to the core count only, not to the rects.
    /// Public so external measurement and tooling share the runner's exact
    /// key instead of reimplementing it.
    pub fn key(self, scenario: &Scenario) -> OperatorKey {
        let transient = self.transient_config();
        let (columns, rows) = self.resolution(scenario).unwrap_or_default();
        let rects = scenario.sut.floorplan().blocks().iter().flat_map(|block| {
            let rect = block.rect();
            [rect.x, rect.y, rect.width, rect.height].map(f64::to_bits)
        });
        OperatorKey::new(
            format!("{}:{:?}", self.label(), transient.method),
            [columns as u64, rows as u64, transient.time_step.to_bits()]
                .into_iter()
                .chain(rects),
        )
    }

    /// Builds the backend for one scenario.
    pub(crate) fn build(self, scenario: &Scenario) -> Result<Arc<dyn ThermalBackend>> {
        let floorplan = scenario.sut.floorplan();
        match self.resolution(scenario) {
            None => Ok(Arc::new(RcThermalSimulator::from_floorplan(floorplan)?)),
            Some((columns, rows)) => Ok(Arc::new(GridThermalSimulator::with_config(
                floorplan,
                &PackageConfig::default(),
                GridResolution::new(columns, rows)?,
                self.transient_config(),
            )?)),
        }
    }

    /// Whether this kind's backend batches same-duration sessions through
    /// the multi-RHS banded fast path — the gate for the runner's
    /// same-shape prewarmer. Kinds whose batched path is just a loop of
    /// single sessions (rc-compact's precomputed operator, ADI's tracked
    /// stepping) opt out: with no shared multi-RHS advance, a prewarm
    /// would only move job-loop work into set-up.
    pub(crate) fn batches_sessions(self) -> bool {
        matches!(self, BackendKind::GridTransient { .. })
    }
}

/// Configuration of a [`ServiceRunner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads draining the job queue. The same-shape prewarm (see
    /// [`Self::backend`]) splits each group over at most this many threads
    /// (at least one) before the first job runs.
    pub workers: usize,
    /// Thermal backend validating every job. For a kind that batches
    /// ([`BackendKind::GridTransient`]) the runner fills each scenario's
    /// phase-1 characterisation before the first job: every scenario's
    /// single-core sessions are grouped by [`BackendKind::key`] and
    /// duration, and each group's lanes are split into contiguous chunks
    /// over up to [`Self::workers`] threads (at least one), each advancing
    /// through the backend's multi-RHS solve in one pass. The multi-RHS
    /// kernels are bit-identical per lane to the single solves in any
    /// split, so per-job results do not change.
    pub backend: BackendKind,
    /// Deterministic fault-injection plan (inert by default): seeded per
    /// (job, attempt) panics, retryable errors, delays and store poisoning.
    pub faults: FaultPlan,
    /// Retry policy for retryable outcomes (disabled by default): seeded
    /// exponential backoff, attempt accounting in
    /// [`crate::JobMetrics::attempts`].
    pub retry: RetryPolicy,
    /// Clock injected delays, backoffs and latency run against. The default
    /// [`ClockKind::Wall`] sleeps and measures real time;
    /// [`ClockKind::Virtual`] accrues deterministic virtual seconds instead,
    /// which is what fault-injection tests run under.
    pub clock: ClockKind,
    /// Default per-job effort budget in *simulated* seconds, enforced at
    /// the scheduler's cooperative checkpoints: a job whose spent thermal
    /// effort exceeds the budget ends as
    /// [`JobOutcome::DeadlineExceeded`](crate::JobOutcome::DeadlineExceeded).
    /// Effort is a pure function of the corpus, so deadline outcomes are as
    /// deterministic as completed ones. `None` (the default) disables
    /// deadlines; [`crate::Submission::deadline_effort`] overrides per job.
    pub deadline_effort: Option<f64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: BackendKind::default(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::disabled(),
            clock: ClockKind::Wall,
            deadline_effort: None,
        }
    }
}

impl ServiceConfig {
    /// Validates every field; shared by [`ServiceRunner::new`] and the
    /// streaming [`crate::Frontend`].
    pub(crate) fn validate(&self) -> Result<()> {
        match self.backend {
            BackendKind::GridTransient { cells_per_core: 0 }
            | BackendKind::GridAdi {
                cells_per_core: 0, ..
            } => {
                return Err(ServiceError::InvalidSpec {
                    field: "cells_per_core",
                    problem: "must be at least 1",
                });
            }
            BackendKind::GridAdi { time_step, .. }
                if !(time_step > 0.0 && time_step.is_finite()) =>
            {
                return Err(ServiceError::InvalidSpec {
                    field: "time_step",
                    problem: "must be positive and finite",
                });
            }
            _ => {}
        }
        self.faults.validate()?;
        self.retry.validate()?;
        if let Some(budget) = self.deadline_effort {
            if !(budget > 0.0 && budget.is_finite()) {
                return Err(ServiceError::InvalidSpec {
                    field: "deadline_effort",
                    problem: "must be positive and finite",
                });
            }
        }
        Ok(())
    }
}

/// Drives a [`Corpus`] through a pool of worker threads.
///
/// A batch run is the streaming executor's closed case: every job of the
/// corpus is queued in corpus order, the queue is closed, and the worker
/// threads drain it. Execution model:
///
/// * Workers take a queued job whenever they free up, so they stay busy
///   however job costs vary across scenarios.
/// * Dispatch is scenario-affine: a freed worker takes the next queued job
///   of the scenario it just ran, else the first job of a scenario no other
///   worker is running, else the first queued job. A scenario's jobs then
///   run one after another on one worker, each finding what the one before
///   published in the scenario's store, instead of side by side on two
///   workers that both miss it and simulate the same sessions twice.
/// * Each scenario's backend, guidance model and session store are built
///   once and shared by every worker: a job schedules through an
///   [`thermsched::Engine`] that borrows them. Cross-job cache hits on
///   identical core-set keys in the shared store are the service's main
///   leverage. The worker that finishes a scenario's last job releases its
///   store entries and model, so a run holds the state of the scenarios
///   still in flight, not of the whole corpus; the store counters stay in
///   the report.
/// * A job that returns an error or panics is isolated: the outcome is
///   recorded as [`crate::JobOutcome::Failed`] /
///   [`crate::JobOutcome::Panicked`] and the batch continues (the shared
///   stores recover from lock poisoning).
/// * Results are reported in corpus job order whatever the interleaving,
///   and every per-job metric is a pure function of the corpus: the
///   [`crate::JobResult`]s are the deterministic part of a report, the
///   [`crate::ServiceStats`] the timing-dependent part.
///
/// # Example
///
/// ```
/// use thermsched_service::{ScenarioSpec, ServiceConfig, ServiceRunner};
///
/// # fn main() -> Result<(), thermsched_service::ServiceError> {
/// let corpus = ScenarioSpec {
///     scenarios: 2,
///     ..ScenarioSpec::default()
/// }
/// .build()?;
/// let runner = ServiceRunner::new(ServiceConfig {
///     workers: 2,
///     ..ServiceConfig::default()
/// })?;
/// let report = runner.run(&corpus)?;
/// assert_eq!(report.jobs().len(), corpus.jobs().len());
/// assert_eq!(report.stats().completed, corpus.jobs().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServiceRunner {
    config: ServiceConfig,
}

impl ServiceRunner {
    /// Creates a runner.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for zero workers, and for out-of-range
    /// backend, fault, retry or deadline parameters.
    pub fn new(config: ServiceConfig) -> Result<Self> {
        if config.workers == 0 {
            return Err(ServiceError::InvalidSpec {
                field: "workers",
                problem: "must be at least 1",
            });
        }
        config.validate()?;
        Ok(ServiceRunner { config })
    }

    /// The configuration this runner uses.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Runs every job of the corpus and aggregates the report.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Schedule`] if a scenario's thermal backend cannot be
    /// constructed (per-job scheduling failures are *not* errors here; they
    /// are isolated into the job's [`crate::JobOutcome`]).
    pub fn run(&self, corpus: &Corpus) -> Result<ServiceReport> {
        self.run_traced(corpus, &Tracer::disabled(), &MetricsRegistry::new())
    }

    /// [`Self::run`] with observability attached: every job records a span
    /// tree into `tracer` (root `"job"`, one `"attempt"` per try, with the
    /// engine and scheduler phases nested below), backend construction and
    /// prewarming record run-level spans, and the run's metrics — every
    /// [`crate::ServiceStats`] counter plus the per-job latency histogram —
    /// are absorbed into `registry`. With a disabled tracer this is exactly
    /// [`Self::run`] — span creation is a branch on a `None` sink, no
    /// allocation, no lock.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_traced(
        &self,
        corpus: &Corpus,
        tracer: &Tracer,
        registry: &MetricsRegistry,
    ) -> Result<ServiceReport> {
        let scenarios = corpus.scenarios().iter().map(Cow::Borrowed).enumerate();
        let executor = Executor::new(self.config, Mode::Batch, scenarios, tracer)?;
        let started = Instant::now();
        let handles = executor.submit_batch(corpus.jobs());
        std::thread::scope(|scope| {
            for _ in 0..self.config.workers.min(handles.len()).max(1) {
                scope.spawn(|| executor.work());
            }
        });
        let stats = executor.finish(started.elapsed().as_secs_f64(), registry);
        let jobs = handles.into_iter().map(JobHandle::into_result).collect();
        Ok(ServiceReport::new(jobs, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{isolate, panic_message};
    use crate::{FaultKind, JobMetrics, JobOutcome, JobSpec, ScenarioSpec};
    use thermsched::{Engine, InterruptReason};

    fn small_spec() -> ScenarioSpec {
        ScenarioSpec {
            scenarios: 3,
            seed: 11,
            ..ScenarioSpec::default()
        }
    }

    /// Every job of `corpus` scheduled alone through a fresh [`Engine`] on
    /// a backend built for its scenario alone: no operator cache, no shared
    /// store, no prewarm.
    fn scheduled_alone(corpus: &Corpus, backend: BackendKind) -> Vec<JobOutcome> {
        corpus
            .jobs()
            .iter()
            .map(|job| {
                let scenario = &corpus.scenarios()[job.scenario];
                let built = backend.build(scenario).unwrap();
                let engine = Engine::builder()
                    .sut(&scenario.sut)
                    .dyn_backend(built.as_ref())
                    .build()
                    .unwrap();
                let outcome = engine.run(job.config, Some(&job.online), None).unwrap();
                JobOutcome::Completed(JobMetrics::from(&outcome))
            })
            .collect()
    }

    /// A batch reports the threads it started: one per job at most.
    #[test]
    fn a_batch_reports_the_worker_threads_it_started() {
        let corpus = ScenarioSpec {
            scenarios: 1,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        assert_eq!(corpus.jobs().len(), 2);
        for (workers, started) in [(1, 1), (2, 2), (16, 2)] {
            let report = ServiceRunner::new(ServiceConfig {
                workers,
                ..ServiceConfig::default()
            })
            .unwrap()
            .run(&corpus)
            .unwrap();
            assert_eq!(report.stats().workers, started, "--workers {workers}");
        }
    }

    #[test]
    fn worker_count_and_store_do_not_change_job_results() {
        let corpus = small_spec().build().unwrap();
        let alone = scheduled_alone(&corpus, BackendKind::RcCompact);
        for workers in [1, 3] {
            let report = ServiceRunner::new(ServiceConfig {
                workers,
                ..ServiceConfig::default()
            })
            .unwrap()
            .run(&corpus)
            .unwrap();
            assert_eq!(report.stats().completed, corpus.jobs().len());
            assert!(
                report.jobs().iter().map(|job| &job.outcome).eq(&alone),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn online_jobs_complete_and_are_worker_count_invariant() {
        use crate::TraceFamily;
        let corpus = ScenarioSpec {
            trace_families: vec![
                TraceFamily::Ramp,
                TraceFamily::Periodic,
                TraceFamily::IdleGap,
            ],
            warm_start_range: Some((46.0, 60.0)),
            ..small_spec()
        }
        .build()
        .unwrap();
        assert!(corpus.jobs().iter().all(|job| !job.online.is_empty()));
        let reference = ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert_eq!(reference.stats().completed, corpus.jobs().len());
        let parallel = ServiceRunner::new(ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert_eq!(parallel.jobs(), reference.jobs());
        assert_eq!(parallel.render_jobs(), reference.render_jobs());

        // Online jobs must not be served the constant-power results: the
        // same spec without online state schedules at least one job
        // differently (the traced peak shifts the feasible sessions).
        let offline = small_spec().build().unwrap();
        let offline_report = ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&offline)
        .unwrap();
        let differs = offline_report
            .jobs()
            .iter()
            .zip(reference.jobs())
            .any(|(a, b)| match (a.outcome.metrics(), b.outcome.metrics()) {
                (Some(x), Some(y)) => {
                    x.schedule_length != y.schedule_length || x.max_temperature != y.max_temperature
                }
                _ => true,
            });
        assert!(differs, "online state must influence scheduling");
    }

    #[test]
    fn jobs_of_one_scenario_share_the_scenario_store() {
        // Two STCL points per scenario: the second job of each scenario
        // reuses at least the phase-1 characterisations of the first.
        let corpus = small_spec().build().unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert!(
            report.stats().warm_cache_hits >= corpus.total_cores(),
            "every scenario's second job must at least reuse phase 1: {} < {}",
            report.stats().warm_cache_hits,
            corpus.total_cores()
        );
        assert!(report.stats().store.hits >= report.stats().warm_cache_hits as u64);
        assert!(report.stats().jobs_per_second > 0.0);
    }

    #[test]
    fn core_level_violations_are_isolated_per_job() {
        // TL = 60 C with ambient 45 C: every generated core violates alone,
        // and the failing policy turns each job into a Failed outcome
        // without aborting the batch.
        let corpus = ScenarioSpec {
            temperature_limits: vec![60.0],
            raise_limit_margin: None,
            ..small_spec()
        }
        .build()
        .unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert_eq!(report.stats().failed, corpus.jobs().len());
        assert_eq!(report.stats().completed, 0);
        for job in report.jobs() {
            match &job.outcome {
                JobOutcome::Failed { error, .. } => assert!(
                    error.contains("tested alone"),
                    "unexpected failure: {error}"
                ),
                other => panic!("expected Failed, got {other:?}"),
            }
        }
    }

    #[test]
    fn isolate_catches_panics_and_maps_errors() {
        let (outcome, accounting) = isolate(1, || panic!("boom"));
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "boom".to_owned(),
                attempts: 1,
            }
        );
        assert_eq!(accounting.warm_cache_hits, 0);

        let label = "label".to_owned();
        let (outcome, _) = isolate(1, move || panic!("formatted {label}"));
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "formatted label".to_owned(),
                attempts: 1,
            }
        );

        let (outcome, _) = isolate(1, || {
            Err(thermsched::ScheduleError::MissingComponent {
                component: "backend",
            })
        });
        assert!(matches!(
            outcome,
            JobOutcome::Failed {
                retryable: false,
                ..
            }
        ));

        // A checkpoint interrupt maps onto the deadline outcome, with a
        // cancellation reported as a zero budget.
        let (outcome, _) = isolate(1, || {
            Err(thermsched::ScheduleError::Interrupted {
                reason: InterruptReason::DeadlineExceeded { budget: 4.0 },
                spent_effort: 5.5,
            })
        });
        assert_eq!(
            outcome,
            JobOutcome::DeadlineExceeded {
                spent_effort: 5.5,
                budget: 4.0,
                attempts: 1,
            }
        );
        let (outcome, _) = isolate(1, || {
            Err(thermsched::ScheduleError::Interrupted {
                reason: InterruptReason::Cancelled,
                spent_effort: 2.0,
            })
        });
        assert!(matches!(
            outcome,
            JobOutcome::DeadlineExceeded { budget, .. } if budget == 0.0
        ));
    }

    #[test]
    fn panic_message_renders_error_and_typed_payloads() {
        // The two string shapes `panic!` produces.
        assert_eq!(panic_message(&"literal"), "literal");
        assert_eq!(panic_message(&"owned".to_owned()), "owned");

        // `panic_any` with boxed error objects renders their Display,
        // whether or not the box is Sync.
        let sync_err: Box<dyn std::error::Error + Send + Sync> = Box::new(ServiceError::Injected {
            kind: FaultKind::Panic,
            job: 3,
            attempt: 1,
        });
        assert_eq!(
            panic_message(&sync_err),
            "error payload: injected panic fault on job 3 attempt 1"
        );
        let send_err: Box<dyn std::error::Error + Send> =
            Box::new(thermsched::ScheduleError::MissingComponent {
                component: "backend",
            });
        assert!(panic_message(&send_err).starts_with("error payload:"));

        // Well-known primitive payloads are named and rendered; the old
        // code collapsed all of these to "non-string panic payload".
        assert_eq!(panic_message(&42i32), "non-string panic payload: i32 = 42");
        assert_eq!(
            panic_message(&7usize),
            "non-string panic payload: usize = 7"
        );
        assert_eq!(
            panic_message(&1.5f64),
            "non-string panic payload: f64 = 1.5"
        );
        assert_eq!(
            panic_message(&true),
            "non-string panic payload: bool = true"
        );

        // Opaque payloads keep the historical prefix but gain the TypeId.
        struct Opaque;
        let message = panic_message(&Opaque);
        assert!(message.starts_with("non-string panic payload (type id"));

        // End to end: a panic_any payload travels through isolate.
        let (outcome, _) = isolate(1, || std::panic::panic_any(42i32));
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "non-string panic payload: i32 = 42".to_owned(),
                attempts: 1,
            }
        );
    }

    #[test]
    fn operator_cache_collapses_same_shape_scenarios_without_changing_results() {
        // Every scenario shares one grid shape: maximal reuse — one build,
        // scenarios-1 hits, and the counters are deterministic because the
        // backend pass runs before the workers start.
        let spec = ScenarioSpec {
            scenarios: 4,
            grid_shapes: vec![(3, 3)],
            stc_limits: vec![40.0],
            ..small_spec()
        };
        let corpus = spec.build().unwrap();
        let shared = ServiceRunner::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert_eq!(shared.stats().operator_cache.misses, 1);
        assert_eq!(shared.stats().operator_cache.hits, 3);
        assert_eq!(shared.stats().backend_name, "rc-compact");
        assert!(shared
            .render_summary()
            .contains("operator cache: 1 backends built, 3 scenarios reusing one"));

        // Shared operators are exact: every scenario run on its own, with a
        // backend built for it alone, gives the same per-job outcomes.
        for (index, scenario) in corpus.scenarios().iter().enumerate() {
            let jobs: Vec<JobSpec> = corpus
                .jobs()
                .iter()
                .filter(|job| job.scenario == index)
                .map(|job| JobSpec {
                    scenario: 0,
                    ..job.clone()
                })
                .collect();
            let alone = Corpus::from_parts(vec![scenario.clone()], jobs).unwrap();
            let private = ServiceRunner::new(ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            })
            .unwrap()
            .run(&alone)
            .unwrap();
            assert_eq!(private.stats().operator_cache.misses, 1);
            assert_eq!(private.stats().operator_cache.hits, 0);
            let outcomes = shared
                .jobs()
                .iter()
                .filter(|job| job.scenario == index)
                .map(|job| &job.outcome);
            assert!(
                outcomes.eq(private.jobs().iter().map(|job| &job.outcome)),
                "scenario {index} changed when run alone"
            );
        }
    }

    #[test]
    fn mixed_shapes_build_one_backend_per_shape() {
        let corpus = ScenarioSpec {
            scenarios: 5,
            grid_shapes: vec![(3, 3), (4, 3)],
            stc_limits: vec![40.0],
            ..small_spec()
        }
        .build()
        .unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        // Shapes cycle (3,3), (4,3), (3,3), (4,3), (3,3): two builds.
        assert_eq!(report.stats().operator_cache.misses, 2);
        assert_eq!(report.stats().operator_cache.hits, 3);
    }

    #[test]
    fn grid_transient_backend_drives_a_batch_end_to_end() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            grid_shapes: vec![(3, 3)],
            stc_limits: vec![40.0],
            ..small_spec()
        }
        .build()
        .unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 2,
            backend: BackendKind::GridTransient { cells_per_core: 3 },
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert_eq!(report.stats().completed, corpus.jobs().len());
        assert_eq!(report.stats().backend_name, "grid-transient(3)");
        assert_eq!(report.stats().operator_cache.misses, 1);
        assert_eq!(report.stats().operator_cache.hits, 1);
        for job in report.jobs() {
            let metrics = job.outcome.metrics().expect("grid jobs complete");
            assert!(metrics.max_temperature > 45.0);
            assert!(metrics.max_temperature < metrics.effective_temperature_limit);
        }
    }

    #[test]
    fn grid_adi_backend_drives_a_batch_end_to_end() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            grid_shapes: vec![(3, 3)],
            stc_limits: vec![40.0],
            ..small_spec()
        }
        .build()
        .unwrap();
        let report = ServiceRunner::new(ServiceConfig {
            workers: 2,
            backend: BackendKind::GridAdi {
                cells_per_core: 3,
                time_step: 1e-3,
            },
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert_eq!(report.stats().completed, corpus.jobs().len());
        assert_eq!(report.stats().backend_name, "grid-adi(3)");
        // ADI never batches (no multi-RHS banded path), so the prewarmer
        // must stay out of the way even with batching enabled.
        assert_eq!(report.stats().prewarmed_sessions, 0);
        for job in report.jobs() {
            let metrics = job.outcome.metrics().expect("adi jobs complete");
            assert!(metrics.max_temperature > 45.0);
            assert!(metrics.max_temperature < metrics.effective_temperature_limit);
        }
    }

    #[test]
    fn same_shape_batcher_prewarms_without_changing_results() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            grid_shapes: vec![(3, 3)],
            stc_limits: vec![40.0],
            ..small_spec()
        }
        .build()
        .unwrap();
        let backend = BackendKind::GridTransient { cells_per_core: 3 };
        let batched = ServiceRunner::new(ServiceConfig {
            workers: 2,
            backend,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        // Multi-RHS prewarming is a throughput change only: the per-job
        // results are bit-identical to each job scheduled on its own.
        assert!(batched
            .jobs()
            .iter()
            .map(|job| &job.outcome)
            .eq(&scheduled_alone(&corpus, backend)));
        assert_eq!(
            batched.stats().prewarmed_sessions,
            corpus.total_cores(),
            "every per-core characterisation session should be prewarmed"
        );
        // Prewarmed singleton sessions turn every phase-1 probe into a
        // warm hit.
        assert!(batched.stats().warm_cache_hits >= corpus.total_cores());
    }

    #[test]
    fn the_prewarm_span_records_how_many_threads_it_ran_on() {
        use thermsched_obs::{AttrValue, TracerConfig};
        let corpus = ScenarioSpec {
            scenarios: 2,
            grid_shapes: vec![(3, 3)],
            stc_limits: vec![40.0],
            ..small_spec()
        }
        .build()
        .unwrap();
        let grid = BackendKind::GridTransient { cells_per_core: 2 };
        for (backend, workers, threads) in [
            (grid, 2, 2u64),
            (grid, 1, 1),
            (BackendKind::RcCompact, 2, 0),
        ] {
            let tracer = Tracer::new(TracerConfig::default());
            ServiceRunner::new(ServiceConfig {
                workers,
                backend,
                ..ServiceConfig::default()
            })
            .unwrap()
            .run_traced(&corpus, &tracer, &MetricsRegistry::new())
            .unwrap();
            let spans = tracer.drain();
            let prewarm = spans.iter().find(|s| s.name == "prewarm").unwrap();
            let attr = prewarm.attrs.iter().find(|a| a.key == "threads").unwrap();
            // Observed, so the structural slice stays the same at any
            // worker count.
            assert!(!attr.structural);
            assert_eq!(
                attr.value,
                AttrValue::Unsigned(threads),
                "{} at {workers} workers",
                backend.label()
            );
        }
    }

    #[test]
    fn invalid_runner_configurations_are_rejected() {
        assert!(matches!(
            ServiceRunner::new(ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            }),
            Err(ServiceError::InvalidSpec {
                field: "workers",
                ..
            })
        ));
        assert!(matches!(
            ServiceRunner::new(ServiceConfig {
                backend: BackendKind::GridTransient { cells_per_core: 0 },
                ..ServiceConfig::default()
            }),
            Err(ServiceError::InvalidSpec {
                field: "cells_per_core",
                ..
            })
        ));
        assert!(matches!(
            ServiceRunner::new(ServiceConfig {
                backend: BackendKind::GridAdi {
                    cells_per_core: 0,
                    time_step: 1e-3,
                },
                ..ServiceConfig::default()
            }),
            Err(ServiceError::InvalidSpec {
                field: "cells_per_core",
                ..
            })
        ));
        for bad_dt in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ServiceRunner::new(ServiceConfig {
                    backend: BackendKind::GridAdi {
                        cells_per_core: 3,
                        time_step: bad_dt,
                    },
                    ..ServiceConfig::default()
                }),
                Err(ServiceError::InvalidSpec {
                    field: "time_step",
                    ..
                })
            ));
        }
        assert!(matches!(
            ServiceRunner::new(ServiceConfig {
                faults: FaultPlan {
                    panic_rate: 2.0,
                    ..FaultPlan::none()
                },
                ..ServiceConfig::default()
            }),
            Err(ServiceError::InvalidSpec {
                field: "panic_rate",
                ..
            })
        ));
        assert!(matches!(
            ServiceRunner::new(ServiceConfig {
                retry: RetryPolicy {
                    max_attempts: 0,
                    ..RetryPolicy::disabled()
                },
                ..ServiceConfig::default()
            }),
            Err(ServiceError::InvalidSpec {
                field: "max_attempts",
                ..
            })
        ));
        for bad_budget in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ServiceRunner::new(ServiceConfig {
                    deadline_effort: Some(bad_budget),
                    ..ServiceConfig::default()
                }),
                Err(ServiceError::InvalidSpec {
                    field: "deadline_effort",
                    ..
                })
            ));
        }
        let runner = ServiceRunner::new(ServiceConfig::default()).unwrap();
        assert!(runner.config().workers >= 1);
        assert_eq!(runner.config().backend, BackendKind::RcCompact);
        assert!(!runner.config().faults.is_active());
        assert_eq!(runner.config().retry.max_attempts, 1);
        assert_eq!(runner.config().clock, ClockKind::Wall);
        assert_eq!(runner.config().deadline_effort, None);
    }

    #[test]
    fn injected_faults_retry_deterministically_under_virtual_clock() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            ..small_spec()
        }
        .build()
        .unwrap();
        let config = ServiceConfig {
            workers: 1,
            faults: FaultPlan {
                seed: 21,
                error_rate: 0.6,
                ..FaultPlan::none()
            },
            retry: RetryPolicy::retries(4),
            clock: ClockKind::Virtual,
            ..ServiceConfig::default()
        };
        let reference = ServiceRunner::new(config).unwrap().run(&corpus).unwrap();
        let wide = ServiceRunner::new(ServiceConfig {
            workers: 3,
            ..config
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        // Faults and retries are keyed by (seed, job, attempt), so the
        // per-job results — including attempt counts — stay byte-identical
        // across worker counts.
        assert_eq!(reference.jobs(), wide.jobs());
        assert_eq!(reference.render_jobs(), wide.render_jobs());
        assert!(reference.stats().injected_faults > 0);
        assert_eq!(
            reference.stats().injected_faults,
            wide.stats().injected_faults
        );
        assert_eq!(
            reference.stats().retried_attempts,
            wide.stats().retried_attempts
        );
        assert!(
            reference.stats().retried_attempts > 0,
            "a 0.6 error rate must force at least one retry"
        );
        assert!(
            reference
                .jobs()
                .iter()
                .any(|job| job.outcome.attempts() > 1),
            "attempt accounting must surface in the outcomes"
        );
        assert!(
            reference.stats().completed > 0,
            "retries must rescue at least one faulted job"
        );
        // Virtual latency (injected backoff time) is deterministic too.
        assert_eq!(reference.stats().latency, wide.stats().latency);
    }

    #[test]
    fn deadline_effort_budgets_produce_deterministic_deadline_outcomes() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            ..small_spec()
        }
        .build()
        .unwrap();
        // A 1-simulated-second budget is below any scenario's phase-1
        // characterisation effort, so every job interrupts at its first
        // checkpoint.
        let config = ServiceConfig {
            workers: 2,
            deadline_effort: Some(1.0),
            ..ServiceConfig::default()
        };
        let report = ServiceRunner::new(config).unwrap().run(&corpus).unwrap();
        assert_eq!(report.stats().deadline_exceeded, corpus.jobs().len());
        assert_eq!(report.stats().completed, 0);
        for job in report.jobs() {
            match &job.outcome {
                JobOutcome::DeadlineExceeded {
                    spent_effort,
                    budget,
                    attempts,
                } => {
                    assert!(*spent_effort > *budget);
                    assert_eq!(*budget, 1.0);
                    assert_eq!(*attempts, 1);
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        // Effort is simulated time, a pure function of the corpus: the
        // deadline outcomes are byte-identical on a single worker too.
        let narrow = ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..config
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        assert_eq!(report.jobs(), narrow.jobs());
    }

    #[test]
    fn store_poisoning_is_survived_and_results_unchanged() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            ..small_spec()
        }
        .build()
        .unwrap();
        let clean = ServiceRunner::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        let poisoned = ServiceRunner::new(ServiceConfig {
            workers: 2,
            faults: FaultPlan {
                seed: 5,
                poison_rate: 1.0,
                ..FaultPlan::none()
            },
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        // Every job poisons its scenario's store before running; the stores
        // recover the lock and the deterministic results are unaffected.
        assert_eq!(clean.jobs(), poisoned.jobs());
        assert_eq!(
            poisoned.stats().injected_faults,
            corpus.jobs().len(),
            "one poison event per job"
        );
        assert_eq!(poisoned.stats().completed, corpus.jobs().len());
    }
}
