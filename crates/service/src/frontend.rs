//! The streaming front-end: a long-lived submission API with first-class
//! failure handling, running on the same executor as
//! [`crate::ServiceRunner`].
//!
//! Where the batch runner consumes a whole [`Corpus`] at once, the
//! [`Frontend`] stays up and accepts [`Submission`]s one at a time, each
//! returning a [`JobHandle`] the caller can block on or poll. Between
//! submission and resolution sit the robustness layers this module owns:
//!
//! * a **bounded ingress queue** whose admission controller rejects
//!   ([`Rejected::QueueFull`]) or — with `shed_on_full` — displaces the
//!   lowest-priority queued job to make room for a strictly
//!   higher-priority one ([`ShedCause::Displaced`]);
//! * **priority classes** ([`Priority`]): the queue dispatches high before
//!   normal before low, FIFO within a class;
//! * **effort-budget deadlines** checked at the scheduler's cooperative
//!   checkpoints (see [`crate::ServiceConfig::deadline_effort`]), and the
//!   seeded **fault-injection and retry** machinery of
//!   [`crate::FaultPlan`] / [`crate::RetryPolicy`];
//! * **graceful drain** ([`Frontend::drain`]): stop admitting, let
//!   in-flight and queued work finish within a grace period, then shed
//!   what remains ([`ShedCause::Drained`]) and cancel in-flight runs at
//!   their next checkpoint. No submitted job is ever lost — every handle
//!   resolves to exactly one [`JobOutcome`].
//!
//! Everything is hand-rolled on `std` primitives — the executor's queue is
//! a `Mutex` + two `Condvar`s — no async runtime. Determinism: job outcomes
//! are keyed by submission order (the sequence number doubles as the fault
//! plan's job index), so under [`crate::ClockKind::Virtual`] the resolved
//! outcomes are byte-identical at any worker count; only queue-occupancy
//! effects (rejections, displacement) and wall-clock stats depend on
//! timing.

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use thermsched::{OnlineContext, SchedulerConfig};
use thermsched_obs::{MetricsRegistry, Tracer};

use crate::executor::{Executor, Mode};
use crate::{
    Corpus, JobOutcome, JobResult, JobSpec, Result, ServiceConfig, ServiceError, ServiceStats,
};

/// Why a submission was refused admission (it never entered the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded ingress queue was full and the submission could not
    /// displace anything (equal-or-higher-priority work queued, or
    /// shedding disabled).
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// The front-end is draining and no longer admits work.
    Draining,
    /// The submission named a scenario the front-end's corpus does not
    /// have.
    UnknownScenario {
        /// The out-of-range scenario index.
        scenario: usize,
        /// Scenarios the corpus actually has.
        scenario_count: usize,
    },
    /// The submission's per-job deadline budget was not positive and
    /// finite.
    InvalidDeadline,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "ingress queue full (capacity {capacity})")
            }
            Rejected::Draining => write!(f, "front-end is draining"),
            Rejected::UnknownScenario {
                scenario,
                scenario_count,
            } => write!(
                f,
                "unknown scenario {scenario} (corpus has {scenario_count})"
            ),
            Rejected::InvalidDeadline => {
                write!(f, "deadline budget must be positive and finite")
            }
        }
    }
}

/// Why an admitted job was dropped from the queue before running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// Displaced by a strictly higher-priority submission while the queue
    /// was full (`shed_on_full`).
    Displaced,
    /// Still queued when the drain grace period expired.
    Drained,
}

impl fmt::Display for ShedCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShedCause::Displaced => write!(f, "displaced by a higher-priority submission"),
            ShedCause::Drained => write!(f, "queue drained before the job ran"),
        }
    }
}

/// Scheduling priority of a submission. The queue dispatches `High` before
/// `Normal` before `Low`, FIFO within a class; under admission pressure the
/// lowest class is shed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Dispatched first; never displaced by anything.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Dispatched last; first in line for displacement.
    Low,
}

impl Priority {
    /// Queue ordering rank: lower ranks dispatch first.
    pub(crate) fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One unit of work for the front-end: the job itself, as a corpus holds
/// it, plus the admission knobs the batch API has no room for (priority,
/// per-job deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The job: scenario index into the front-end corpus, label carried
    /// into the [`JobResult`], scheduler configuration and online state.
    pub job: JobSpec,
    /// Priority class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Per-job effort budget in simulated seconds, overriding
    /// [`ServiceConfig::deadline_effort`] when set.
    pub deadline_effort: Option<f64>,
}

impl From<JobSpec> for Submission {
    /// A normal-priority submission of `job` with no per-job deadline.
    fn from(job: JobSpec) -> Self {
        Submission {
            job,
            priority: Priority::Normal,
            deadline_effort: None,
        }
    }
}

impl Submission {
    /// A normal-priority, constant-power submission with no per-job
    /// deadline.
    pub fn new(scenario: usize, label: impl Into<String>, config: SchedulerConfig) -> Self {
        Submission::from(JobSpec {
            scenario,
            label: label.into(),
            config,
            online: OnlineContext::new(),
        })
    }

    /// Builds a submission from a corpus [`JobSpec`] — the bridge from
    /// batch-generated work to the streaming API. Online state (trace /
    /// warm start) carries over.
    pub fn from_job(job: &JobSpec) -> Self {
        Submission::from(job.clone())
    }

    /// Sets the priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a per-job effort-budget deadline (simulated seconds).
    pub fn with_deadline_effort(mut self, budget: f64) -> Self {
        self.deadline_effort = Some(budget);
        self
    }
}

/// Configuration of a [`Frontend`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontendConfig {
    /// The execution configuration shared with the batch runner — workers,
    /// backend, fault plan, retries, clock, default deadline.
    ///
    /// Unlike [`crate::ServiceRunner`], `workers == 0` is allowed here: an
    /// admission-only front-end that queues but never executes, which is
    /// what deterministic admission-control tests run against (jobs then
    /// resolve as shed at drain). Such a front-end still prewarms, on the
    /// thread that starts it.
    pub service: ServiceConfig,
    /// Capacity of the bounded ingress queue (admitted-but-not-dispatched
    /// jobs). Must be at least 1.
    pub queue_capacity: usize,
    /// When the queue is full, whether a strictly higher-priority
    /// submission displaces the lowest-priority queued job
    /// ([`ShedCause::Displaced`]) instead of being rejected. Off by
    /// default: rejection is the predictable behaviour.
    pub shed_on_full: bool,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            service: ServiceConfig::default(),
            queue_capacity: 64,
            shed_on_full: false,
        }
    }
}

/// A handle to one submission; resolves to exactly one [`JobResult`].
///
/// Cheap to clone; all clones observe the same resolution. Blocking is a
/// hand-rolled `Mutex` + `Condvar` wait — no async runtime involved.
#[derive(Debug, Clone)]
pub struct JobHandle {
    inner: Arc<HandleInner>,
}

#[derive(Debug)]
struct HandleInner {
    slot: Mutex<Option<JobResult>>,
    ready: Condvar,
}

impl JobHandle {
    pub(crate) fn new() -> Self {
        JobHandle {
            inner: Arc::new(HandleInner {
                slot: Mutex::new(None),
                ready: Condvar::new(),
            }),
        }
    }

    pub(crate) fn resolve(&self, result: JobResult) {
        let mut slot = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        debug_assert!(slot.is_none(), "a handle resolves exactly once");
        *slot = Some(result);
        self.inner.ready.notify_all();
    }

    /// Blocks until the job resolves and returns its result.
    pub fn wait(&self) -> JobResult {
        let mut slot = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .inner
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks up to `timeout` for the job to resolve.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut slot = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .ready
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            slot = guard;
        }
    }

    /// The result if the job has already resolved, without blocking.
    pub fn try_result(&self) -> Option<JobResult> {
        self.inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Takes the result of a resolved job without cloning it.
    ///
    /// # Panics
    ///
    /// If the job has not resolved yet.
    pub(crate) fn into_result(self) -> JobResult {
        self.inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("the job resolved before its handle was consumed")
    }
}

/// What [`Frontend::drain`] observed and aggregated.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Aggregated run statistics of the front-end's whole lifetime,
    /// including the robustness counters and latency percentiles.
    pub stats: ServiceStats,
    /// Jobs still queued when the grace period expired, resolved as
    /// [`ShedCause::Drained`].
    pub shed_at_drain: usize,
    /// Jobs in flight when the grace period expired, cancelled at their
    /// next scheduling checkpoint (they resolve as
    /// [`JobOutcome::DeadlineExceeded`] with a zero budget).
    pub cancelled_in_flight: usize,
}

/// The streaming front-end described in the [crate docs](crate).
///
/// # Example
///
/// ```
/// use thermsched_service::{
///     Frontend, FrontendConfig, ScenarioSpec, ServiceConfig, Submission,
/// };
/// use std::time::Duration;
///
/// # fn main() -> Result<(), thermsched_service::ServiceError> {
/// let corpus = ScenarioSpec {
///     scenarios: 2,
///     ..ScenarioSpec::default()
/// }
/// .build()?;
/// let frontend = Frontend::start(
///     FrontendConfig {
///         service: ServiceConfig {
///             workers: 2,
///             ..ServiceConfig::default()
///         },
///         ..FrontendConfig::default()
///     },
///     corpus.clone(),
/// )?;
/// let handles: Vec<_> = corpus
///     .jobs()
///     .iter()
///     .map(|job| frontend.submit(Submission::from_job(job)))
///     .collect();
/// for handle in &handles {
///     let result = handle.wait();
///     assert!(result.outcome.metrics().is_some());
/// }
/// let report = frontend.drain(Duration::from_secs(5));
/// assert_eq!(report.stats.completed, corpus.jobs().len());
/// assert_eq!(report.shed_at_drain, 0);
/// # Ok(())
/// # }
/// ```
pub struct Frontend {
    executor: Arc<Executor<'static>>,
    config: FrontendConfig,
    /// Registry the lifetime metrics are absorbed into at drain.
    registry: MetricsRegistry,
    workers: Vec<std::thread::JoinHandle<()>>,
    started: Instant,
    drained: bool,
}

impl Frontend {
    /// Starts a front-end over `corpus`: builds one backend per scenario
    /// (through the operator cache), prewarms the session
    /// stores like the batch runner, and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for an invalid service configuration
    /// or a zero queue capacity; [`ServiceError::Schedule`] if a scenario's
    /// backend cannot be constructed.
    pub fn start(config: FrontendConfig, corpus: Corpus) -> Result<Frontend> {
        Self::start_traced(config, corpus, &Tracer::disabled(), &MetricsRegistry::new())
    }

    /// [`Self::start`] with observability attached: every job's span tree
    /// is recorded into `tracer` (the same per-job structure the batch
    /// runner's [`crate::ServiceRunner::run_traced`] produces, since both
    /// run on the same executor), and the lifetime metrics are absorbed
    /// into `registry` at drain.
    ///
    /// # Errors
    ///
    /// As [`Self::start`].
    pub fn start_traced(
        config: FrontendConfig,
        corpus: Corpus,
        tracer: &Tracer,
        registry: &MetricsRegistry,
    ) -> Result<Frontend> {
        config.service.validate()?;
        if config.queue_capacity == 0 {
            return Err(ServiceError::InvalidSpec {
                field: "queue_capacity",
                problem: "must be at least 1",
            });
        }
        let scenarios = corpus.into_scenarios().into_iter().map(Cow::Owned);
        let executor = Arc::new(Executor::new(
            config.service,
            Mode::Stream,
            scenarios.enumerate(),
            tracer,
        )?);
        let workers = (0..config.service.workers)
            .map(|_| {
                let executor = Arc::clone(&executor);
                std::thread::spawn(move || executor.work())
            })
            .collect();
        Ok(Frontend {
            executor,
            config,
            registry: registry.clone(),
            workers,
            started: Instant::now(),
            drained: false,
        })
    }

    /// Submits one job. Always returns a handle — an inadmissible
    /// submission resolves it immediately with [`JobOutcome::Rejected`],
    /// so callers have exactly one code path.
    pub fn submit(&self, submission: Submission) -> JobHandle {
        let executor = &self.executor;
        let mut state = executor.lock_queue();
        let seq = state.next_seq();
        let scenario_count = executor.scenario_count();
        let rejection = if !state.accepting {
            Some(Rejected::Draining)
        } else if submission.job.scenario >= scenario_count {
            Some(Rejected::UnknownScenario {
                scenario: submission.job.scenario,
                scenario_count,
            })
        } else if submission
            .deadline_effort
            .is_some_and(|b| !(b > 0.0 && b.is_finite()))
        {
            Some(Rejected::InvalidDeadline)
        } else if state.queue.len() < self.config.queue_capacity {
            None
        } else if self.config.shed_on_full
            && state
                .queue
                .last_key_value()
                .is_some_and(|(&(rank, _, _), _)| rank > submission.priority.rank())
        {
            let (_, victim) = state
                .queue
                .pop_last()
                .expect("non-empty: len >= capacity >= 1");
            victim.handle.resolve(executor.unrun(
                victim.seq,
                &victim.job,
                JobOutcome::Shed(ShedCause::Displaced),
            ));
            None
        } else {
            Some(Rejected::QueueFull {
                capacity: self.config.queue_capacity,
            })
        };
        if let Some(rejection) = rejection {
            drop(state);
            let handle = JobHandle::new();
            handle.resolve(executor.unrun(seq, &submission.job, JobOutcome::Rejected(rejection)));
            return handle;
        }
        let handle = state.push(
            submission.priority,
            seq,
            Cow::Owned(submission.job),
            submission.deadline_effort,
        );
        drop(state);
        executor.notify_work();
        handle
    }

    /// Gracefully drains the front-end:
    ///
    /// 1. stop admitting (subsequent submissions resolve
    ///    [`Rejected::Draining`]);
    /// 2. wait up to `grace` for the queue to empty and in-flight work to
    ///    finish;
    /// 3. shed whatever is still queued ([`ShedCause::Drained`]) and
    ///    cancel in-flight runs at their next scheduling checkpoint;
    /// 4. join the workers and aggregate the lifetime [`ServiceStats`].
    ///
    /// Every handle ever returned by [`Frontend::submit`] is resolved by
    /// the time this returns.
    pub fn drain(mut self, grace: Duration) -> DrainReport {
        self.drain_impl(grace)
    }

    fn drain_impl(&mut self, grace: Duration) -> DrainReport {
        self.drained = true;
        let executor = &self.executor;
        let mut state = executor.close_and_wait_idle(Instant::now() + grace);
        let mut shed_at_drain = 0;
        while let Some((_, victim)) = state.queue.pop_first() {
            victim.handle.resolve(executor.unrun(
                victim.seq,
                &victim.job,
                JobOutcome::Shed(ShedCause::Drained),
            ));
            shed_at_drain += 1;
        }
        let cancelled_in_flight = state.in_flight();
        drop(state);
        if cancelled_in_flight > 0 {
            executor.cancel_in_flight();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let stats = executor.finish(self.started.elapsed().as_secs_f64(), &self.registry);
        DrainReport {
            stats,
            shed_at_drain,
            cancelled_in_flight,
        }
    }
}

impl Drop for Frontend {
    /// A dropped front-end is drained with zero grace: queued work is shed,
    /// in-flight work cancelled at its next checkpoint — no handle is left
    /// unresolved and no worker thread leaks.
    fn drop(&mut self) {
        if !self.drained {
            let _ = self.drain_impl(Duration::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockKind, FaultPlan, RetryPolicy, ScenarioSpec};

    fn tiny_corpus(scenarios: usize) -> Corpus {
        ScenarioSpec {
            scenarios,
            seed: 11,
            stc_limits: vec![40.0],
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap()
    }

    /// An admission-only front-end: full queue behaviour without racing
    /// against workers draining it.
    fn admission_only(queue_capacity: usize, shed_on_full: bool) -> Frontend {
        Frontend::start(
            FrontendConfig {
                service: ServiceConfig {
                    workers: 0,
                    ..ServiceConfig::default()
                },
                queue_capacity,
                shed_on_full,
            },
            tiny_corpus(1),
        )
        .unwrap()
    }

    fn submission(corpus: &Corpus, job: usize) -> Submission {
        Submission::from_job(&corpus.jobs()[job])
    }

    #[test]
    fn streams_jobs_to_completion_and_drains_clean() {
        let corpus = tiny_corpus(2);
        let frontend = Frontend::start(
            FrontendConfig {
                service: ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
                ..FrontendConfig::default()
            },
            corpus.clone(),
        )
        .unwrap();
        let handles: Vec<JobHandle> = corpus
            .jobs()
            .iter()
            .map(|job| frontend.submit(Submission::from_job(job)))
            .collect();
        for (index, handle) in handles.iter().enumerate() {
            let result = handle.wait();
            assert_eq!(result.index, index);
            assert!(
                result.outcome.metrics().is_some(),
                "job {index}: {:?}",
                result.outcome
            );
            // A resolved handle keeps answering.
            assert_eq!(handle.try_result(), Some(result));
        }
        let report = frontend.drain(Duration::from_secs(10));
        assert_eq!(report.stats.completed, corpus.jobs().len());
        assert_eq!(report.stats.job_count, corpus.jobs().len());
        assert_eq!(report.shed_at_drain, 0);
        assert_eq!(report.cancelled_in_flight, 0);
        assert_eq!(report.stats.latency.samples, corpus.jobs().len());
        assert!(report.stats.latency.p99_seconds >= report.stats.latency.p50_seconds);
    }

    #[test]
    fn queue_full_rejects_and_sheds_by_priority() {
        let corpus = tiny_corpus(1);
        // Without shedding: capacity 2, third submission bounces.
        let frontend = admission_only(2, false);
        let a = frontend.submit(submission(&corpus, 0));
        let b = frontend.submit(submission(&corpus, 0));
        let c = frontend.submit(submission(&corpus, 0));
        assert_eq!(a.try_result(), None);
        assert_eq!(b.try_result(), None);
        assert_eq!(
            c.wait().outcome,
            JobOutcome::Rejected(Rejected::QueueFull { capacity: 2 })
        );
        let report = frontend.drain(Duration::ZERO);
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.shed_at_drain, 2);
        // Drained queue resolves the survivors as shed — nothing is lost.
        assert_eq!(a.wait().outcome, JobOutcome::Shed(ShedCause::Drained));
        assert_eq!(b.wait().outcome, JobOutcome::Shed(ShedCause::Drained));

        // With shedding: a strictly higher-priority submission displaces
        // the lowest-priority queued job; an equal-priority one still
        // bounces (the would-be victim is Low, and Low is not strictly
        // below Low).
        let frontend = admission_only(2, true);
        let low = frontend.submit(submission(&corpus, 0).with_priority(Priority::Low));
        let normal = frontend.submit(submission(&corpus, 0));
        let equal = frontend.submit(submission(&corpus, 0).with_priority(Priority::Low));
        assert!(matches!(
            equal.wait().outcome,
            JobOutcome::Rejected(Rejected::QueueFull { .. })
        ));
        let high = frontend.submit(submission(&corpus, 0).with_priority(Priority::High));
        assert_eq!(low.wait().outcome, JobOutcome::Shed(ShedCause::Displaced));
        assert_eq!(normal.try_result(), None);
        assert_eq!(high.try_result(), None);
        let report = frontend.drain(Duration::ZERO);
        assert_eq!(report.stats.shed, 1 + report.shed_at_drain);
        assert_eq!(report.stats.rejected, 1);
    }

    #[test]
    fn invalid_submissions_resolve_rejected_without_queueing() {
        let config = thermsched::SchedulerConfig::new(165.0, 40.0).unwrap();
        let frontend = admission_only(4, false);
        let unknown = frontend.submit(Submission::new(9, "bad", config));
        assert_eq!(
            unknown.wait().outcome,
            JobOutcome::Rejected(Rejected::UnknownScenario {
                scenario: 9,
                scenario_count: 1,
            })
        );
        let bad_deadline =
            frontend.submit(Submission::new(0, "bad", config).with_deadline_effort(f64::NAN));
        assert_eq!(
            bad_deadline.wait().outcome,
            JobOutcome::Rejected(Rejected::InvalidDeadline)
        );
        let report = frontend.drain(Duration::ZERO);
        assert_eq!(report.stats.rejected, 2);
        assert_eq!(report.shed_at_drain, 0);

        // After drain, handles resolve Draining — submit never blocks and
        // never loses a job.
        let corpus = tiny_corpus(1);
        let frontend = Frontend::start(FrontendConfig::default(), corpus.clone()).unwrap();
        let pre = frontend.submit(submission(&corpus, 0));
        assert!(pre.wait_timeout(Duration::from_secs(30)).is_some());
        // (drain consumes the frontend; Draining rejection is exercised in
        // the drain-cancellation integration test where the frontend stays
        // borrowed.)
        frontend.drain(Duration::from_secs(5));
    }

    #[test]
    fn priorities_dispatch_high_before_low() {
        // Single worker, virtual clock: dispatch order is the queue order.
        // Queue everything against an admission-only frontend first, then
        // verify ordering through the BTreeMap key structure.
        let frontend = admission_only(8, false);
        let corpus = tiny_corpus(1);
        let _low = frontend.submit(submission(&corpus, 0).with_priority(Priority::Low));
        let _normal = frontend.submit(submission(&corpus, 0));
        let _high = frontend.submit(submission(&corpus, 0).with_priority(Priority::High));
        {
            let state = frontend.executor.lock_queue();
            let keys: Vec<(u8, u64)> = state
                .queue
                .keys()
                .map(|&(rank, _, seq)| (rank, seq))
                .collect();
            assert_eq!(keys, vec![(0, 2), (1, 1), (2, 0)], "high first, low last");
        }
        frontend.drain(Duration::ZERO);
    }

    #[test]
    fn invalid_frontend_configurations_are_rejected() {
        assert!(matches!(
            Frontend::start(
                FrontendConfig {
                    queue_capacity: 0,
                    ..FrontendConfig::default()
                },
                tiny_corpus(1),
            ),
            Err(ServiceError::InvalidSpec {
                field: "queue_capacity",
                ..
            })
        ));
        assert!(matches!(
            Frontend::start(
                FrontendConfig {
                    service: ServiceConfig {
                        faults: FaultPlan {
                            error_rate: -1.0,
                            ..FaultPlan::none()
                        },
                        ..ServiceConfig::default()
                    },
                    ..FrontendConfig::default()
                },
                tiny_corpus(1),
            ),
            Err(ServiceError::InvalidSpec {
                field: "error_rate",
                ..
            })
        ));
    }

    #[test]
    fn an_admission_only_grid_frontend_prewarms_on_its_starting_thread() {
        let corpus = tiny_corpus(2);
        let frontend = Frontend::start(
            FrontendConfig {
                service: ServiceConfig {
                    workers: 0,
                    backend: crate::BackendKind::GridTransient { cells_per_core: 1 },
                    ..ServiceConfig::default()
                },
                ..FrontendConfig::default()
            },
            corpus.clone(),
        )
        .unwrap();
        let report = frontend.drain(Duration::ZERO);
        assert_eq!(report.stats.prewarmed_sessions, corpus.total_cores());
    }

    #[test]
    fn dropping_an_undrained_frontend_resolves_every_handle() {
        let corpus = tiny_corpus(1);
        let frontend = admission_only(4, false);
        let queued = frontend.submit(submission(&corpus, 0));
        drop(frontend);
        assert_eq!(queued.wait().outcome, JobOutcome::Shed(ShedCause::Drained));
    }

    #[test]
    fn retries_rescue_injected_faults_in_the_stream() {
        let corpus = tiny_corpus(1);
        let frontend = Frontend::start(
            FrontendConfig {
                service: ServiceConfig {
                    workers: 1,
                    faults: FaultPlan {
                        seed: 3,
                        error_rate: 0.7,
                        ..FaultPlan::none()
                    },
                    retry: RetryPolicy::retries(6),
                    clock: ClockKind::Virtual,
                    ..ServiceConfig::default()
                },
                ..FrontendConfig::default()
            },
            corpus.clone(),
        )
        .unwrap();
        let handles: Vec<JobHandle> = (0..4)
            .map(|_| frontend.submit(submission(&corpus, 0)))
            .collect();
        let outcomes: Vec<JobOutcome> = handles.iter().map(|h| h.wait().outcome).collect();
        let report = frontend.drain(Duration::from_secs(10));
        assert!(report.stats.injected_faults > 0);
        assert!(report.stats.retried_attempts > 0);
        assert!(
            outcomes.iter().any(|o| o.metrics().is_some()),
            "retries must rescue at least one job: {outcomes:?}"
        );
    }
}
