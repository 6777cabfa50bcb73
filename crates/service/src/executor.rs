//! The one job executor behind [`crate::ServiceRunner`], [`crate::Frontend`]
//! and the multi-process worker ([`crate::worker_serve`]).
//!
//! An [`Executor`] prepares scenarios once — one thermal backend per
//! scenario (same-shape scenarios share one through the operator cache),
//! one session store per scenario, and for backends that batch the
//! same-shape prewarm, which fills each store's phase-1 characterisation
//! with each group's lanes split over the configured worker threads — and
//! then runs jobs through one attempt loop
//! ([`Executor::run`]: fault injection, deadline checkpoints, seeded
//! retries, panic isolation), counting each job in one [`Tally`] from which
//! [`ServiceStats`] is derived. A scenario's guidance model is built on its
//! first job and kept beside its backend and store ([`Prepared`]); every
//! attempt borrows an [`Engine`] over the three. The three front doors
//! differ only in how jobs arrive and how long a scenario stays prepared:
//!
//! * a batch run queues every corpus job, closes the queue and drains it on
//!   a pool of worker threads ([`Executor::submit_batch`],
//!   [`Executor::work`]) in scenario-affine order: a freed worker takes the
//!   next job of the scenario it just ran, else the first job of a scenario
//!   no other worker is running, else the first queued job
//!   ([`QueueState::dispatch`]). The worker that retires a scenario's last
//!   job — none of its jobs queued or running, and a closed batch queues no
//!   more — releases the scenario ([`Executor::release`]) once it has
//!   resolved that job's handle, outside the queue lock;
//! * the streaming front-end admits submissions one at a time into the same
//!   queue and drains it on request ([`Executor::close_and_wait_idle`]) in
//!   strict priority order, FIFO within a class. A later submission may
//!   name any scenario, so a stream releases none;
//! * a worker process runs the jobs of each `WORK` frame in frame order, on
//!   its one thread ([`Executor::run`]), holding only the scenarios of the
//!   frame at hand: it prepares them ([`Executor::add_scenarios`]) and
//!   releases them once the frame's last job has answered.
//!
//! Releasing a scenario drops its store, its guidance model and whatever
//! the executor owns of it; its store counters stay in the executor's
//! totals ([`Executor::store_stats`]). No lookup follows a
//! scenario's last job, so a release changes no job's result and no
//! counter.
//!
//! Every per-job span is created inside that loop, which is what makes the
//! structural span slice identical across all three. Dispatch order changes
//! only which job warms a store first, never a job's result.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use thermsched::{
    EffortBudget, Engine, InterruptReason, NestedParallelismGuard, OperatorCacheHandle,
    OperatorCacheStats, OperatorKey, ScheduleCheckpoint, ScheduleError, ScheduleOutcome,
    ScheduleProgress, SessionCacheHandle, SessionModelOptions, SessionThermalModel, StoreStats,
    TestSession,
};
use thermsched_obs::{Counter, Histogram, MetricsRegistry, MetricsSnapshot, Tracer};
use thermsched_thermal::{
    GridThermalSimulator, PackageConfig, PowerMap, SessionThermalResult, ThermalBackend,
};

use crate::report::LatencyStats;
use crate::{
    ClockKind, FaultKind, JobHandle, JobMetrics, JobOutcome, JobResult, JobSpec, Priority, Result,
    Scenario, ServiceConfig, ServiceError, ServiceStats,
};

/// Latency histogram bucket bounds (seconds), fixed so snapshots from
/// different workers and processes always merge bucket-for-bucket.
pub(crate) const LATENCY_BUCKETS: &[f64] = &[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];

/// How an executor's jobs arrive, which decides what their latency measures
/// and whether a drain may cancel them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// A closed set of jobs (a batch run, a worker process). Every job is
    /// queued at once, so queue wait says nothing about the job: latency
    /// runs from dispatch to result, and nothing is ever cancelled.
    Batch,
    /// Open-ended submissions (the streaming front-end): latency runs from
    /// submission to resolution, and a drain cancels in-flight jobs at
    /// their next scheduling checkpoint.
    Stream,
}

/// One queued job.
pub(crate) struct Pending<'a> {
    /// Submission sequence number: the job's result index and its index in
    /// the fault plan's hash space — a function of submission order alone,
    /// never of worker interleaving.
    pub(crate) seq: u64,
    pub(crate) job: Cow<'a, JobSpec>,
    /// Per-job effort budget overriding [`ServiceConfig::deadline_effort`].
    pub(crate) deadline_effort: Option<f64>,
    pub(crate) handle: JobHandle,
    queued_at: Instant,
}

/// Queue key: (priority rank, affinity group, sequence). The group is the
/// job's scenario in [`Mode::Batch`] and 0 in [`Mode::Stream`], so a
/// stream's key order is strict priority, FIFO within a class, and its
/// last key is the shed victim.
pub(crate) type QueueKey = (u8, usize, u64);

/// Queue state behind the executor's one lock.
pub(crate) struct QueueState<'a> {
    mode: Mode,
    /// Queued jobs in key order.
    pub(crate) queue: BTreeMap<QueueKey, Pending<'a>>,
    /// Whether new jobs are admitted (cleared once the queue is closed).
    pub(crate) accepting: bool,
    /// The scenario of every job executing on a worker, one entry per job.
    running: Vec<usize>,
    /// Sequence numbers handed out so far.
    submitted: u64,
}

impl<'a> QueueState<'a> {
    fn new(mode: Mode) -> Self {
        QueueState {
            mode,
            queue: BTreeMap::new(),
            accepting: true,
            running: Vec::new(),
            submitted: 0,
        }
    }

    /// Hands out the next sequence number.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let seq = self.submitted;
        self.submitted += 1;
        seq
    }

    /// Jobs currently executing on workers.
    pub(crate) fn in_flight(&self) -> usize {
        self.running.len()
    }

    /// Queues `job` under `seq` at `priority` and returns its handle.
    pub(crate) fn push(
        &mut self,
        priority: Priority,
        seq: u64,
        job: Cow<'a, JobSpec>,
        deadline_effort: Option<f64>,
    ) -> JobHandle {
        let group = match self.mode {
            Mode::Batch => job.scenario,
            Mode::Stream => 0,
        };
        let handle = JobHandle::new();
        self.queue.insert(
            (priority.rank(), group, seq),
            Pending {
                seq,
                job,
                deadline_effort,
                handle: handle.clone(),
                queued_at: Instant::now(),
            },
        );
        handle
    }

    /// Takes the next job to run off the queue and counts it as running.
    /// `last` is the scenario of the job the asking worker just finished.
    ///
    /// A stream dispatches in key order. A batch dispatches, within the
    /// most urgent priority class, the next job of `last`, else the first
    /// job of a scenario no worker is running, else the first job: sibling
    /// jobs then run one after another on one worker, each finding what the
    /// one before published in the scenario's store instead of both missing
    /// it side by side, and a one-scenario batch still keeps every worker
    /// busy. Each rule is one or a few `O(log n)` range lookups: the
    /// second skips at most one scenario per running job.
    fn dispatch(&mut self, last: Option<usize>) -> Option<Pending<'a>> {
        let &head = self.queue.keys().next()?;
        let key = match self.mode {
            Mode::Stream => head,
            Mode::Batch => {
                let rank = head.0;
                let first_from = |from: QueueKey| {
                    self.queue
                        .range(from..)
                        .next()
                        .map(|(&key, _)| key)
                        .filter(|key| key.0 == rank)
                };
                let own = last.and_then(|scenario| {
                    first_from((rank, scenario, 0)).filter(|key| key.1 == scenario)
                });
                let unheld = || {
                    let mut next = Some(head);
                    while let Some(key) = next.filter(|key| self.running.contains(&key.1)) {
                        next = first_from((rank, key.1 + 1, 0));
                    }
                    next
                };
                own.or_else(unheld).unwrap_or(head)
            }
        };
        let pending = self.queue.remove(&key).expect("the picked key is queued");
        self.running.push(pending.job.scenario);
        Some(pending)
    }

    /// Counts one running job of `scenario` as finished, and says whether
    /// it was the scenario's last: the queue of a closed batch holds none
    /// of its jobs and no worker runs one.
    fn retire(&mut self, scenario: usize) -> bool {
        let slot = self
            .running
            .iter()
            .position(|&s| s == scenario)
            .expect("a finished job was running");
        self.running.swap_remove(slot);
        let queued = |priority: Priority| {
            let rank = priority.rank();
            let jobs = (rank, scenario, 0)..=(rank, scenario, u64::MAX);
            self.queue.range(jobs).next().is_some()
        };
        self.mode == Mode::Batch
            && !self.accepting
            && !self.running.contains(&scenario)
            && ![Priority::High, Priority::Normal, Priority::Low]
                .into_iter()
                .any(queued)
    }
}

/// One scenario ready to run jobs: its system under test, the backend built
/// for it, its session store and its guidance model — everything an
/// [`Engine`] over the scenario borrows, held once for every thread.
struct Prepared<'a> {
    scenario: Cow<'a, Scenario>,
    backend: Arc<dyn ThermalBackend>,
    cache: SessionCacheHandle,
    model: OnceLock<thermsched::Result<SessionThermalModel>>,
}

impl Prepared<'_> {
    /// The scenario's guidance model, built on its first job with the
    /// default package and session-model options — what an engine built
    /// without a model builds — so its cost stays in the job loop.
    fn model(&self) -> thermsched::Result<&SessionThermalModel> {
        self.model
            .get_or_init(|| {
                SessionThermalModel::new(
                    &self.scenario.sut,
                    &PackageConfig::default(),
                    SessionModelOptions::default(),
                )
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Prepared scenarios plus the queue their jobs run from. See the
/// [module docs](self).
pub(crate) struct Executor<'a> {
    config: ServiceConfig,
    mode: Mode,
    /// Prepared scenarios by corpus index, until they are released. A job
    /// clones its scenario's reference out of the map, so the lock is held
    /// for a lookup or a removal only, and whoever drops the last reference
    /// frees the scenario.
    scenarios: Mutex<BTreeMap<usize, Arc<Prepared<'a>>>>,
    /// Scenarios prepared so far, released ones included.
    prepared_count: usize,
    /// The summed store counters of every released scenario.
    released_stores: Mutex<StoreStats>,
    operator_cache: OperatorCacheHandle,
    prewarmed_sessions: usize,
    /// Run-level tracer every job derives its job-scoped handle from.
    tracer: Tracer,
    tally: Tally,
    queue: Mutex<QueueState<'a>>,
    /// Signalled on enqueue and on close (wakes idle workers).
    work_ready: Condvar,
    /// Signalled whenever the queue runs empty with nothing in flight.
    idle: Condvar,
    /// Drain cancellation ([`Mode::Stream`] only): in-flight jobs interrupt
    /// at their next scheduling checkpoint once set.
    cancel: AtomicBool,
    /// Threads that have run [`Self::work`]: the stats' `workers`.
    threads: AtomicUsize,
}

impl<'a> Executor<'a> {
    /// An executor for `config` holding `scenarios`, each under its corpus
    /// index, prepared as [`Self::add_scenarios`] does. The configuration
    /// is validated by the caller.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Schedule`] if a scenario's backend cannot be built.
    pub(crate) fn new(
        config: ServiceConfig,
        mode: Mode,
        scenarios: impl IntoIterator<Item = (usize, Cow<'a, Scenario>)>,
        tracer: &Tracer,
    ) -> Result<Self> {
        let mut executor = Executor {
            config,
            mode,
            scenarios: Mutex::new(BTreeMap::new()),
            prepared_count: 0,
            released_stores: Mutex::new(StoreStats::default()),
            operator_cache: OperatorCacheHandle::new(),
            prewarmed_sessions: 0,
            tracer: tracer.clone(),
            tally: Tally::new(),
            queue: Mutex::new(QueueState::new(mode)),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            cancel: AtomicBool::new(false),
            threads: AtomicUsize::new(0),
        };
        executor.add_scenarios(scenarios)?;
        Ok(executor)
    }

    /// Prepares `scenarios`, each under a corpus index this executor does
    /// not hold yet: a backend each through the operator cache, a session
    /// store each, and the same-shape prewarm of just these scenarios,
    /// recorded as run-level `backend.build` and `prewarm` spans. Adding
    /// nothing records nothing.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Schedule`] if a scenario's backend cannot be built;
    /// the executor then holds none of `scenarios`.
    pub(crate) fn add_scenarios(
        &mut self,
        scenarios: impl IntoIterator<Item = (usize, Cow<'a, Scenario>)>,
    ) -> Result<()> {
        let mut scenarios = scenarios.into_iter().peekable();
        if scenarios.peek().is_none() {
            return Ok(());
        }
        let config = &self.config;
        // Backends are built up front, once per scenario: every worker
        // borrows them, and construction (a factorisation each) is not
        // worth paying per worker. The build loop is sequential, so the
        // operator-cache counters are a deterministic function of the
        // scenarios.
        let mut added = {
            let mut span = self.tracer.span("backend.build");
            span.attr("backend", config.backend.label());
            let added = scenarios
                .map(|(index, scenario)| {
                    let backend = self
                        .operator_cache
                        .get_or_try_build(config.backend.key(&scenario), || {
                            config.backend.build(&scenario)
                        })?;
                    let prepared = Prepared {
                        scenario,
                        backend,
                        cache: SessionCacheHandle::new(),
                        model: OnceLock::new(),
                    };
                    Ok((index, Arc::new(prepared)))
                })
                .collect::<Result<BTreeMap<_, _>>>()?;
            span.attr("scenarios", added.len());
            added
        };
        // Same-shape batching: advance all phase-1 characterisation
        // sessions of one operator key as multi-RHS passes split over the
        // workers and fill the stores before the first job runs.
        // Bit-identical to the per-job path, so only throughput changes.
        let mut span = self.tracer.span("prewarm");
        let (prewarmed, threads) = prewarm_same_shape(config, &added);
        span.attr("sessions", prewarmed);
        span.attr_observed("threads", threads);
        drop(span);
        self.prewarmed_sessions += prewarmed;
        self.prepared_count += added.len();
        // `append` rebuilds the map from both sorted sides with full nodes;
        // inserting one by one would leave them half empty.
        self.scenarios
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut added);
        Ok(())
    }

    /// How many scenarios this executor has prepared, released ones
    /// included.
    pub(crate) fn scenario_count(&self) -> usize {
        self.prepared_count
    }

    fn lock_scenarios(&self) -> MutexGuard<'_, BTreeMap<usize, Arc<Prepared<'a>>>> {
        self.scenarios
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// How many scenarios this executor holds unreleased.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        self.lock_scenarios().len()
    }

    /// The prepared scenario of corpus index `index`, unless it was never
    /// added or is released.
    fn prepared(&self, index: usize) -> Option<Arc<Prepared<'a>>> {
        self.lock_scenarios().get(&index).cloned()
    }

    /// Releases the scenarios of corpus indices `indices`: their store
    /// entries, guidance models and whatever this executor owns of them
    /// are dropped on the calling thread, and their store counters are
    /// added to [`Self::store_stats`]' totals. None of their jobs may run
    /// afterwards; an index this executor does not hold is skipped.
    pub(crate) fn release(&self, indices: impl IntoIterator<Item = usize>) {
        let released: Vec<Arc<Prepared<'a>>> = {
            let mut scenarios = self.lock_scenarios();
            indices
                .into_iter()
                .filter_map(|index| scenarios.remove(&index))
                .collect()
        };
        let stores = released
            .iter()
            .map(|prepared| prepared.cache.stats())
            .fold(StoreStats::default(), std::ops::Add::add);
        let mut totals = self
            .released_stores
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *totals = *totals + stores;
        drop(totals);
        // The last references: the scenarios are freed here, outside both
        // locks.
        drop(released);
    }

    pub(crate) fn lock_queue(&self) -> MutexGuard<'_, QueueState<'a>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one idle worker after a job was queued.
    pub(crate) fn notify_work(&self) {
        self.work_ready.notify_one();
    }

    /// Queues every job of a closed batch in order, as sequence numbers
    /// `0..jobs.len()`, and closes the queue: workers exit once it is empty.
    pub(crate) fn submit_batch(&self, jobs: &'a [JobSpec]) -> Vec<JobHandle> {
        let mut state = self.lock_queue();
        let handles = jobs
            .iter()
            .map(|job| {
                let seq = state.next_seq();
                state.push(Priority::Normal, seq, Cow::Borrowed(job), None)
            })
            .collect();
        state.accepting = false;
        drop(state);
        self.work_ready.notify_all();
        handles
    }

    /// Stops admitting jobs, wakes idle workers (they exit once the queue
    /// is empty), and waits until nothing is queued or in flight, or until
    /// `deadline`. Returns the queue still locked, so the caller can shed
    /// what is left before any worker takes it.
    pub(crate) fn close_and_wait_idle(&self, deadline: Instant) -> MutexGuard<'_, QueueState<'a>> {
        let mut state = self.lock_queue();
        state.accepting = false;
        self.work_ready.notify_all();
        while !(state.queue.is_empty() && state.running.is_empty()) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .idle
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timeout.timed_out() {
                break;
            }
        }
        state
    }

    /// Interrupts in-flight jobs at their next scheduling checkpoint
    /// ([`Mode::Stream`]; batch jobs never watch the flag).
    pub(crate) fn cancel_in_flight(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// The worker-thread loop: runs queued jobs in dispatch order (see
    /// [`QueueState::dispatch`]) and resolves their handles until the queue
    /// is closed and empty, releasing each batch scenario after its last
    /// job. Nested phase-1 fan-outs stay sequential on this thread: the
    /// workers are the parallelism, and W workers × P phase-1 threads would
    /// oversubscribe the machine.
    pub(crate) fn work(&self) {
        self.threads.fetch_add(1, Ordering::Relaxed);
        let _sequential = NestedParallelismGuard::enter();
        let mut finished = None;
        loop {
            let (next, last) = self.next(finished);
            // After the finished job's handle resolved and before the next
            // job's clock starts: neither latency includes the release.
            if let Some(scenario) = last {
                self.release([scenario]);
            }
            let Some(pending) = next else { return };
            let (result, _) = self.run(
                pending.seq,
                &pending.job,
                pending.deadline_effort,
                pending.queued_at,
            );
            pending.handle.resolve(result);
            finished = Some(pending.job.scenario);
        }
    }

    /// Retires the job of scenario `finished` this worker just ran, then
    /// blocks for the next job to dispatch; `None` once the queue is closed
    /// and empty. Also returns `finished` again if that job was its
    /// scenario's last ([`QueueState::retire`]).
    fn next(&self, finished: Option<usize>) -> (Option<Pending<'a>>, Option<usize>) {
        let mut state = self.lock_queue();
        let last = finished.filter(|&scenario| state.retire(scenario));
        if finished.is_some() && state.queue.is_empty() && state.running.is_empty() {
            self.idle.notify_all();
        }
        loop {
            if let Some(pending) = state.dispatch(finished) {
                return (Some(pending), last);
            }
            if !state.accepting {
                return (None, last);
            }
            state = self
                .work_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Counts and builds the result of a job that never ran (rejected at
    /// submission or shed from the queue).
    pub(crate) fn unrun(&self, seq: u64, job: &JobSpec, outcome: JobOutcome) -> JobResult {
        self.tally.record(&outcome, None);
        let prepared = self.prepared(job.scenario);
        let scenario_name = prepared
            .as_ref()
            .map_or("unknown", |prepared| prepared.scenario.name.as_str());
        JobResult::new(seq as usize, job, scenario_name, outcome)
    }

    /// Usage counters summed over every scenario's session store, released
    /// ones included.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let released = *self
            .released_stores
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.lock_scenarios()
            .values()
            .map(|prepared| prepared.cache.stats())
            .fold(released, std::ops::Add::add)
    }

    /// Operator-cache counters of the backend build.
    pub(crate) fn operator_cache_stats(&self) -> OperatorCacheStats {
        self.operator_cache.stats()
    }

    /// Characterisation sessions published by the same-shape prewarm.
    pub(crate) fn prewarmed_sessions(&self) -> usize {
        self.prewarmed_sessions
    }

    /// Closes the books after the last job: counts the run-level work (store
    /// traffic, backend builds, prewarm), derives the stats of
    /// `wall_seconds` of job execution, and absorbs the run's metrics into
    /// `registry`. Call once.
    pub(crate) fn finish(&self, wall_seconds: f64, registry: &MetricsRegistry) -> ServiceStats {
        self.tally.add_run(
            self.store_stats(),
            self.operator_cache_stats(),
            self.prewarmed_sessions,
        );
        let stats = self.tally.stats(
            &self.config,
            self.threads.load(Ordering::Relaxed),
            self.scenario_count(),
            wall_seconds,
        );
        registry.absorb(&self.tally.snapshot());
        stats
    }

    /// Runs job `seq` (queued at `queued_at`), counts it in the executor's
    /// tally, and returns its result with the accounting that was counted.
    /// The executor must hold the job's scenario, unreleased.
    pub(crate) fn run(
        &self,
        seq: u64,
        job: &JobSpec,
        deadline_effort: Option<f64>,
        queued_at: Instant,
    ) -> (JobResult, JobAccounting) {
        let config = &self.config;
        let dispatched = Instant::now();
        let queue_seconds = match config.clock {
            ClockKind::Wall => dispatched.duration_since(queued_at).as_secs_f64(),
            ClockKind::Virtual => 0.0,
        };
        let deadline_effort = deadline_effort.or(config.deadline_effort);
        let prepared = self
            .prepared(job.scenario)
            .expect("callers run only jobs of scenarios the executor holds");
        let (outcome, mut accounting) =
            self.execute(seq, job, &prepared, deadline_effort, queue_seconds);
        if config.clock == ClockKind::Wall {
            let since = match self.mode {
                Mode::Batch => dispatched,
                Mode::Stream => queued_at,
            };
            accounting.latency_seconds = since.elapsed().as_secs_f64();
        }
        self.tally.record(&outcome, Some(&accounting));
        let result = JobResult::new(seq as usize, job, &prepared.scenario.name, outcome);
        (result, accounting)
    }

    /// Executes one job with fault injection, deadline checkpoints and
    /// retries. Every per-job span is created here, under a job-scoped
    /// tracer handle.
    ///
    /// Per attempt, the fault plan is consulted first: an injected panic
    /// goes through the real `catch_unwind` path, an injected error becomes
    /// a retryable [`JobOutcome::Failed`], and an injected delay advances
    /// the clock before the attempt runs. Store poisoning happens once,
    /// before the first attempt. Retries are granted only to outcomes that
    /// are retryable under [`ServiceError::is_retryable`] — injected faults
    /// — because real scheduler errors, panics and deadline interrupts are
    /// deterministic functions of the corpus and would only reproduce. Each
    /// attempt's outcome carries its own attempt number.
    ///
    /// The returned latency is the virtual time the job accrued (injected
    /// delays and retry backoffs) under [`ClockKind::Virtual`], and 0 under
    /// the wall clock, which sleeps instead.
    fn execute(
        &self,
        seq: u64,
        job: &JobSpec,
        prepared: &Prepared<'_>,
        deadline_effort: Option<f64>,
        queue_seconds: f64,
    ) -> (JobOutcome, JobAccounting) {
        let ServiceConfig {
            faults,
            retry,
            clock,
            ..
        } = self.config;
        let tracer = self.tracer.for_job(seq);
        let mut job_span = tracer.span("job");
        job_span.attr("index", seq);
        job_span.attr("scenario", prepared.scenario.name.as_str());
        job_span.attr("label", job.label.as_str());
        job_span.attr_observed("queue_seconds", queue_seconds);
        let mut accounting = JobAccounting::default();
        if faults.poisons_store(seq) {
            accounting.injected_faults += 1;
            prepared.cache.poison();
        }
        let mut attempt = 0u32;
        let (outcome, ran) = loop {
            attempt += 1;
            let fault = faults.fault_for(seq, attempt);
            let mut attempt_span = tracer.span("attempt");
            attempt_span.attr("number", attempt);
            if let Some(kind) = fault {
                // Faults are seeded by (plan seed, job, attempt), so which
                // fault fires on which attempt is structural.
                attempt_span.attr("fault", kind.to_string());
                accounting.injected_faults += 1;
            }
            let injected = |kind| ServiceError::Injected {
                kind,
                job: seq,
                attempt,
            };
            let (outcome, ran) = match fault {
                Some(FaultKind::Panic) => {
                    let message = injected(FaultKind::Panic).to_string();
                    isolate(attempt, move || panic!("{message}"))
                }
                Some(FaultKind::Error) => {
                    let error = injected(FaultKind::Error);
                    (
                        JobOutcome::Failed {
                            error: error.to_string(),
                            retryable: error.is_retryable(),
                            attempts: attempt,
                        },
                        JobAccounting::default(),
                    )
                }
                Some(FaultKind::Delay) => {
                    advance_clock(clock, faults.delay_seconds, &mut accounting.latency_seconds);
                    self.attempt(attempt, job, prepared, deadline_effort, &tracer)
                }
                Some(FaultKind::PoisonStore) | None => {
                    self.attempt(attempt, job, prepared, deadline_effort, &tracer)
                }
            };
            // Injected panics are the one retryable panic shape: we know this
            // attempt's panic was ours. Real panics stay terminal.
            let retryable = match &outcome {
                JobOutcome::Failed { retryable, .. } => *retryable,
                JobOutcome::Panicked { .. } => fault == Some(FaultKind::Panic),
                _ => false,
            };
            drop(attempt_span);
            if retryable && attempt < retry.max_attempts {
                advance_clock(
                    clock,
                    retry.backoff_seconds(seq, attempt + 1),
                    &mut accounting.latency_seconds,
                );
                continue;
            }
            break (outcome, ran);
        };
        job_span.attr("attempts", attempt);
        job_span.attr("outcome", outcome_kind(&outcome));
        accounting.warm_cache_hits = ran.warm_cache_hits;
        accounting.cached_validations = ran.cached_validations;
        accounting.retried_attempts = attempt as usize - 1;
        (outcome, accounting)
    }

    /// Runs attempt number `attempt`: builds an engine over the job's
    /// prepared scenario and schedules under panic isolation, with a
    /// checkpoint installed when the job has a deadline or can be
    /// cancelled. An engine that cannot be built, or an online context the
    /// scenario cannot take (a warm start of another core count), ends the
    /// attempt as a non-retryable failure: both are deterministic functions
    /// of the job. The budget is compared against *simulated* effort, so
    /// deadline interrupts are deterministic; cancellation is the one
    /// deliberately non-deterministic interrupt (it answers to a drain
    /// deadline, and is reported as such).
    fn attempt(
        &self,
        attempt: u32,
        job: &JobSpec,
        prepared: &Prepared<'_>,
        deadline_effort: Option<f64>,
        tracer: &Tracer,
    ) -> (JobOutcome, JobAccounting) {
        let cancel = (self.mode == Mode::Stream).then_some(&self.cancel);
        let budget = deadline_effort.map(EffortBudget::new);
        let check = |progress: &ScheduleProgress| {
            if cancel.is_some_and(|cancel| cancel.load(Ordering::Relaxed)) {
                return ControlFlow::Break(InterruptReason::Cancelled);
            }
            budget.map_or(ControlFlow::Continue(()), |budget| budget.check(progress))
        };
        let checkpoint =
            (budget.is_some() || cancel.is_some()).then_some(&check as &dyn ScheduleCheckpoint);
        isolate(attempt, || {
            let engine = Engine::builder()
                .sut(&prepared.scenario.sut)
                .dyn_backend(prepared.backend.as_ref())
                .model(prepared.model()?)
                .cache(prepared.cache.clone())
                .tracer(tracer.clone())
                .build()?;
            engine.run(job.config, Some(&job.online), checkpoint)
        })
    }
}

/// What one job that ran adds to the run's counters beyond its outcome.
/// All of it depends on timing or on which job warmed a store first, so it
/// never enters the per-job results; a worker process ships it in its
/// `RESULT` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct JobAccounting {
    pub(crate) warm_cache_hits: usize,
    pub(crate) cached_validations: usize,
    pub(crate) injected_faults: usize,
    /// Attempts beyond the first.
    pub(crate) retried_attempts: usize,
    pub(crate) latency_seconds: f64,
}

/// Outcome kinds in counter order: the four kinds of a job that ran come
/// first, then the two of a job that never did.
const OUTCOME_KINDS: [&str; 6] = [
    "completed",
    "failed",
    "panicked",
    "deadline_exceeded",
    "shed",
    "rejected",
];

fn outcome_slot(outcome: &JobOutcome) -> usize {
    match outcome {
        JobOutcome::Completed(_) => 0,
        JobOutcome::Failed { .. } => 1,
        JobOutcome::Panicked { .. } => 2,
        JobOutcome::DeadlineExceeded { .. } => 3,
        JobOutcome::Shed(_) => 4,
        JobOutcome::Rejected(_) => 5,
    }
}

/// Stable label of an outcome variant for span attributes and per-outcome
/// metric names.
pub(crate) fn outcome_kind(outcome: &JobOutcome) -> &'static str {
    OUTCOME_KINDS[outcome_slot(outcome)]
}

/// The counters behind [`ServiceStats`], kept once, in a metrics registry
/// under the names [`ServiceStats::metrics`] documents. Hot counters are
/// held as handles, so counting a job is a few relaxed atomic adds plus
/// one latency sample; [`ServiceStats`] is derived from the registry's
/// snapshot. The in-process executor, each worker process and the
/// multi-process coordinator all count through this type; the coordinator
/// counts its workers' results and FIN stats into its own.
pub(crate) struct Tally {
    registry: MetricsRegistry,
    jobs: Counter,
    outcomes: [Counter; 6],
    retried_attempts: Counter,
    injected_faults: Counter,
    warm_cache_hits: Counter,
    cached_validations: Counter,
    latency_histogram: Histogram,
    /// Raw latency samples: the percentiles need exact ranks, which the
    /// fixed-bucket histogram cannot give.
    latencies: Mutex<Vec<f64>>,
}

impl Tally {
    /// An empty tally with every [`ServiceStats`] counter registered at 0.
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        for (name, _) in ServiceStats::default().metrics().counters {
            registry.counter(&name);
        }
        let counter = |name: &str| registry.counter(name);
        Tally {
            jobs: counter("service.jobs"),
            outcomes: OUTCOME_KINDS.map(|kind| counter(&format!("service.{kind}"))),
            retried_attempts: counter("service.retried_attempts"),
            injected_faults: counter("service.injected_faults"),
            warm_cache_hits: counter("service.warm_cache_hits"),
            cached_validations: counter("service.cached_validations"),
            latency_histogram: registry.histogram("job.latency_seconds", LATENCY_BUCKETS),
            latencies: Mutex::new(Vec::new()),
            registry,
        }
    }

    /// Counts one resolved job. `ran` is `None` for a job that never ran
    /// (shed or rejected), which adds no latency sample.
    pub(crate) fn record(&self, outcome: &JobOutcome, ran: Option<&JobAccounting>) {
        self.jobs.inc();
        self.outcomes[outcome_slot(outcome)].inc();
        if let Some(ran) = ran {
            self.retried_attempts.add(ran.retried_attempts as u64);
            self.injected_faults.add(ran.injected_faults as u64);
            self.warm_cache_hits.add(ran.warm_cache_hits as u64);
            self.cached_validations.add(ran.cached_validations as u64);
            self.latency_histogram.observe(ran.latency_seconds);
            self.latencies
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ran.latency_seconds);
        }
    }

    /// Adds the run-level counters of one prepared corpus.
    pub(crate) fn add_run(
        &self,
        store: StoreStats,
        operator_cache: OperatorCacheStats,
        prewarmed_sessions: usize,
    ) {
        let add = |name: &str, value: u64| self.registry.counter(name).add(value);
        add("store.lookups", store.lookups);
        add("store.hits", store.hits);
        add("store.insertions", store.insertions);
        add("store.contended_locks", store.contended_locks);
        add("operator_cache.hits", operator_cache.hits);
        add("operator_cache.misses", operator_cache.misses);
        add("service.prewarmed_sessions", prewarmed_sessions as u64);
    }

    /// Counts a worker process that died mid-run.
    pub(crate) fn worker_crashed(&self) {
        self.registry.counter("service.worker_crashes").inc();
    }

    /// Sets the wall-clock gauges for `wall_seconds` of job execution and
    /// derives the stats from the registry snapshot. Throughput counts the
    /// jobs that ran.
    pub(crate) fn stats(
        &self,
        config: &ServiceConfig,
        workers: usize,
        scenario_count: usize,
        wall_seconds: f64,
    ) -> ServiceStats {
        let ran: u64 = self.outcomes[..4].iter().map(Counter::value).sum();
        self.registry
            .gauge("service.wall_seconds")
            .set(wall_seconds);
        self.registry
            .gauge("service.jobs_per_second")
            .set(ran as f64 / wall_seconds.max(1e-9));
        let latency = LatencyStats::from_samples(
            &self
                .latencies
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        ServiceStats::from_metrics(
            config,
            workers,
            scenario_count,
            &self.registry.snapshot(),
            latency,
        )
    }

    /// Every counted metric.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Groups the phase-1 characterisation lanes of `scenarios` — one
/// (scenario, core) single-core session each — by operator key and session
/// duration, advances each group through the shared backend's multi-RHS
/// batch, split over up to [`ServiceConfig::workers`] threads (at least
/// one) by [`simulate_split`], and publishes the characterisation of each
/// scenario whose lanes all simulated. Returns the number of published
/// lanes and the most threads any group ran on (0 when nothing batched).
///
/// The grouping and iteration order are deterministic (sorted by key,
/// then corpus order within a group), the per-lane results are
/// bit-identical to what the scheduler's own phase 1 would compute in any
/// split, and a group that fails to simulate is simply skipped — its
/// scenarios' first jobs compute phase 1 themselves and surface the error
/// through the normal per-job path.
///
/// Prewarmed lanes are constant-power, from-ambient characterisations.
/// Online jobs (traces / warm starts) never read the stores, so they
/// compute their own phase 1.
fn prewarm_same_shape(
    config: &ServiceConfig,
    scenarios: &BTreeMap<usize, Arc<Prepared<'_>>>,
) -> (usize, usize) {
    if !config.backend.batches_sessions() {
        return (0, 0);
    }
    // Lanes grouped by (operator key, duration bits): scenarios sharing
    // a key share one bit-identical backend, and only equal-duration
    // sessions can share a multi-RHS advance (the step count is a
    // function of the duration).
    type PrewarmGroups = BTreeMap<(OperatorKey, u64), Vec<(usize, usize, f64)>>;
    let mut groups = PrewarmGroups::new();
    for (&index, prepared) in scenarios {
        let sut = &prepared.scenario.sut;
        let key = config.backend.key(&prepared.scenario);
        for core in 0..sut.core_count() {
            let duration = TestSession::new([core], sut).duration();
            groups
                .entry((key.clone(), duration.to_bits()))
                .or_default()
                .push((index, core, duration));
        }
    }
    let (mut prewarmed, mut threads) = (0, 0);
    // Simulated lanes by (scenario, core): each scenario's run in core order.
    let mut simulated = BTreeMap::new();
    for lanes in groups.into_values() {
        let duration = lanes[0].2;
        let powers: std::result::Result<Vec<PowerMap>, _> = lanes
            .iter()
            .map(|&(scenario, core, _)| {
                let sut = &scenarios[&scenario].scenario.sut;
                TestSession::new([core], sut).power_map(sut)
            })
            .collect();
        let Ok(powers) = powers else { continue };
        // The operator cache gives all scenarios of a key group one
        // shared backend, so the group's first backend serves every lane.
        let backend = scenarios[&lanes[0].0].backend.as_ref();
        // `workers` threads at most, each chunk a whole number of
        // multi-RHS blocks so that only the last can run a partial one; a
        // front-end with no workers prewarms on its starting thread.
        let chunk = lanes
            .len()
            .div_ceil(config.workers.clamp(1, lanes.len()))
            .next_multiple_of(GridThermalSimulator::BATCH_BLOCK);
        threads = threads.max(lanes.len().div_ceil(chunk));
        let Ok(results) = simulate_split(backend, &powers, duration, chunk) else {
            continue;
        };
        let ids = lanes.iter().map(|&(scenario, core, _)| (scenario, core));
        simulated.extend(ids.zip(results));
    }
    for (&index, prepared) in scenarios {
        // The lanes of `index` are all the map holds below `(index + 1, 0)`.
        let rest = simulated.split_off(&(index + 1, 0));
        let lanes = std::mem::replace(&mut simulated, rest);
        if lanes.len() == prepared.scenario.sut.core_count() {
            prewarmed += lanes.len();
            prepared.cache.characterise(lanes.into_values().collect());
        }
    }
    (prewarmed, threads)
}

/// Advances one prewarm group through `backend`'s multi-RHS batch in
/// contiguous chunks of `chunk` lanes, each on its own scoped thread (the
/// first on the calling thread), and returns the results in lane order.
/// Multi-RHS columns are bit-identical to their single solves, so the
/// split never changes a lane's result. Any chunk's error fails the whole
/// group (step count and power length are the same for every lane), and a
/// chunk's panic resumes on the calling thread.
fn simulate_split(
    backend: &dyn ThermalBackend,
    powers: &[PowerMap],
    duration: f64,
    chunk: usize,
) -> thermsched_thermal::Result<Vec<SessionThermalResult>> {
    let mut chunks = powers.chunks(chunk);
    let first = chunks
        .next()
        .expect("a prewarm group has at least one lane");
    std::thread::scope(|scope| {
        let rest: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || backend.simulate_sessions(chunk, duration)))
            .collect();
        let first = backend.simulate_sessions(first, duration);
        // Join every thread before looking at any result: a chunk's panic
        // then resumes with its own payload even when another chunk failed.
        let rest: Vec<_> = rest
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect();
        let mut results = Vec::with_capacity(powers.len());
        for chunk in std::iter::once(first).chain(rest) {
            results.extend(chunk?);
        }
        Ok(results)
    })
}

/// Advances the configured clock by `seconds`: sleeps under the wall clock,
/// accrues deterministic virtual time otherwise.
fn advance_clock(clock: ClockKind, seconds: f64, virtual_seconds: &mut f64) {
    match clock {
        ClockKind::Wall => {
            if seconds > 0.0 {
                std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
            }
        }
        ClockKind::Virtual => *virtual_seconds += seconds,
    }
}

/// Runs a scheduling closure as attempt number `attempts`, with panic
/// isolation, and maps the ways it can end onto a [`JobOutcome`] carrying
/// that attempt count. Checkpoint interrupts become
/// [`JobOutcome::DeadlineExceeded`]; a drain cancellation is reported as a
/// zero budget. A completed run also returns its cache accounting, which
/// depends on which job warmed the store first and so never enters the
/// deterministic per-job results.
pub(crate) fn isolate(
    attempts: u32,
    run: impl FnOnce() -> thermsched::Result<ScheduleOutcome>,
) -> (JobOutcome, JobAccounting) {
    let outcome = match std::panic::catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(outcome)) => {
            let metrics = JobMetrics {
                attempts,
                ..JobMetrics::from(&outcome)
            };
            let ran = JobAccounting {
                warm_cache_hits: outcome.warm_cache_hits,
                cached_validations: outcome.cached_validations,
                ..JobAccounting::default()
            };
            return (JobOutcome::Completed(metrics), ran);
        }
        Ok(Err(ScheduleError::Interrupted {
            reason,
            spent_effort,
        })) => JobOutcome::DeadlineExceeded {
            spent_effort,
            budget: match reason {
                InterruptReason::DeadlineExceeded { budget } => budget,
                InterruptReason::Cancelled => 0.0,
            },
            attempts,
        },
        Ok(Err(error)) => JobOutcome::Failed {
            error: error.to_string(),
            retryable: false,
            attempts,
        },
        Err(payload) => JobOutcome::Panicked {
            message: panic_message(payload.as_ref()),
            attempts,
        },
    };
    (outcome, JobAccounting::default())
}

/// Renders a caught panic payload.
///
/// `panic!("...")` payloads carry `&str` or `String` and are rendered
/// verbatim. `std::panic::panic_any` payloads are probed further: boxed
/// error objects (`Box<dyn Error + Send (+ Sync)>`) render through their
/// `Display`, and a table of well-known primitive payload types renders the
/// value with its type name. Anything else renders as
/// `"non-string panic payload"` with the payload's `TypeId` appended, so
/// distinct opaque payloads stay distinguishable in reports.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    if let Some(e) = payload.downcast_ref::<Box<dyn std::error::Error + Send + Sync>>() {
        return format!("error payload: {e}");
    }
    if let Some(e) = payload.downcast_ref::<Box<dyn std::error::Error + Send>>() {
        return format!("error payload: {e}");
    }
    macro_rules! probe {
        ($($ty:ty),* $(,)?) => {
            $(
                if let Some(value) = payload.downcast_ref::<$ty>() {
                    return format!(
                        "non-string panic payload: {} = {value:?}",
                        stringify!($ty)
                    );
                }
            )*
        };
    }
    probe!(i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64, bool, char);
    format!("non-string panic payload (type id {:?})", payload.type_id())
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::{
        Corpus, Frontend, FrontendConfig, ScenarioSpec, ServiceReport, ServiceRunner, ShedCause,
        Submission,
    };

    fn corpus() -> Corpus {
        ScenarioSpec {
            scenarios: 3,
            seed: 19,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap()
    }

    /// One worker on the virtual clock: dispatch order is submission order
    /// in every front door, so even the order-dependent counters agree.
    fn config() -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            clock: ClockKind::Virtual,
            ..ServiceConfig::default()
        }
    }

    fn batch(corpus: &Corpus) -> ServiceReport {
        ServiceRunner::new(config()).unwrap().run(corpus).unwrap()
    }

    fn stream(corpus: &Corpus) -> (Vec<JobResult>, ServiceStats) {
        let frontend = Frontend::start(
            FrontendConfig {
                service: config(),
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
        let jobs = handles.iter().map(JobHandle::wait).collect();
        (jobs, frontend.drain(Duration::from_secs(30)).stats)
    }

    fn inline(corpus: &Corpus) -> (Vec<JobResult>, ServiceStats) {
        let executor = Executor::new(
            config(),
            Mode::Batch,
            corpus.scenarios().iter().map(Cow::Borrowed).enumerate(),
            &Tracer::disabled(),
        )
        .unwrap();
        let jobs = corpus
            .jobs()
            .iter()
            .enumerate()
            .map(|(index, job)| executor.run(index as u64, job, None, Instant::now()).0)
            .collect();
        (jobs, executor.finish(0.0, &MetricsRegistry::new()))
    }

    #[test]
    fn batch_stream_and_inline_front_doors_agree_job_for_job_and_count_for_count() {
        let corpus = corpus();
        let reference = batch(&corpus);
        assert_eq!(reference.stats().completed, corpus.jobs().len());
        for (door, (jobs, stats)) in [("stream", stream(&corpus)), ("inline", inline(&corpus))] {
            assert_eq!(jobs, reference.jobs(), "{door}: per-job results diverged");
            let expected = reference.stats();
            let counts = |s: &ServiceStats| {
                (
                    s.job_count,
                    s.completed,
                    s.warm_cache_hits,
                    s.cached_validations,
                    s.prewarmed_sessions,
                    s.store,
                    s.operator_cache,
                    s.latency,
                )
            };
            assert_eq!(
                counts(&stats),
                counts(expected),
                "{door}: counters diverged"
            );
        }
    }

    /// A batch releases each scenario at its last job, at any worker
    /// count: once the run is over no prepared scenario survives — store,
    /// guidance model and all — while the store counters equal the
    /// one-worker counts of the executor that kept every scenario to the
    /// end (pinned from it on this corpus).
    #[test]
    fn a_finished_batch_holds_no_scenario_and_keeps_every_store_count() {
        let corpus = corpus();
        let (reference, _) = stream(&corpus);
        for workers in [1, 2] {
            let executor = Executor::new(
                ServiceConfig {
                    workers,
                    ..config()
                },
                Mode::Batch,
                corpus.scenarios().iter().map(Cow::Borrowed).enumerate(),
                &Tracer::disabled(),
            )
            .unwrap();
            let prepared: Vec<std::sync::Weak<Prepared<'_>>> = executor
                .lock_scenarios()
                .values()
                .map(Arc::downgrade)
                .collect();
            assert_eq!(prepared.len(), corpus.scenarios().len());
            let handles = executor.submit_batch(corpus.jobs());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| executor.work());
                }
            });
            assert_eq!(executor.held(), 0, "{workers} workers");
            assert!(
                prepared.iter().all(|weak| weak.upgrade().is_none()),
                "{workers} workers: a released scenario is still referenced"
            );
            assert_eq!(executor.scenario_count(), corpus.scenarios().len());
            let jobs: Vec<JobResult> = handles.into_iter().map(JobHandle::into_result).collect();
            assert_eq!(jobs, reference, "{workers} workers");
            if workers == 1 {
                let store = executor.store_stats();
                let pinned = StoreStats {
                    lookups: 88,
                    hits: 37,
                    insertions: 51,
                    contended_locks: 0,
                };
                assert_eq!(store, pinned);
            }
        }
    }

    #[test]
    fn only_a_closed_batch_retires_a_scenario_for_good() {
        let normal = Priority::Normal;
        // A batch still accepting jobs, and a stream, never call a job the
        // last of its scenario.
        for mode in [Mode::Batch, Mode::Stream] {
            let mut state = queued(mode, &[(normal, 0)]);
            assert_eq!(dispatched(&mut state, None), Some(0));
            assert!(!state.retire(0), "{mode:?}");
        }
        // A closed batch: the last job of a scenario is the one that leaves
        // none of its siblings queued or running.
        let mut state = queued(Mode::Batch, &[(normal, 0), (normal, 0), (normal, 1)]);
        state.accepting = false;
        assert_eq!(dispatched(&mut state, None), Some(0));
        assert_eq!(dispatched(&mut state, None), Some(2));
        assert!(!state.retire(0), "job 1 is still queued");
        assert_eq!(dispatched(&mut state, Some(0)), Some(1));
        assert!(state.retire(1));
        assert!(state.retire(0));
    }

    /// Queues one job of `scenario` at `priority` under the next sequence
    /// number.
    fn queue_job(state: &mut QueueState<'_>, priority: Priority, scenario: usize) {
        let seq = state.next_seq();
        let job = JobSpec {
            scenario,
            label: format!("job {seq}"),
            config: thermsched::SchedulerConfig::new(165.0, 40.0).unwrap(),
            online: thermsched::OnlineContext::new(),
        };
        state.push(priority, seq, Cow::Owned(job), None);
    }

    /// A queue holding one job per `(priority, scenario)` entry, in order.
    fn queued(mode: Mode, jobs: &[(Priority, usize)]) -> QueueState<'static> {
        let mut state = QueueState::new(mode);
        for &(priority, scenario) in jobs {
            queue_job(&mut state, priority, scenario);
        }
        state
    }

    fn dispatched(state: &mut QueueState<'_>, last: Option<usize>) -> Option<u64> {
        state.dispatch(last).map(|pending| pending.seq)
    }

    #[test]
    fn batch_dispatch_takes_own_scenario_then_an_unheld_scenario_then_the_head() {
        let normal = Priority::Normal;
        // Jobs 0..4 of scenarios 0, 2, 0, 2: siblings sit apart.
        let mut state = queued(Mode::Batch, &[0, 2, 0, 2].map(|s| (normal, s)));
        // Workers A and B start: A takes the head, B the first job of a
        // scenario A is not running.
        assert_eq!(dispatched(&mut state, None), Some(0));
        assert_eq!(dispatched(&mut state, None), Some(1));
        // Jobs 4 and 5 of scenario 1 arrive, which nobody runs and which
        // sorts first among the free scenarios; B still stays on its own.
        queue_job(&mut state, normal, 1);
        queue_job(&mut state, normal, 1);
        state.retire(2);
        assert_eq!(dispatched(&mut state, Some(2)), Some(3));
        state.retire(0);
        assert_eq!(dispatched(&mut state, Some(0)), Some(2));
        // B's scenario is done: B moves to scenario 1, which nobody runs.
        state.retire(2);
        assert_eq!(dispatched(&mut state, Some(2)), Some(4));
        // A's scenario is done and every queued scenario is held: A takes
        // the head rather than idle.
        state.retire(0);
        assert_eq!(dispatched(&mut state, Some(0)), Some(5));
        assert_eq!(state.in_flight(), 2);
        state.retire(1);
        state.retire(1);
        assert_eq!(dispatched(&mut state, Some(1)), None);
        assert_eq!(state.in_flight(), 0);

        // A one-scenario batch still feeds every worker.
        let mut state = queued(Mode::Batch, &[(normal, 0), (normal, 0), (normal, 0)]);
        assert_eq!(dispatched(&mut state, None), Some(0));
        assert_eq!(dispatched(&mut state, None), Some(1));
        assert_eq!(dispatched(&mut state, None), Some(2));
    }

    #[test]
    fn stream_dispatch_is_strict_priority_and_fifo_within_a_class() {
        use Priority::{High, Low, Normal};
        let mut state = queued(
            Mode::Stream,
            &[
                (Low, 0),
                (Normal, 1),
                (High, 2),
                (Normal, 0),
                (High, 1),
                (Low, 0),
            ],
        );
        // The finished job's scenario never reorders a stream.
        let order: Vec<Option<u64>> = [Some(0), Some(1), Some(0), Some(0), None, Some(0)]
            .into_iter()
            .map(|last| dispatched(&mut state, last))
            .collect();
        assert_eq!(order, [2, 4, 1, 3, 0, 5].map(Some));
    }

    #[test]
    fn tally_counts_every_stats_counter_once_under_the_stats_names() {
        let tally = Tally::new();
        let ran = JobAccounting {
            warm_cache_hits: 3,
            cached_validations: 4,
            injected_faults: 1,
            retried_attempts: 2,
            latency_seconds: 0.5,
        };
        let failed = JobOutcome::Failed {
            error: "injected".to_owned(),
            retryable: true,
            attempts: 3,
        };
        tally.record(&failed, Some(&ran));
        tally.record(&JobOutcome::Shed(ShedCause::Drained), None);
        tally.add_run(
            StoreStats {
                lookups: 7,
                hits: 2,
                insertions: 5,
                contended_locks: 1,
            },
            OperatorCacheStats { hits: 1, misses: 2 },
            6,
        );
        tally.worker_crashed();
        let stats = tally.stats(&ServiceConfig::default(), 2, 1, 2.0);
        assert_eq!((stats.job_count, stats.failed, stats.shed), (2, 1, 1));
        assert_eq!((stats.retried_attempts, stats.injected_faults), (2, 1));
        assert_eq!((stats.warm_cache_hits, stats.cached_validations), (3, 4));
        assert_eq!((stats.prewarmed_sessions, stats.worker_crashes), (6, 1));
        assert_eq!(stats.store.lookups, 7);
        assert_eq!(stats.operator_cache.misses, 2);
        // Only the job that ran adds a latency sample and counts towards
        // throughput.
        assert_eq!(stats.latency.samples, 1);
        assert_eq!(stats.jobs_per_second, 0.5);
        assert_eq!(stats.wall_seconds, 2.0);

        // The registry holds exactly the stats view plus the latency
        // histogram: one copy of every counter, under one set of names.
        let snapshot = tally.snapshot();
        let view = stats.metrics();
        assert_eq!(snapshot.counters, view.counters);
        assert_eq!(snapshot.gauges, view.gauges);
        assert_eq!(snapshot.histograms.len(), 1);
        assert_eq!(snapshot.histograms[0].name, "job.latency_seconds");
        assert_eq!(snapshot.histograms[0].count, 1);
    }

    /// Delegates to a grid backend but panics on a lane with no power.
    struct PanicsOnIdle(Arc<dyn ThermalBackend>);

    impl thermsched_thermal::ThermalSimulator for PanicsOnIdle {
        fn block_count(&self) -> usize {
            self.0.block_count()
        }
        fn ambient(&self) -> f64 {
            self.0.ambient()
        }
        fn simulate_session(
            &self,
            power: &PowerMap,
            duration: f64,
        ) -> thermsched_thermal::Result<SessionThermalResult> {
            assert!(power.total() > 0.0, "idle lane");
            self.0.simulate_session(power, duration)
        }
        fn steady_state(
            &self,
            power: &PowerMap,
        ) -> thermsched_thermal::Result<thermsched_thermal::Temperatures> {
            self.0.steady_state(power)
        }
    }

    impl ThermalBackend for PanicsOnIdle {
        fn fidelity(&self) -> thermsched_thermal::SimulationFidelity {
            self.0.fidelity()
        }
        fn supports_fast_path(&self) -> bool {
            self.0.supports_fast_path()
        }
        fn backend_name(&self) -> &'static str {
            "panics-on-idle"
        }
    }

    #[test]
    fn a_split_prewarm_group_matches_one_batch_and_fails_or_panics_whole() {
        let corpus = ScenarioSpec {
            scenarios: 1,
            grid_shapes: vec![(3, 3)],
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let scenario = &corpus.scenarios()[0];
        let sut = &scenario.sut;
        let backend = crate::BackendKind::GridTransient { cells_per_core: 1 }
            .build(scenario)
            .unwrap();
        let mut powers: Vec<PowerMap> = (0..sut.core_count())
            .map(|core| TestSession::new([core], sut).power_map(sut).unwrap())
            .collect();
        let lanes = powers.len();
        // Every split, down to one-lane chunks on the single-session path,
        // gives the one multi-RHS batch's results bit for bit.
        let whole = backend.simulate_sessions(&powers, 1.0).unwrap();
        for chunk in 1..=lanes {
            let split = simulate_split(backend.as_ref(), &powers, 1.0, chunk).unwrap();
            assert_eq!(split, whole, "chunks of {chunk}");
        }
        // A bad lane fails the group whether it lands on the calling
        // thread's chunk or on a spawned one.
        powers.push(PowerMap::zeros(1));
        for chunk in [1, lanes + 1] {
            assert!(simulate_split(backend.as_ref(), &powers, 1.0, chunk).is_err());
        }
        // A panic on a spawned chunk resumes on the calling thread with
        // its own payload.
        powers.pop();
        powers.push(PowerMap::zeros(sut.floorplan().blocks().len()));
        let panicky = PanicsOnIdle(backend);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            simulate_split(&panicky, &powers, 1.0, 2)
        }))
        .unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "idle lane");
    }
}
