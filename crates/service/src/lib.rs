//! Multi-tenant batch scheduling on top of the `thermsched` engine: generate
//! a corpus of scenarios, drive hundreds of scheduling jobs through a worker
//! pool, and aggregate the results.
//!
//! The paper schedules one system at a time; this crate is the service layer
//! that turns the reproduction into a workload machine. It adds five
//! pieces:
//!
//! 1. **Scenario corpus generation** ([`ScenarioSpec`] → [`Corpus`]): a
//!    seed-driven family of systems under test (via
//!    [`thermsched_soc::SocGenerator`]) crossed with an operating grid of
//!    `TL × STCL` points and configuration variants. Fully deterministic:
//!    the corpus is a pure function of the spec. Each job is one
//!    [`JobSpec`] from generation to attempt: its scenario, label,
//!    configuration and `online` state (a [`thermsched::OnlineContext`],
//!    empty for a constant-power job), validated once when the spec is
//!    built or the document decoded. A decoded corpus refuses an empty
//!    warm start and one whose length is not its scenario's core count.
//! 2. **A concurrent job runner** ([`ServiceRunner`]): every job is queued
//!    and worker threads drain the queue scenario by scenario (a freed
//!    worker prefers the next job of the scenario it just ran), per-job
//!    errors and panics are isolated into the job's [`JobOutcome`], and
//!    every job schedules through a [`thermsched::Engine`] borrowing its
//!    scenario's backend, guidance model and session store
//!    ([`thermsched::SessionCacheHandle`]), each built once per scenario
//!    and released when the scenario's last job retires.
//!    Constant-power jobs share the store: its one phase-1
//!    characterisation (every core tested alone), which the scenario's
//!    first job publishes and every later job reads as a slice, and its
//!    validated multi-core sessions. Online jobs (a trace or a warm start)
//!    lend the engine their context and keep their results to themselves.
//!    For a [`BackendKind`] that batches, the runner first fills every
//!    store's characterisation, advancing the single-core sessions per
//!    operator key in multi-RHS passes split over the worker threads.
//! 3. **An aggregated report** ([`ServiceReport`]): deterministic per-job
//!    results (identical at any worker count) plus run statistics —
//!    throughput, cache hit rates, lock contention, latency percentiles
//!    ([`ServiceStats`]).
//! 4. **A streaming front-end with first-class failure handling**
//!    ([`Frontend`]): a long-lived submission API over the same execution
//!    machinery. A [`Submission`] is a [`JobSpec`] plus its admission
//!    knobs (priority, per-job deadline); the front-end adds a bounded
//!    ingress queue with priority admission control and load shedding,
//!    per-submission [`JobHandle`]s, seeded deterministic fault injection
//!    and retries ([`FaultPlan`], [`RetryPolicy`]), effort-budget deadlines
//!    enforced at the scheduler's cooperative checkpoints, and graceful
//!    drain ([`Frontend::drain`]). [`ClockKind`], re-exported from
//!    `thermsched_obs`, is the one clock setting: it times delays, backoffs
//!    and latencies here and span timings in a trace.
//! 5. **A multi-process sharding coordinator** ([`MultiprocCoordinator`]):
//!    deals whole scenarios, each to the least-loaded of several real
//!    worker processes (the `thermsched worker` binary, or anything
//!    speaking the same framed protocol via [`worker_serve`]), over
//!    stdin/stdout pipes, merges the results and per-worker stats into one
//!    [`ServiceReport`], and survives workers dying mid-run by reassigning
//!    their unfinished jobs ([`ServiceStats::worker_crashes`]). Per-job results remain
//!    byte-identical at any process count.
//!
//! The runner, the front-end and each worker process run their jobs on one
//! executor: one preparation step (backends, stores, prewarm), one attempt
//! loop (faults, deadlines, retries, panic isolation) and one set of
//! counters. They differ only in how jobs arrive — a closed batch, a stream
//! of submissions, or `WORK` frames of at most [`WORK_FRAME_SCENARIOS`]
//! scenarios, each with its jobs — and in how long a scenario stays
//! prepared: until its last job in a batch, until the frame's last job in
//! a worker process, and for the front-end's whole life in a stream.
//!
//! Every execution path is instrumented with [`thermsched_obs`]: pass a
//! [`thermsched_obs::Tracer`] and [`thermsched_obs::MetricsRegistry`] to
//! [`ServiceRunner::run_traced`], [`Frontend::start_traced`] or
//! [`MultiprocCoordinator::run_traced`] and every job produces a span tree
//! (`job` → `attempt` → `engine.schedule` → scheduler phases and store
//! probes). Every run counts into a metrics registry, [`ServiceStats`] is
//! read off its snapshot, and the snapshot is absorbed into the caller's
//! registry ([`ServiceStats::metrics`] lists the names). The untraced entry
//! points pay nothing for spans — they run with a disabled tracer whose span
//! calls compile down to no-ops.
//!
//! # Example
//!
//! ```
//! use thermsched_service::{ScenarioSpec, ServiceConfig, ServiceRunner};
//!
//! # fn main() -> Result<(), thermsched_service::ServiceError> {
//! // Four 9..20-core systems, each scheduled at two STCL points.
//! let corpus = ScenarioSpec {
//!     scenarios: 4,
//!     seed: 42,
//!     ..ScenarioSpec::default()
//! }
//! .build()?;
//!
//! // One worker keeps the example deterministic: with a pool, two jobs of
//! // one scenario may race on a cold store and both miss the warm cache.
//! let runner = ServiceRunner::new(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! })?;
//! let report = runner.run(&corpus)?;
//!
//! assert_eq!(report.stats().completed, 8);
//! // Jobs of one scenario share phase-1 characterisations through the
//! // scenario's store, so the batch sees warm cache hits.
//! assert!(report.stats().warm_cache_hits > 0);
//! print!("{}", report.render_summary());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod executor;
mod fault;
mod frontend;
mod multiproc;
mod report;
mod runner;
mod scenario;
mod wire;

pub use error::ServiceError;
pub use fault::{ClockKind, FaultKind, FaultPlan, RetryPolicy};
pub use frontend::{
    DrainReport, Frontend, FrontendConfig, JobHandle, Priority, Rejected, ShedCause, Submission,
};
pub use multiproc::{
    worker_serve, CrashPlan, MultiprocConfig, MultiprocCoordinator, PROTOCOL_VERSION,
    WORK_FRAME_SCENARIOS,
};
pub use report::{JobMetrics, JobOutcome, JobResult, LatencyStats, ServiceReport, ServiceStats};
pub use runner::{BackendKind, ServiceConfig, ServiceRunner};
pub use scenario::{Corpus, JobSpec, Scenario, ScenarioSpec, TraceFamily};

/// Convenience result alias used throughout this crate.
pub type Result<T, E = ServiceError> = std::result::Result<T, E>;
