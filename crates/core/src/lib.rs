//! Thermal-safe system-on-chip test scheduling guided by a test-session
//! thermal model — a from-scratch reproduction of *"Rapid Generation of
//! Thermal-Safe Test Schedules"* (Rosinger, Al-Hashimi, Chakrabarty,
//! DATE 2005).
//!
//! # What this crate does
//!
//! Testing an SoC core dissipates far more power than normal operation, and
//! classic power-constrained test scheduling only bounds the *total* power of
//! each test session. Because power density varies wildly across the die, two
//! sessions with identical total power can differ by tens of degrees in peak
//! temperature. This crate implements the paper's alternative:
//!
//! 1. a cheap, resistive **session thermal model** ([`SessionThermalModel`])
//!    derived from the floorplan, which scores a candidate session by how
//!    poorly its *active* cores can shed heat to their *passive* neighbours,
//! 2. the **thermal-aware scheduling algorithm**
//!    ([`ThermalAwareScheduler`], Algorithm 1 of the paper) that greedily
//!    fills sessions under a session-thermal-characteristic limit (`STCL`)
//!    and validates each candidate against a full thermal simulation before
//!    committing it, penalising violators through adaptive weights, and
//! 3. the **baselines and experiment drivers** needed to reproduce the
//!    paper's evaluation ([`PowerConstrainedScheduler`],
//!    [`SequentialScheduler`], [`experiments`], [`report`]).
//!
//! The thermal simulation itself lives in [`thermsched_thermal`], the
//! floorplan geometry in [`thermsched_floorplan`] and the system-under-test
//! description in [`thermsched_soc`]; this crate ties them together behind a
//! scheduler-facing API.
//!
//! # Quick start
//!
//! The [`Engine`] facade owns everything a scheduling session needs — the
//! backend (any [`thermsched_thermal::ThermalBackend`]; by default an
//! RC-compact simulator whose precomputed-operator fast path is selected
//! automatically wherever it is exact), the configuration, and a session
//! cache that stays warm across runs:
//!
//! ```
//! use thermsched::Engine;
//! use thermsched_soc::library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The 15-core Alpha-21364-like system the paper evaluates on, scheduled
//! // at the paper's mid-range operating point (TL = 165 C, STCL = 50).
//! let sut = library::alpha21364_sut();
//! let engine = Engine::builder().sut(&sut).build()?;
//!
//! let outcome = engine.schedule()?;
//! println!("schedule length: {} s", outcome.schedule_length());
//! println!("simulation effort: {} s", outcome.simulation_effort);
//! println!("hottest committed session: {:.1} C", outcome.max_temperature);
//! assert!(outcome.max_temperature < 165.0);
//!
//! // Sweeps are declarative; points reuse the engine's warm cache.
//! let report = engine.sweep(&thermsched::SweepSpec::grid(&[165.0], &[20.0, 100.0]))?;
//! assert_eq!(report.points().len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! # Backends
//!
//! Any [`thermsched_thermal::ThermalBackend`] can validate schedules. The
//! RC-compact simulator is the default; the grid simulator runs its
//! full-fidelity transient path (`backend_name() == "grid-transient"`) or,
//! with `TransientMethod::Adi`, Peaceman–Rachford alternating directions at
//! `O(n)` per step for 96×96+ cell grids. ADI iterates are not provably
//! monotone, so that backend tracks session maxima per step and reports
//! `supports_fast_path() == false`.
//!
//! # Scaling out
//!
//! For many scheduling runs over many systems, the `thermsched_service`
//! crate layers a batch service on top of the engine: a seeded scenario
//! corpus generator, one job executor, and one backend, guidance model and
//! session store per scenario, the store held through a
//! [`SessionCacheHandle`] that all of the scenario's constant-power jobs
//! share. Every public type
//! here implements the `thermsched_wire` crate's `Wire` trait, which is how
//! the service crate's `MultiprocCoordinator` ships work to worker
//! processes, with per-job results byte-identical at any process count.
//!
//! # Observability
//!
//! [`Engine`] (via [`EngineBuilder::tracer`])
//! and [`ThermalAwareScheduler`] emit `thermsched_obs` spans around
//! scheduling (`engine.schedule`, `scheduler.phase1`, `scheduler.phase2`)
//! and store traffic (`store.probe`, `store.publish`); an engine built
//! without a tracer pays nothing. The counters of [`StoreStats`] and
//! [`OperatorCacheStats`] reach the service crate's metrics registry as
//! `store.*` and `operator_cache.*`.
//!
//! # Time-varying power and online re-scheduling
//!
//! Sessions may run under a time-varying power trace ([`TraceProfile`],
//! materialised per candidate into a `thermsched_thermal::PowerTrace`) and
//! may be re-planned from a caller-supplied temperature state instead of an
//! ambient die. The online inputs travel in an [`OnlineContext`], which is
//! validated when it is built and keeps the warm start as the block
//! `Temperatures` every validating simulation starts from. It is passed to
//! [`Engine::schedule_online_with`], or to [`Engine::run`] together with a
//! checkpoint, and the scheduler borrows it: a run copies neither the trace
//! nor the warm start, and [`SchedulerConfig`] stays `Copy`. An empty
//! context is normalised away, span attributes included, so
//! `schedule_online_with(config, &OnlineContext::new())` returns and records
//! what `schedule_with(config)` does. An online run reuses its own
//! validations but leaves the engine's shared store alone: its results
//! depend on the context, and the store only holds the constant-power,
//! from-ambient results offline runs share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod checkpoint;
mod config;
mod engine;
mod error;
pub mod experiments;
mod online;
mod operator_cache;
mod parallel;
pub mod report;
mod schedule;
mod scheduler;
mod session_model;
mod session_store;
mod sweep;
mod validator;
mod weights;
mod wire;

pub use baseline::{PackingOrder, PowerConstrainedScheduler, SequentialScheduler};
pub use checkpoint::{EffortBudget, InterruptReason, ScheduleCheckpoint, ScheduleProgress};
pub use config::{CoreOrdering, CoreViolationPolicy, SchedulerConfig};
pub use engine::{Engine, EngineBuilder};
pub use error::ScheduleError;
pub use experiments::{BaselineComparison, SweepPoint};
pub use online::{OnlineContext, TraceProfile, TraceSegment};
pub use operator_cache::{OperatorCacheHandle, OperatorCacheStats, OperatorKey};
pub use parallel::NestedParallelismGuard;
pub use schedule::{TestSchedule, TestSession};
pub use scheduler::{ScheduleOutcome, SessionRecord, ThermalAwareScheduler};
pub use session_model::{SessionModelOptions, SessionThermalModel, DEFAULT_STC_SCALE};
pub use session_store::{SessionCacheHandle, StoreStats};
pub use sweep::{SweepReport, SweepSpec, SweepVariant};
pub use validator::{ScheduleEvaluation, ScheduleValidator, SessionEvaluation};
pub use weights::CoreWeights;

/// Convenience result alias used throughout this crate.
pub type Result<T, E = ScheduleError> = std::result::Result<T, E>;
