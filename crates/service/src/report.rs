//! Job results and the aggregated service report.
//!
//! The report is split along the determinism boundary on purpose:
//!
//! * [`JobResult`] (and [`ServiceReport::render_jobs`]) contain only values
//!   that are pure functions of the corpus — the simulators are
//!   deterministic, so schedule lengths, session counts, effort, discard
//!   counts and temperatures are identical no matter how many workers ran
//!   the batch or in which order the jobs interleaved. The service's
//!   determinism contract (same corpus ⇒ byte-identical job results at any
//!   worker count) is stated over exactly this part.
//! * [`ServiceStats`] holds everything that legitimately depends on timing
//!   and interleaving: wall clock, throughput, cache hit counts (whichever
//!   of two jobs sharing a core-set key runs first pays the simulation) and
//!   store lock contention.

use std::fmt::Write as _;

use thermsched::{OperatorCacheStats, ScheduleOutcome, StoreStats};
use thermsched_obs::MetricsSnapshot;

use crate::frontend::{Rejected, ShedCause};
use crate::{JobSpec, ServiceConfig};

/// The deterministic metrics of one completed scheduling job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Generated schedule length in seconds.
    pub schedule_length: f64,
    /// Number of test sessions in the schedule.
    pub session_count: usize,
    /// Simulation effort in seconds of simulated session time (the paper's
    /// cost metric — attempts count whether served from cache or not).
    pub simulation_effort: f64,
    /// Simulated time spent in per-core characterisation (phase 1).
    pub characterization_effort: f64,
    /// Discarded (thermally violating) candidate sessions.
    pub discarded_sessions: usize,
    /// Hottest committed-session temperature (°C).
    pub max_temperature: f64,
    /// The temperature limit actually enforced (raised above the configured
    /// one only under the `RaiseLimit` policy).
    pub effective_temperature_limit: f64,
    /// Attempts this job took, including the successful one (1 without
    /// retries; larger only when injected faults were retried away).
    pub attempts: u32,
}

impl From<&ScheduleOutcome> for JobMetrics {
    fn from(outcome: &ScheduleOutcome) -> Self {
        JobMetrics {
            schedule_length: outcome.schedule_length(),
            session_count: outcome.session_count(),
            simulation_effort: outcome.simulation_effort,
            characterization_effort: outcome.characterization_effort,
            discarded_sessions: outcome.discarded_sessions,
            max_temperature: outcome.max_temperature,
            effective_temperature_limit: outcome.effective_temperature_limit,
            attempts: 1,
        }
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The run completed; deterministic metrics attached.
    Completed(JobMetrics),
    /// The scheduler returned an error (e.g. a core-level violation under
    /// the failing policy, or an exhausted iteration budget).
    Failed {
        /// The scheduler error, rendered.
        error: String,
        /// Whether the error was classified retryable
        /// ([`crate::ServiceError::is_retryable`]); a retryable terminal
        /// failure means the retry budget was exhausted.
        retryable: bool,
        /// Attempts spent before giving up (1 without retries).
        attempts: u32,
    },
    /// The job panicked; the panic was caught and isolated to this job.
    Panicked {
        /// The panic payload, rendered.
        message: String,
        /// Attempts spent before giving up (1 without retries).
        attempts: u32,
    },
    /// The job's effort-budget deadline expired at a scheduling checkpoint.
    ///
    /// Deadlines are measured in *simulated* seconds of thermal-model
    /// effort, not wall clock, so this outcome is as deterministic as a
    /// completed one. A `budget` of `0.0` marks a job cancelled in flight
    /// by [`crate::Frontend::drain`].
    DeadlineExceeded {
        /// Simulated effort spent when the deadline fired.
        spent_effort: f64,
        /// The effort budget that was exceeded (0.0 = drain cancellation).
        budget: f64,
        /// Attempts spent, including the one that hit the deadline.
        attempts: u32,
    },
    /// The job was admitted but dropped from the queue before running.
    Shed(ShedCause),
    /// The job was refused at submission and never entered the queue.
    Rejected(Rejected),
}

impl JobOutcome {
    /// The metrics of a completed job, if it completed.
    pub fn metrics(&self) -> Option<&JobMetrics> {
        match self {
            JobOutcome::Completed(metrics) => Some(metrics),
            _ => None,
        }
    }

    /// Attempts the job consumed (0 for jobs that never ran: shed or
    /// rejected work).
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Completed(m) => m.attempts,
            JobOutcome::Failed { attempts, .. }
            | JobOutcome::Panicked { attempts, .. }
            | JobOutcome::DeadlineExceeded { attempts, .. } => *attempts,
            JobOutcome::Shed(_) | JobOutcome::Rejected(_) => 0,
        }
    }
}

/// Latency percentiles over the resolved jobs of one run, nearest-rank.
///
/// Under [`crate::ClockKind::Wall`] these are wall-clock submission-to-
/// resolution times and belong firmly on the timing-dependent side of the
/// report; under [`crate::ClockKind::Virtual`] they aggregate the
/// deterministic virtual seconds accrued by injected delays and backoffs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Latency samples aggregated (resolved jobs).
    pub samples: usize,
    /// Median latency in seconds.
    pub p50_seconds: f64,
    /// 99th-percentile latency in seconds.
    pub p99_seconds: f64,
    /// Worst latency in seconds.
    pub max_seconds: f64,
}

impl LatencyStats {
    /// Nearest-rank percentiles of `samples` (seconds). Empty input yields
    /// the all-zero stats.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = |p: f64| {
            let idx = (p * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        LatencyStats {
            samples: sorted.len(),
            p50_seconds: rank(0.50),
            p99_seconds: rank(0.99),
            max_seconds: sorted[sorted.len() - 1],
        }
    }
}

/// One job of the batch, resolved: its spec fields plus how it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Index of the job in [`crate::Corpus::jobs`] order.
    pub index: usize,
    /// Scenario index the job ran against.
    pub scenario: usize,
    /// Name of that scenario (`"s03-g4x4"`).
    pub scenario_name: String,
    /// Operating-point label from the [`JobSpec`].
    pub label: String,
    /// How the job ended.
    pub outcome: JobOutcome,
}

impl JobResult {
    pub(crate) fn new(
        index: usize,
        spec: &JobSpec,
        scenario_name: &str,
        outcome: JobOutcome,
    ) -> Self {
        JobResult {
            index,
            scenario: spec.scenario,
            scenario_name: scenario_name.to_owned(),
            label: spec.label.clone(),
            outcome,
        }
    }
}

/// Timing- and interleaving-dependent aggregates of one batch run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceStats {
    /// What ran the jobs: the worker threads an in-process batch started
    /// (one per job at most, at least one) or a [`crate::Frontend`]
    /// started, or the worker processes a [`crate::MultiprocCoordinator`]
    /// spawned (one per scenario with jobs at most).
    pub workers: usize,
    /// Label of the thermal backend kind validating every job
    /// (`"rc-compact"`, `"grid-transient(4)"`).
    pub backend_name: String,
    /// Operator-cache counters of the run's backend-construction pass.
    /// Backends are built sequentially before the workers start, so unlike
    /// the session-store counters these are a deterministic function of the
    /// corpus: `misses` counts distinct [`crate::BackendKind::key`]s and
    /// `hits` the scenarios that reused one.
    pub operator_cache: OperatorCacheStats,
    /// Scenarios in the corpus.
    pub scenario_count: usize,
    /// Jobs executed.
    pub job_count: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs that returned a scheduler error.
    pub failed: usize,
    /// Jobs that panicked (isolated).
    pub panicked: usize,
    /// Jobs whose effort-budget deadline fired (including drain
    /// cancellations).
    pub deadline_exceeded: usize,
    /// Jobs shed from the queue before running (admission displacement or
    /// drain).
    pub shed: usize,
    /// Submissions rejected outright (never queued).
    pub rejected: usize,
    /// Retry attempts beyond each job's first, summed over the run.
    pub retried_attempts: usize,
    /// Faults fired by the configured [`crate::FaultPlan`].
    pub injected_faults: usize,
    /// Worker *processes* that died mid-batch (EOF or a malformed frame on
    /// their pipe) and had their unacknowledged jobs reassigned. Only the
    /// multi-process coordinator ([`crate::MultiprocCoordinator`]) can make
    /// this non-zero; in-process runs always report 0.
    pub worker_crashes: usize,
    /// Latency percentiles over the jobs that ran (all-zero when none
    /// did): dispatch to result for batch and multi-process runs,
    /// submission to resolution for the streaming front-end.
    pub latency: LatencyStats,
    /// Wall-clock duration of the batch in seconds.
    pub wall_seconds: f64,
    /// Jobs per wall-clock second.
    pub jobs_per_second: f64,
    /// Candidate validations served from any cache, summed over jobs.
    pub cached_validations: usize,
    /// Simulations avoided because another run had already published the
    /// result to the scenario's shared store, summed over jobs.
    pub warm_cache_hits: usize,
    /// Characterisation sessions published by the same-shape batcher before
    /// the workers started (0 when the backend kind does not batch).
    pub prewarmed_sessions: usize,
    /// Usage counters summed over every scenario's shared store.
    pub store: StoreStats,
}

/// The result of one [`crate::ServiceRunner::run`]: per-job results in
/// deterministic corpus order, plus run statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    pub(crate) jobs: Vec<JobResult>,
    pub(crate) stats: ServiceStats,
}

impl ServiceReport {
    pub(crate) fn new(jobs: Vec<JobResult>, stats: ServiceStats) -> Self {
        ServiceReport { jobs, stats }
    }

    /// Per-job results, in corpus job order (independent of which worker ran
    /// what when).
    pub fn jobs(&self) -> &[JobResult] {
        &self.jobs
    }

    /// Run statistics (throughput, cache behaviour, failure counts).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Hottest committed temperature over all completed jobs (°C), or
    /// `None` when no job completed.
    pub fn max_temperature(&self) -> Option<f64> {
        self.jobs
            .iter()
            .filter_map(|job| job.outcome.metrics())
            .map(|m| m.max_temperature)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.max(t)))
            })
    }

    /// Renders the deterministic per-job table: one line per job, byte
    /// identical across worker counts for the same corpus.
    pub fn render_jobs(&self) -> String {
        let mut out = String::new();
        for job in &self.jobs {
            let _ = write!(
                out,
                "#{:03} {} {} | ",
                job.index, job.scenario_name, job.label
            );
            match &job.outcome {
                JobOutcome::Completed(m) => {
                    let _ = writeln!(
                        out,
                        "len {:.3} s, sessions {}, effort {:.3} s, discarded {}, max {:.3} C",
                        m.schedule_length,
                        m.session_count,
                        m.simulation_effort,
                        m.discarded_sessions,
                        m.max_temperature,
                    );
                }
                JobOutcome::Failed {
                    error, attempts, ..
                } => {
                    if *attempts > 1 {
                        let _ = writeln!(out, "FAILED after {attempts} attempts: {error}");
                    } else {
                        let _ = writeln!(out, "FAILED: {error}");
                    }
                }
                JobOutcome::Panicked { message, attempts } => {
                    if *attempts > 1 {
                        let _ = writeln!(out, "PANICKED after {attempts} attempts: {message}");
                    } else {
                        let _ = writeln!(out, "PANICKED: {message}");
                    }
                }
                JobOutcome::DeadlineExceeded {
                    spent_effort,
                    budget,
                    ..
                } => {
                    let _ = writeln!(
                        out,
                        "DEADLINE EXCEEDED: spent {spent_effort:.3} s of {budget:.3} s budget"
                    );
                }
                JobOutcome::Shed(cause) => {
                    let _ = writeln!(out, "SHED: {cause}");
                }
                JobOutcome::Rejected(rejection) => {
                    let _ = writeln!(out, "REJECTED: {rejection}");
                }
            }
        }
        out
    }

    /// Renders the aggregate summary (throughput, cache behaviour). This
    /// part is timing-dependent by nature.
    pub fn render_summary(&self) -> String {
        self.stats
            .render_with_max_temperature(self.max_temperature())
    }
}

impl ServiceStats {
    /// Renders the aggregate summary on its own — what a
    /// [`crate::DrainReport`] prints, where no per-job table (and thus no
    /// hottest temperature) is attached.
    pub fn render(&self) -> String {
        self.render_with_max_temperature(None)
    }

    /// These stats as a metrics snapshot, under the stable names every run
    /// counts into — the inverse of how the stats are derived: a run's
    /// counters live once, in a metrics registry, and these stats are read
    /// off its snapshot. The names are what
    /// [`crate::ServiceRunner::run_traced`] absorbs into its registry and
    /// what trace documents carry:
    ///
    /// | field | metric |
    /// |---|---|
    /// | `job_count` | `service.jobs` |
    /// | `completed` / `failed` / `panicked` / `deadline_exceeded` / `shed` / `rejected` | `service.<field>` |
    /// | `retried_attempts` / `injected_faults` / `worker_crashes` | `service.<field>` |
    /// | `warm_cache_hits` / `cached_validations` / `prewarmed_sessions` | `service.<field>` |
    /// | `store.<field>` | `store.<field>` |
    /// | `operator_cache.hits` / `misses` | `operator_cache.hits` / `misses` |
    /// | `wall_seconds` / `jobs_per_second` | `service.<field>` (gauges) |
    /// | `latency` | `job.latency_seconds` (histogram, in the run's registry) |
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("operator_cache.hits".to_owned(), self.operator_cache.hits),
                (
                    "operator_cache.misses".to_owned(),
                    self.operator_cache.misses,
                ),
                (
                    "service.cached_validations".to_owned(),
                    self.cached_validations as u64,
                ),
                ("service.completed".to_owned(), self.completed as u64),
                (
                    "service.deadline_exceeded".to_owned(),
                    self.deadline_exceeded as u64,
                ),
                ("service.failed".to_owned(), self.failed as u64),
                (
                    "service.injected_faults".to_owned(),
                    self.injected_faults as u64,
                ),
                ("service.jobs".to_owned(), self.job_count as u64),
                ("service.panicked".to_owned(), self.panicked as u64),
                (
                    "service.prewarmed_sessions".to_owned(),
                    self.prewarmed_sessions as u64,
                ),
                ("service.rejected".to_owned(), self.rejected as u64),
                (
                    "service.retried_attempts".to_owned(),
                    self.retried_attempts as u64,
                ),
                ("service.shed".to_owned(), self.shed as u64),
                (
                    "service.warm_cache_hits".to_owned(),
                    self.warm_cache_hits as u64,
                ),
                (
                    "service.worker_crashes".to_owned(),
                    self.worker_crashes as u64,
                ),
                (
                    "store.contended_locks".to_owned(),
                    self.store.contended_locks,
                ),
                ("store.hits".to_owned(), self.store.hits),
                ("store.insertions".to_owned(), self.store.insertions),
                ("store.lookups".to_owned(), self.store.lookups),
            ],
            gauges: vec![
                ("service.jobs_per_second".to_owned(), self.jobs_per_second),
                ("service.wall_seconds".to_owned(), self.wall_seconds),
            ],
            histograms: Vec::new(),
        }
    }

    /// The stats a run's metrics snapshot describes — the inverse of
    /// [`Self::metrics`]. The header fields come from the configuration
    /// and the latency percentiles from the raw samples, which a
    /// fixed-bucket histogram cannot rank.
    pub(crate) fn from_metrics(
        config: &ServiceConfig,
        workers: usize,
        scenario_count: usize,
        metrics: &MetricsSnapshot,
        latency: LatencyStats,
    ) -> ServiceStats {
        let count = |name: &str| metrics.counter(name).unwrap_or(0);
        let size = |name: &str| count(name) as usize;
        let gauge = |name: &str| metrics.gauge(name).unwrap_or(0.0);
        ServiceStats {
            workers,
            backend_name: config.backend.label(),
            operator_cache: OperatorCacheStats {
                hits: count("operator_cache.hits"),
                misses: count("operator_cache.misses"),
            },
            scenario_count,
            job_count: size("service.jobs"),
            completed: size("service.completed"),
            failed: size("service.failed"),
            panicked: size("service.panicked"),
            deadline_exceeded: size("service.deadline_exceeded"),
            shed: size("service.shed"),
            rejected: size("service.rejected"),
            retried_attempts: size("service.retried_attempts"),
            injected_faults: size("service.injected_faults"),
            worker_crashes: size("service.worker_crashes"),
            latency,
            wall_seconds: gauge("service.wall_seconds"),
            jobs_per_second: gauge("service.jobs_per_second"),
            cached_validations: size("service.cached_validations"),
            warm_cache_hits: size("service.warm_cache_hits"),
            prewarmed_sessions: size("service.prewarmed_sessions"),
            store: StoreStats {
                lookups: count("store.lookups"),
                hits: count("store.hits"),
                insertions: count("store.insertions"),
                contended_locks: count("store.contended_locks"),
            },
        }
    }

    pub(crate) fn render_with_max_temperature(&self, max_temperature: Option<f64>) -> String {
        let s = self;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "service report: {} jobs over {} scenarios, {} workers, {} backend",
            s.job_count, s.scenario_count, s.workers, s.backend_name
        );
        let _ = writeln!(
            out,
            "  completed {}, failed {}, panicked {}",
            s.completed, s.failed, s.panicked
        );
        if s.deadline_exceeded + s.shed + s.rejected + s.retried_attempts + s.injected_faults > 0 {
            let _ = writeln!(
                out,
                "  deadline exceeded {}, shed {}, rejected {}, retried attempts {}, \
                 injected faults {}",
                s.deadline_exceeded, s.shed, s.rejected, s.retried_attempts, s.injected_faults
            );
        }
        if s.worker_crashes > 0 {
            let _ = writeln!(out, "  worker crashes {}", s.worker_crashes);
        }
        let _ = writeln!(
            out,
            "  wall {:.3} s, {:.1} jobs/s",
            s.wall_seconds, s.jobs_per_second
        );
        if s.latency.samples > 0 {
            let _ = writeln!(
                out,
                "  latency p50 {:.6} s, p99 {:.6} s, max {:.6} s over {} jobs",
                s.latency.p50_seconds,
                s.latency.p99_seconds,
                s.latency.max_seconds,
                s.latency.samples
            );
        } else {
            // No samples means the percentiles are undefined, not 0.0 s —
            // rendering the default zeros would read as an impossibly fast
            // run.
            let _ = writeln!(out, "  latency p50 n/a, p99 n/a, max n/a (no samples)");
        }
        let _ = writeln!(
            out,
            "  shared store: {} lookups, {} hits ({:.1}% hit rate), {} insertions, \
             {} contended locks",
            s.store.lookups,
            s.store.hits,
            s.store.hit_rate() * 100.0,
            s.store.insertions,
            s.store.contended_locks
        );
        match max_temperature {
            Some(t) => {
                let _ = writeln!(out, "  hottest committed temperature {t:.3} C");
            }
            None => {
                let _ = writeln!(out, "  hottest committed temperature n/a");
            }
        }
        let _ = writeln!(
            out,
            "  warm cache hits {}, cached validations {}, prewarmed sessions {}",
            s.warm_cache_hits, s.cached_validations, s.prewarmed_sessions
        );
        let _ = writeln!(
            out,
            "  operator cache: {} backends built, {} scenarios reusing one",
            s.operator_cache.misses, s.operator_cache.hits
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> JobMetrics {
        JobMetrics {
            schedule_length: 6.0,
            session_count: 6,
            simulation_effort: 9.0,
            characterization_effort: 12.0,
            discarded_sessions: 3,
            max_temperature: 151.25,
            effective_temperature_limit: 165.0,
            attempts: 1,
        }
    }

    fn report() -> ServiceReport {
        let jobs = vec![
            JobResult {
                index: 0,
                scenario: 0,
                scenario_name: "s00-g3x3".to_owned(),
                label: "TL=165 STCL=40 wf=1.1 AsGiven".to_owned(),
                outcome: JobOutcome::Completed(metrics()),
            },
            JobResult {
                index: 1,
                scenario: 1,
                scenario_name: "s01-g4x3".to_owned(),
                label: "TL=165 STCL=80 wf=1.1 AsGiven".to_owned(),
                outcome: JobOutcome::Failed {
                    error: "iteration budget exhausted".to_owned(),
                    retryable: false,
                    attempts: 1,
                },
            },
        ];
        let stats = ServiceStats {
            workers: 4,
            backend_name: "rc-compact".to_owned(),
            operator_cache: OperatorCacheStats { hits: 1, misses: 1 },
            scenario_count: 2,
            job_count: 2,
            completed: 1,
            failed: 1,
            panicked: 0,
            deadline_exceeded: 0,
            shed: 0,
            rejected: 0,
            retried_attempts: 0,
            injected_faults: 0,
            worker_crashes: 0,
            latency: LatencyStats::default(),
            wall_seconds: 0.5,
            jobs_per_second: 4.0,
            cached_validations: 3,
            warm_cache_hits: 2,
            prewarmed_sessions: 5,
            store: StoreStats {
                lookups: 10,
                hits: 2,
                insertions: 8,
                contended_locks: 1,
            },
        };
        ServiceReport::new(jobs, stats)
    }

    #[test]
    fn job_table_lists_every_job_with_its_outcome() {
        let r = report();
        let table = r.render_jobs();
        assert!(table.contains("#000 s00-g3x3"));
        assert!(table.contains("len 6.000 s, sessions 6"));
        assert!(table.contains("max 151.250 C"));
        assert!(table.contains("#001 s01-g4x3"));
        assert!(table.contains("FAILED: iteration budget exhausted"));
        assert_eq!(table.lines().count(), 2);
    }

    #[test]
    fn summary_reports_throughput_and_cache_behaviour() {
        let r = report();
        let summary = r.render_summary();
        assert!(summary.contains("2 jobs over 2 scenarios, 4 workers, rc-compact backend"));
        assert!(summary.contains("operator cache: 1 backends built, 1 scenarios reusing one"));
        assert!(summary.contains("completed 1, failed 1, panicked 0"));
        assert!(summary.contains("4.0 jobs/s"));
        assert!(summary.contains("20.0% hit rate"));
        assert!(summary.contains("1 contended locks"));
        assert!(summary.contains("hottest committed temperature 151.250 C"));
        assert!(summary.contains("prewarmed sessions 5"));
        assert_eq!(r.max_temperature(), Some(151.25));
        assert_eq!(r.jobs().len(), 2);
    }

    #[test]
    fn empty_and_all_failed_reports_have_no_max_temperature() {
        // Regression: the old NEG_INFINITY fold sentinel leaked "-inf C"
        // into summaries of reports where nothing completed.
        let base = report();
        let empty = ServiceReport::new(Vec::new(), base.stats().clone());
        assert_eq!(empty.max_temperature(), None);
        assert!(empty
            .render_summary()
            .contains("hottest committed temperature n/a"));
        let failed_only: Vec<JobResult> = base
            .jobs()
            .iter()
            .filter(|j| j.outcome.metrics().is_none())
            .cloned()
            .collect();
        assert!(!failed_only.is_empty());
        let failed = ServiceReport::new(failed_only, base.stats().clone());
        assert_eq!(failed.max_temperature(), None);
        assert!(!failed.render_summary().contains("-inf"));
    }

    #[test]
    fn outcome_metrics_accessor_distinguishes_variants() {
        assert!(JobOutcome::Completed(metrics()).metrics().is_some());
        assert!(JobOutcome::Failed {
            error: "e".to_owned(),
            retryable: true,
            attempts: 3,
        }
        .metrics()
        .is_none());
        assert!(JobOutcome::Panicked {
            message: "p".to_owned(),
            attempts: 1,
        }
        .metrics()
        .is_none());
        assert!(JobOutcome::Shed(ShedCause::Drained).metrics().is_none());
        assert_eq!(JobOutcome::Completed(metrics()).attempts(), 1);
        assert_eq!(
            JobOutcome::DeadlineExceeded {
                spent_effort: 3.0,
                budget: 2.0,
                attempts: 2,
            }
            .attempts(),
            2
        );
        assert_eq!(JobOutcome::Shed(ShedCause::Displaced).attempts(), 0);
    }

    #[test]
    fn robustness_outcomes_render_distinct_job_lines() {
        let base = report();
        let mk = |index, outcome| JobResult {
            index,
            scenario: 0,
            scenario_name: "s00-g3x3".to_owned(),
            label: "TL=165".to_owned(),
            outcome,
        };
        let jobs = vec![
            mk(
                0,
                JobOutcome::Failed {
                    error: "injected".to_owned(),
                    retryable: true,
                    attempts: 3,
                },
            ),
            mk(
                1,
                JobOutcome::Panicked {
                    message: "boom".to_owned(),
                    attempts: 2,
                },
            ),
            mk(
                2,
                JobOutcome::DeadlineExceeded {
                    spent_effort: 12.5,
                    budget: 10.0,
                    attempts: 1,
                },
            ),
            mk(3, JobOutcome::Shed(ShedCause::Displaced)),
            mk(4, JobOutcome::Rejected(Rejected::QueueFull { capacity: 2 })),
        ];
        let table = ServiceReport::new(jobs, base.stats().clone()).render_jobs();
        assert!(table.contains("FAILED after 3 attempts: injected"));
        assert!(table.contains("PANICKED after 2 attempts: boom"));
        assert!(table.contains("DEADLINE EXCEEDED: spent 12.500 s of 10.000 s budget"));
        assert!(table.contains("SHED: displaced by a higher-priority submission"));
        assert!(table.contains("REJECTED: ingress queue full (capacity 2)"));
    }

    #[test]
    fn summary_reports_robustness_counters_and_latency_when_present() {
        let base = report();
        // A quiet run has no robustness lines, and its undefined latency
        // percentiles render as n/a (regression: they used to be omitted
        // entirely, and rendering the default zeros instead would read as
        // an impossibly fast run).
        assert!(base
            .render_summary()
            .contains("latency p50 n/a, p99 n/a, max n/a (no samples)"));
        assert!(!base.render_summary().contains("p50 0.000000"));
        assert!(!base.render_summary().contains("deadline exceeded"));
        let mut stats = base.stats().clone();
        stats.deadline_exceeded = 1;
        stats.shed = 2;
        stats.rejected = 3;
        stats.retried_attempts = 4;
        stats.injected_faults = 5;
        stats.latency = LatencyStats::from_samples(&[0.25, 0.5, 1.0]);
        let summary = ServiceReport::new(base.jobs().to_vec(), stats).render_summary();
        assert!(summary.contains(
            "deadline exceeded 1, shed 2, rejected 3, retried attempts 4, injected faults 5"
        ));
        assert!(summary.contains("latency p50 0.500000 s, p99 1.000000 s, max 1.000000 s"));
    }

    #[test]
    fn stats_metrics_view_maps_the_counter_fields() {
        let snapshot = report().stats().metrics();
        let names: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counter names must stay sorted");
        assert_eq!(snapshot.counter("service.jobs"), Some(2));
        assert_eq!(snapshot.counter("service.completed"), Some(1));
        assert_eq!(snapshot.counter("service.failed"), Some(1));
        assert_eq!(snapshot.counter("service.warm_cache_hits"), Some(2));
        assert_eq!(snapshot.counter("service.cached_validations"), Some(3));
        assert_eq!(snapshot.counter("service.prewarmed_sessions"), Some(5));
        assert_eq!(snapshot.counter("store.lookups"), Some(10));
        assert_eq!(snapshot.counter("store.hits"), Some(2));
        assert_eq!(snapshot.counter("operator_cache.hits"), Some(1));
        assert_eq!(snapshot.counter("operator_cache.misses"), Some(1));
        assert_eq!(snapshot.gauges.len(), 2);
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn stats_derive_back_from_their_metrics_view() {
        let stats = report().stats().clone();
        let config = ServiceConfig::default();
        assert_eq!(config.backend.label(), stats.backend_name);
        let derived = ServiceStats::from_metrics(
            &config,
            stats.workers,
            stats.scenario_count,
            &stats.metrics(),
            stats.latency,
        );
        assert_eq!(derived, stats);
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
        // n = 1: every nearest rank clamps to the single sample.
        let one = LatencyStats::from_samples(&[2.0]);
        assert_eq!(
            (
                one.samples,
                one.p50_seconds,
                one.p99_seconds,
                one.max_seconds
            ),
            (1, 2.0, 2.0, 2.0)
        );
        // n = 2: p50 is the lower sample (rank ceil(0.5 · 2) = 1), p99 and
        // max the upper (rank ceil(0.99 · 2) = 2), regardless of input
        // order.
        for samples in [[1.0, 3.0], [3.0, 1.0]] {
            let two = LatencyStats::from_samples(&samples);
            assert_eq!(
                (
                    two.samples,
                    two.p50_seconds,
                    two.p99_seconds,
                    two.max_seconds
                ),
                (2, 1.0, 3.0, 3.0)
            );
        }
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let stats = LatencyStats::from_samples(&samples);
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.p50_seconds, 50.0);
        assert_eq!(stats.p99_seconds, 99.0);
        assert_eq!(stats.max_seconds, 100.0);
        // Order independence: percentiles are over the sorted samples.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(LatencyStats::from_samples(&reversed), stats);
    }
}
