//! Robustness contract of the service layer under deterministic fault
//! injection:
//!
//! * with a fixed [`FaultPlan`] seed and retries enabled, per-job
//!   [`JobResult`]s are byte-identical at 1, 4 and 8 workers and across
//!   repeated runs — faults, retries and deadlines live inside the
//!   determinism boundary;
//! * poisoning session stores mid-batch (after the same-shape prewarmer
//!   has published through them) never changes a job result:
//!   the batch completes and matches a fault-free reference bit for bit;
//! * effort-budget deadlines produce deterministic `DeadlineExceeded`
//!   outcomes, not timing-dependent ones;
//! * a test time too long to step is a prompt, typed job failure on every
//!   backend family, never a saturated step count or a hang;
//! * the streaming front-end never loses a submission: every handle
//!   resolves to exactly one outcome, and the outcome counters add up.

use std::sync::mpsc;
use std::time::Duration;

use thermsched_service::{
    BackendKind, ClockKind, FaultPlan, Frontend, FrontendConfig, JobOutcome, Priority, Rejected,
    RetryPolicy, ScenarioSpec, ServiceConfig, ServiceReport, ServiceRunner, Submission,
};

fn run(spec: &ScenarioSpec, config: ServiceConfig) -> ServiceReport {
    let corpus = spec.build().expect("spec is valid");
    ServiceRunner::new(config)
        .expect("config is valid")
        .run(&corpus)
        .expect("batch runs")
}

#[test]
fn faulted_batches_are_byte_identical_across_worker_counts_and_runs() {
    let spec = ScenarioSpec {
        seed: 99,
        scenarios: 4,
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    };
    let config = |workers: usize| ServiceConfig {
        workers,
        faults: FaultPlan {
            seed: 2026,
            panic_rate: 0.1,
            error_rate: 0.25,
            delay_rate: 0.2,
            delay_seconds: 0.001,
            poison_rate: 0.1,
        },
        retry: RetryPolicy::retries(3),
        clock: ClockKind::Virtual,
        ..ServiceConfig::default()
    };

    let reference = run(&spec, config(1));
    let stats = reference.stats();
    assert!(
        stats.injected_faults > 0,
        "the plan must actually fire:\n{}",
        reference.render_jobs()
    );
    assert!(stats.retried_attempts > 0, "retries must engage");
    assert!(stats.completed > 0, "retries must rescue some jobs");
    assert!(
        reference
            .jobs()
            .iter()
            .any(|job| job.outcome.attempts() > 1),
        "attempt accounting must show up in per-job results"
    );

    for workers in [1, 4, 8] {
        let report = run(&spec, config(workers));
        assert_eq!(
            report.jobs(),
            reference.jobs(),
            "{workers} workers changed a faulted job result"
        );
        assert_eq!(report.render_jobs(), reference.render_jobs());
        // Fault, retry and latency accounting is per-job deterministic, so
        // the aggregates cannot depend on the worker count either.
        assert_eq!(report.stats().injected_faults, stats.injected_faults);
        assert_eq!(report.stats().retried_attempts, stats.retried_attempts);
        assert_eq!(report.stats().latency, stats.latency);
    }
}

#[test]
fn poisoned_shards_mid_batch_do_not_change_results_under_the_prewarmer() {
    // Store poisoning under the same-shape batcher: every job poisons its
    // scenario's session store before phase 1, after the same-shape
    // prewarmer has published multi-RHS results through the same store. The batch must complete and match a fault-free
    // reference byte for byte at every worker count.
    let spec = ScenarioSpec {
        seed: 777,
        scenarios: 3,
        grid_shapes: vec![(3, 3)],
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    };
    let config = |workers: usize, poison: bool| ServiceConfig {
        workers,
        backend: BackendKind::GridTransient { cells_per_core: 3 },
        faults: FaultPlan {
            seed: 5,
            poison_rate: if poison { 1.0 } else { 0.0 },
            ..FaultPlan::none()
        },
        clock: ClockKind::Virtual,
        ..ServiceConfig::default()
    };

    let clean = run(&spec, config(1, false));
    assert_eq!(clean.stats().completed, clean.stats().job_count);
    assert!(
        clean.stats().prewarmed_sessions > 0,
        "the same-shape batcher must be engaged for this test to mean anything"
    );

    for workers in [1, 4, 8] {
        let poisoned = run(&spec, config(workers, true));
        assert_eq!(
            poisoned.stats().injected_faults,
            poisoned.stats().job_count,
            "every job must have poisoned its store"
        );
        assert_eq!(
            poisoned.stats().completed,
            poisoned.stats().job_count,
            "poisoned stores must be survived, not fatal:\n{}",
            poisoned.render_jobs()
        );
        assert_eq!(
            poisoned.jobs(),
            clean.jobs(),
            "{workers} workers: store poisoning changed a job result"
        );
        assert_eq!(
            poisoned.stats().prewarmed_sessions,
            clean.stats().prewarmed_sessions
        );
    }
}

#[test]
fn deadline_budgets_yield_deterministic_deadline_outcomes() {
    let spec = ScenarioSpec {
        seed: 42,
        scenarios: 2,
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    };
    let config = |workers: usize| ServiceConfig {
        workers,
        deadline_effort: Some(1.0),
        clock: ClockKind::Virtual,
        ..ServiceConfig::default()
    };
    let reference = run(&spec, config(1));
    assert_eq!(
        reference.stats().deadline_exceeded,
        reference.stats().job_count,
        "a 1-second effort budget must interrupt every default-corpus job:\n{}",
        reference.render_jobs()
    );
    for job in reference.jobs() {
        match &job.outcome {
            JobOutcome::DeadlineExceeded {
                spent_effort,
                budget,
                attempts,
            } => {
                assert_eq!(*budget, 1.0);
                assert_eq!(*attempts, 1);
                assert!(*spent_effort > 1.0, "{}: {spent_effort}", job.label);
            }
            other => panic!("{}: unexpected outcome {other:?}", job.label),
        }
    }
    let parallel = run(&spec, config(4));
    assert_eq!(parallel.jobs(), reference.jobs());
}

/// A 1e300 s test time needs more steps than the step rule allows, on the
/// RC fast path (which would square its way there) as on the grid (which
/// would step for ever): every job must fail naming the duration, and each
/// run must return within 5 s.
#[test]
fn unsteppable_test_times_fail_every_job_promptly() {
    let spec = ScenarioSpec {
        seed: 3,
        scenarios: 1,
        test_time: (1e300, 1e300),
        ..ScenarioSpec::default()
    };
    for backend in [
        BackendKind::RcCompact,
        BackendKind::GridTransient { cells_per_core: 1 },
    ] {
        // The run gets its own thread so that a hang fails the test
        // instead of stalling the suite.
        let (done_tx, done_rx) = mpsc::channel();
        let spec = spec.clone();
        let runner = std::thread::spawn(move || {
            let config = ServiceConfig {
                backend,
                ..ServiceConfig::default()
            };
            let _ = done_tx.send(run(&spec, config));
        });
        let report = done_rx.recv_timeout(Duration::from_secs(5));
        assert!(
            !matches!(report, Err(mpsc::RecvTimeoutError::Timeout)),
            "{} ran past 5 s",
            backend.label()
        );
        runner.join().expect("the run does not panic");
        let report = report.expect("the run sent its report");
        assert!(!report.jobs().is_empty());
        let named = format!("invalid duration or time step {} s", 1e300);
        for job in report.jobs() {
            match &job.outcome {
                JobOutcome::Failed { error, .. } => {
                    assert!(error.contains(&named), "{}: {error}", job.label)
                }
                other => panic!("{} on {}: {other:?}", job.label, backend.label()),
            }
        }
    }
}

#[test]
fn frontend_drain_never_loses_a_submission() {
    let corpus = ScenarioSpec {
        seed: 11,
        scenarios: 2,
        stc_limits: vec![40.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("spec is valid");
    let frontend = Frontend::start(
        FrontendConfig {
            service: ServiceConfig {
                workers: 2,
                faults: FaultPlan {
                    seed: 7,
                    error_rate: 0.4,
                    ..FaultPlan::none()
                },
                retry: RetryPolicy::retries(3),
                clock: ClockKind::Virtual,
                ..ServiceConfig::default()
            },
            queue_capacity: 64,
            shed_on_full: false,
        },
        corpus.clone(),
    )
    .expect("frontend starts");

    let mut handles = Vec::new();
    for job in corpus.jobs() {
        handles.push(frontend.submit(Submission::from_job(job)));
    }
    // A per-submission deadline so tight the job must exceed it.
    handles.push(
        frontend.submit(
            Submission::from_job(&corpus.jobs()[0])
                .with_deadline_effort(0.5)
                .with_priority(Priority::High),
        ),
    );
    // Inadmissible submissions resolve immediately but still count.
    handles.push(frontend.submit(Submission::new(
        99,
        "unknown-scenario",
        corpus.jobs()[0].config,
    )));
    let submitted = handles.len();

    let report = frontend.drain(Duration::from_secs(120));
    let stats = &report.stats;
    assert_eq!(stats.job_count, submitted, "every submission is accounted");
    assert_eq!(
        stats.completed
            + stats.failed
            + stats.panicked
            + stats.deadline_exceeded
            + stats.shed
            + stats.rejected,
        submitted,
        "outcome counters must partition the submissions"
    );

    let mut saw_deadline = false;
    let mut saw_rejected = false;
    for handle in &handles {
        let result = handle
            .try_result()
            .expect("drain must resolve every handle");
        match result.outcome {
            JobOutcome::DeadlineExceeded { budget: 0.5, .. } => saw_deadline = true,
            JobOutcome::Rejected(Rejected::UnknownScenario { scenario: 99, .. }) => {
                saw_rejected = true
            }
            _ => {}
        }
    }
    assert!(saw_deadline, "the 0.5 s effort budget must be exceeded");
    assert!(saw_rejected, "the unknown scenario must resolve rejected");
    assert!(stats.completed > 0, "the stream must complete real work");
    assert_eq!(
        stats.latency.samples,
        stats.completed + stats.failed + stats.panicked + stats.deadline_exceeded
    );
}
