//! Cross-process determinism and robustness for the sharding coordinator.
//!
//! These tests spawn the real `thermsched` binary (located through
//! `CARGO_BIN_EXE_thermsched`) as worker processes, proving the property
//! the in-crate protocol tests cannot: the per-job results that come back
//! over the pipes are byte-identical to an in-process run, at every
//! process count, and even when a worker is deliberately killed mid-run.

use std::path::PathBuf;

use thermsched_obs::{MetricsRegistry, Tracer, TracerConfig};
use thermsched_service::{
    BackendKind, Corpus, JobResult, MultiprocConfig, MultiprocCoordinator, ScenarioSpec,
    ServiceConfig, ServiceReport, ServiceRunner, TraceFamily,
};
use thermsched_wire::{encode_value, JsonValue, Wire};

fn worker_binary() -> PathBuf {
    env!("CARGO_BIN_EXE_thermsched").into()
}

fn corpus() -> Corpus {
    ScenarioSpec {
        scenarios: 2,
        seed: 97,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("test corpus builds")
}

fn run_inprocess(corpus: &Corpus) -> ServiceReport {
    ServiceRunner::new(ServiceConfig::default())
        .expect("valid config")
        .run(corpus)
        .expect("in-process run succeeds")
}

fn run_multiproc(corpus: &Corpus, processes: usize, worker_args: &[&str]) -> ServiceReport {
    MultiprocCoordinator::new(MultiprocConfig {
        processes,
        program: worker_binary(),
        args: worker_args.iter().map(|s| (*s).to_owned()).collect(),
        service: ServiceConfig::default(),
    })
    .expect("valid config")
    .run(corpus)
    .expect("multiproc run succeeds")
}

/// Canonical byte-level rendering of the deterministic slice of a report:
/// the per-job results, in corpus order, as one JSON array.
fn jobs_bytes(jobs: &[JobResult]) -> String {
    JsonValue::Array(jobs.iter().map(Wire::to_wire).collect())
        .render_compact()
        .expect("job results render")
}

#[test]
fn per_job_results_are_byte_identical_across_process_counts() {
    let corpus = corpus();
    let baseline = run_inprocess(&corpus);
    let expected = jobs_bytes(baseline.jobs());

    for processes in [1usize, 2, 4] {
        let report = run_multiproc(&corpus, processes, &["worker"]);
        // Structural equality first (better failure messages), then the
        // byte-level guarantee the golden files and CLI lean on.
        assert_eq!(
            report.jobs(),
            baseline.jobs(),
            "jobs diverged at {processes} processes"
        );
        assert_eq!(
            jobs_bytes(report.jobs()),
            expected,
            "wire bytes diverged at {processes} processes"
        );
        let stats = report.stats();
        assert_eq!(stats.job_count, corpus.jobs().len());
        assert_eq!(stats.completed, baseline.stats().completed);
        assert_eq!(stats.worker_crashes, 0);
    }
}

/// Online jobs cross the process boundary inside WORK frames with their
/// trace and warm start: a corpus with every trace family and a warm start
/// on every job gives the in-process bytes at 2 and 3 worker processes.
#[test]
fn an_online_corpus_is_byte_identical_across_processes() {
    let corpus = ScenarioSpec {
        scenarios: 3,
        seed: 7,
        trace_families: vec![
            TraceFamily::Ramp,
            TraceFamily::Periodic,
            TraceFamily::IdleGap,
        ],
        warm_start_range: Some((48.0, 62.0)),
        ..ScenarioSpec::default()
    }
    .build()
    .expect("online corpus builds");
    assert!(corpus
        .jobs()
        .iter()
        .all(|job| job.online.trace().is_some() && job.online.warm_start().is_some()));
    let baseline = run_inprocess(&corpus);
    assert_eq!(baseline.stats().completed, corpus.jobs().len());
    let expected = jobs_bytes(baseline.jobs());

    for processes in [2usize, 3] {
        let report = run_multiproc(&corpus, processes, &["worker"]);
        assert_eq!(
            report.jobs(),
            baseline.jobs(),
            "jobs diverged at {processes} processes"
        );
        assert_eq!(
            jobs_bytes(report.jobs()),
            expected,
            "wire bytes diverged at {processes} processes"
        );
        assert_eq!(report.stats().worker_crashes, 0);
    }
}

#[test]
fn a_worker_killed_mid_run_is_detected_and_its_jobs_reassigned() {
    let corpus = corpus();
    let baseline = run_inprocess(&corpus);

    // Dealt by scenario over 2 workers: worker 1 owns scenario 1, jobs
    // {2, 3}. The crash plan arms only on worker 1 and fires after it has
    // resolved one job, so it answers job 2 and silently dies when job 3
    // arrives. The coordinator must notice the dead pipe, count the crash,
    // send worker 0 scenario 1 (which it was never sent) and finish job 3
    // there — with results still byte-identical.
    let report = run_multiproc(
        &corpus,
        2,
        &["worker", "--exit-after", "1", "--exit-worker", "1"],
    );

    assert_eq!(report.stats().worker_crashes, 1);
    assert_eq!(report.stats().completed, baseline.stats().completed);
    assert_eq!(report.jobs(), baseline.jobs());
    assert_eq!(jobs_bytes(report.jobs()), jobs_bytes(baseline.jobs()));
}

#[test]
fn every_worker_dying_is_a_typed_error_not_a_hang() {
    let corpus = corpus();
    // Every process shares the unrestricted plan, so after each worker
    // resolves one job the whole fleet is gone and reassignment cannot
    // save the run. The coordinator must fail with the multiproc error
    // rather than deadlock waiting on closed pipes.
    let result = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: worker_binary(),
        args: vec![
            "worker".to_owned(),
            "--exit-after".to_owned(),
            "1".to_owned(),
        ],
        service: ServiceConfig::default(),
    })
    .expect("valid config")
    .run(&corpus);
    assert!(matches!(
        result,
        Err(thermsched_service::ServiceError::Multiproc { .. })
    ));
}

/// A traced run's registry agrees with its own report, counter for
/// counter, even when a worker dies mid-run: the coordinator counts every
/// result and FIN itself, so the dead worker's job is not lost with its
/// snapshot, and the wall-clock gauges an in-process run sets are there.
#[test]
fn a_traced_crash_run_registers_the_counts_of_its_report() {
    let corpus = corpus();
    let registry = MetricsRegistry::new();
    let report = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: worker_binary(),
        args: ["worker", "--exit-after", "1", "--exit-worker", "1"]
            .map(str::to_owned)
            .to_vec(),
        service: ServiceConfig::default(),
    })
    .expect("valid config")
    .run_traced(&corpus, &Tracer::new(TracerConfig::default()), &registry)
    .expect("multiproc run succeeds");
    let stats = report.stats();
    assert_eq!((stats.job_count, stats.worker_crashes), (4, 1));

    let metrics = registry.snapshot();
    for (name, value) in stats.metrics().counters {
        assert_eq!(metrics.counter(&name), Some(value), "counter {name}");
    }
    let latency = metrics
        .histograms
        .iter()
        .find(|histogram| histogram.name == "job.latency_seconds")
        .expect("the latency histogram is registered");
    assert_eq!(latency.count, stats.latency.samples as u64);
    for gauge in ["service.wall_seconds", "service.jobs_per_second"] {
        assert!(metrics.gauge(gauge).is_some(), "gauge {gauge} is missing");
    }
}

/// Every job of a scenario runs in one worker, and each worker prepares
/// only the scenarios its jobs use, so the store and cache counters merged
/// from the workers' FIN frames equal a one-worker in-process run's — on
/// the prewarming grid backend as on rc-compact.
#[test]
fn fin_merged_counters_equal_a_one_worker_in_process_run() {
    for (backend, scenarios) in [
        (BackendKind::RcCompact, 6),
        (BackendKind::GridTransient { cells_per_core: 2 }, 4),
    ] {
        let corpus = ScenarioSpec {
            scenarios,
            seed: 97,
            ..ScenarioSpec::default()
        }
        .build()
        .expect("test corpus builds");
        let service = ServiceConfig {
            workers: 1,
            backend,
            ..ServiceConfig::default()
        };
        let reference = ServiceRunner::new(service)
            .expect("valid config")
            .run(&corpus)
            .expect("in-process run succeeds");
        let counters = |report: &ServiceReport| {
            let metrics = report.stats().metrics();
            [
                "store.lookups",
                "store.hits",
                "store.insertions",
                "service.warm_cache_hits",
                "service.cached_validations",
                "service.prewarmed_sessions",
            ]
            .map(|name| (name, metrics.counter(name)))
        };
        for processes in [2usize, 3] {
            let report = MultiprocCoordinator::new(MultiprocConfig {
                processes,
                program: worker_binary(),
                args: vec!["worker".to_owned()],
                service,
            })
            .expect("valid config")
            .run(&corpus)
            .expect("multiproc run succeeds");
            assert_eq!(report.jobs(), reference.jobs());
            assert_eq!(
                counters(&report),
                counters(&reference),
                "{} at {processes} processes",
                backend.label()
            );
        }
    }
}

/// HELLO no longer carries the corpus, and each worker is sent only its
/// own scenarios: across 2 processes the coordinator ships about one
/// corpus, not one per worker.
#[test]
fn workers_are_sent_only_their_own_scenarios() {
    let corpus = ScenarioSpec {
        scenarios: 40,
        seed: 97,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("test corpus builds");
    let registry = MetricsRegistry::new();
    let report = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: worker_binary(),
        args: vec!["worker".to_owned()],
        service: ServiceConfig::default(),
    })
    .expect("valid config")
    .run_traced(&corpus, &Tracer::disabled(), &registry)
    .expect("multiproc run succeeds");
    assert_eq!(report.jobs(), run_inprocess(&corpus).jobs());

    let sent = registry
        .snapshot()
        .counter("multiproc.hello_bytes")
        .expect("the coordinator counts what it sends");
    let whole_corpus = encode_value(&corpus.to_wire())
        .expect("corpus encodes")
        .len() as u64;
    assert!(
        sent as f64 <= 0.55 * (2 * whole_corpus) as f64,
        "{sent} bytes sent against {whole_corpus} per corpus"
    );
}
