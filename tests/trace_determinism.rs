//! The trace determinism contract: a traced run's *structural slice* —
//! per-job spans with their tree positions and structural attributes, no
//! timings — is byte-identical at any worker count, at any process count,
//! and with fault injection and retries active.
//!
//! This is the observability analogue of the per-job byte-identity the
//! report layer already guarantees: concurrency may reorder and re-time
//! the work, but never change its shape.

use thermsched_obs::{MetricsRegistry, TraceDocument, Tracer, TracerConfig};
use thermsched_service::{
    ClockKind, Corpus, FaultPlan, MultiprocConfig, MultiprocCoordinator, RetryPolicy, ScenarioSpec,
    ServiceConfig, ServiceRunner,
};

fn corpus() -> Corpus {
    ScenarioSpec {
        scenarios: 2,
        seed: 7,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("pinned corpus builds")
}

/// Virtual clocks on both sides (service and tracer) so nothing in the
/// trace depends on real time; faults and retries on so attempt subtrees
/// and fault attributes are exercised.
fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        clock: ClockKind::Virtual,
        faults: FaultPlan {
            seed: 11,
            error_rate: 0.4,
            delay_rate: 0.3,
            ..FaultPlan::none()
        },
        retry: RetryPolicy::retries(3),
        ..ServiceConfig::default()
    }
}

fn virtual_tracer() -> Tracer {
    Tracer::new(TracerConfig {
        clock: ClockKind::Virtual,
        ..TracerConfig::default()
    })
}

fn traced_in_process(workers: usize) -> TraceDocument {
    let tracer = virtual_tracer();
    let registry = MetricsRegistry::new();
    ServiceRunner::new(service_config(workers))
        .expect("valid config")
        .run_traced(&corpus(), &tracer, &registry)
        .expect("pinned corpus runs");
    TraceDocument::capture(&tracer, &registry)
}

#[test]
fn structural_slice_is_byte_identical_across_worker_counts() {
    let baseline = traced_in_process(1);
    assert_eq!(baseline.dropped_spans, 0);
    let text = baseline.structural_text();
    // The slice actually holds the per-job tree (root, attempts, engine
    // work) and the injected-fault attributes the plan above guarantees.
    for name in ["\"job\"", "\"attempt\"", "\"engine.schedule\"", "\"fault\""] {
        assert!(text.contains(name), "structural slice lacks {name}");
    }
    // Observed attributes and run-level spans stay out of it.
    assert!(!text.contains("queue_seconds"));
    assert!(!text.contains("backend.build"));

    for workers in [4usize, 8] {
        let doc = traced_in_process(workers);
        assert_eq!(doc.dropped_spans, 0);
        assert_eq!(
            doc.structural_text(),
            text,
            "{workers} workers changed the structural slice"
        );
    }
}

#[test]
fn multiproc_trace_merges_into_the_in_process_structural_slice() {
    let corpus = corpus();
    let tracer = virtual_tracer();
    let registry = MetricsRegistry::new();
    let report = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: env!("CARGO_BIN_EXE_thermsched").into(),
        args: vec!["worker".to_owned()],
        service: service_config(1),
    })
    .expect("valid config")
    .run_traced(&corpus, &tracer, &registry)
    .expect("sharded run succeeds");
    let sharded = TraceDocument::capture(&tracer, &registry);

    let local = traced_in_process(1);
    assert_eq!(sharded.dropped_spans, 0);
    assert_eq!(
        sharded.structural_text(),
        local.structural_text(),
        "process sharding changed the structural slice"
    );

    // The FIN-merged metrics agree with the coordinator's own report on
    // every count that does not depend on how the corpus was split.
    let merged = registry.snapshot();
    assert_eq!(
        merged.counter("service.jobs"),
        Some(report.stats().job_count as u64)
    );
    assert_eq!(
        merged.counter("service.completed"),
        Some(report.stats().completed as u64)
    );
    assert_eq!(
        merged.counter("service.retried_attempts"),
        Some(report.stats().retried_attempts as u64)
    );
    assert_eq!(
        merged.counter("service.injected_faults"),
        Some(report.stats().injected_faults as u64)
    );
}
