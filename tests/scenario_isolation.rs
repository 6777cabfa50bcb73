//! Scenario isolation: a job's result depends on its own scenario only,
//! never on which other scenarios share its corpus.
//!
//! Backends are shared between scenarios through the operator cache, and
//! the grid prewarm batches lanes of scenarios that share one. The corpus
//! here defeats any key coarser than the backend's real inputs: every rect
//! of the generated `s04-g3x3` is doubled, so it keeps the grid label and
//! core size of `s00-g3x3` but not its floorplan. Every job must then
//! encode to the same bytes as when its scenario runs alone, in process at
//! 1 and 2 workers and over 2 worker processes.

use std::path::PathBuf;

use thermsched_service::{
    BackendKind, Corpus, JobSpec, MultiprocConfig, MultiprocCoordinator, Scenario, ScenarioSpec,
    ServiceConfig, ServiceReport, ServiceRunner,
};
use thermsched_wire::{obj, JsonValue, Wire, WireError};

/// Doubles every number inside every `rect` object below `value`.
fn double_rects(value: &mut JsonValue) {
    match value {
        JsonValue::Object(entries) => {
            for (key, child) in entries {
                match (key.as_str(), child) {
                    ("rect", JsonValue::Object(fields)) => {
                        for (_, number) in fields {
                            *number = JsonValue::from(number.as_f64().expect("a number") * 2.0);
                        }
                    }
                    (_, child) => double_rects(child),
                }
            }
        }
        JsonValue::Array(items) => items.iter_mut().for_each(double_rects),
        _ => {}
    }
}

fn corpus_of(scenarios: Vec<JsonValue>, jobs: Vec<JsonValue>) -> Corpus {
    Corpus::from_wire(
        &obj()
            .field("scenarios", scenarios)
            .field("jobs", jobs)
            .build(),
    )
    .expect("corpus decodes")
}

/// The seed-2005 corpus of `scenarios` scenarios with `s04-g3x3`'s rects
/// doubled.
fn mutated_corpus(spec: ScenarioSpec) -> Corpus {
    let corpus = spec.build().expect("spec is valid");
    let mut scenarios: Vec<JsonValue> = corpus.scenarios().iter().map(Wire::to_wire).collect();
    let target = corpus
        .scenarios()
        .iter()
        .position(|s| s.name == "s04-g3x3")
        .expect("the corpus has s04-g3x3");
    assert_eq!(corpus.scenarios()[0].name, "s00-g3x3");
    double_rects(&mut scenarios[target]);
    corpus_of(scenarios, corpus.jobs().iter().map(Wire::to_wire).collect())
}

/// Each job's outcome bytes, from a run of its scenario alone.
fn outcomes_alone(corpus: &Corpus, service: ServiceConfig) -> Vec<String> {
    corpus
        .jobs()
        .iter()
        .map(|job| {
            let alone = corpus_of(
                vec![corpus.scenarios()[job.scenario].to_wire()],
                vec![JobSpec {
                    scenario: 0,
                    ..job.clone()
                }
                .to_wire()],
            );
            let report = ServiceRunner::new(service)
                .expect("valid config")
                .run(&alone)
                .expect("scenario runs alone");
            outcome_bytes(&report).remove(0)
        })
        .collect()
}

fn outcome_bytes(report: &ServiceReport) -> Vec<String> {
    report
        .jobs()
        .iter()
        .map(|job| job.outcome.to_json().expect("outcome encodes"))
        .collect()
}

fn check_isolation(corpus: &Corpus, backend: BackendKind) {
    let service = |workers| ServiceConfig {
        workers,
        backend,
        ..ServiceConfig::default()
    };
    let expected = outcomes_alone(corpus, service(1));
    for workers in [1, 2] {
        let report = ServiceRunner::new(service(workers))
            .expect("valid config")
            .run(corpus)
            .expect("corpus runs");
        assert_eq!(
            outcome_bytes(&report),
            expected,
            "{backend:?}, {workers} workers: a job depends on its neighbours"
        );
    }
    let report = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: PathBuf::from(env!("CARGO_BIN_EXE_thermsched")),
        args: vec!["worker".to_owned()],
        service: service(1),
    })
    .expect("valid config")
    .run(corpus)
    .expect("multiproc run succeeds");
    assert_eq!(
        outcome_bytes(&report),
        expected,
        "{backend:?}, 2 processes: a job depends on its neighbours"
    );
}

#[test]
fn a_mutated_scenario_gives_its_own_results_inside_a_corpus() {
    let corpus = mutated_corpus(ScenarioSpec {
        seed: 2005,
        scenarios: 5,
        ..ScenarioSpec::default()
    });
    check_isolation(&corpus, BackendKind::RcCompact);
    // The doubled scenario gets a backend of its own.
    let report = ServiceRunner::new(ServiceConfig::default())
        .expect("valid config")
        .run(&corpus)
        .expect("corpus runs");
    assert_eq!(report.stats().operator_cache.misses, 5);
}

#[test]
fn a_mutated_scenario_is_prewarmed_on_its_own_grid_backend() {
    // Five 3x3 scenarios, one job each, on the backend whose prewarm
    // batches the lanes of scenarios that share a backend.
    let corpus = mutated_corpus(ScenarioSpec {
        seed: 2005,
        scenarios: 5,
        grid_shapes: vec![(3, 3)],
        stc_limits: vec![30.0],
        ..ScenarioSpec::default()
    });
    let backend = BackendKind::GridTransient { cells_per_core: 2 };
    check_isolation(&corpus, backend);
    let report = ServiceRunner::new(ServiceConfig {
        backend,
        ..ServiceConfig::default()
    })
    .expect("valid config")
    .run(&corpus)
    .expect("corpus runs");
    assert_eq!(report.stats().operator_cache.misses, 2);
    assert_eq!(report.stats().prewarmed_sessions, corpus.total_cores());
}

#[test]
fn a_grid_label_that_does_not_hold_the_cores_is_refused_at_decode() {
    // The grid backends size their cell grid from the label, so a label
    // of [400, 400] on a 9-core system would ask for a 160 000-cell grid
    // per cell of `cells_per_core`, and [usize::MAX, 2] overflows.
    let corpus = ScenarioSpec {
        scenarios: 1,
        grid_shapes: vec![(3, 3)],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("spec is valid");
    let scenario = &corpus.scenarios()[0];
    assert_eq!(scenario.sut.core_count(), 9);
    let relabelled = |columns: usize, rows: usize| {
        let mut wire = scenario.to_wire();
        let JsonValue::Object(fields) = &mut wire else {
            panic!("a scenario encodes as an object");
        };
        let grid = fields
            .iter_mut()
            .find(|(key, _)| key == "grid")
            .expect("a scenario has a grid field");
        grid.1 = JsonValue::Array(vec![columns.into(), rows.into()]);
        Scenario::from_wire(&wire)
    };
    assert_eq!(
        relabelled(3, 3).expect("its own label decodes").grid,
        (3, 3)
    );
    for (columns, rows) in [(400, 400), (usize::MAX, 2), (1, 8)] {
        match relabelled(columns, rows) {
            Err(WireError::Invalid { type_name, .. }) => assert_eq!(type_name, "scenario"),
            other => panic!("[{columns}, {rows}] on 9 cores: expected Invalid, got {other:?}"),
        }
    }
}
