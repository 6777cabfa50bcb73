//! Concurrency and determinism contract of the batch-scheduling service:
//!
//! * the same seeded corpus must produce byte-identical per-job results at
//!   1, 4 and 8 workers;
//! * so must a corpus whose sibling jobs are scattered across the queue,
//!   at 1, 2, 4 and 8 workers, however scenario-affine dispatch gathers
//!   them;
//! * with the same-shape prewarm active, every job must give what it gives
//!   when scheduled alone, at any worker count;
//! * the session store must keep exactly the first write per key, and the
//!   first characterisation published, under a multi-threaded hammer,
//!   without its lock poisoning out from under surviving threads.

use thermsched::{Engine, SessionCacheHandle};
use thermsched_service::{
    BackendKind, Corpus, JobMetrics, JobOutcome, ScenarioSpec, ServiceConfig, ServiceReport,
    ServiceRunner,
};
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, SessionThermalResult, Temperatures,
    TransientConfig,
};
use thermsched_wire::{obj, Wire};

fn corpus_spec() -> ScenarioSpec {
    ScenarioSpec {
        seed: 777,
        scenarios: 6,
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    }
}

fn run(workers: usize) -> ServiceReport {
    let corpus = corpus_spec().build().expect("spec is valid");
    ServiceRunner::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
    .expect("config is valid")
    .run(&corpus)
    .expect("batch runs")
}

#[test]
fn per_job_results_are_byte_identical_across_worker_counts_and_stores() {
    let reference = run(1);
    assert_eq!(
        reference.stats().completed,
        reference.stats().job_count,
        "the default corpus must complete everywhere:\n{}",
        reference.render_jobs()
    );
    let reference_table = reference.render_jobs();
    assert!(!reference_table.is_empty());

    for workers in [4, 8] {
        let report = run(workers);
        assert_eq!(
            report.jobs(),
            reference.jobs(),
            "{workers} workers changed a job result"
        );
        assert_eq!(report.render_jobs(), reference_table);
        assert_eq!(report.stats().workers, workers);
    }
}

#[test]
fn scattered_sibling_jobs_give_the_same_results_at_every_worker_count() {
    // Jobs reordered STCL-major through the corpus's wire form: each
    // scenario's jobs sit a whole STCL sweep apart in the queue, so the
    // batch dispatcher has to gather them from across it.
    let stc_limits = vec![30.0, 45.0, 60.0, 80.0];
    let scenario_major = ScenarioSpec {
        seed: 4242,
        scenarios: 6,
        stc_limits: stc_limits.clone(),
        ..ScenarioSpec::default()
    }
    .build()
    .expect("spec is valid");
    let wire = scenario_major.to_wire();
    let jobs = wire
        .field("corpus", "jobs")
        .and_then(|jobs| jobs.as_array())
        .expect("jobs array");
    let scenarios = scenario_major.scenarios().len();
    let sweep = stc_limits.len();
    let order: Vec<usize> = (0..sweep)
        .flat_map(|k| (0..scenarios).map(move |s| s * sweep + k))
        .collect();
    let scattered = Corpus::from_wire(
        &obj()
            .field(
                "scenarios",
                wire.field("corpus", "scenarios").unwrap().clone(),
            )
            .field(
                "jobs",
                order.iter().map(|&i| jobs[i].clone()).collect::<Vec<_>>(),
            )
            .build(),
    )
    .expect("reordered corpus decodes");
    assert_eq!(scattered.jobs()[1].scenario, 1, "siblings are scattered");

    let run = |workers: usize| {
        ServiceRunner::new(ServiceConfig {
            workers,
            ..ServiceConfig::default()
        })
        .expect("config is valid")
        .run(&scattered)
        .expect("batch runs")
    };
    let reference = run(1);
    assert_eq!(reference.stats().completed, scattered.jobs().len());
    // Reordering changes no job's outcome.
    let original = ServiceRunner::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("config is valid")
    .run(&scenario_major)
    .expect("batch runs");
    for (position, &index) in order.iter().enumerate() {
        assert_eq!(
            reference.jobs()[position].outcome,
            original.jobs()[index].outcome,
            "job {index} moved to {position}"
        );
    }
    for workers in [2, 4, 8] {
        let report = run(workers);
        assert_eq!(
            report.jobs(),
            reference.jobs(),
            "{workers} workers changed a job result"
        );
        assert_eq!(report.render_jobs(), reference.render_jobs());
    }
}

#[test]
fn worker_count_is_invariant_with_the_same_shape_batcher_active() {
    // The prewarmer publishes multi-RHS results through the same
    // `store_batch` contract the workers use, so at every worker count each
    // job must give exactly what it gives scheduled alone: its own backend,
    // no prewarm, no shared store.
    let corpus = ScenarioSpec {
        seed: 777,
        scenarios: 3,
        grid_shapes: vec![(3, 3)],
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("spec is valid");
    let cells = 3;
    let alone: Vec<JobOutcome> = corpus
        .jobs()
        .iter()
        .map(|job| {
            let scenario = &corpus.scenarios()[job.scenario];
            let (columns, rows) = scenario.grid;
            let backend = GridThermalSimulator::with_config(
                scenario.sut.floorplan(),
                &PackageConfig::default(),
                GridResolution::new(columns * cells, rows * cells).unwrap(),
                TransientConfig::default(),
            )
            .unwrap();
            let engine = Engine::builder()
                .sut(&scenario.sut)
                .backend(&backend)
                .build()
                .unwrap();
            JobOutcome::Completed(JobMetrics::from(&engine.schedule_with(job.config).unwrap()))
        })
        .collect();
    // The prewarm splits its one group of 27 lanes (3 scenarios × 9 cores)
    // over the workers: 32 workers give 27 one-lane chunks.
    for workers in [1, 2, 4, 8, 32] {
        let report = ServiceRunner::new(ServiceConfig {
            workers,
            backend: BackendKind::GridTransient {
                cells_per_core: cells,
            },
            ..ServiceConfig::default()
        })
        .expect("config is valid")
        .run(&corpus)
        .expect("batch runs");
        assert_eq!(
            report.stats().prewarmed_sessions,
            corpus.total_cores(),
            "the batcher must prewarm every per-core characterisation"
        );
        assert!(
            report.jobs().iter().map(|job| &job.outcome).eq(&alone),
            "{workers} workers changed a job result with batching on"
        );
    }
}

#[test]
fn completed_jobs_respect_their_effective_temperature_limits() {
    let report = run(4);
    for job in report.jobs() {
        match &job.outcome {
            JobOutcome::Completed(metrics) => {
                assert!(
                    metrics.max_temperature < metrics.effective_temperature_limit,
                    "{}: {:.2} C >= {:.2} C",
                    job.label,
                    metrics.max_temperature,
                    metrics.effective_temperature_limit
                );
                assert!(metrics.schedule_length >= 1.0);
                assert!(metrics.simulation_effort >= metrics.schedule_length - 1e-9);
            }
            other => panic!("{}: unexpected outcome {other:?}", job.label),
        }
    }
}

/// A synthetic, key-deterministic session result: every field is a pure
/// function of the key, so any interleaving of racing writers must leave the
/// same value behind under first-write-wins.
fn result_for_key(key: &[usize]) -> SessionThermalResult {
    let tag = key.iter().fold(7.0, |acc, &core| acc + core as f64);
    SessionThermalResult {
        max_block_temperatures: key.iter().map(|&core| 45.0 + core as f64 + tag).collect(),
        final_temperatures: Temperatures::new(vec![45.0 + tag; key.len().max(1)], key.len()),
        duration: 1.0,
    }
}

/// The cores of the stress test.
const STRESS_CORES: usize = 32;

/// The key universe of the stress test: small sets over 32 cores, so
/// concurrent threads collide on keys constantly.
fn stress_keys() -> Vec<Vec<usize>> {
    let mut keys = Vec::new();
    for a in 0..STRESS_CORES {
        keys.push(vec![a]);
        keys.push(vec![a, (a + 5) % STRESS_CORES]);
        keys.push(vec![a, (a + 3) % STRESS_CORES, (a + 11) % STRESS_CORES]);
    }
    keys.iter_mut().for_each(|k| k.sort_unstable());
    keys
}

/// Thread `publisher`'s characterisation of the stress test's cores: every
/// result carries the publisher in its duration, so a reader can tell
/// whose publication the store kept.
fn characterisation_by(publisher: usize) -> Vec<SessionThermalResult> {
    (0..STRESS_CORES)
        .map(|core| SessionThermalResult {
            duration: 1.0 + publisher as f64,
            ..result_for_key(&[core])
        })
        .collect()
}

#[test]
fn store_keeps_first_writes_under_a_scoped_thread_hammer() {
    let store = SessionCacheHandle::new();
    let keys = stress_keys();
    let threads = 8;
    let rounds = 30;

    // Each thread returns the publisher of every characterisation it saw.
    let seen: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let keys = &keys;
                let store = &store;
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for round in 0..rounds {
                        // Each thread walks the key space at its own stride,
                        // mixing single ops with batched ones and with races
                        // to publish and read the characterisation.
                        for (i, key) in keys.iter().enumerate() {
                            let slot = (i + t * 7 + round * 13) % 4;
                            match slot {
                                0 => store.store(key.clone(), result_for_key(key)),
                                1 => {
                                    if let Some(found) = store.lookup(key) {
                                        assert_eq!(found, result_for_key(key));
                                    }
                                }
                                2 => {
                                    let batch: Vec<_> = keys[i..(i + 5).min(keys.len())]
                                        .iter()
                                        .map(|k| (k.clone(), result_for_key(k)))
                                        .collect();
                                    store.store_batch(batch);
                                }
                                _ => {
                                    let held = if (i + round) % 2 == 0 {
                                        Some(store.characterise(characterisation_by(t)))
                                    } else {
                                        store.characterisation(STRESS_CORES)
                                    };
                                    if let Some(held) = held {
                                        let publisher = held[0].duration - 1.0;
                                        assert_eq!(held, characterisation_by(publisher as usize));
                                        seen.push(publisher);
                                    }
                                }
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().unwrap())
            .collect()
    });

    // Every key was stored at least once; the store must agree entry for
    // entry with the deterministic expectation.
    assert_eq!(store.len(), keys.len() + STRESS_CORES);
    for key in &keys {
        assert_eq!(store.lookup(key), Some(result_for_key(key)), "key {key:?}");
    }
    // Every reader saw the one characterisation the store kept: the first
    // published.
    let kept = store
        .characterisation(STRESS_CORES)
        .expect("some thread published");
    let publisher = kept[0].duration - 1.0;
    assert!(!seen.is_empty());
    assert!(seen.iter().all(|&seen| seen == publisher), "{seen:?}");
    // Insertions are first-write-wins exact: one per key, one per core of
    // the one characterisation kept.
    assert_eq!(store.stats().insertions, (keys.len() + STRESS_CORES) as u64);
}
