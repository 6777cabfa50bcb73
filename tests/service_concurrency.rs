//! Concurrency and determinism contract of the batch-scheduling service:
//!
//! * the same seeded corpus must produce byte-identical per-job results at
//!   1, 4 and 8 workers, with one shard or eight backing the scenarios;
//! * so must a corpus whose sibling jobs are scattered across the queue,
//!   at 1, 2, 4 and 8 workers, however scenario-affine dispatch gathers
//!   them;
//! * the 8-way `ShardedSessionCache` must behave exactly like the one-shard
//!   store, where every key sits behind one lock, under a multi-threaded
//!   hammer (same final contents, first write wins per key), without locks
//!   poisoning out from under surviving threads.

use thermsched::ShardedSessionCache;
use thermsched_service::{
    BackendKind, Corpus, JobOutcome, ScenarioSpec, ServiceConfig, ServiceReport, ServiceRunner,
    StoreKind,
};
use thermsched_thermal::{SessionThermalResult, Temperatures};
use thermsched_wire::{obj, Wire};

fn corpus_spec() -> ScenarioSpec {
    ScenarioSpec {
        seed: 777,
        scenarios: 6,
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    }
}

fn run(workers: usize, store: StoreKind) -> ServiceReport {
    let corpus = corpus_spec().build().expect("spec is valid");
    ServiceRunner::new(ServiceConfig {
        workers,
        store,
        ..ServiceConfig::default()
    })
    .expect("config is valid")
    .run(&corpus)
    .expect("batch runs")
}

#[test]
fn per_job_results_are_byte_identical_across_worker_counts_and_stores() {
    let reference = run(1, StoreKind::Sharded { shards: 1 });
    assert_eq!(
        reference.stats().completed,
        reference.stats().job_count,
        "the default corpus must complete everywhere:\n{}",
        reference.render_jobs()
    );
    let reference_table = reference.render_jobs();
    assert!(!reference_table.is_empty());

    for workers in [4, 8] {
        for store in [
            StoreKind::Sharded { shards: 1 },
            StoreKind::Sharded { shards: 8 },
        ] {
            let report = run(workers, store);
            assert_eq!(
                report.jobs(),
                reference.jobs(),
                "{workers} workers over {store:?} changed a job result"
            );
            assert_eq!(report.render_jobs(), reference_table);
            assert_eq!(report.stats().workers, workers);
        }
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
fn shard_count_is_invariant_with_the_same_shape_batcher_active() {
    // The prewarmer publishes multi-RHS results through the same
    // `store_batch` contract the workers use, so the shard layout of the
    // `ShardedSessionCache` must stay irrelevant to job results while
    // batching is on — and turning batching off must not matter either.
    let corpus = ScenarioSpec {
        seed: 777,
        scenarios: 3,
        grid_shapes: vec![(3, 3)],
        stc_limits: vec![40.0, 80.0],
        ..ScenarioSpec::default()
    }
    .build()
    .expect("spec is valid");
    let run = |shards: usize, batch: bool| {
        ServiceRunner::new(ServiceConfig {
            workers: 4,
            store: StoreKind::Sharded { shards },
            backend: BackendKind::GridTransient { cells_per_core: 3 },
            batch_same_shape: batch,
            ..ServiceConfig::default()
        })
        .expect("config is valid")
        .run(&corpus)
        .expect("batch runs")
    };
    let reference = run(1, true);
    assert_eq!(reference.stats().completed, reference.stats().job_count);
    assert_eq!(
        reference.stats().prewarmed_sessions,
        corpus.total_cores(),
        "the batcher must prewarm every per-core characterisation"
    );
    for shards in [1, 2, 8, 32] {
        let batched = run(shards, true);
        assert_eq!(
            batched.jobs(),
            reference.jobs(),
            "{shards} shards changed a job result with batching on"
        );
        assert_eq!(batched.stats().prewarmed_sessions, corpus.total_cores());
        let unbatched = run(shards, false);
        assert_eq!(unbatched.jobs(), reference.jobs());
        assert_eq!(unbatched.stats().prewarmed_sessions, 0);
    }
}

#[test]
fn completed_jobs_respect_their_effective_temperature_limits() {
    let report = run(4, StoreKind::Sharded { shards: 8 });
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

/// The key universe of the stress test: small sets over 32 cores, so
/// concurrent threads collide on keys constantly.
fn stress_keys() -> Vec<Vec<usize>> {
    let mut keys = Vec::new();
    for a in 0..32 {
        keys.push(vec![a]);
        keys.push(vec![a, (a + 5) % 32]);
        keys.push(vec![a, (a + 3) % 32, (a + 11) % 32]);
    }
    keys.iter_mut().for_each(|k| k.sort_unstable());
    keys
}

#[test]
fn sharded_store_matches_the_one_shard_store_under_a_scoped_thread_hammer() {
    let sharded = ShardedSessionCache::new(8);
    let single = ShardedSessionCache::new(1);
    let keys = stress_keys();
    let threads = 8;
    let rounds = 30;

    for store in [&sharded, &single] {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let keys = &keys;
                scope.spawn(move || {
                    for round in 0..rounds {
                        // Each thread walks the key space at its own stride,
                        // mixing single ops with batched ones.
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
                                    let probe: Vec<Vec<usize>> =
                                        keys[i..(i + 5).min(keys.len())].to_vec();
                                    for (k, found) in probe.iter().zip(store.lookup_batch(&probe)) {
                                        if let Some(found) = found {
                                            assert_eq!(found, result_for_key(k));
                                        }
                                    }
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    // Every key was stored at least once on every store; the two stores must
    // agree entry for entry with the deterministic expectation.
    assert_eq!(sharded.len(), keys.len());
    assert_eq!(single.len(), keys.len());
    for key in &keys {
        let expected = result_for_key(key);
        assert_eq!(sharded.lookup(key), Some(expected.clone()), "key {key:?}");
        assert_eq!(single.lookup(key), Some(expected), "key {key:?}");
    }
    // Insertions are first-write-wins exact on both stores.
    assert_eq!(sharded.stats().insertions, keys.len() as u64);
    assert_eq!(single.stats().insertions, keys.len() as u64);
}
