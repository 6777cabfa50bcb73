//! Differential pinning of the time-varying-power stack: the traced
//! operator fast path against the per-step implicit-Euler reference across
//! the seeded trace families, warm-started staging against one concatenated
//! offline run, and byte-identity of traced/warm-started per-job results
//! across worker counts and across the process boundary.

use std::time::Duration;
use thermsched::TraceProfile;
use thermsched_floorplan::library as fp_library;

use thermsched_service::{
    Corpus, Frontend, FrontendConfig, MultiprocConfig, MultiprocCoordinator, ScenarioSpec,
    ServiceConfig, ServiceRunner, Submission, TraceFamily,
};
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, PowerMap, PowerTrace, RcThermalSimulator,
    ThermalSimulator, TransientConfig, TransientSolver,
};
use thermsched_wire::{JsonValue, Wire};

const FAMILIES: [TraceFamily; 3] = [
    TraceFamily::Ramp,
    TraceFamily::Periodic,
    TraceFamily::IdleGap,
];

fn alpha_power() -> PowerMap {
    let fp = fp_library::alpha21364();
    let levels: Vec<f64> = (0..fp.block_count())
        .map(|i| 2.0 + 1.5 * (i % 5) as f64)
        .collect();
    PowerMap::from_vec(levels).expect("valid power map")
}

/// Every seeded family trace must agree between the composed-operator fast
/// path and the per-step implicit-Euler reference within 1e-6 °C, from
/// ambient and from an arbitrary warm state.
#[test]
fn seeded_family_traces_match_the_stepped_reference() {
    let fp = fp_library::alpha21364();
    let net = thermsched_thermal::ThermalNetwork::build(&fp, &PackageConfig::default()).unwrap();
    let reference = TransientSolver::new(&net, TransientConfig::reference()).unwrap();
    let fast = TransientSolver::new(&net, TransientConfig::default()).unwrap();
    let power = alpha_power();
    let warm = vec![52.5; net.node_count()];

    for family in FAMILIES {
        for seed in [1u64, 17, 2005] {
            let profile = family.profile(seed);
            let trace = profile.materialise(&power, 1.0).unwrap();
            for initial in [None, Some(&warm[..])] {
                let r = reference.simulate_trace(&trace, initial).unwrap();
                let f = fast.simulate_trace(&trace, initial).unwrap();
                for (a, b) in r
                    .max_block_temperatures
                    .iter()
                    .zip(&f.max_block_temperatures)
                {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "{family:?} seed {seed}: max {a} vs {b}"
                    );
                }
                for (a, b) in r
                    .final_temperatures
                    .node_temperatures()
                    .iter()
                    .zip(f.final_temperatures.node_temperatures())
                {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "{family:?} seed {seed}: final {a} vs {b}"
                    );
                }
            }
        }
    }
}

/// Re-planning from a previous stage's final state must be indistinguishable
/// from one offline simulation of the concatenated trace — on the RC model
/// and on the grid model (which re-uses its factorisation phase by phase).
#[test]
fn warm_started_stages_match_one_concatenated_offline_run() {
    let fp = fp_library::alpha21364();
    let power = alpha_power();
    let half = power.scaled(0.5).unwrap();
    let stage1 = PowerTrace::new(vec![(power.clone(), 0.25), (half.clone(), 0.25)]).unwrap();
    let stage2 = PowerTrace::new(vec![(half.clone(), 0.5)]).unwrap();
    let whole = PowerTrace::new(vec![
        (power.clone(), 0.25),
        (half.clone(), 0.25),
        (half, 0.5),
    ])
    .unwrap();

    let rc = RcThermalSimulator::from_floorplan(&fp).unwrap();
    let grid = GridThermalSimulator::new(&fp, &PackageConfig::default(), GridResolution::default())
        .unwrap();
    // The RC model hands back its full node state, so chaining is exact
    // (1e-6). The grid model exports portable per-block *means* — restarting
    // spreads each mean over the block's cells, so chaining there agrees
    // only up to the within-block spread (well under 0.05 °C here).
    let sims: [(&dyn ThermalSimulator, &str, f64); 2] = [(&rc, "rc", 1e-6), (&grid, "grid", 5e-2)];
    for (sim, label, tolerance) in sims {
        let first = sim.simulate_trace(&stage1, None).unwrap();
        let second = sim
            .simulate_trace(&stage2, Some(&first.final_temperatures))
            .unwrap();
        let offline = sim.simulate_trace(&whole, None).unwrap();
        for (a, b) in second
            .final_temperatures
            .node_temperatures()
            .iter()
            .zip(offline.final_temperatures.node_temperatures())
        {
            assert!((a - b).abs() < tolerance, "{label}: final {a} vs {b}");
        }
        // The concatenated run's per-block maximum is the stage-wise max.
        for (i, offline_max) in offline.max_block_temperatures.iter().enumerate() {
            let staged = first.max_block_temperatures[i].max(second.max_block_temperatures[i]);
            assert!(
                (offline_max - staged).abs() < tolerance,
                "{label}: block {i} max {offline_max} vs staged {staged}"
            );
        }
    }
}

/// The `TraceProfile::constant` shape is the offline run: scheduling a
/// traced session with it must materialise the exact single-phase trace.
#[test]
fn constant_profile_materialises_the_offline_session() {
    let power = alpha_power();
    let trace = TraceProfile::constant().materialise(&power, 0.75).unwrap();
    assert_eq!(trace.phase_count(), 1);
    assert_eq!(trace.phases()[0].0, power);
    assert_eq!(trace.phases()[0].1, 0.75);
}

fn online_corpus() -> Corpus {
    ScenarioSpec {
        scenarios: 2,
        seed: 7,
        trace_families: FAMILIES.to_vec(),
        warm_start_range: Some((48.0, 62.0)),
        ..ScenarioSpec::default()
    }
    .build()
    .expect("pinned online corpus builds")
}

/// Exactly the bytes `thermsched run --jobs-only` emits for this report.
fn jobs_bytes(config: ServiceConfig, corpus: &Corpus) -> String {
    let report = ServiceRunner::new(config)
        .expect("valid config")
        .run(corpus)
        .expect("online corpus runs");
    let jobs = JsonValue::Array(report.jobs().iter().map(Wire::to_wire).collect());
    format!("{}\n", jobs.render_pretty().expect("jobs render"))
}

/// Online jobs keep their results to themselves: the pinned online corpus
/// (the one `golden_snapshots` pins the results of) runs through the batch
/// runner and the streaming front-end without a single store lookup or
/// insertion.
#[test]
fn online_jobs_leave_the_scenario_stores_untouched() {
    let corpus = online_corpus();
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let batch = ServiceRunner::new(config)
        .expect("valid config")
        .run(&corpus)
        .expect("online corpus runs");
    let frontend = Frontend::start(
        FrontendConfig {
            service: config,
            ..FrontendConfig::default()
        },
        corpus.clone(),
    )
    .expect("frontend starts");
    let handles: Vec<_> = corpus
        .jobs()
        .iter()
        .map(|job| frontend.submit(Submission::from_job(job)))
        .collect();
    let drained = frontend.drain(Duration::from_secs(120));
    for (via, stats) in [("runner", batch.stats()), ("frontend", &drained.stats)] {
        assert_eq!(stats.completed, corpus.jobs().len(), "{via}");
        assert_eq!(stats.store.lookups, 0, "{via} looked up");
        assert_eq!(stats.store.insertions, 0, "{via} inserted");
    }
    for (handle, job) in handles.iter().zip(batch.jobs()) {
        assert_eq!(handle.wait().outcome, job.outcome);
    }
}

/// The service's byte-identity contract extends to online corpora: traced
/// and warm-started per-job results are byte-identical at 1, 4 and 8
/// workers.
#[test]
fn online_per_job_results_are_byte_identical_across_worker_counts() {
    let corpus = online_corpus();
    let reference = jobs_bytes(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        &corpus,
    );
    assert!(reference.contains("trace=ramp"), "labels carry the family");
    for workers in [4usize, 8] {
        let bytes = jobs_bytes(
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            &corpus,
        );
        assert_eq!(bytes, reference, "{workers} workers changed online bytes");
    }
}

/// ... and across the process boundary: a 2-process sharded run of the same
/// online corpus produces the same per-job bytes as the in-process run.
#[test]
fn online_per_job_results_survive_the_process_boundary() {
    let corpus = online_corpus();
    let local = jobs_bytes(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        &corpus,
    );
    let report = MultiprocCoordinator::new(MultiprocConfig {
        processes: 2,
        program: env!("CARGO_BIN_EXE_thermsched").into(),
        args: vec!["worker".to_owned()],
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    })
    .expect("valid config")
    .run(&corpus)
    .expect("sharded online run succeeds");
    let jobs = JsonValue::Array(report.jobs().iter().map(Wire::to_wire).collect());
    let sharded = format!("{}\n", jobs.render_pretty().expect("jobs render"));
    assert_eq!(sharded, local, "process sharding changed online bytes");
}
