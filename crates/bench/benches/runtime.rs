//! P1: raw runtime of the building blocks — steady-state solves, transient
//! session simulation and schedule generation — versus SoC size. The paper's
//! "rapid generation" claim rests on the guidance model keeping the number of
//! expensive simulations small; this bench quantifies both sides.
//!
//! The `schedule_paths` group additionally compares full-schedule generation
//! through the sequential implicit-Euler reference path against the
//! precomputed-operator fast path (now the library default) on both library
//! SUTs, and verifies that the two paths produce identical schedules. The
//! committed `BENCH_pr2.json` at the workspace root is a frozen record of
//! this comparison; this bench does not rewrite it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use thermsched::{ScheduleOutcome, SchedulerConfig, ThermalAwareScheduler};
use thermsched_bench::alpha_fixture;
use thermsched_floorplan::library as fp_library;
use thermsched_soc::{library as soc_library, GeneratorConfig, SocGenerator, SystemUnderTest};
use thermsched_thermal::{PowerMap, RcThermalSimulator, ThermalSimulator};

fn bench_thermal_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/steady_state_solve");
    for n in [4usize, 8, 12, 16] {
        let fp = fp_library::uniform_grid(n, n, 1.5);
        let sim = RcThermalSimulator::from_floorplan(&fp).expect("grid model builds");
        let power = PowerMap::from_vec(vec![1.0; fp.block_count()]).expect("valid power");
        group.bench_with_input(
            BenchmarkId::from_parameter(n * n),
            &(sim, power),
            |b, (sim, power)| b.iter(|| sim.steady_state(power).expect("solve succeeds")),
        );
    }
    group.finish();
}

fn bench_session_simulation(c: &mut Criterion) {
    let (sut, sim) = alpha_fixture();
    let mut power = PowerMap::zeros(sut.core_count());
    for core in 0..5 {
        power.set(core, sut.test_power(core)).expect("valid power");
    }
    c.bench_function("runtime/transient_session_1s", |b| {
        b.iter(|| {
            sim.simulate_session(&power, 1.0)
                .expect("simulation succeeds")
        })
    });
}

fn bench_schedule_generation_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime/schedule_generation");
    group.sample_size(10);
    for grid in [3usize, 4, 5] {
        let config = GeneratorConfig {
            grid_columns: grid,
            grid_rows: grid,
            ..GeneratorConfig::default()
        };
        let mut generator = SocGenerator::new(7, config).expect("valid generator");
        let sut = generator.generate().expect("generation succeeds");
        let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).expect("model builds");
        group.bench_with_input(
            BenchmarkId::from_parameter(grid * grid),
            &(sut, sim),
            |b, (sut, sim)| {
                b.iter(|| {
                    let config = SchedulerConfig::new(170.0, 60.0).expect("valid config");
                    ThermalAwareScheduler::new(sut, sim, config)
                        .expect("scheduler builds")
                        .schedule()
                        .expect("schedule generation succeeds")
                })
            },
        );
    }
    group.finish();
}

/// One full scheduling run at the paper's mid-range operating point for the
/// given system.
fn run_schedule(
    sut: &SystemUnderTest,
    sim: &RcThermalSimulator,
    tl: f64,
    stcl: f64,
) -> ScheduleOutcome {
    let config = SchedulerConfig::new(tl, stcl).expect("valid config");
    ThermalAwareScheduler::new(sut, sim, config)
        .expect("scheduler builds")
        .schedule()
        .expect("schedule generation succeeds")
}

fn bench_schedule_paths(c: &mut Criterion) {
    let suts: [(&str, SystemUnderTest, f64, f64); 2] = [
        ("alpha21364", soc_library::alpha21364_sut(), 165.0, 50.0),
        ("figure1", soc_library::figure1_sut(), 90.0, 40.0),
    ];
    let mut group = c.benchmark_group("runtime/schedule_paths");
    group.sample_size(10);
    for (name, sut, tl, stcl) in &suts {
        let reference = RcThermalSimulator::reference_from_floorplan(sut.floorplan())
            .expect("reference model builds");
        // Default construction = precomputed-operator fast path.
        let fast = RcThermalSimulator::from_floorplan(sut.floorplan()).expect("fast model builds");

        // The speedup claim is only meaningful if both paths produce the
        // same schedule; verify before timing anything.
        let r = run_schedule(sut, &reference, *tl, *stcl);
        let f = run_schedule(sut, &fast, *tl, *stcl);
        assert_eq!(r.schedule, f.schedule, "{name}: paths disagree on sessions");
        assert_eq!(r.simulation_effort, f.simulation_effort);
        assert_eq!(r.discarded_sessions, f.discarded_sessions);

        group.bench_with_input(
            BenchmarkId::new("reference", name),
            &(sut, &reference),
            |b, (sut, sim)| b.iter(|| run_schedule(sut, sim, *tl, *stcl)),
        );
        group.bench_with_input(
            BenchmarkId::new("fast", name),
            &(sut, &fast),
            |b, (sut, sim)| b.iter(|| run_schedule(sut, sim, *tl, *stcl)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_thermal_solver, bench_session_simulation,
        bench_schedule_generation_scaling, bench_schedule_paths
}
criterion_main!(benches);
