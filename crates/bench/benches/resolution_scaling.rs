//! Resolution scaling of the grid backend and the multi-RHS session batcher.
//!
//! Two questions, answered on one machine:
//!
//! 1. **What does resolution cost under each stepper?** Wall-clock of one
//!    full-fidelity transient session (1 s at 10 ms steps) on the
//!    Alpha-21364 floorplan at 24×24, 48×48, 96×96 and 128×128 cells, for
//!    the banded implicit-Euler reference and the Peaceman–Rachford ADI
//!    stepper. The banded solve is `O(n·b)` per step with `b` growing with
//!    the grid edge; ADI is `O(n)` through tridiagonal sweeps, which is what
//!    makes 96×96+ affordable.
//! 2. **What does the multi-RHS batcher buy?** `k` same-duration sessions
//!    advanced through one column-blocked banded solve per step versus the
//!    same `k` sessions solved one at a time — identical arithmetic per
//!    lane (the results are bit-identical by contract, checked before
//!    timing). A single lane is bound by latency: each row of both
//!    substitution sweeps waits on a division in the row before it. The
//!    lanes of a block are independent dependency chains, so the block
//!    does their work side by side in that wait; that, more than reading
//!    the factorisation once per step instead of once per lane, is the
//!    speedup.
//!
//! The committed `BENCH_pr6.json` is a frozen record of an earlier run;
//! this bench prints its timings and does not rewrite it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use thermsched_soc::library;
use thermsched_thermal::{
    GridResolution, GridThermalSimulator, PackageConfig, PowerMap, ThermalBackend,
    ThermalSimulator, TransientConfig, TransientMethod,
};

/// The session every point of the curve integrates: 1 s at 10 ms steps.
const SESSION_SECONDS: f64 = 1.0;
const TIME_STEP: f64 = 1e-2;
/// Lanes of the multi-RHS comparison.
const LANES: usize = 8;

fn simulator(resolution: usize, method: TransientMethod) -> GridThermalSimulator {
    let sut = library::alpha21364_sut();
    GridThermalSimulator::with_config(
        sut.floorplan(),
        &PackageConfig::default(),
        GridResolution::new(resolution, resolution).unwrap(),
        TransientConfig {
            time_step: TIME_STEP,
            ..TransientConfig::default()
        }
        .with_method(method),
    )
    .expect("library floorplan fits the bench resolutions")
}

fn power_for(sim: &GridThermalSimulator) -> PowerMap {
    let mut power = PowerMap::zeros(sim.block_count());
    power.set(6, 18.0).unwrap();
    power.set(11, 12.0).unwrap();
    power
}

/// Per-lane power maps for the batched comparison: distinct powers so no
/// lane degenerates into another.
fn lane_powers(sim: &GridThermalSimulator) -> Vec<PowerMap> {
    (0..LANES)
        .map(|lane| {
            let mut power = PowerMap::zeros(sim.block_count());
            power
                .set(lane % sim.block_count(), 9.0 + lane as f64)
                .unwrap();
            power
                .set((lane + 7) % sim.block_count(), 4.0 + 0.5 * lane as f64)
                .unwrap();
            power
        })
        .collect()
}

fn bench_resolution_curve(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolution_curve");
    group.sample_size(7);
    for resolution in [24usize, 48, 96, 128] {
        for (stepper, method) in [
            ("banded", TransientMethod::Auto),
            ("adi", TransientMethod::Adi),
        ] {
            let sim = simulator(resolution, method);
            let power = power_for(&sim);
            group.bench_with_input(
                BenchmarkId::new(stepper, resolution),
                &(sim, power),
                |b, (sim, power)| b.iter(|| sim.simulate_session(power, SESSION_SECONDS).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_multi_rhs(c: &mut Criterion) {
    let banded24 = simulator(24, TransientMethod::Auto);
    let powers = lane_powers(&banded24);
    let single: Vec<_> = powers
        .iter()
        .map(|p| banded24.simulate_session(p, SESSION_SECONDS).unwrap())
        .collect();
    assert_eq!(
        banded24
            .simulate_sessions(&powers, SESSION_SECONDS)
            .unwrap(),
        single,
        "batching is bit-exact by contract"
    );
    let mut group = c.benchmark_group("multi_rhs");
    group.bench_function("batched", |b| {
        b.iter(|| {
            banded24
                .simulate_sessions(&powers, SESSION_SECONDS)
                .unwrap()
        })
    });
    group.bench_function("sequential", |b| {
        b.iter(|| {
            powers
                .iter()
                .map(|p| banded24.simulate_session(p, SESSION_SECONDS).unwrap())
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_resolution_curve, bench_multi_rhs
}
criterion_main!(benches);
