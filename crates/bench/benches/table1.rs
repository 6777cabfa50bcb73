//! Regenerates Table 1 of the paper: schedule length, simulation effort and
//! maximum temperature over the full TL × STCL grid, and benchmarks the
//! complete sweep through `Engine::sweep`.

use criterion::{criterion_group, criterion_main, Criterion};
use thermsched::{experiments, report, Engine, SweepSpec};
use thermsched_bench::alpha_fixture;

fn bench_table1(c: &mut Criterion) {
    let (sut, simulator) = alpha_fixture();
    let engine = Engine::builder()
        .sut(&sut)
        .backend(&simulator)
        .build()
        .expect("engine builds");

    // Print the full reproduced table once so the bench log documents it.
    let table = engine
        .sweep(&SweepSpec::table1())
        .expect("table1 sweep runs");
    println!("\n{}", report::render_table1(table.points()));
    println!(
        "cross-point cache: {} warm hits over {} points\n",
        table.warm_cache_hits(),
        table.len()
    );

    // Benchmark a single representative row group (one TL, all STCL values),
    // which is the unit of work a user exploring the trade-off would repeat.
    // Repeats run against the engine's warm session cache, exactly as they
    // would for that user.
    let row = SweepSpec::grid(&[165.0], &experiments::default_stc_limits());
    c.bench_function("table1/row_group_tl165", |b| {
        b.iter(|| engine.sweep(&row).expect("sweep runs"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1
}
criterion_main!(benches);
