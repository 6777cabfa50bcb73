//! A2 ablation: candidate-core ordering strategies for the session-filling
//! loop (the paper's pseudocode leaves the iteration order unspecified).

use criterion::{criterion_group, criterion_main, Criterion};
use thermsched::{report, Engine, SweepSpec};
use thermsched_bench::alpha_fixture;

fn bench_ordering_ablation(c: &mut Criterion) {
    let (sut, simulator) = alpha_fixture();
    let engine = Engine::builder()
        .sut(&sut)
        .backend(&simulator)
        .build()
        .expect("engine builds");
    let spec = SweepSpec::ordering_ablation(155.0, 60.0);

    let sweep = engine.sweep(&spec).expect("ordering ablation runs");
    println!(
        "\n{}",
        report::render_ablation(
            "A2 — candidate-core ordering (TL=155, STCL=60)",
            sweep.points()
        )
    );

    c.bench_function("ablation/ordering_sweep", |b| {
        b.iter(|| engine.sweep(&spec).expect("ordering ablation runs"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ordering_ablation
}
criterion_main!(benches);
