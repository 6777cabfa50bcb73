//! A1 ablation: sensitivity of Algorithm 1 to the violation weight factor
//! (the paper fixes it at 1.1 without exploring alternatives).

use criterion::{criterion_group, criterion_main, Criterion};
use thermsched::{report, Engine, SweepSpec};
use thermsched_bench::alpha_fixture;

fn bench_weight_ablation(c: &mut Criterion) {
    let (sut, simulator) = alpha_fixture();
    let engine = Engine::builder()
        .sut(&sut)
        .backend(&simulator)
        .build()
        .expect("engine builds");
    let factors = [1.0, 1.05, 1.1, 1.25, 1.5, 2.0];
    let spec = SweepSpec::weight_ablation(155.0, 80.0, &factors);

    let sweep = engine.sweep(&spec).expect("weight ablation runs");
    println!(
        "\n{}",
        report::render_ablation(
            "A1 — violation weight factor (TL=155, STCL=80)",
            sweep.points()
        )
    );

    c.bench_function("ablation/weight_factor_sweep", |b| {
        b.iter(|| engine.sweep(&spec).expect("weight ablation runs"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_weight_ablation
}
criterion_main!(benches);
