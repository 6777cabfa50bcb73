//! A3 ablation: fidelity of the guidance session thermal model — the paper's
//! modification 2 (drop active–active resistances) and the lateral-only
//! restriction, each toggled.

use criterion::{criterion_group, criterion_main, Criterion};
use thermsched::{report, Engine, SweepSpec};
use thermsched_bench::alpha_fixture;

fn bench_model_ablation(c: &mut Criterion) {
    let (sut, simulator) = alpha_fixture();
    let engine = Engine::builder()
        .sut(&sut)
        .backend(&simulator)
        .build()
        .expect("engine builds");
    let spec = SweepSpec::model_ablation(155.0, 60.0);

    let sweep = engine.sweep(&spec).expect("model ablation runs");
    println!(
        "\n{}",
        report::render_ablation(
            "A3 — session-model fidelity (TL=155, STCL=60)",
            sweep.points()
        )
    );

    c.bench_function("ablation/model_options_sweep", |b| {
        b.iter(|| engine.sweep(&spec).expect("model ablation runs"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_model_ablation
}
criterion_main!(benches);
