//! Batch service quickstart: generate a 32-scenario corpus, run it through
//! the concurrent `ServiceRunner`, and print the aggregated report.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example batch_corpus
//! ```

use thermsched_service::{ScenarioSpec, ServiceConfig, ServiceRunner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 32 generated systems (9..20 cores, cycling grid shapes), each
    // scheduled at the default two STCL operating points -> 64 jobs.
    let spec = ScenarioSpec {
        seed: 2005,
        scenarios: 32,
        ..ScenarioSpec::default()
    };
    let corpus = spec.build()?;
    println!(
        "corpus: {} scenarios ({} cores total), {} jobs",
        corpus.scenarios().len(),
        corpus.total_cores(),
        corpus.jobs().len()
    );

    let runner = ServiceRunner::new(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    })?;
    let report = runner.run(&corpus)?;

    // The per-job table is deterministic (identical at any worker count);
    // the summary carries the timing- and cache-dependent aggregates.
    print!("{}", report.render_jobs());
    print!("{}", report.render_summary());
    match report.max_temperature() {
        Some(t) => println!("hottest committed session anywhere in the batch: {t:.1} C"),
        None => println!("hottest committed session anywhere in the batch: n/a"),
    }
    Ok(())
}
