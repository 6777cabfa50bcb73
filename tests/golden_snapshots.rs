//! Golden-file snapshots of the deterministic wire output.
//!
//! Two fixed seeds are pinned byte-for-byte under `tests/golden/`: the
//! generated corpus document (what `thermsched gen` prints) and the
//! per-job results array (what `thermsched run --jobs-only` prints).
//! Any codec, scheduler, or scenario-expansion change that shifts these
//! bytes fails here first, with a diffable artefact in the repo.
//!
//! To regenerate after an *intentional* format or semantics change:
//!
//! ```text
//! THERMSCHED_UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```
//!
//! then review the golden diff like any other code change.

use std::path::PathBuf;

use thermsched_obs::{MetricsRegistry, TraceDocument, Tracer, TracerConfig};
use thermsched_service::{
    BackendKind, ClockKind, Corpus, ScenarioSpec, ServiceConfig, ServiceRunner, TraceFamily,
};
use thermsched_wire::{to_document, JsonValue, Wire};

/// The pinned corpora: (label, seed, scenario count). Small on purpose —
/// golden files are reviewed by eye in diffs.
const PINNED: [(&str, u64, usize); 2] = [("seed7", 7, 2), ("seed2005", 2005, 1)];

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
}

fn corpus(seed: u64, scenarios: usize) -> Corpus {
    ScenarioSpec {
        seed,
        scenarios,
        ..ScenarioSpec::default()
    }
    .build()
    .expect("pinned corpus builds")
}

/// Exactly the bytes `thermsched gen` emits for this corpus.
fn corpus_text(corpus: &Corpus) -> String {
    format!(
        "{}\n",
        to_document(corpus).render_pretty().expect("corpus renders")
    )
}

/// Exactly the bytes `thermsched run --jobs-only` emits for this corpus.
fn jobs_text(corpus: &Corpus) -> String {
    jobs_text_with(corpus, ServiceConfig::default())
}

/// The per-job results array of this corpus under `config`.
fn jobs_text_with(corpus: &Corpus, config: ServiceConfig) -> String {
    let report = ServiceRunner::new(config)
        .expect("valid config")
        .run(corpus)
        .expect("pinned corpus runs");
    let jobs = JsonValue::Array(report.jobs().iter().map(Wire::to_wire).collect());
    format!("{}\n", jobs.render_pretty().expect("jobs render"))
}

/// The structural slice of a traced run: job spans with tree positions
/// and structural attributes only — the deterministic part of a trace,
/// byte-identical at any worker or process count (see
/// `tests/trace_determinism.rs` for that proof; this file pins the bytes).
fn trace_text(corpus: &Corpus) -> String {
    let tracer = Tracer::new(TracerConfig {
        clock: ClockKind::Virtual,
        ..TracerConfig::default()
    });
    let registry = MetricsRegistry::new();
    ServiceRunner::new(ServiceConfig {
        workers: 1,
        clock: ClockKind::Virtual,
        ..ServiceConfig::default()
    })
    .expect("valid config")
    .run_traced(corpus, &tracer, &registry)
    .expect("pinned corpus runs");
    let doc = TraceDocument::capture(&tracer, &registry);
    assert_eq!(doc.dropped_spans, 0, "golden trace lost spans");
    doc.structural_text()
}

fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("THERMSCHED_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("golden file written");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             THERMSCHED_UPDATE_GOLDEN=1 cargo test --test golden_snapshots",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden snapshot; if the change is \
         intentional, regenerate with THERMSCHED_UPDATE_GOLDEN=1 and \
         review the diff"
    );
}

/// The pinned *online* corpus: the seed7 spec with every trace family and
/// a warm-start range active, pinning the online wire fields and the
/// traced/warm-started scheduling results byte-for-byte.
fn online_corpus() -> Corpus {
    ScenarioSpec {
        seed: 7,
        scenarios: 2,
        trace_families: vec![
            TraceFamily::Ramp,
            TraceFamily::Periodic,
            TraceFamily::IdleGap,
        ],
        warm_start_range: Some((48.0, 62.0)),
        ..ScenarioSpec::default()
    }
    .build()
    .expect("pinned online corpus builds")
}

#[test]
fn online_corpus_and_results_match_their_golden_bytes() {
    let corpus = online_corpus();
    check("corpus_seed7_online.json", &corpus_text(&corpus));
    check("jobs_seed7_online.json", &jobs_text(&corpus));
}

#[test]
fn corpus_documents_match_their_golden_bytes() {
    for (label, seed, scenarios) in PINNED {
        check(
            &format!("corpus_{label}.json"),
            &corpus_text(&corpus(seed, scenarios)),
        );
    }
}

#[test]
fn per_job_results_match_their_golden_bytes() {
    for (label, seed, scenarios) in PINNED {
        check(
            &format!("jobs_{label}.json"),
            &jobs_text(&corpus(seed, scenarios)),
        );
    }
}

/// The seed-7 corpus on the grid-transient backend, 2 cells per core edge,
/// at one worker. Its prewarm groups of 9 and 12 lanes run the multi-RHS
/// kernel's full blocks and its remainders, and its jobs' later sessions
/// the single-lane step, so this pins the bytes of both banded paths; every
/// other golden runs the RC-compact backend.
#[test]
fn grid_transient_results_match_their_golden_bytes() {
    let (_, seed, scenarios) = PINNED[0];
    let config = ServiceConfig {
        workers: 1,
        backend: BackendKind::GridTransient { cells_per_core: 2 },
        ..ServiceConfig::default()
    };
    check(
        "jobs_seed7_grid.json",
        &jobs_text_with(&corpus(seed, scenarios), config),
    );
}

#[test]
fn trace_structural_slices_match_their_golden_bytes() {
    // One pinned trace is enough — the slice is already proven invariant
    // across concurrency; this guards the *format* (names, attrs, order).
    let (label, seed, scenarios) = PINNED[0];
    check(
        &format!("trace_{label}.json"),
        &trace_text(&corpus(seed, scenarios)),
    );
}
