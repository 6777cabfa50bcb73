//! End-to-end CLI coverage: `thermsched gen | run | worker` as a user
//! would invoke them, shelling out to the built binary.
//!
//! The pipeline under test is the one README documents: generate a corpus
//! document, run it in-process and sharded, and get byte-identical
//! deterministic output either way. Everything the binary writes must be
//! readable back through the wire codec.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

use thermsched_obs::TraceDocument;
use thermsched_service::{Corpus, ServiceConfig, ServiceReport};
use thermsched_wire::frame::write_frame;
use thermsched_wire::{document_type, encode_value, from_document, obj, JsonValue, Wire};

fn thermsched(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_thermsched"))
        .args(args)
        .output()
        .expect("binary spawns")
}

fn run_ok(args: &[&str]) -> String {
    let output = thermsched(args);
    assert!(
        output.status.success(),
        "`thermsched {}` failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

#[test]
fn gen_then_run_is_deterministic_across_process_counts() {
    let dir = std::env::temp_dir().join("thermsched-cli-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let corpus_path = dir.join("corpus.json");
    let corpus_arg = corpus_path.to_str().expect("utf-8 temp path");

    // `gen` emits a self-describing corpus document the codec can read back.
    run_ok(&[
        "gen",
        "--seed",
        "7",
        "--scenarios",
        "2",
        "--out",
        corpus_arg,
    ]);
    let document =
        JsonValue::parse(&std::fs::read_to_string(&corpus_path).expect("corpus written"))
            .expect("corpus parses");
    assert_eq!(document_type(&document).expect("typed document"), "corpus");
    let corpus = from_document::<Corpus>(&document).expect("corpus decodes");
    assert_eq!(corpus.scenarios().len(), 2);

    // Identical bytes from `gen` to stdout and to --out.
    let stdout_copy = run_ok(&["gen", "--seed", "7", "--scenarios", "2"]);
    assert_eq!(
        stdout_copy,
        std::fs::read_to_string(&corpus_path).expect("corpus re-read")
    );

    // `run --jobs-only` is the deterministic slice: identical bytes
    // in-process and at every sharded process count.
    let baseline = run_ok(&["run", corpus_arg, "--jobs-only"]);
    assert!(!baseline.trim().is_empty());
    for processes in ["1", "2", "4"] {
        let sharded = run_ok(&["run", corpus_arg, "--jobs-only", "--processes", processes]);
        assert_eq!(
            sharded, baseline,
            "--processes {processes} changed the job bytes"
        );
    }

    // `run --json` emits a full report document the codec can read back.
    let report_text = run_ok(&["run", corpus_arg, "--json", "--processes", "2"]);
    let report_doc = JsonValue::parse(&report_text).expect("report parses");
    assert_eq!(
        document_type(&report_doc).expect("typed document"),
        "service_report"
    );
    let report = from_document::<ServiceReport>(&report_doc).expect("report decodes");
    assert_eq!(report.jobs().len(), corpus.jobs().len());
    assert_eq!(report.stats().worker_crashes, 0);

    // The human-readable default view mentions every scenario.
    let pretty = run_ok(&["run", corpus_arg]);
    for scenario in corpus.scenarios() {
        assert!(
            pretty.contains(&scenario.name),
            "summary omits scenario {}",
            scenario.name
        );
    }

    std::fs::remove_file(&corpus_path).ok();
}

#[test]
fn run_reports_the_workers_that_ran_the_jobs() {
    let dir = std::env::temp_dir().join("thermsched-cli-workers");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let corpus_path = dir.join("corpus.json");
    let corpus_arg = corpus_path.to_str().expect("utf-8 temp path");
    run_ok(&[
        "gen",
        "--seed",
        "3",
        "--scenarios",
        "1",
        "--out",
        corpus_arg,
    ]);
    // Two jobs of one scenario: one worker process, and two threads.
    let sharded = run_ok(&["run", corpus_arg, "--processes", "3"]);
    assert!(
        sharded.contains("2 jobs over 1 scenarios, 1 workers,"),
        "{sharded}"
    );
    let threaded = run_ok(&["run", corpus_arg, "--workers", "16"]);
    assert!(
        threaded.contains("2 jobs over 1 scenarios, 2 workers,"),
        "{threaded}"
    );
}

#[test]
fn run_trace_round_trips_through_the_trace_subcommand() {
    // Each codec step of a run is one run-level span: `(spans, jobless
    // spans)` per name must be `(1, 1)`.
    let codec_spans = |trace: &TraceDocument| {
        ["wire.read", "wire.parse", "wire.decode", "wire.render"].map(|name| {
            let named = trace.spans.iter().filter(|s| s.name == name);
            (
                named.clone().count(),
                named.filter(|s| s.job.is_none()).count(),
            )
        })
    };
    let dir = std::env::temp_dir().join("thermsched-cli-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let corpus_path = dir.join("corpus.json");
    let trace_path = dir.join("trace.json");
    let corpus_arg = corpus_path.to_str().expect("utf-8 temp path");
    let trace_arg = trace_path.to_str().expect("utf-8 temp path");

    run_ok(&[
        "gen",
        "--seed",
        "7",
        "--scenarios",
        "2",
        "--out",
        corpus_arg,
    ]);
    let report_path = dir.join("report.txt");
    run_ok(&[
        "run",
        corpus_arg,
        "--workers",
        "2",
        "--trace",
        trace_arg,
        "--out",
        report_path.to_str().unwrap(),
    ]);

    // The trace file is a typed wire document holding a decodable trace
    // with one `job` span root per corpus job and a metrics snapshot.
    let document = JsonValue::parse(&std::fs::read_to_string(&trace_path).expect("trace written"))
        .expect("trace parses");
    assert_eq!(
        document_type(&document).expect("typed document"),
        "trace_document"
    );
    let trace = from_document::<TraceDocument>(&document).expect("trace decodes");
    let corpus = from_document::<Corpus>(
        &JsonValue::parse(&std::fs::read_to_string(&corpus_path).unwrap()).unwrap(),
    )
    .expect("corpus decodes");
    assert_eq!(
        trace.spans.iter().filter(|s| s.name == "job").count(),
        corpus.jobs().len()
    );
    assert_eq!(trace.dropped_spans, 0);
    assert_eq!(
        trace.metrics.counter("service.jobs"),
        Some(corpus.jobs().len() as u64)
    );
    assert_eq!(codec_spans(&trace), [(1, 1); 4]);

    // `thermsched trace` renders the recorded document as a waterfall.
    let rendered = run_ok(&["trace", trace_arg]);
    for needle in ["trace v1", "engine.schedule", "metrics", "service.jobs"] {
        assert!(rendered.contains(needle), "rendered trace lacks {needle}");
    }

    // Multiproc runs produce the same document type with the same job set.
    run_ok(&[
        "run",
        corpus_arg,
        "--processes",
        "2",
        "--trace",
        trace_arg,
        "--out",
        report_path.to_str().unwrap(),
    ]);
    let document = JsonValue::parse(&std::fs::read_to_string(&trace_path).expect("trace written"))
        .expect("trace parses");
    let sharded = from_document::<TraceDocument>(&document).expect("trace decodes");
    assert_eq!(
        sharded.spans.iter().filter(|s| s.name == "job").count(),
        corpus.jobs().len()
    );
    assert_eq!(codec_spans(&sharded), [(1, 1); 4]);

    std::fs::remove_file(&corpus_path).ok();
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&report_path).ok();
}

#[test]
fn usage_errors_exit_two_with_help_and_runtime_errors_exit_one() {
    let unknown = thermsched(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("usage:"));

    let conflicting = thermsched(&["run", "x.json", "--json", "--jobs-only"]);
    assert_eq!(conflicting.status.code(), Some(2));

    let orphan_flag = thermsched(&["worker", "--exit-worker", "1"]);
    assert_eq!(orphan_flag.status.code(), Some(2));

    let missing = thermsched(&[
        "run",
        Path::new("/nonexistent/corpus.json").to_str().unwrap(),
    ]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("thermsched:"));

    let help = thermsched(&["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("commands:"));
}

#[test]
fn deeply_nested_documents_are_refused_with_a_clean_error_exit() {
    let dir = std::env::temp_dir().join("thermsched-cli-deep");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let levels = 200_000;
    for (name, open, close) in [("arrays", "[", "]"), ("objects", "{\"a\":", "}")] {
        let path = dir.join(format!("{name}.json"));
        let text = format!("{}1{}", open.repeat(levels), close.repeat(levels));
        std::fs::write(&path, text).expect("document written");
        let output = thermsched(&["run", path.to_str().expect("utf-8 temp path")]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains("deeper than"), "{name}: {stderr}");
        std::fs::remove_file(&path).ok();
    }
}

/// A worker refuses a coordinator of an older protocol by its version: it
/// exits 1 with the version on stderr and replies nothing.
#[test]
fn the_worker_binary_refuses_a_version_3_hello() {
    let hello = obj()
        .field("protocol", 3u64)
        .field("worker", 0usize)
        .field("config", ServiceConfig::default().to_wire())
        .field("trace", false)
        .build();
    let mut input = Vec::new();
    write_frame(&mut input, 1, &encode_value(&hello).expect("HELLO encodes")).expect("framed");
    let mut worker = Command::new(env!("CARGO_BIN_EXE_thermsched"))
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut stdin = worker.stdin.take().expect("stdin was piped");
    stdin.write_all(&input).expect("HELLO written");
    drop(stdin);
    let output = worker.wait_with_output().expect("worker exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(output.stdout.is_empty(), "a refused worker replies nothing");
    assert!(stderr.contains("protocol version 3"), "{stderr}");
}

/// A refused corpus names the job at fault: a warm start of the wrong
/// length with the scenario's core count and the length found, a scenario
/// index outside the corpus with the corpus's scenario count. Both reach
/// `thermsched run`'s stderr with exit 1.
#[test]
fn a_refused_corpus_names_the_job_at_fault() {
    let dir = std::env::temp_dir().join("thermsched-cli-refused");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let text = run_ok(&[
        "gen",
        "--seed",
        "7",
        "--scenarios",
        "2",
        "--warm-start",
        "48:62",
    ]);
    let document = JsonValue::parse(&text).expect("corpus parses");
    let corpus = from_document::<Corpus>(&document).expect("corpus decodes");
    let cores: Vec<usize> = corpus
        .scenarios()
        .iter()
        .map(|scenario| scenario.sut.core_count())
        .collect();
    assert_eq!(corpus.jobs()[1].scenario, 0);
    assert_ne!(
        cores[0], cores[1],
        "moving a job must change its core count"
    );
    // Job 1 moved to scenario 1 keeps its scenario-0 warm start; job 2
    // names a scenario the corpus does not have.
    for (job, scenario, expected) in [
        (
            1,
            1usize,
            format!(
                "job 1 has a warm start of {} temperatures, but its scenario 1 has {} cores",
                cores[0], cores[1]
            ),
        ),
        (
            2,
            9,
            "job 2 names scenario 9, but the corpus has 2 scenarios".to_owned(),
        ),
    ] {
        let mut broken = document.clone();
        let JsonValue::Array(jobs) = field_mut(field_mut(&mut broken, "body"), "jobs") else {
            panic!("jobs is an array");
        };
        *field_mut(&mut jobs[job], "scenario") = JsonValue::from(scenario as u64);
        let path = dir.join(format!("job-{job}.json"));
        std::fs::write(&path, broken.render_pretty().expect("renders")).expect("written");
        let output = thermsched(&["run", path.to_str().expect("utf-8 temp path")]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(&expected), "{stderr}");
        std::fs::remove_file(&path).ok();
    }
}

/// The field `name` of the object `value`.
fn field_mut<'v>(value: &'v mut JsonValue, name: &str) -> &'v mut JsonValue {
    let JsonValue::Object(fields) = value else {
        panic!("expected an object holding `{name}`");
    };
    fields
        .iter_mut()
        .find(|(key, _)| *key == *name)
        .map(|(_, value)| value)
        .unwrap_or_else(|| panic!("no field `{name}`"))
}
