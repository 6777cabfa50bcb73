//! `thermsched` — command-line front door to the reproduction.
//!
//! Four subcommands cover the corpus lifecycle:
//!
//! * `thermsched gen` — build a seeded scenario corpus and print it as a
//!   self-describing wire document;
//! * `thermsched run <corpus.json>` — execute every job of a corpus (or of a
//!   `scenario_spec` document, which is expanded first), in-process or
//!   sharded over worker processes with `--processes N`. `--trace <file>`
//!   additionally records a span trace and metrics snapshot of the run as a
//!   `trace_document`;
//! * `thermsched trace <trace.json>` — render a recorded trace as a
//!   per-job waterfall with the slowest spans and the metrics table;
//! * `thermsched worker` — serve the coordinator↔worker protocol over
//!   stdin/stdout. Spawned by `run --processes`; not for interactive use.
//!
//! All file formats are the `thermsched-wire` JSON documents from the
//! `thermsched_wire` crate, so anything this binary writes it (and the
//! library) can read back bit-exactly.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io::Write;
use std::process::ExitCode;

use thermsched_obs::{render_trace, MetricsRegistry, TraceDocument, Tracer, TracerConfig};
use thermsched_service::{
    worker_serve, Corpus, CrashPlan, MultiprocConfig, MultiprocCoordinator, ScenarioSpec,
    ServiceConfig, ServiceReport, ServiceRunner, TraceFamily,
};
use thermsched_wire::{document_type, from_document, to_document, JsonValue, Wire};

const USAGE: &str = "\
usage: thermsched <command> [options]

commands:
  gen                     generate a seeded scenario corpus document
      --seed <u64>          master seed (default 2005)
      --scenarios <n>       number of systems under test (default 8)
      --trace-families <l>  comma-separated list of power-trace families
                            (ramp, periodic, idle_gap) cycled over the jobs
      --warm-start <lo:hi>  seeded per-core warm-start temperatures (deg C)
      --out <file>          write to a file instead of stdout
  run <corpus.json>       execute every job of a corpus
      --processes <n>       shard over n worker processes (default: in-process)
      --workers <n>         in-process worker threads (default: all cores)
      --json                print the full report as a wire document
      --jobs-only           print only the deterministic per-job results
      --trace <file>        record a span trace + metrics document of the run
      --out <file>          write to a file instead of stdout
  trace <trace.json>      render a recorded trace (waterfall, slowest spans)
  worker                  serve the sharding protocol on stdin/stdout
      --exit-after <n>      crash-test hook: die silently after n jobs
      --exit-worker <k>     arm --exit-after only on worker index k

`run` accepts either a `corpus` document (from `gen`) or a `scenario_spec`
document, which is expanded deterministically before running.
";

/// A CLI failure: what to print on stderr and which exit code to use
/// (2 for usage errors, 1 for everything else, mirroring common tools).
struct CliError {
    message: String,
    code: u8,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    fn runtime(message: impl fmt::Display) -> Self {
        CliError {
            message: message.to_string(),
            code: 1,
        }
    }
}

impl From<thermsched_service::ServiceError> for CliError {
    fn from(e: thermsched_service::ServiceError) -> Self {
        CliError::runtime(e)
    }
}

impl From<thermsched_wire::WireError> for CliError {
    fn from(e: thermsched_wire::WireError) -> Self {
        CliError::runtime(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::runtime(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("thermsched: {}", e.message);
            if e.code == 2 {
                eprint!("{USAGE}");
            }
            ExitCode::from(e.code)
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("worker") => cmd_worker(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(CliError::usage(format!("unknown command `{other}`"))),
        None => Err(CliError::usage("no command given")),
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    let mut spec = ScenarioSpec::default();
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => spec.seed = parse_value(flag, iter.next())?,
            "--scenarios" => spec.scenarios = parse_value(flag, iter.next())?,
            "--trace-families" => {
                spec.trace_families = parse_trace_families(&required(flag, iter.next())?)?;
            }
            "--warm-start" => {
                spec.warm_start_range = Some(parse_warm_start(&required(flag, iter.next())?)?);
            }
            "--out" => out = Some(required(flag, iter.next())?),
            other => return Err(CliError::usage(format!("gen: unknown option `{other}`"))),
        }
    }
    let corpus = spec.build()?;
    emit(&render_document(&to_document(&corpus))?, out.as_deref())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<String> = None;
    let mut processes = 0usize;
    let mut workers: Option<usize> = None;
    let mut json = false;
    let mut jobs_only = false;
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--processes" => processes = parse_value(arg, iter.next())?,
            "--workers" => workers = Some(parse_value(arg, iter.next())?),
            "--json" => json = true,
            "--jobs-only" => jobs_only = true,
            "--trace" => trace_out = Some(required(arg, iter.next())?),
            "--out" => out = Some(required(arg, iter.next())?),
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!("run: unknown option `{other}`")));
            }
            _ if path.is_none() => path = Some(arg.clone()),
            other => return Err(CliError::usage(format!("run: extra argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| CliError::usage("run: missing <corpus.json> argument"))?;
    if json && jobs_only {
        return Err(CliError::usage("run: --json and --jobs-only are exclusive"));
    }

    // The tracer exists before the corpus is loaded and is captured after
    // the report is rendered, so the trace holds the codec's spans too.
    let tracer = if trace_out.is_some() {
        Tracer::new(TracerConfig::default())
    } else {
        Tracer::disabled()
    };
    let registry = MetricsRegistry::new();
    let corpus = load_corpus(&path, &tracer)?;
    let mut service = ServiceConfig::default();
    if let Some(workers) = workers {
        service.workers = workers;
    }
    let report = if processes > 0 {
        let program = std::env::current_exe()?;
        MultiprocCoordinator::new(MultiprocConfig {
            processes,
            program,
            args: vec!["worker".to_owned()],
            service,
        })?
        .run_traced(&corpus, &tracer, &registry)?
    } else {
        ServiceRunner::new(service)?.run_traced(&corpus, &tracer, &registry)?
    };

    let text = {
        let _span = tracer.span("wire.render");
        if jobs_only {
            render_jobs_only(&report)?
        } else if json {
            render_document(&to_document(&report))?
        } else {
            format!("{}{}", report.render_jobs(), report.render_summary())
        }
    };
    if let Some(trace_path) = &trace_out {
        let doc = TraceDocument::capture(&tracer, &registry);
        let trace_text = render_document(&to_document(&doc))?;
        fs::write(trace_path, &trace_text)
            .map_err(|e| CliError::runtime(format!("writing {trace_path}: {e}")))?;
    }
    emit(&text, out.as_deref())
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let mut path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out = Some(required(arg, iter.next())?),
            other if other.starts_with("--") => {
                return Err(CliError::usage(format!("trace: unknown option `{other}`")));
            }
            _ if path.is_none() => path = Some(arg.clone()),
            other => return Err(CliError::usage(format!("trace: extra argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| CliError::usage("trace: missing <trace.json> argument"))?;
    let text =
        fs::read_to_string(&path).map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?;
    let document = JsonValue::parse(&text)?;
    let doc = from_document::<TraceDocument>(&document)?;
    emit(&render_trace(&doc, 10), out.as_deref())
}

fn cmd_worker(args: &[String]) -> Result<(), CliError> {
    let mut exit_after: Option<usize> = None;
    let mut exit_worker: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--exit-after" => exit_after = Some(parse_value(flag, iter.next())?),
            "--exit-worker" => exit_worker = Some(parse_value(flag, iter.next())?),
            other => return Err(CliError::usage(format!("worker: unknown option `{other}`"))),
        }
    }
    let crash = match (exit_after, exit_worker) {
        (Some(after_jobs), only_worker) => Some(CrashPlan {
            after_jobs,
            only_worker,
        }),
        (None, Some(_)) => {
            return Err(CliError::usage(
                "worker: --exit-worker requires --exit-after",
            ));
        }
        (None, None) => None,
    };
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout().lock();
    worker_serve(stdin, stdout, crash)?;
    Ok(())
}

/// Parses `--trace-families ramp,periodic,idle_gap` into the family list.
fn parse_trace_families(value: &str) -> Result<Vec<TraceFamily>, CliError> {
    value
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| {
            TraceFamily::parse(name).ok_or_else(|| {
                CliError::usage(format!(
                    "--trace-families: unknown family `{name}` (expected ramp, periodic or idle_gap)"
                ))
            })
        })
        .collect()
}

/// Parses `--warm-start 50:70` into the `(low, high)` temperature range.
fn parse_warm_start(value: &str) -> Result<(f64, f64), CliError> {
    let invalid = || CliError::usage("--warm-start: expected `<low>:<high>` in deg C");
    let (low, high) = value.split_once(':').ok_or_else(invalid)?;
    let low: f64 = low.trim().parse().map_err(|_| invalid())?;
    let high: f64 = high.trim().parse().map_err(|_| invalid())?;
    Ok((low, high))
}

/// Reads a corpus from a wire document, expanding `scenario_spec` documents
/// into their (deterministic) corpus first.
///
/// Records the run-level spans `wire.read`, `wire.parse` and `wire.decode`
/// with the benchmark's boundaries: `wire.decode` includes freeing the text
/// and the parsed document. A spec expands after `wire.decode` ends.
fn load_corpus(path: &str, tracer: &Tracer) -> Result<Corpus, CliError> {
    let text = {
        let _span = tracer.span("wire.read");
        fs::read_to_string(path).map_err(|e| CliError::runtime(format!("reading {path}: {e}")))?
    };
    let document = {
        let _span = tracer.span("wire.parse");
        JsonValue::parse(&text)?
    };
    let decode = tracer.span("wire.decode");
    let spec = match document_type(&document)? {
        "corpus" => {
            let corpus = from_document::<Corpus>(&document)?;
            drop((document, text, decode));
            return Ok(corpus);
        }
        "scenario_spec" => from_document::<ScenarioSpec>(&document)?,
        other => {
            return Err(CliError::runtime(format!(
                "{path}: cannot run a `{other}` document (expected `corpus` or `scenario_spec`)"
            )))
        }
    };
    drop((document, text, decode));
    Ok(spec.build()?)
}

/// The deterministic slice of a report: the per-job results alone, as a
/// plain JSON array. Byte-identical across worker and process counts —
/// what the golden files and the cross-process determinism tests compare.
fn render_jobs_only(report: &ServiceReport) -> Result<String, CliError> {
    let jobs = JsonValue::Array(report.jobs().iter().map(Wire::to_wire).collect());
    Ok(render_value(&jobs)?)
}

fn render_document(document: &JsonValue) -> Result<String, CliError> {
    Ok(render_value(document)?)
}

fn render_value(value: &JsonValue) -> Result<String, thermsched_wire::WireError> {
    Ok(format!("{}\n", value.render_pretty()?))
}

fn emit(text: &str, out: Option<&str>) -> Result<(), CliError> {
    match out {
        Some(path) => {
            fs::write(path, text).map_err(|e| CliError::runtime(format!("writing {path}: {e}")))
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout.write_all(text.as_bytes())?;
            Ok(())
        }
    }
}

fn required(flag: &str, value: Option<&String>) -> Result<String, CliError> {
    value
        .cloned()
        .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, CliError> {
    required(flag, value)?
        .parse()
        .map_err(|_| CliError::usage(format!("{flag}: not a valid value")))
}
