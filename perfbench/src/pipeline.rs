//! One pass of the user-facing pipeline, through the library's public
//! functions: read the corpus document → parse → decode → run every job →
//! encode and render the jobs slice → write it.
//!
//! The benchmark records its own `wire.*` spans around the codec calls;
//! with a disabled tracer they cost nothing.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use thermsched_obs::{MetricsRegistry, Tracer};
use thermsched_service::{
    Corpus, MultiprocConfig, MultiprocCoordinator, ServiceConfig, ServiceReport, ServiceRunner,
};
use thermsched_wire::{from_document, JsonValue, Wire};

use crate::workload::Workload;

/// Where a pass reads and writes, and how it executes.
#[derive(Debug, Clone)]
pub struct Setup {
    pub workload: Workload,
    pub corpus_path: PathBuf,
    pub out_path: PathBuf,
    /// The `thermsched` binary that serves `worker` for multi-process runs.
    pub worker_program: Option<PathBuf>,
}

/// Wall times of one pass, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimes {
    pub read_s: f64,
    pub parse_s: f64,
    /// Decoding the `Corpus`, including freeing the parsed document.
    pub decode_s: f64,
    /// `ServiceRunner::run` or `MultiprocCoordinator::run`, construction
    /// included.
    pub run_s: f64,
    pub render_s: f64,
    pub write_s: f64,
    pub total_s: f64,
}

impl PassTimes {
    pub fn load_s(&self) -> f64 {
        self.read_s + self.parse_s + self.decode_s
    }
}

/// What one pass produced.
pub struct Pass {
    pub times: PassTimes,
    pub corpus: Corpus,
    pub report: ServiceReport,
    pub corpus_bytes: usize,
    pub result_bytes: usize,
    /// FNV-1a 64 of the jobs slice exactly as written.
    pub digest: u64,
}

/// How the pass executes its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `ServiceRunner` with this many worker threads.
    Threads(usize),
    /// `MultiprocCoordinator` with this many worker processes.
    Processes(usize),
}

/// Runs the pipeline once.
///
/// # Errors
///
/// A message for any I/O, codec or service error.
pub fn run_pass(
    setup: &Setup,
    mode: Mode,
    tracer: &Tracer,
    registry: &MetricsRegistry,
) -> Result<Pass, String> {
    let started = Instant::now();
    let text = {
        let _span = tracer.span("wire.read");
        fs::read_to_string(&setup.corpus_path).map_err(|e| format!("reading corpus: {e}"))?
    };
    let read = Instant::now();
    let document = {
        let _span = tracer.span("wire.parse");
        JsonValue::parse(&text).map_err(|e| format!("parsing corpus: {e}"))?
    };
    let parsed = Instant::now();
    let corpus_bytes = text.len();
    let corpus = {
        let _span = tracer.span("wire.decode");
        let corpus =
            from_document::<Corpus>(&document).map_err(|e| format!("decoding corpus: {e}"))?;
        drop(document);
        drop(text);
        corpus
    };
    let decoded = Instant::now();
    let service = ServiceConfig {
        workers: match mode {
            Mode::Threads(n) | Mode::Processes(n) => n,
        },
        backend: setup.workload.backend(),
        ..ServiceConfig::default()
    };
    let report = match mode {
        Mode::Threads(_) => ServiceRunner::new(service)
            .and_then(|runner| runner.run_traced(&corpus, tracer, registry)),
        Mode::Processes(processes) => {
            let program = setup
                .worker_program
                .clone()
                .ok_or("a multi-process workload needs --worker")?;
            MultiprocCoordinator::new(MultiprocConfig {
                processes,
                program,
                args: vec!["worker".to_owned()],
                service,
            })
            .and_then(|coordinator| coordinator.run_traced(&corpus, tracer, registry))
        }
    }
    .map_err(|e| format!("running jobs: {e}"))?;
    let ran = Instant::now();
    let jobs_text = {
        let _span = tracer.span("wire.render");
        let jobs = JsonValue::Array(report.jobs().iter().map(Wire::to_wire).collect());
        let rendered = jobs
            .render_pretty()
            .map_err(|e| format!("rendering jobs: {e}"))?;
        format!("{rendered}\n")
    };
    let rendered = Instant::now();
    {
        let _span = tracer.span("wire.write");
        fs::write(&setup.out_path, &jobs_text).map_err(|e| format!("writing jobs: {e}"))?;
    }
    let written = Instant::now();
    let secs = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64();
    Ok(Pass {
        times: PassTimes {
            read_s: secs(started, read),
            parse_s: secs(read, parsed),
            decode_s: secs(parsed, decoded),
            run_s: secs(decoded, ran),
            render_s: secs(ran, rendered),
            write_s: secs(rendered, written),
            total_s: secs(started, written),
        },
        corpus,
        report,
        corpus_bytes,
        result_bytes: jobs_text.len(),
        digest: fnv1a64(jobs_text.as_bytes()),
    })
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks that every job completed and stayed under its temperature limit.
///
/// # Errors
///
/// A message naming the first job that failed either check.
pub fn check_jobs(report: &ServiceReport) -> Result<(), String> {
    for job in report.jobs() {
        let metrics = job
            .outcome
            .metrics()
            .ok_or_else(|| format!("job {} did not complete: {:?}", job.index, job.outcome))?;
        if metrics.max_temperature > metrics.effective_temperature_limit {
            return Err(format!(
                "job {} is not thermal-safe: {} C over the {} C limit",
                job.index, metrics.max_temperature, metrics.effective_temperature_limit
            ));
        }
    }
    Ok(())
}

/// The corpus file the workload's pass reads, and the jobs file it writes.
pub fn paths(work_dir: &Path, workload: Workload) -> (PathBuf, PathBuf) {
    (
        work_dir.join(format!("{}-corpus.json", workload.name())),
        work_dir.join(format!("{}-jobs.json", workload.name())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
