//! Multi-process sharding: a coordinator that spawns `thermsched worker`
//! child processes and streams framed jobs to them over stdin/stdout pipes.
//!
//! The per-job results of a batch are a pure function of the corpus (see
//! [`crate::report`] for the determinism boundary), so sharding jobs over
//! *processes* instead of threads changes nothing about them: the merged
//! report's job list is byte-identical at any process count and identical
//! to an in-process [`crate::ServiceRunner`] run. What the coordinator adds
//! is fault isolation at the process boundary — a worker that panics hard,
//! aborts or closes its pipe mid-job is detected (EOF or a malformed frame
//! on its stdout), counted in [`crate::ServiceStats::worker_crashes`], and
//! its unacknowledged jobs are reassigned to a surviving worker.
//!
//! # Protocol
//!
//! All frames use the [`thermsched_wire::frame`] framing (magic, version,
//! kind byte, length-prefixed payload); payloads are binary-encoded
//! [`JsonValue`]s. The conversation is strictly coordinator-driven:
//!
//! | kind | direction | payload |
//! |---|---|---|
//! | `HELLO` (1) | → worker | `{protocol, config, corpus, trace?}` |
//! | `JOB` (2) | → worker | `{index, job}` (global corpus index) |
//! | `RESULT` (3) | ← worker | `{index, result, accounting...}` |
//! | `SHUTDOWN` (4) | → worker | `{}` |
//! | `FIN` (5) | ← worker | worker-local stats (store, caches, prewarm), plus `metrics`/`spans`/`dropped_spans` when tracing |
//!
//! The `trace` flag and the FIN trace fields are optional on both sides
//! (absent means "not tracing"), so mixed-version coordinator/worker pairs
//! keep interoperating and `PROTOCOL_VERSION` stays at 1.
//!
//! The job index crosses the boundary because fault injection and retry
//! jitter are keyed by the *global* corpus index — a worker that hashed its
//! local receive order instead would break the byte-identity contract.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

use thermsched::{OperatorCacheStats, StoreStats};
use thermsched_obs::{
    MetricsRegistry, MetricsSnapshot, ObsClock, SpanRecord, Tracer, TracerConfig,
};
use thermsched_wire::frame::{read_frame, write_frame, Frame};
use thermsched_wire::{decode_value, encode_value, obj, JsonValue, Wire, WireError};

use crate::executor::{Executor, JobAccounting, Mode, Tally};
use crate::{
    ClockKind, Corpus, JobResult, JobSpec, Result, ServiceConfig, ServiceError, ServiceReport,
    ServiceStats,
};

/// Version of the coordinator↔worker protocol, checked in `HELLO`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Frame kinds of the coordinator↔worker protocol.
const FRAME_HELLO: u8 = 1;
const FRAME_JOB: u8 = 2;
const FRAME_RESULT: u8 = 3;
const FRAME_SHUTDOWN: u8 = 4;
const FRAME_FIN: u8 = 5;

fn multiproc_error(message: impl Into<String>) -> ServiceError {
    ServiceError::Multiproc {
        message: message.into(),
    }
}

/// Configuration of a [`MultiprocCoordinator`].
#[derive(Debug, Clone)]
pub struct MultiprocConfig {
    /// Worker processes to spawn. Jobs are sharded round-robin: job `i`
    /// starts on worker `i % processes`.
    pub processes: usize,
    /// Program to spawn as the worker (typically the `thermsched` binary).
    pub program: std::path::PathBuf,
    /// Arguments passed to the program before it enters worker mode
    /// (typically `["worker"]`; tests append `--exit-after N`).
    pub args: Vec<String>,
    /// The service configuration every worker runs jobs under. The
    /// `workers` field is ignored inside a worker process (each child
    /// executes its jobs sequentially — the processes are the parallelism).
    pub service: ServiceConfig,
}

/// Spawns worker processes and shards a corpus over them.
///
/// Per-job results are byte-identical to an in-process run at any process
/// count; the workers speak the protocol of [`worker_serve`].
#[derive(Debug, Clone)]
pub struct MultiprocCoordinator {
    config: MultiprocConfig,
}

/// What one worker's reader thread forwards to the coordinator loop.
enum Event {
    /// A job result, with its timing-side accounting.
    Result {
        worker: usize,
        index: usize,
        result: JobResult,
        accounting: JobAccounting,
    },
    /// The worker's final stats after `SHUTDOWN`.
    Fin {
        worker: usize,
        store: StoreStats,
        operator_cache: OperatorCacheStats,
        prewarmed_sessions: usize,
        /// Worker-local metrics snapshot (empty from untraced workers).
        metrics: MetricsSnapshot,
        /// Worker-local span records (empty from untraced workers).
        spans: Vec<SpanRecord>,
        /// Spans the worker's bounded sink dropped.
        dropped_spans: u64,
    },
    /// The worker's pipe closed (or produced garbage) — it is dead.
    Dead { worker: usize },
}

/// What the coordinator hands a worker's writer thread.
enum WriterMsg {
    Job(usize),
    Shutdown,
}

impl MultiprocCoordinator {
    /// Creates a coordinator.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidSpec`] for zero processes or an invalid
    /// service configuration.
    pub fn new(config: MultiprocConfig) -> Result<Self> {
        if config.processes == 0 {
            return Err(ServiceError::InvalidSpec {
                field: "processes",
                problem: "must be at least 1",
            });
        }
        config.service.validate()?;
        Ok(MultiprocCoordinator { config })
    }

    /// Runs every job of the corpus across the worker processes and merges
    /// the report.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Multiproc`] if a worker cannot be spawned or every
    /// worker dies with jobs still unresolved; [`ServiceError::Wire`] if
    /// the corpus cannot be encoded.
    pub fn run(&self, corpus: &Corpus) -> Result<ServiceReport> {
        self.run_traced(corpus, &Tracer::disabled(), &MetricsRegistry::new())
    }

    /// [`Self::run`] with observability attached: workers are told to trace
    /// (the `trace` HELLO flag), their FIN frames carry back a metrics
    /// snapshot plus their span records, and the coordinator absorbs both
    /// into `tracer`/`registry` — yielding one cross-process trace whose
    /// per-job structural slice is identical to an in-process run's.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_traced(
        &self,
        corpus: &Corpus,
        tracer: &Tracer,
        registry: &MetricsRegistry,
    ) -> Result<ServiceReport> {
        let jobs = corpus.jobs();
        let started = Instant::now();
        if jobs.is_empty() {
            return Ok(ServiceReport::new(
                Vec::new(),
                self.stats(corpus, &Tally::new(), started),
            ));
        }
        let processes = self.config.processes.min(jobs.len());
        let mut hello = obj()
            .field("protocol", PROTOCOL_VERSION)
            .field("worker", 0usize)
            .field("config", self.config.service.to_wire())
            .field("corpus", corpus.to_wire())
            .field("trace", tracer.is_enabled())
            .build();
        // The HELLO frames differ only in the worker index (field 1), so one
        // value is re-stamped per worker instead of copying the corpus into
        // each.
        let hellos: Vec<Vec<u8>> = (0..processes)
            .map(|worker| {
                if let JsonValue::Object(fields) = &mut hello {
                    fields[1].1 = JsonValue::from(worker);
                }
                encode_value(&hello)
            })
            .collect::<std::result::Result<_, WireError>>()?;

        let mut children: Vec<Child> = Vec::with_capacity(processes);
        let mut stdins = Vec::with_capacity(processes);
        let mut stdouts = Vec::with_capacity(processes);
        for worker in 0..processes {
            let mut child = Command::new(&self.config.program)
                .args(&self.config.args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| multiproc_error(format!("spawning worker {worker}: {e}")))?;
            stdins.push(child.stdin.take().expect("stdin was piped"));
            stdouts.push(child.stdout.take().expect("stdout was piped"));
            children.push(child);
        }

        let jobs_wire: Vec<Vec<u8>> = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                encode_value(
                    &obj()
                        .field("index", index)
                        .field("job", job.to_wire())
                        .build(),
                )
            })
            .collect::<std::result::Result<_, WireError>>()?;

        let (event_tx, event_rx) = mpsc::channel::<Event>();
        let outcome = std::thread::scope(|scope| {
            let mut writer_txs: Vec<Option<mpsc::Sender<WriterMsg>>> = Vec::new();
            for (worker, stdin) in stdins.into_iter().enumerate() {
                let (tx, rx) = mpsc::channel::<WriterMsg>();
                let hello = &hellos[worker];
                let jobs_wire = &jobs_wire;
                scope.spawn(move || worker_writer(stdin, rx, hello, jobs_wire));
                writer_txs.push(Some(tx));
                let tx = event_tx.clone();
                let stdout = stdouts.remove(0);
                scope.spawn(move || worker_reader(worker, stdout, &tx));
            }
            drop(event_tx);
            let result = self.coordinate(
                corpus,
                processes,
                &mut writer_txs,
                &event_rx,
                started,
                tracer,
                registry,
            );
            // Readers block on the children's stdout; make sure every child
            // is gone (errors included) before the scope tries to join them.
            if result.is_err() {
                for child in &mut children {
                    let _ = child.kill();
                }
            }
            drop(writer_txs);
            result
        });
        for mut child in children {
            let _ = child.wait();
        }
        outcome
    }

    /// The coordinator event loop: collect results, reassign the jobs of
    /// dead workers, then shut the survivors down and merge their stats.
    ///
    /// Each result is counted once, with the accounting its worker shipped,
    /// into the same [`Tally`] an in-process run counts into; each `FIN`
    /// adds its worker's run-level counters. Worker FIN frames also carry
    /// each worker's metrics snapshot and span records when tracing; the
    /// coordinator folds those straight into `tracer`/`registry` (it
    /// deliberately does *not* absorb its own tally — the workers already
    /// reported those counts).
    #[allow(clippy::too_many_arguments)]
    fn coordinate(
        &self,
        corpus: &Corpus,
        processes: usize,
        writer_txs: &mut [Option<mpsc::Sender<WriterMsg>>],
        events: &mpsc::Receiver<Event>,
        started: Instant,
        tracer: &Tracer,
        registry: &MetricsRegistry,
    ) -> Result<ServiceReport> {
        let jobs = corpus.jobs();
        let mut assigned: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); processes];
        for index in 0..jobs.len() {
            let worker = index % processes;
            assigned[worker].insert(index);
            if let Some(tx) = &writer_txs[worker] {
                let _ = tx.send(WriterMsg::Job(index));
            }
        }

        let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
        let mut resolved = 0usize;
        let mut dead = vec![false; processes];
        let mut finished = vec![false; processes];
        let tally = Tally::new();
        let fin = |finished: &mut [bool], event: Event| {
            if let Event::Fin {
                worker,
                store,
                operator_cache,
                prewarmed_sessions,
                metrics,
                spans,
                dropped_spans,
            } = event
            {
                finished[worker] = true;
                tally.add_run(store, operator_cache, prewarmed_sessions);
                registry.absorb(&metrics);
                tracer.absorb(spans);
                tracer.add_dropped(dropped_spans);
            }
        };

        while resolved < jobs.len() {
            let event = events
                .recv()
                .map_err(|_| multiproc_error("every worker pipe closed with jobs unresolved"))?;
            match event {
                Event::Result {
                    worker,
                    index,
                    result,
                    accounting,
                } => {
                    assigned[worker].remove(&index);
                    if results[index].is_none() {
                        resolved += 1;
                        tally.record(&result.outcome, Some(&accounting));
                        results[index] = Some(result);
                    }
                }
                Event::Fin { .. } => fin(&mut finished, event),
                Event::Dead { worker } => {
                    if dead[worker] || finished[worker] {
                        continue;
                    }
                    dead[worker] = true;
                    tally.worker_crashed();
                    writer_txs[worker] = None;
                    let orphans = std::mem::take(&mut assigned[worker]);
                    if orphans.is_empty() {
                        continue;
                    }
                    let Some(survivor) = (0..processes).find(|&w| !dead[w]) else {
                        return Err(multiproc_error(format!(
                            "all {processes} workers died with {} jobs unresolved",
                            jobs.len() - resolved
                        )));
                    };
                    for index in orphans {
                        assigned[survivor].insert(index);
                        if let Some(tx) = &writer_txs[survivor] {
                            let _ = tx.send(WriterMsg::Job(index));
                        }
                    }
                }
            }
        }

        // Every job is resolved; ask the survivors for their FIN stats.
        let mut awaiting = 0usize;
        for worker in 0..processes {
            if !dead[worker] && !finished[worker] {
                if let Some(tx) = &writer_txs[worker] {
                    let _ = tx.send(WriterMsg::Shutdown);
                    awaiting += 1;
                }
            }
        }
        while awaiting > 0 {
            match events.recv() {
                Ok(event @ Event::Fin { worker, .. }) => {
                    if !finished[worker] {
                        fin(&mut finished, event);
                        awaiting -= 1;
                    }
                }
                Ok(Event::Dead { worker }) => {
                    // Died between its last result and FIN: no orphans to
                    // reassign, but it is a crash all the same.
                    if !dead[worker] && !finished[worker] {
                        dead[worker] = true;
                        tally.worker_crashed();
                        awaiting -= 1;
                    }
                }
                Ok(Event::Result { .. }) => {}
                Err(_) => break,
            }
        }

        let jobs_done: Vec<JobResult> = results
            .into_iter()
            .map(|slot| slot.expect("loop exits only once every job is resolved"))
            .collect();
        Ok(ServiceReport::new(
            jobs_done,
            self.stats(corpus, &tally, started),
        ))
    }

    /// The merged stats of a run that started at `started`.
    fn stats(&self, corpus: &Corpus, tally: &Tally, started: Instant) -> ServiceStats {
        tally.stats(
            &self.config.service,
            self.config.processes,
            corpus.scenarios().len(),
            started.elapsed().as_secs_f64(),
        )
    }
}

/// Writer thread of one worker: `HELLO`, then jobs as the coordinator
/// assigns them, then `SHUTDOWN`. Write errors end the thread quietly — the
/// worker's reader will observe the death and the coordinator reassigns.
fn worker_writer(
    stdin: impl Write,
    jobs: mpsc::Receiver<WriterMsg>,
    hello: &[u8],
    jobs_wire: &[Vec<u8>],
) {
    let mut stdin = BufWriter::new(stdin);
    if write_frame(&mut stdin, FRAME_HELLO, hello).is_err() {
        return;
    }
    while let Ok(msg) = jobs.recv() {
        let result = match msg {
            WriterMsg::Job(index) => write_frame(&mut stdin, FRAME_JOB, &jobs_wire[index]),
            WriterMsg::Shutdown => {
                let _ = write_frame(&mut stdin, FRAME_SHUTDOWN, &[]);
                return;
            }
        };
        if result.is_err() {
            return;
        }
    }
}

/// Reader thread of one worker: decodes `RESULT`/`FIN` frames into events.
/// EOF, a frame error or a malformed payload all mean the worker is dead.
fn worker_reader(worker: usize, stdout: impl Read, events: &mpsc::Sender<Event>) {
    let mut stdout = BufReader::new(stdout);
    loop {
        match read_frame(&mut stdout) {
            Ok(Some(frame)) => match decode_event(worker, &frame) {
                Some(event) => {
                    let is_fin = matches!(event, Event::Fin { .. });
                    if events.send(event).is_err() || is_fin {
                        return;
                    }
                }
                None => {
                    let _ = events.send(Event::Dead { worker });
                    return;
                }
            },
            Ok(None) | Err(_) => {
                let _ = events.send(Event::Dead { worker });
                return;
            }
        }
    }
}

/// Decodes one worker frame into an [`Event`], or `None` if it is
/// malformed (which the caller treats as a dead worker).
fn decode_event(worker: usize, frame: &Frame) -> Option<Event> {
    let payload = decode_value(&frame.payload).ok()?;
    match frame.kind {
        FRAME_RESULT => {
            const T: &str = "result_frame";
            Some(Event::Result {
                worker,
                index: payload.decode(T, "index").ok()?,
                result: payload.decode(T, "result").ok()?,
                accounting: JobAccounting {
                    warm_cache_hits: payload.decode(T, "warm_cache_hits").ok()?,
                    cached_validations: payload.decode(T, "cached_validations").ok()?,
                    injected_faults: payload.decode(T, "injected_faults").ok()?,
                    retried_attempts: payload.decode(T, "retried_attempts").ok()?,
                    latency_seconds: payload.decode(T, "latency_seconds").ok()?,
                },
            })
        }
        FRAME_FIN => {
            const T: &str = "fin_frame";
            Some(Event::Fin {
                worker,
                store: payload.decode(T, "store").ok()?,
                operator_cache: payload.decode(T, "operator_cache").ok()?,
                prewarmed_sessions: payload.decode(T, "prewarmed_sessions").ok()?,
                // The trace fields are optional (absent from untraced or older
                // workers), so decode failures degrade to "no trace data"
                // instead of killing the worker.
                metrics: payload.decode(T, "metrics").unwrap_or_default(),
                spans: payload
                    .field(T, "spans")
                    .and_then(JsonValue::as_array)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(|item| SpanRecord::from_wire(item).ok())
                            .collect()
                    })
                    .unwrap_or_default(),
                dropped_spans: payload.decode(T, "dropped_spans").unwrap_or(0),
            })
        }
        _ => None,
    }
}

/// Crash-test hook for [`worker_serve`]: after resolving `after_jobs`
/// jobs the worker silently returns — closing its pipes mid-batch exactly
/// like a crashed process would — instead of answering the next `JOB`
/// frame. With `only_worker` set, the plan only arms on the process the
/// coordinator greeted with that worker index, so a fleet sharing one
/// command line can lose exactly one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Jobs to resolve before dying.
    pub after_jobs: usize,
    /// Restrict the plan to one worker index (`None` arms every process).
    pub only_worker: Option<usize>,
}

/// Serves one worker process over `input`/`output`: a `HELLO` frame with
/// the config and corpus, then `JOB` frames each answered by a `RESULT`,
/// until `SHUTDOWN` (answered by `FIN`, clean exit) or EOF (coordinator
/// gone).
///
/// `crash` is the deliberate-failure hook used by the robustness tests;
/// see [`CrashPlan`].
///
/// # Errors
///
/// [`ServiceError::Wire`] on a malformed frame from the coordinator,
/// [`ServiceError::Multiproc`] on a protocol violation (bad version, a
/// frame before `HELLO`), and construction errors from building the
/// scenario backends.
pub fn worker_serve(input: impl Read, output: impl Write, crash: Option<CrashPlan>) -> Result<()> {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);

    let Some(hello) = read_frame(&mut input).map_err(ServiceError::Wire)? else {
        return Ok(()); // Coordinator vanished before HELLO; nothing to do.
    };
    if hello.kind != FRAME_HELLO {
        return Err(multiproc_error(format!(
            "expected HELLO as the first frame, got kind {}",
            hello.kind
        )));
    }
    let hello = decode_value(&hello.payload)?;
    const T: &str = "hello_frame";
    let protocol: u64 = hello.decode(T, "protocol")?;
    if protocol != PROTOCOL_VERSION {
        return Err(multiproc_error(format!(
            "protocol version {protocol} (this worker speaks {PROTOCOL_VERSION})"
        )));
    }
    let me: usize = hello.decode(T, "worker")?;
    let crash = crash.filter(|plan| plan.only_worker.is_none() || plan.only_worker == Some(me));
    let config: ServiceConfig = hello.decode(T, "config")?;
    let corpus: Corpus = hello.decode(T, "corpus")?;
    // The trace flag is optional in HELLO (older coordinators omit it);
    // absent means "not tracing" and the worker pays zero observability
    // cost. The worker's span clock follows the service clock so Virtual
    // runs produce deterministic structural traces across process counts.
    let trace = hello.decode(T, "trace").unwrap_or(false);
    let tracer = if trace {
        Tracer::new(TracerConfig {
            clock: if config.clock == ClockKind::Virtual {
                ObsClock::Virtual
            } else {
                ObsClock::Wall
            },
            ..TracerConfig::default()
        })
    } else {
        Tracer::disabled()
    };

    // The same executor as the in-process runner, fed from frames: jobs run
    // one at a time on this thread — the processes are the parallelism.
    let executor = Executor::new(config, Mode::Batch, Cow::Owned(corpus), &tracer)?;
    let mut worker = executor.worker();
    let mut resolved = 0usize;
    loop {
        let Some(frame) = read_frame(&mut input).map_err(ServiceError::Wire)? else {
            return Ok(()); // Coordinator closed the pipe; exit quietly.
        };
        match frame.kind {
            FRAME_JOB => {
                if crash.is_some_and(|plan| resolved >= plan.after_jobs) {
                    // Crash-test hook: swallow the job and die with it
                    // unacknowledged, like a worker that crashed mid-job.
                    return Ok(());
                }
                let payload = decode_value(&frame.payload)?;
                let index: usize = payload.decode("job_frame", "index")?;
                let job: JobSpec = payload.decode("job_frame", "job")?;
                let scenario_count = executor.scenarios().len();
                if job.scenario >= scenario_count {
                    return Err(multiproc_error(format!(
                        "job {index} references scenario {} of {scenario_count}",
                        job.scenario
                    )));
                }
                let (result, accounting) = worker.run(index as u64, &job, None, Instant::now());
                let reply = encode_value(
                    &obj()
                        .field("index", index)
                        .field("result", result.to_wire())
                        .field("warm_cache_hits", accounting.warm_cache_hits)
                        .field("cached_validations", accounting.cached_validations)
                        .field("injected_faults", accounting.injected_faults)
                        .field("retried_attempts", accounting.retried_attempts)
                        .field("latency_seconds", accounting.latency_seconds)
                        .build(),
                )?;
                write_frame(&mut output, FRAME_RESULT, &reply).map_err(ServiceError::Wire)?;
                resolved += 1;
            }
            FRAME_SHUTDOWN => {
                let mut fin = obj()
                    .field("store", executor.store_stats().to_wire())
                    .field("operator_cache", executor.operator_cache_stats().to_wire())
                    .field("prewarmed_sessions", executor.prewarmed_sessions());
                if trace {
                    // The worker's tally carries the same counters, under
                    // the same names, as an in-process run's registry; ship
                    // it with the worker's spans for the merged trace.
                    executor.add_run_counters();
                    let spans: Vec<JsonValue> = tracer.drain().iter().map(Wire::to_wire).collect();
                    fin = fin
                        .field("metrics", executor.tally().snapshot().to_wire())
                        .field("spans", JsonValue::Array(spans))
                        .field("dropped_spans", tracer.dropped_spans());
                }
                let fin = encode_value(&fin.build())?;
                write_frame(&mut output, FRAME_FIN, &fin).map_err(ServiceError::Wire)?;
                return Ok(());
            }
            other => {
                return Err(multiproc_error(format!(
                    "unexpected frame kind {other} after HELLO"
                )));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobOutcome, ScenarioSpec};

    /// In-memory worker loopback: runs `worker_serve` against buffered
    /// pipes, returning the frames it produced. The process-boundary tests
    /// (spawning the real binary) live in the workspace root's integration
    /// suite; these cover the protocol state machine.
    fn serve(frames: &[(u8, Vec<u8>)], crash: Option<CrashPlan>) -> (Result<()>, Vec<Frame>) {
        let mut input = Vec::new();
        for (kind, payload) in frames {
            write_frame(&mut input, *kind, payload).unwrap();
        }
        let mut output = Vec::new();
        let result = worker_serve(input.as_slice(), &mut output, crash);
        let mut replies = Vec::new();
        let mut cursor = output.as_slice();
        while let Ok(Some(frame)) = read_frame(&mut cursor) {
            replies.push(frame);
        }
        (result, replies)
    }

    fn hello_payload(corpus: &Corpus) -> Vec<u8> {
        encode_value(
            &obj()
                .field("protocol", PROTOCOL_VERSION)
                .field("worker", 0usize)
                .field("config", ServiceConfig::default().to_wire())
                .field("corpus", corpus.to_wire())
                .build(),
        )
        .unwrap()
    }

    /// One scenario, two jobs (the default TL × STCL grid).
    fn tiny_corpus() -> Corpus {
        ScenarioSpec {
            scenarios: 1,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap()
    }

    #[test]
    fn worker_answers_jobs_and_fin_in_protocol_order() {
        let corpus = tiny_corpus();
        let job = encode_value(
            &obj()
                .field("index", 0usize)
                .field("job", corpus.jobs()[0].to_wire())
                .build(),
        )
        .unwrap();
        let (result, replies) = serve(
            &[
                (FRAME_HELLO, hello_payload(&corpus)),
                (FRAME_JOB, job),
                (FRAME_SHUTDOWN, Vec::new()),
            ],
            None,
        );
        result.unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].kind, FRAME_RESULT);
        assert_eq!(replies[1].kind, FRAME_FIN);
        let payload = decode_value(&replies[0].payload).unwrap();
        assert_eq!(payload.decode::<usize>("f", "index").unwrap(), 0);
        let job_result = JobResult::from_wire(payload.field("f", "result").unwrap()).unwrap();
        assert!(matches!(job_result.outcome, JobOutcome::Completed(_)));
    }

    #[test]
    fn worker_rejects_protocol_violations_with_typed_errors() {
        let corpus = tiny_corpus();
        // A frame before HELLO.
        let (result, _) = serve(&[(FRAME_JOB, Vec::new())], None);
        assert!(matches!(result, Err(ServiceError::Multiproc { .. })));
        // A bad protocol version.
        let bad_version = encode_value(
            &obj()
                .field("protocol", 99u64)
                .field("config", ServiceConfig::default().to_wire())
                .field("corpus", corpus.to_wire())
                .build(),
        )
        .unwrap();
        let (result, _) = serve(&[(FRAME_HELLO, bad_version)], None);
        assert!(matches!(result, Err(ServiceError::Multiproc { .. })));
        // A garbage payload is a wire error, not a panic.
        let (result, _) = serve(&[(FRAME_HELLO, vec![0xff, 0xff])], None);
        assert!(matches!(result, Err(ServiceError::Wire(_))));
        // EOF before HELLO is a clean no-op exit.
        let (result, replies) = serve(&[], None);
        result.unwrap();
        assert!(replies.is_empty());
    }

    #[test]
    fn crash_plan_swallows_the_next_job() {
        let corpus = tiny_corpus();
        let job = |index: usize| {
            encode_value(
                &obj()
                    .field("index", index)
                    .field("job", corpus.jobs()[index].to_wire())
                    .build(),
            )
            .unwrap()
        };
        let frames = [
            (FRAME_HELLO, hello_payload(&corpus)),
            (FRAME_JOB, job(0)),
            (FRAME_JOB, job(1)),
            (FRAME_SHUTDOWN, Vec::new()),
        ];
        let (result, replies) = serve(
            &frames,
            Some(CrashPlan {
                after_jobs: 1,
                only_worker: None,
            }),
        );
        result.unwrap();
        // One result, then the worker died mid-job: no second result, no FIN.
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].kind, FRAME_RESULT);

        // The same plan scoped to a different worker index never arms: this
        // worker was greeted as index 0, so it serves both jobs and FINs.
        let (result, replies) = serve(
            &frames,
            Some(CrashPlan {
                after_jobs: 1,
                only_worker: Some(1),
            }),
        );
        result.unwrap();
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[2].kind, FRAME_FIN);
    }

    fn hello_traced(corpus: &Corpus, config: &ServiceConfig) -> Vec<u8> {
        encode_value(
            &obj()
                .field("protocol", PROTOCOL_VERSION)
                .field("worker", 0usize)
                .field("config", config.to_wire())
                .field("corpus", corpus.to_wire())
                .field("trace", true)
                .build(),
        )
        .unwrap()
    }

    fn job_frame(corpus: &Corpus, index: usize) -> Vec<u8> {
        encode_value(
            &obj()
                .field("index", index)
                .field("job", corpus.jobs()[index].to_wire())
                .build(),
        )
        .unwrap()
    }

    /// Runs the given job indices through one loopback worker and returns
    /// the decoded FIN event.
    fn serve_traced(corpus: &Corpus, config: &ServiceConfig, indices: &[usize]) -> Event {
        let mut frames = vec![(FRAME_HELLO, hello_traced(corpus, config))];
        for &index in indices {
            frames.push((FRAME_JOB, job_frame(corpus, index)));
        }
        frames.push((FRAME_SHUTDOWN, Vec::new()));
        let (result, replies) = serve(&frames, None);
        result.unwrap();
        let fin = replies.last().expect("worker sent frames");
        assert_eq!(fin.kind, FRAME_FIN);
        decode_event(0, fin).expect("FIN decodes")
    }

    /// A HELLO without the `trace` field (an older coordinator) must
    /// produce a FIN that decodes with empty trace fields — the tolerant
    /// path that keeps `PROTOCOL_VERSION` at 1.
    #[test]
    fn untraced_fin_decodes_with_empty_trace_fields() {
        let corpus = tiny_corpus();
        let (result, replies) = serve(
            &[
                (FRAME_HELLO, hello_payload(&corpus)),
                (FRAME_JOB, job_frame(&corpus, 0)),
                (FRAME_SHUTDOWN, Vec::new()),
            ],
            None,
        );
        result.unwrap();
        let Some(Event::Fin {
            metrics,
            spans,
            dropped_spans,
            ..
        }) = decode_event(0, &replies[1])
        else {
            panic!("expected a FIN event");
        };
        assert!(metrics.is_empty());
        assert!(spans.is_empty());
        assert_eq!(dropped_spans, 0);
    }

    /// Satellite: one traced worker running the whole corpus reports FIN
    /// metrics equal to the in-process runner's `ServiceStats::metrics`
    /// view on the same corpus — the per-worker counters really are the
    /// same counts, just shipped over the pipe.
    #[test]
    fn traced_fin_metrics_match_in_process_totals() {
        let corpus = tiny_corpus();
        let config = ServiceConfig {
            workers: 1,
            clock: ClockKind::Virtual,
            ..ServiceConfig::default()
        };
        let indices: Vec<usize> = (0..corpus.jobs().len()).collect();
        let Event::Fin {
            store,
            operator_cache,
            metrics,
            spans,
            dropped_spans,
            ..
        } = serve_traced(&corpus, &config, &indices)
        else {
            panic!("expected a FIN event");
        };

        let report = crate::ServiceRunner::new(config)
            .unwrap()
            .run(&corpus)
            .unwrap();
        let local = report.stats().metrics();
        for name in [
            "service.jobs",
            "service.completed",
            "service.warm_cache_hits",
            "service.cached_validations",
            "service.prewarmed_sessions",
            "store.lookups",
            "store.hits",
            "store.insertions",
            "operator_cache.hits",
            "operator_cache.misses",
        ] {
            assert_eq!(
                metrics.counter(name),
                local.counter(name),
                "counter {name} diverged between FIN and in-process"
            );
        }
        // The FIN's structured stats agree with its own metrics view.
        assert_eq!(metrics.counter("store.lookups"), Some(store.lookups));
        assert_eq!(
            metrics.counter("operator_cache.misses"),
            Some(operator_cache.misses)
        );
        // Spans came along: one "job" root per corpus job, nothing dropped.
        assert_eq!(
            spans.iter().filter(|s| s.name == "job").count(),
            corpus.jobs().len()
        );
        assert_eq!(dropped_spans, 0);
    }

    /// Satellite: two workers splitting the corpus along scenario lines
    /// produce FIN store counters that *sum* to the in-process totals, and
    /// absorbing both snapshots into one registry performs that sum.
    #[test]
    fn two_worker_fin_counters_sum_to_in_process_totals() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        // Prewarm off: each worker would prewarm the full corpus, which
        // legitimately multiplies prewarm insertions by the process count.
        // Split by scenario so each scenario's store lives wholly in one
        // worker — cross-worker splits of one scenario lose the store hits
        // the other worker's published sessions would have provided.
        let config = ServiceConfig {
            workers: 1,
            batch_same_shape: false,
            clock: ClockKind::Virtual,
            ..ServiceConfig::default()
        };
        let by_scenario = |scenario: usize| -> Vec<usize> {
            corpus
                .jobs()
                .iter()
                .enumerate()
                .filter(|(_, job)| job.scenario == scenario)
                .map(|(index, _)| index)
                .collect()
        };
        let fins = [
            serve_traced(&corpus, &config, &by_scenario(0)),
            serve_traced(&corpus, &config, &by_scenario(1)),
        ];

        let registry = MetricsRegistry::new();
        let mut store_sum = StoreStats::default();
        let mut retried_sum = 0u64;
        for fin in &fins {
            let Event::Fin { store, metrics, .. } = fin else {
                panic!("expected FIN events");
            };
            registry.absorb(metrics);
            store_sum.lookups += store.lookups;
            store_sum.hits += store.hits;
            store_sum.insertions += store.insertions;
            store_sum.contended_locks += store.contended_locks;
            retried_sum += metrics.counter("service.retried_attempts").unwrap_or(0);
        }

        let report = crate::ServiceRunner::new(config)
            .unwrap()
            .run(&corpus)
            .unwrap();
        let stats = report.stats();
        assert_eq!(store_sum.lookups, stats.store.lookups);
        assert_eq!(store_sum.hits, stats.store.hits);
        assert_eq!(store_sum.insertions, stats.store.insertions);
        assert_eq!(retried_sum, stats.retried_attempts as u64);

        let merged = registry.snapshot();
        assert_eq!(
            merged.counter("service.jobs"),
            Some(corpus.jobs().len() as u64)
        );
        assert_eq!(merged.counter("store.lookups"), Some(stats.store.lookups));
        assert_eq!(
            merged.counter("service.completed"),
            Some(stats.completed as u64)
        );
    }

    #[test]
    fn coordinator_validates_its_configuration() {
        let config = MultiprocConfig {
            processes: 0,
            program: "worker".into(),
            args: Vec::new(),
            service: ServiceConfig::default(),
        };
        assert!(matches!(
            MultiprocCoordinator::new(config),
            Err(ServiceError::InvalidSpec {
                field: "processes",
                ..
            })
        ));
    }

    #[test]
    fn empty_corpus_short_circuits_without_spawning() {
        let coordinator = MultiprocCoordinator::new(MultiprocConfig {
            processes: 4,
            // Would fail to spawn if it were attempted.
            program: "/nonexistent/thermsched-worker".into(),
            args: Vec::new(),
            service: ServiceConfig::default(),
        })
        .unwrap();
        let empty = Corpus::from_parts(Vec::new(), Vec::new()).unwrap();
        let report = coordinator.run(&empty).unwrap();
        assert!(report.jobs().is_empty());
        assert_eq!(report.stats().job_count, 0);
        assert_eq!(report.stats().worker_crashes, 0);
    }

    #[test]
    fn spawn_failure_is_a_typed_error() {
        let coordinator = MultiprocCoordinator::new(MultiprocConfig {
            processes: 1,
            program: "/nonexistent/thermsched-worker".into(),
            args: Vec::new(),
            service: ServiceConfig::default(),
        })
        .unwrap();
        let corpus = tiny_corpus();
        assert!(matches!(
            coordinator.run(&corpus),
            Err(ServiceError::Multiproc { .. })
        ));
    }
}
