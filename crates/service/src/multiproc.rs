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
//! | `HELLO` (1) | → worker | `{protocol, worker, config, trace}` |
//! | `WORK` (2) | → worker | `[{index, scenario, jobs: [{index, job}, ...]}, ...]` (global corpus indices) |
//! | `RESULT` (3) | ← worker | `{index, result, accounting}` |
//! | `SHUTDOWN` (4) | → worker | `{}` |
//! | `FIN` (5) | ← worker | `{store, operator_cache, prewarmed_sessions, spans, dropped_spans}` |
//!
//! `config` is a [`ServiceConfig`] document. Every payload field is
//! required: an untraced worker's FIN carries `spans: []` and
//! `dropped_spans: 0`. FIN carries no metrics: the coordinator counts every
//! result and every FIN's stats itself, so its registry holds each counter
//! once, crashed workers' jobs included.
//!
//! `PROTOCOL_VERSION` is 4. A worker reads a HELLO's `protocol` before any
//! other field and refuses any other version with
//! [`ServiceError::Multiproc`]: version 3 sent scenarios and jobs in
//! separate frames and version 2 shipped the whole corpus in HELLO, so
//! neither side can serve the other.
//!
//! # Dealing
//!
//! Every job of a scenario runs on one worker, so the scenario's session
//! store lives in one process and its jobs reuse each other's sessions as
//! they do in-process. The coordinator deals whole scenarios in corpus
//! order, each to the worker with the fewest jobs so far (ties go to the
//! lowest index), and spawns at most one worker per scenario that has
//! jobs. A worker is sent one `WORK` frame holding each of its scenarios
//! with that scenario's jobs; it builds backends, stores and the
//! same-shape prewarm for just those, then runs the jobs in frame order.
//! When a worker dies, all of its unresolved jobs move to the first live
//! worker in one more `WORK` frame: the initial deal and crash recovery
//! take the same path. Because deals hand out whole scenarios and a
//! reassignment moves all of a dead worker's unresolved jobs to one
//! survivor, a scenario's unresolved jobs always sit with one live worker,
//! the only live one holding that scenario: no worker is sent a scenario
//! it already holds. A `RESULT` counts only for a job currently dealt to
//! the worker that sent it; any other index marks that worker dead, like a
//! malformed frame.
//!
//! Jobs and scenarios keep their *global* corpus indices across the
//! boundary: fault injection and retry jitter are keyed by the job index,
//! and results name the corpus scenario, so a worker that used its local
//! receive order instead would break the byte-identity contract.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

use thermsched::{NestedParallelismGuard, OperatorCacheStats, StoreStats};
use thermsched_obs::{MetricsRegistry, SpanRecord, Tracer, TracerConfig};
use thermsched_wire::frame::{read_frame, write_frame, Frame};
use thermsched_wire::{decode_value, encode_array, obj, wire_struct, JsonValue, Wire, WireError};

use crate::executor::{Executor, JobAccounting, Mode, Tally};
use crate::{
    Corpus, JobResult, JobSpec, Result, Scenario, ServiceConfig, ServiceError, ServiceReport,
    ServiceStats,
};

/// Version of the coordinator↔worker protocol, checked in `HELLO`.
pub const PROTOCOL_VERSION: u64 = 4;

/// Frame kinds of the coordinator↔worker protocol.
const FRAME_HELLO: u8 = 1;
const FRAME_WORK: u8 = 2;
const FRAME_RESULT: u8 = 3;
const FRAME_SHUTDOWN: u8 = 4;
const FRAME_FIN: u8 = 5;

/// The `HELLO` payload.
struct Hello {
    protocol: u64,
    worker: usize,
    config: ServiceConfig,
    trace: bool,
}

/// A `RESULT` payload: one job's result and what it added to the run's
/// counters.
struct Answer {
    index: usize,
    result: JobResult,
    accounting: JobAccounting,
}

/// The `FIN` payload: a worker's run-level stats and its span records.
struct Fin {
    store: StoreStats,
    operator_cache: OperatorCacheStats,
    prewarmed_sessions: usize,
    spans: Vec<SpanRecord>,
    /// Spans the worker's bounded sink dropped.
    dropped_spans: u64,
}

wire_struct! {
    "hello_frame" => Hello { protocol, worker, config, trace };
    "result_frame" => Answer { index, result, accounting };
    "fin_frame" => Fin { store, operator_cache, prewarmed_sessions, spans, dropped_spans };
    "job_accounting" => JobAccounting {
        warm_cache_hits,
        cached_validations,
        injected_faults,
        retried_attempts,
        latency_seconds,
    };
}

fn multiproc_error(message: impl Into<String>) -> ServiceError {
    ServiceError::Multiproc {
        message: message.into(),
    }
}

/// Configuration of a [`MultiprocCoordinator`].
#[derive(Debug, Clone)]
pub struct MultiprocConfig {
    /// Worker processes to spawn, at most one per scenario that has jobs.
    /// Jobs are dealt by whole scenario, in corpus order, each scenario to
    /// the worker with the fewest jobs so far: every job of a scenario
    /// starts on one worker.
    pub processes: usize,
    /// Program to spawn as the worker (typically the `thermsched` binary).
    pub program: std::path::PathBuf,
    /// Arguments passed to the program before it enters worker mode
    /// (typically `["worker"]`; tests append `--exit-after N`).
    pub args: Vec<String>,
    /// The service configuration every worker runs jobs under. The
    /// `workers` field is ignored inside a worker process: each child runs
    /// its jobs and its same-shape prewarm on one thread — the processes
    /// are the parallelism.
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
    Result { worker: usize, answer: Answer },
    /// The worker's final stats after `SHUTDOWN`.
    Fin { worker: usize, fin: Fin },
    /// The worker's pipe closed (or produced garbage) — it is dead.
    Dead { worker: usize },
}

/// What the coordinator hands a worker's writer thread.
enum WriterMsg {
    /// An encoded `WORK` payload.
    Work(Vec<u8>),
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
    /// a frame cannot be encoded.
    pub fn run(&self, corpus: &Corpus) -> Result<ServiceReport> {
        self.run_traced(corpus, &Tracer::disabled(), &MetricsRegistry::new())
    }

    /// [`Self::run`] with observability attached: workers are told to trace
    /// (the `trace` HELLO flag), their FIN frames carry back their span
    /// records, and the coordinator absorbs them into `tracer` — yielding
    /// one cross-process trace whose per-job structural slice is identical
    /// to an in-process run's. The run's metrics go into `registry` from
    /// the coordinator's own count, under the names an in-process run
    /// uses, plus `multiproc.hello_bytes`: the payload bytes of the whole
    /// deal, every `HELLO` and `WORK` frame it sends.
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
        let started = Instant::now();
        if corpus.jobs().is_empty() {
            return Ok(ServiceReport::new(
                Vec::new(),
                self.finish(corpus, &Tally::new(), started, registry),
            ));
        }
        let dealt = deal(corpus, self.config.processes);
        let hellos: Vec<Vec<u8>> = (0..dealt.len())
            .map(|worker| {
                Hello {
                    protocol: PROTOCOL_VERSION,
                    worker,
                    config: self.config.service,
                    trace: tracer.is_enabled(),
                }
                .to_binary()
            })
            .collect::<std::result::Result<_, WireError>>()?;
        registry
            .counter("multiproc.hello_bytes")
            .add(hellos.iter().map(|hello| hello.len() as u64).sum());

        let mut children: Vec<Child> = Vec::with_capacity(dealt.len());
        let mut stdins = Vec::with_capacity(dealt.len());
        let mut stdouts = Vec::with_capacity(dealt.len());
        for worker in 0..dealt.len() {
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

        let (event_tx, event_rx) = mpsc::channel::<Event>();
        let outcome = std::thread::scope(|scope| {
            let mut writer_txs: Vec<Option<mpsc::Sender<WriterMsg>>> = Vec::new();
            for (worker, stdin) in stdins.into_iter().enumerate() {
                let (tx, rx) = mpsc::channel::<WriterMsg>();
                let hello = &hellos[worker];
                scope.spawn(move || worker_writer(stdin, rx, hello));
                writer_txs.push(Some(tx));
                let tx = event_tx.clone();
                let stdout = stdouts.remove(0);
                scope.spawn(move || worker_reader(worker, stdout, &tx));
            }
            drop(event_tx);
            let result = self.coordinate(
                corpus,
                &dealt,
                &mut writer_txs,
                &event_rx,
                started,
                tracer,
                registry,
            );
            // Readers block on the children's stdout; make sure every child
            // that failed the run or was declared dead (its writer dropped)
            // is gone before the scope tries to join them.
            for (child, writer) in children.iter_mut().zip(&writer_txs) {
                if result.is_err() || writer.is_none() {
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

    /// The coordinator event loop: deal the jobs, collect results, reassign
    /// the jobs of dead workers, then shut the survivors down and merge
    /// their stats.
    ///
    /// `dealt` holds each worker's jobs and `writer_txs` each worker's writer
    /// thread; a worker's writer is dropped when it is declared dead. Each
    /// result is counted once, with the accounting its worker shipped,
    /// into the same [`Tally`] an in-process run counts into; each `FIN`
    /// adds its worker's run-level counters and, when tracing, its span
    /// records to `tracer`. The tally goes into `registry` at the end.
    #[allow(clippy::too_many_arguments)]
    fn coordinate(
        &self,
        corpus: &Corpus,
        dealt: &[Vec<usize>],
        writer_txs: &mut [Option<mpsc::Sender<WriterMsg>>],
        events: &mpsc::Receiver<Event>,
        started: Instant,
        tracer: &Tracer,
        registry: &MetricsRegistry,
    ) -> Result<ServiceReport> {
        let jobs = corpus.jobs();
        let processes = writer_txs.len();
        let hello_bytes = registry.counter("multiproc.hello_bytes");
        // Jobs dealt to each worker and not resolved yet: what a worker's
        // RESULT may name, and what moves when it dies.
        let mut pending = vec![BTreeSet::new(); processes];
        // Deals jobs `indices` (ascending) to a live worker in one WORK
        // frame, encoded here.
        let send = |pending: &mut [BTreeSet<usize>],
                    writer: &mpsc::Sender<WriterMsg>,
                    worker: usize,
                    indices: &[usize]|
         -> Result<()> {
            pending[worker].extend(indices);
            let payload = work_payload(corpus, indices)?;
            hello_bytes.add(payload.len() as u64);
            let _ = writer.send(WriterMsg::Work(payload));
            Ok(())
        };
        for (worker, indices) in dealt.iter().enumerate() {
            if let Some(writer) = &writer_txs[worker] {
                send(&mut pending, writer, worker, indices)?;
            }
        }

        let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
        let mut resolved = 0usize;
        let mut dead = vec![false; processes];
        let mut finished = vec![false; processes];
        let tally = Tally::new();
        while resolved < jobs.len() {
            let event = events
                .recv()
                .map_err(|_| multiproc_error("every worker pipe closed with jobs unresolved"))?;
            let worker = match event {
                Event::Result { worker, answer } => {
                    if !dead[worker] && pending[worker].remove(&answer.index) {
                        resolved += 1;
                        tally.record(&answer.result.outcome, Some(&answer.accounting));
                        results[answer.index] = Some(answer.result);
                        continue;
                    }
                    worker
                }
                // No worker is asked for its FIN before every job is
                // resolved, so one sent now breaks the protocol.
                Event::Fin { worker, .. } | Event::Dead { worker } => worker,
            };
            if dead[worker] {
                continue;
            }
            dead[worker] = true;
            tally.worker_crashed();
            writer_txs[worker] = None;
            let orphans: Vec<usize> = std::mem::take(&mut pending[worker]).into_iter().collect();
            if orphans.is_empty() {
                continue;
            }
            let Some(survivor) = (0..processes).find(|&w| !dead[w]) else {
                return Err(multiproc_error(format!(
                    "all {processes} workers died with {} jobs unresolved",
                    jobs.len() - resolved
                )));
            };
            if let Some(writer) = &writer_txs[survivor] {
                send(&mut pending, writer, survivor, &orphans)?;
            }
        }

        // Every job is resolved; ask the survivors for their FIN stats.
        let mut awaiting = 0usize;
        for worker in 0..processes {
            if !dead[worker] {
                if let Some(tx) = &writer_txs[worker] {
                    let _ = tx.send(WriterMsg::Shutdown);
                    awaiting += 1;
                }
            }
        }
        while awaiting > 0 {
            match events.recv() {
                Ok(Event::Fin { worker, fin }) => {
                    if !dead[worker] && !finished[worker] {
                        finished[worker] = true;
                        tally.add_run(fin.store, fin.operator_cache, fin.prewarmed_sessions);
                        tracer.absorb(fin.spans);
                        tracer.add_dropped(fin.dropped_spans);
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
            self.finish(corpus, &tally, started, registry),
        ))
    }

    /// Closes the books of a run that started at `started`: derives the
    /// merged stats and absorbs the run's metrics into `registry`, as
    /// [`Executor::finish`] does in-process.
    fn finish(
        &self,
        corpus: &Corpus,
        tally: &Tally,
        started: Instant,
        registry: &MetricsRegistry,
    ) -> ServiceStats {
        let stats = tally.stats(
            &self.config.service,
            self.config.processes,
            corpus.scenarios().len(),
            started.elapsed().as_secs_f64(),
        );
        registry.absorb(&tally.snapshot());
        stats
    }
}

/// Encodes the `WORK` payload dealing jobs `indices` (ascending): one
/// entry per scenario they use, in ascending order, each with its jobs.
/// The entries are encoded one scenario at a time, so the frame is never
/// one value tree.
fn work_payload(corpus: &Corpus, indices: &[usize]) -> Result<Vec<u8>> {
    let mut by_scenario: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &index in indices {
        by_scenario
            .entry(corpus.jobs()[index].scenario)
            .or_default()
            .push(index);
    }
    let entries = by_scenario
        .iter()
        .map(|(&scenario, jobs)| work_entry(corpus, scenario, jobs));
    encode_array(entries).map_err(ServiceError::Wire)
}

/// One `WORK` entry: the corpus scenario `scenario` with the jobs `jobs`.
fn work_entry(corpus: &Corpus, scenario: usize, jobs: &[usize]) -> JsonValue {
    let jobs: Vec<JsonValue> = jobs
        .iter()
        .map(|&index| {
            obj()
                .field("index", index)
                .field("job", corpus.jobs()[index].to_wire())
                .build()
        })
        .collect();
    obj()
        .field("index", scenario)
        .field("scenario", corpus.scenarios()[scenario].to_wire())
        .field("jobs", jobs)
        .build()
}

/// Deals whole scenarios over at most `processes` workers: in corpus
/// order, each scenario that has jobs goes to the worker with the fewest
/// jobs so far, ties to the lowest index. Returns each worker's jobs in
/// ascending order, one list per worker to spawn — never more workers than
/// scenarios with jobs.
fn deal(corpus: &Corpus, processes: usize) -> Vec<Vec<usize>> {
    let mut by_scenario = vec![Vec::new(); corpus.scenarios().len()];
    for (index, job) in corpus.jobs().iter().enumerate() {
        by_scenario[job.scenario].push(index);
    }
    by_scenario.retain(|jobs| !jobs.is_empty());
    let mut dealt: Vec<Vec<usize>> = vec![Vec::new(); processes.min(by_scenario.len())];
    for jobs in by_scenario {
        // `min_by_key` returns the first of equal minima: the lowest index.
        dealt
            .iter_mut()
            .min_by_key(|dealt| dealt.len())
            .expect("a scenario with jobs gets at least one worker")
            .extend(jobs);
    }
    for jobs in &mut dealt {
        jobs.sort_unstable();
    }
    dealt
}

/// Writer thread of one worker: `HELLO`, then `WORK` frames as the
/// coordinator deals, then `SHUTDOWN`. Write errors end the thread quietly
/// — the worker's reader will observe the death and the coordinator
/// reassigns.
fn worker_writer(stdin: impl Write, messages: mpsc::Receiver<WriterMsg>, hello: &[u8]) {
    let mut stdin = BufWriter::new(stdin);
    if write_frame(&mut stdin, FRAME_HELLO, hello).is_err() {
        return;
    }
    while let Ok(msg) = messages.recv() {
        let result = match msg {
            WriterMsg::Work(payload) => write_frame(&mut stdin, FRAME_WORK, &payload),
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
    match frame.kind {
        FRAME_RESULT => Some(Event::Result {
            worker,
            answer: Answer::from_binary(&frame.payload).ok()?,
        }),
        FRAME_FIN => Some(Event::Fin {
            worker,
            fin: Fin::from_binary(&frame.payload).ok()?,
        }),
        _ => None,
    }
}

/// Crash-test hook for [`worker_serve`]: after resolving `after_jobs`
/// jobs the worker silently returns before running the next one — closing
/// its pipes mid-batch exactly like a crashed process would. With
/// `only_worker` set, the plan only arms on the process the coordinator
/// greeted with that worker index, so a fleet sharing one command line can
/// lose exactly one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Jobs to resolve before dying.
    pub after_jobs: usize,
    /// Restrict the plan to one worker index (`None` arms every process).
    pub only_worker: Option<usize>,
}

/// Serves one worker process over `input`/`output`: a `HELLO` frame with
/// the config, then `WORK` frames, each adding its scenarios and running
/// their jobs in frame order with one `RESULT` per job, until `SHUTDOWN`
/// (answered by `FIN`, clean exit) or EOF (coordinator gone).
///
/// `crash` is the deliberate-failure hook used by the robustness tests;
/// see [`CrashPlan`].
///
/// # Errors
///
/// [`ServiceError::Wire`] on a malformed frame from the coordinator,
/// [`ServiceError::Multiproc`] on a protocol violation (bad version, a
/// frame before `HELLO`, a scenario sent twice, a job travelling with
/// another scenario), and construction errors from building the scenario
/// backends.
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
    // The version comes first: another version's HELLO need not have this
    // one's fields.
    let hello = decode_value(&hello.payload)?;
    let protocol: u64 = hello.decode(Hello::WIRE_TYPE, "protocol")?;
    if protocol != PROTOCOL_VERSION {
        return Err(multiproc_error(format!(
            "protocol version {protocol} (this worker speaks {PROTOCOL_VERSION})"
        )));
    }
    let Hello {
        worker: me,
        config,
        trace,
        ..
    } = Hello::from_wire(&hello)?;
    let crash = crash.filter(|plan| plan.only_worker.is_none() || plan.only_worker == Some(me));
    // An untraced worker pays zero observability cost. The worker's span
    // clock follows the service clock so Virtual runs produce deterministic
    // structural traces across process counts.
    let tracer = if trace {
        Tracer::new(TracerConfig {
            clock: config.clock,
            ..TracerConfig::default()
        })
    } else {
        Tracer::disabled()
    };

    // The same executor as the in-process runner, holding only the
    // scenarios WORK frames bring: jobs and the prewarm run on this thread
    // alone — the processes are the parallelism.
    let _sequential = NestedParallelismGuard::enter();
    let mut executor = Executor::new(
        ServiceConfig {
            workers: 1,
            ..config
        },
        Mode::Batch,
        Vec::new(),
        &tracer,
    )?;
    let mut resolved = 0usize;
    loop {
        let Some(frame) = read_frame(&mut input).map_err(ServiceError::Wire)? else {
            return Ok(()); // Coordinator closed the pipe; exit quietly.
        };
        match frame.kind {
            FRAME_WORK => {
                const T: &str = "work_frame";
                let mut scenarios = BTreeMap::new();
                let mut jobs = Vec::new();
                for entry in decode_value(&frame.payload)?.as_array()? {
                    let index: usize = entry.decode(T, "index")?;
                    let scenario: Scenario = entry.decode(T, "scenario")?;
                    if executor.holds(index) || scenarios.insert(index, scenario).is_some() {
                        return Err(multiproc_error(format!("scenario {index} was sent twice")));
                    }
                    for dealt in entry.field(T, "jobs")?.as_array()? {
                        let job_index: usize = dealt.decode(T, "index")?;
                        let job: JobSpec = dealt.decode(T, "job")?;
                        if job.scenario != index {
                            return Err(multiproc_error(format!(
                                "job {job_index} runs scenario {} but was sent with scenario {index}",
                                job.scenario
                            )));
                        }
                        jobs.push((job_index, job));
                    }
                }
                executor.add_scenarios(
                    scenarios
                        .into_iter()
                        .map(|(index, scenario)| (index, Cow::Owned(scenario))),
                )?;
                for (index, job) in jobs {
                    if crash.is_some_and(|plan| resolved >= plan.after_jobs) {
                        // Crash-test hook: die with the job unacknowledged,
                        // like a worker that crashed mid-job.
                        return Ok(());
                    }
                    let (result, accounting) =
                        executor.run(index as u64, &job, None, Instant::now());
                    let answer = Answer {
                        index,
                        result,
                        accounting,
                    }
                    .to_binary()?;
                    write_frame(&mut output, FRAME_RESULT, &answer).map_err(ServiceError::Wire)?;
                    resolved += 1;
                }
            }
            FRAME_SHUTDOWN => {
                let fin = Fin {
                    store: executor.store_stats(),
                    operator_cache: executor.operator_cache_stats(),
                    prewarmed_sessions: executor.prewarmed_sessions(),
                    spans: tracer.drain(),
                    dropped_spans: tracer.dropped_spans(),
                }
                .to_binary()?;
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
    use crate::{ClockKind, JobOutcome, ScenarioSpec};
    use thermsched_obs::MetricsSnapshot;
    use thermsched_wire::encode_value;

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

    /// The HELLO greeting worker 0.
    fn hello(config: &ServiceConfig, trace: bool) -> (u8, Vec<u8>) {
        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            worker: 0,
            config: *config,
            trace,
        };
        (FRAME_HELLO, hello.to_binary().unwrap())
    }

    /// The WORK frame the coordinator would send to deal `jobs`
    /// (ascending).
    fn work_frame(corpus: &Corpus, jobs: &[usize]) -> (u8, Vec<u8>) {
        (FRAME_WORK, work_payload(corpus, jobs).unwrap())
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
        let (result, replies) = serve(
            &[
                hello(&ServiceConfig::default(), false),
                work_frame(&corpus, &[0]),
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
        let (result, _) = serve(&[(FRAME_WORK, Vec::new())], None);
        assert!(matches!(result, Err(ServiceError::Multiproc { .. })));
        // A bad protocol version.
        let bad_version = encode_value(
            &obj()
                .field("protocol", 99u64)
                .field("config", ServiceConfig::default().to_wire())
                .build(),
        )
        .unwrap();
        let (result, _) = serve(&[(FRAME_HELLO, bad_version)], None);
        assert!(matches!(result, Err(ServiceError::Multiproc { .. })));
        // A garbage payload is a wire error, not a panic.
        let (result, _) = serve(&[(FRAME_HELLO, vec![0xff, 0xff])], None);
        assert!(matches!(result, Err(ServiceError::Wire(_))));
        // A scenario sent twice, in one frame or in two, and a job that
        // travels with another scenario than its own.
        let greet = || hello(&ServiceConfig::default(), false);
        let twice = encode_array([work_entry(&corpus, 0, &[0]), work_entry(&corpus, 0, &[1])]);
        let two_scenarios = two_scenario_corpus();
        assert_eq!(two_scenarios.jobs()[2].scenario, 1);
        let misplaced = encode_array([work_entry(&two_scenarios, 0, &[2])]);
        for frames in [
            vec![greet(), (FRAME_WORK, twice.unwrap())],
            vec![
                greet(),
                work_frame(&corpus, &[0]),
                work_frame(&corpus, &[1]),
            ],
            vec![greet(), (FRAME_WORK, misplaced.unwrap())],
        ] {
            let (result, _) = serve(&frames, None);
            assert!(matches!(result, Err(ServiceError::Multiproc { .. })));
        }
        // EOF before HELLO is a clean no-op exit.
        let (result, replies) = serve(&[], None);
        result.unwrap();
        assert!(replies.is_empty());
    }

    #[test]
    fn crash_plan_swallows_the_next_job() {
        let corpus = tiny_corpus();
        let frames = [
            hello(&ServiceConfig::default(), false),
            work_frame(&corpus, &[0, 1]),
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

    /// Runs the given job indices (ascending) through one traced loopback
    /// worker, dealt in one WORK frame, and returns its RESULT and FIN
    /// frames decoded as coordinator events of worker `worker`.
    fn serve_traced(
        corpus: &Corpus,
        config: &ServiceConfig,
        worker: usize,
        indices: &[usize],
    ) -> Vec<Event> {
        let frames = [
            hello(config, true),
            work_frame(corpus, indices),
            (FRAME_SHUTDOWN, Vec::new()),
        ];
        let (result, replies) = serve(&frames, None);
        result.unwrap();
        assert_eq!(replies.last().expect("worker sent frames").kind, FRAME_FIN);
        replies
            .iter()
            .map(|frame| decode_event(worker, frame).expect("frame decodes"))
            .collect()
    }

    /// An untraced worker's FIN carries empty trace fields.
    #[test]
    fn untraced_fin_carries_no_spans() {
        let corpus = tiny_corpus();
        let (result, replies) = serve(
            &[
                hello(&ServiceConfig::default(), false),
                work_frame(&corpus, &[0]),
                (FRAME_SHUTDOWN, Vec::new()),
            ],
            None,
        );
        result.unwrap();
        // No FIN carries metrics: the coordinator counts them itself.
        let fin = decode_value(&replies[1].payload).unwrap();
        assert!(fin.field("fin_frame", "metrics").is_err());
        let Some(Event::Fin {
            fin:
                Fin {
                    spans,
                    dropped_spans,
                    ..
                },
            ..
        }) = decode_event(0, &replies[1])
        else {
            panic!("expected a FIN event");
        };
        assert!(spans.is_empty());
        assert_eq!(dropped_spans, 0);
    }

    /// One traced worker running the whole corpus: the coordinator's
    /// registry, counted from that worker's RESULT and FIN frames, equals
    /// the in-process runner's `ServiceStats::metrics` view on the same
    /// corpus.
    #[test]
    fn traced_fin_metrics_match_in_process_totals() {
        let corpus = tiny_corpus();
        let config = ServiceConfig {
            workers: 1,
            clock: ClockKind::Virtual,
            ..ServiceConfig::default()
        };
        let indices: Vec<usize> = (0..corpus.jobs().len()).collect();
        let events = serve_traced(&corpus, &config, 0, &indices);
        let Some(Event::Fin {
            fin:
                Fin {
                    store,
                    operator_cache,
                    spans,
                    dropped_spans,
                    ..
                },
            ..
        }) = events.last()
        else {
            panic!("expected a FIN event");
        };
        let (store, operator_cache, dropped_spans) = (*store, *operator_cache, *dropped_spans);
        let job_spans = spans.iter().filter(|s| s.name == "job").count();
        let (outcome, _, metrics) = coordinate_scripted(&corpus, 2, events);
        outcome.unwrap();

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
                "counter {name} diverged between the coordinator and in-process"
            );
        }
        // The FIN's structured stats are what the coordinator counted.
        assert_eq!(metrics.counter("store.lookups"), Some(store.lookups));
        assert_eq!(
            metrics.counter("operator_cache.misses"),
            Some(operator_cache.misses)
        );
        // Spans came along: one "job" root per corpus job, nothing dropped.
        assert_eq!(job_spans, corpus.jobs().len());
        assert_eq!(dropped_spans, 0);
    }

    /// A worker told `workers: 0` still prewarms (on its one thread) and
    /// answers every job as the in-process runner does.
    #[test]
    fn a_zero_worker_grid_hello_prewarms_and_matches_in_process() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            seed: 3,
            grid_shapes: vec![(3, 3)],
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        let config = ServiceConfig {
            workers: 0,
            backend: crate::BackendKind::GridTransient { cells_per_core: 1 },
            ..ServiceConfig::default()
        };
        let indices: Vec<usize> = (0..corpus.jobs().len()).collect();
        let events = serve_traced(&corpus, &config, 0, &indices);
        let report = crate::ServiceRunner::new(ServiceConfig {
            workers: 2,
            ..config
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        let mut results = 0;
        for event in &events {
            match event {
                Event::Result {
                    answer: Answer { index, result, .. },
                    ..
                } => {
                    assert_eq!(result, &report.jobs()[*index]);
                    results += 1;
                }
                Event::Fin { fin, .. } => {
                    assert_eq!(fin.prewarmed_sessions, corpus.total_cores());
                }
                Event::Dead { .. } => panic!("the worker died"),
            }
        }
        assert_eq!(results, corpus.jobs().len());
    }

    /// Two workers splitting the corpus along scenario lines produce FIN
    /// store counters that *sum* to the in-process totals, and the
    /// coordinator counting both workers' frames performs that sum.
    #[test]
    fn two_worker_fin_counters_sum_to_in_process_totals() {
        let corpus = ScenarioSpec {
            scenarios: 2,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        // Split by scenario, as the coordinator deals: each scenario's store
        // lives wholly in one worker.
        let config = ServiceConfig {
            workers: 1,
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
        let mut events = serve_traced(&corpus, &config, 0, &by_scenario(0));
        events.extend(serve_traced(&corpus, &config, 1, &by_scenario(1)));
        // Every RESULT reaches the coordinator before any FIN, as in a run.
        let (fins, mut events): (Vec<Event>, Vec<Event>) = events
            .into_iter()
            .partition(|event| matches!(event, Event::Fin { .. }));
        let mut store_sum = StoreStats::default();
        for fin in &fins {
            let Event::Fin {
                fin: Fin { store, .. },
                ..
            } = fin
            else {
                panic!("expected FIN events");
            };
            store_sum.lookups += store.lookups;
            store_sum.hits += store.hits;
            store_sum.insertions += store.insertions;
            store_sum.contended_locks += store.contended_locks;
        }
        events.extend(fins);
        let (outcome, _, merged) = coordinate_scripted(&corpus, 2, events);
        outcome.unwrap();
        let retried_sum = merged.counter("service.retried_attempts").unwrap_or(0);

        let report = crate::ServiceRunner::new(config)
            .unwrap()
            .run(&corpus)
            .unwrap();
        let stats = report.stats();
        assert_eq!(store_sum.lookups, stats.store.lookups);
        assert_eq!(store_sum.hits, stats.store.hits);
        assert_eq!(store_sum.insertions, stats.store.insertions);
        assert_eq!(retried_sum, stats.retried_attempts as u64);

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

    /// A two-scenario corpus: jobs 0 and 1 run scenario 0, jobs 2 and 3
    /// scenario 1.
    fn two_scenario_corpus() -> Corpus {
        ScenarioSpec {
            scenarios: 2,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap()
    }

    #[test]
    fn a_worker_sent_one_scenario_answers_under_global_indices() {
        let corpus = two_scenario_corpus();
        assert_eq!(corpus.jobs()[2].scenario, 1);
        // Sent just scenario 1 with job 2, the job completes under its
        // global indices, exactly as in-process.
        let (result, replies) = serve(
            &[
                hello(&ServiceConfig::default(), false),
                work_frame(&corpus, &[2]),
                (FRAME_SHUTDOWN, Vec::new()),
            ],
            None,
        );
        result.unwrap();
        assert_eq!(replies[0].kind, FRAME_RESULT);
        let payload = decode_value(&replies[0].payload).unwrap();
        assert_eq!(payload.decode::<usize>("f", "index").unwrap(), 2);
        let job_result = JobResult::from_wire(payload.field("f", "result").unwrap()).unwrap();
        assert_eq!(job_result.scenario, 1);
        let in_process = crate::ServiceRunner::new(ServiceConfig::default())
            .unwrap()
            .run(&corpus)
            .unwrap();
        assert_eq!(job_result, in_process.jobs()[2]);
    }

    #[test]
    fn a_second_work_frame_keeps_every_earlier_store_warm() {
        let corpus = two_scenario_corpus();
        let frames = [
            hello(&ServiceConfig::default(), false),
            work_frame(&corpus, &[0, 1]),
            work_frame(&corpus, &[2, 3]),
            (FRAME_SHUTDOWN, Vec::new()),
        ];
        let (result, replies) = serve(&frames, None);
        result.unwrap();
        let in_process = crate::ServiceRunner::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap()
        .run(&corpus)
        .unwrap();
        let mut order = Vec::new();
        for frame in &replies[..replies.len() - 1] {
            let Some(Event::Result {
                answer:
                    Answer {
                        index,
                        result,
                        accounting,
                    },
                ..
            }) = decode_event(0, frame)
            else {
                panic!("expected a RESULT frame");
            };
            assert_eq!(result, in_process.jobs()[index], "job {index}");
            // The second job of each scenario finds the first one's
            // phase-1 sessions, in either WORK frame.
            if index % 2 == 1 {
                let cores = corpus.scenarios()[result.scenario].sut.core_count();
                assert!(accounting.warm_cache_hits >= cores, "job {index}");
            }
            order.push(index);
        }
        assert_eq!(order, [0, 1, 2, 3]);
        assert_eq!(replies.last().unwrap().kind, FRAME_FIN);
    }

    #[test]
    fn deal_gives_each_scenario_whole_to_the_least_loaded_worker() {
        // Generated corpora give every scenario the same job count, so the
        // scenarios alternate between workers.
        let corpus = ScenarioSpec {
            scenarios: 5,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        assert_eq!(deal(&corpus, 2), [vec![0, 1, 4, 5, 8, 9], vec![2, 3, 6, 7]]);
        assert_eq!(deal(&corpus, 8).len(), 5, "one worker per scenario at most");

        // Uneven and interleaved: scenario 0 has jobs {1, 3, 5}, scenario 1
        // {0}, scenario 2 {4}, scenario 3 none and scenario 4 {2, 6}.
        let jobs = [1, 0, 4, 0, 2, 0, 4].map(|scenario| JobSpec {
            scenario,
            ..corpus.jobs()[0].clone()
        });
        let uneven = Corpus::from_parts(corpus.scenarios().to_vec(), jobs.to_vec()).unwrap();
        assert_eq!(deal(&uneven, 2), [vec![1, 3, 5], vec![0, 2, 4, 6]]);
        assert_eq!(
            deal(&uneven, 8),
            [vec![1, 3, 5], vec![0], vec![4], vec![2, 6]]
        );
    }

    fn result_event(worker: usize, index: usize) -> Event {
        let answer = Answer {
            index,
            result: JobResult {
                index,
                scenario: 0,
                scenario_name: String::new(),
                label: String::new(),
                outcome: JobOutcome::Failed {
                    error: "scripted".to_owned(),
                    retryable: false,
                    attempts: 1,
                },
            },
            accounting: JobAccounting::default(),
        };
        Event::Result { worker, answer }
    }

    fn fin_event(worker: usize) -> Event {
        let fin = Fin {
            store: StoreStats::default(),
            operator_cache: OperatorCacheStats::default(),
            prewarmed_sessions: 0,
            spans: Vec::new(),
            dropped_spans: 0,
        };
        Event::Fin { worker, fin }
    }

    /// Runs the coordinator loop of a run of `corpus` over `processes`
    /// workers on scripted worker events. Returns its outcome, what each
    /// worker's writer thread was handed, and the metrics it counted.
    fn coordinate_scripted(
        corpus: &Corpus,
        processes: usize,
        events: Vec<Event>,
    ) -> (Result<ServiceReport>, Vec<Vec<String>>, MetricsSnapshot) {
        let coordinator = MultiprocCoordinator::new(MultiprocConfig {
            processes,
            program: "unused".into(),
            args: Vec::new(),
            service: ServiceConfig::default(),
        })
        .unwrap();
        let (event_tx, event_rx) = mpsc::channel();
        for event in events {
            event_tx.send(event).unwrap();
        }
        drop(event_tx);
        let registry = MetricsRegistry::new();
        let dealt = deal(corpus, processes);
        let (mut writer_txs, receivers): (Vec<_>, Vec<_>) = dealt
            .iter()
            .map(|_| {
                let (tx, rx) = mpsc::channel();
                (Some(tx), rx)
            })
            .unzip();
        let outcome = coordinator.coordinate(
            corpus,
            &dealt,
            &mut writer_txs,
            &event_rx,
            Instant::now(),
            &Tracer::disabled(),
            &registry,
        );
        drop(writer_txs);
        let handed = receivers
            .iter()
            .map(|rx| {
                rx.try_iter()
                    .map(|msg| match msg {
                        WriterMsg::Work(payload) => {
                            let entries = decode_value(&payload).unwrap();
                            let dealt: Vec<(usize, Vec<usize>)> = entries
                                .as_array()
                                .unwrap()
                                .iter()
                                .map(|entry| {
                                    let jobs = entry.field("entry", "jobs").unwrap();
                                    let jobs = jobs.as_array().unwrap().iter();
                                    (
                                        entry.decode("entry", "index").unwrap(),
                                        jobs.map(|job| job.decode("job", "index").unwrap())
                                            .collect(),
                                    )
                                })
                                .collect();
                            format!("work {dealt:?}")
                        }
                        WriterMsg::Shutdown => "shutdown".to_owned(),
                    })
                    .collect()
            })
            .collect();
        (outcome, handed, registry.snapshot())
    }

    #[test]
    fn a_worker_reporting_a_job_it_does_not_hold_is_dead_and_its_jobs_move() {
        let corpus = two_scenario_corpus();
        // Worker 1 holds jobs 2 and 3. It reports a job index past the
        // corpus, one dealt to worker 0, or a FIN nobody asked for.
        for violation in [result_event(1, 99), result_event(1, 0), fin_event(1)] {
            let mut events = vec![violation, result_event(1, 2)];
            events.extend([0, 1, 2, 3].map(|index| result_event(0, index)));
            events.push(fin_event(0));
            let (outcome, handed, _) = coordinate_scripted(&corpus, 2, events);
            let report = outcome.unwrap();
            assert_eq!(report.stats().worker_crashes, 1);
            let indices: Vec<usize> = report.jobs().iter().map(|job| job.index).collect();
            assert_eq!(indices, [0, 1, 2, 3]);
            // Its jobs moved to worker 0, with the scenario they run.
            assert_eq!(
                handed[0],
                ["work [(0, [0, 1])]", "work [(1, [2, 3])]", "shutdown"]
            );
            assert_eq!(handed[1], ["work [(1, [2, 3])]"]);
        }
    }

    /// A job can move twice: each survivor is sent only the scenarios it
    /// does not hold, each with its unresolved jobs.
    #[test]
    fn a_survivor_is_only_ever_sent_scenarios_it_does_not_hold() {
        let corpus = ScenarioSpec {
            scenarios: 3,
            seed: 3,
            ..ScenarioSpec::default()
        }
        .build()
        .unwrap();
        assert_eq!(deal(&corpus, 3), [[0, 1], [2, 3], [4, 5]]);
        // Worker 1 dies; worker 0 inherits jobs 2 and 3, resolves job 0 and
        // dies; worker 2 inherits jobs 1, 2 and 3 and resolves everything.
        let mut events = vec![Event::Dead { worker: 1 }, result_event(0, 0)];
        events.push(Event::Dead { worker: 0 });
        events.extend((1..6).map(|index| result_event(2, index)));
        events.push(fin_event(2));
        let (outcome, handed, metrics) = coordinate_scripted(&corpus, 3, events);
        let report = outcome.unwrap();
        assert_eq!(report.stats().worker_crashes, 2);
        let indices: Vec<usize> = report.jobs().iter().map(|job| job.index).collect();
        assert_eq!(indices, [0, 1, 2, 3, 4, 5]);
        assert_eq!(metrics.counter("service.jobs"), Some(6));
        assert_eq!(handed[0], ["work [(0, [0, 1])]", "work [(1, [2, 3])]"]);
        assert_eq!(handed[1], ["work [(1, [2, 3])]"]);
        assert_eq!(
            handed[2],
            [
                "work [(2, [4, 5])]",
                "work [(0, [1]), (1, [2, 3])]",
                "shutdown"
            ]
        );
    }
}
