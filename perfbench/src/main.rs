//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench gen --workload <name> --seed <n> --work-dir <dir>
//! perfbench run --workload <name> --seconds <s> --trace <0|1> --work-dir <dir> [--worker <thermsched>]
//! ```
//!
//! `gen` expands the workload's `ScenarioSpec` for the seed and writes it
//! as a `corpus` document. `run` times the user-facing pipeline on that
//! file (see [`pipeline`]) for the given number of seconds, checks every
//! output, prints each metric on its own line and ends with one JSON line.
//! `--trace 0` reports the end-to-end metrics, with tracing off.
//! `--trace 1` reports the per-layer metrics: it times untraced passes at
//! one and at two workers, then traced passes, then replays every job
//! through a timing decorator over the thermal backend (see [`thermal`]).
//! A failed check ends the run with exit code 1 and no result line.
//! `run.py` builds this binary and drives both commands.

mod layers;
mod pipeline;
mod rss;
mod stats;
mod thermal;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use thermsched_obs::{MetricsRegistry, TraceDocument, Tracer, TracerConfig};
use thermsched_wire::{encode_value, obj, to_document, Wire};

use layers::SpanTotals;
use pipeline::{check_jobs, run_pass, Mode, Pass, PassTimes, Setup};
use stats::{fastest, median, tail_percentile};
use workload::{Workload, PARALLELISM};

/// Fewest passes the end-to-end phase makes, however long they take.
const MIN_PASSES: usize = 3;

/// Span sink slots per job: a job records eight spans, so this leaves
/// room for twice that.
const SPAN_SLOTS_PER_JOB: usize = 16;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    worker: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let command = raw.next().ok_or("missing command (gen or run)")?;
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        values.insert(flag, value);
    }
    let take = |flag: &str| values.get(flag).cloned();
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        take(flag)
            .unwrap_or_else(|| default.to_owned())
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let name = take("--workload").ok_or("--workload is required")?;
    Ok(Args {
        command,
        workload: Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?,
        seed: take("--seed")
            .unwrap_or_else(|| "0".to_owned())
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds", "10")?,
        trace: number("--trace", "0")? != 0.0,
        work_dir: PathBuf::from(take("--work-dir").ok_or("--work-dir is required")?),
        worker: take("--worker").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "gen" => generate(&args),
        "run" => run(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let corpus = args
        .workload
        .spec(args.seed)
        .build()
        .map_err(|e| format!("building corpus: {e}"))?;
    let text = to_document(&corpus)
        .render_pretty()
        .map_err(|e| format!("rendering corpus: {e}"))?;
    let (corpus_path, _) = pipeline::paths(&args.work_dir, args.workload);
    std::fs::write(&corpus_path, format!("{text}\n"))
        .map_err(|e| format!("writing {}: {e}", corpus_path.display()))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Checks that run in every pass, accumulated over a run.
#[derive(Default)]
struct Checked {
    digest: Option<u64>,
    jobs: usize,
}

impl Checked {
    /// Checks one pass's jobs, and that its jobs slice matches every
    /// earlier pass's byte for byte.
    fn pass(&mut self, pass: &Pass) -> Result<(), String> {
        check_jobs(&pass.report)?;
        match self.digest {
            None => self.digest = Some(pass.digest),
            Some(digest) if digest != pass.digest => {
                return Err(format!(
                    "jobs slice digest {:016x} differs from the first pass's {digest:016x}",
                    pass.digest
                ))
            }
            Some(_) => {}
        }
        self.jobs += pass.report.jobs().len();
        Ok(())
    }
}

/// Runs passes until `budget` has elapsed and at least `min_passes` were
/// made, checking each and handing it to `keep`.
fn repeat(
    budget: Duration,
    min_passes: usize,
    checked: &mut Checked,
    mut pass: impl FnMut() -> Result<Pass, String>,
    mut keep: impl FnMut(Pass) -> Result<(), String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let mut passes = 0;
    while passes < min_passes || started.elapsed() < budget {
        let done = pass()?;
        checked.pass(&done)?;
        keep(done)?;
        passes += 1;
    }
    Ok(passes)
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let (corpus_path, out_path) = pipeline::paths(&args.work_dir, workload);
    let setup = Setup {
        workload,
        corpus_path,
        out_path,
        worker_program: args.worker.clone(),
    };
    let mode = if workload.multiprocess() {
        Mode::Processes(PARALLELISM)
    } else {
        Mode::Threads(PARALLELISM)
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {}: {} backend, {} ({} CPUs available)",
        workload.name(),
        args.seed,
        workload.backend().label(),
        match mode {
            Mode::Threads(n) => format!("{n} worker threads"),
            Mode::Processes(n) => format!("{n} worker processes"),
        },
        cpus
    );
    let mut checked = Checked::default();
    let metrics = if args.trace {
        per_layer(
            &setup,
            mode,
            Duration::from_secs_f64(args.seconds),
            &mut checked,
        )?
    } else {
        end_to_end(
            &setup,
            mode,
            Duration::from_secs_f64(args.seconds),
            &mut checked,
        )?
    };
    if workload.multiprocess() {
        // The process boundary must not change a byte: the same corpus run
        // in-process gives the same jobs slice.
        let reference = run_pass(
            &setup,
            Mode::Threads(PARALLELISM),
            &Tracer::disabled(),
            &MetricsRegistry::new(),
        )?;
        check_jobs(&reference.report)?;
        if Some(reference.digest) != checked.digest {
            return Err(format!(
                "multi-process jobs slice differs from in-process ({:016x})",
                reference.digest
            ));
        }
    }
    println!(
        "jobs slice digest {:016x} (FNV-1a 64, identical in every pass)",
        checked.digest.unwrap_or_default()
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let mut values = obj();
    for m in &metrics {
        values = values.field(
            m.name,
            obj().field("value", m.value).field("unit", m.unit).build(),
        );
    }
    let result = obj()
        .field("correct", true)
        .field("attempted", checked.jobs)
        .field("failed", 0u64)
        .field("metrics", values.build())
        .build();
    println!(
        "{}",
        result
            .render_compact()
            .map_err(|e| format!("rendering result: {e}"))?
    );
    Ok(())
}

/// The end-to-end metrics, from untraced passes.
///
/// Each timing is the fastest over the run's passes. Interference from
/// other work on the host only ever slows a pass, and it comes in episodes
/// of seconds to minutes, so the least disturbed pass repeats far better
/// than the median does.
///
/// Per-job latency is the service's own, from dequeue to result
/// (`ServiceStats::latency`), ranked within each pass.
fn end_to_end(
    setup: &Setup,
    mode: Mode,
    budget: Duration,
    checked: &mut Checked,
) -> Result<Vec<Metric>, String> {
    let mut times: Vec<PassTimes> = Vec::new();
    let mut setups = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut totals = (0.0, 0.0);
    let passes = repeat(
        budget,
        MIN_PASSES,
        checked,
        || run_pass(setup, mode, &Tracer::disabled(), &MetricsRegistry::new()),
        |pass| {
            let stats = pass.report.stats();
            let samples = stats.latency.samples;
            if !tail_percentile(samples).is_some_and(|q| q >= 0.99) {
                return Err(format!(
                    "{samples} latency samples leave fewer than {} beyond p99",
                    stats::MIN_BEYOND
                ));
            }
            p50.push(stats.latency.p50_seconds);
            p99.push(stats.latency.p99_seconds);
            // In-process, set-up is the load plus what the runner did
            // before its job loop (backend build, prewarm). Across the
            // process boundary, worker set-up lands in the job loop.
            setups.push(match mode {
                Mode::Threads(_) => pass.times.load_s() + pass.times.run_s - stats.wall_seconds,
                Mode::Processes(_) => pass.times.load_s(),
            });
            times.push(pass.times);
            totals = pass.report.jobs().iter().fold((0.0, 0.0), |acc, job| {
                let m = job.outcome.metrics().expect("checked complete");
                (acc.0 + m.schedule_length, acc.1 + m.simulation_effort)
            });
            Ok(())
        },
    )?;
    let jobs = checked.jobs / passes;
    let fast = |f: fn(&PassTimes) -> f64| fastest(&times.iter().map(f).collect::<Vec<_>>());
    println!("{passes} passes of {jobs} jobs; times are the fastest over passes");
    println!(
        "pass: read {:.4} s, parse {:.4} s, decode {:.4} s, run {:.4} s, render {:.4} s, write {:.4} s",
        fast(|t| t.read_s),
        fast(|t| t.parse_s),
        fast(|t| t.decode_s),
        fast(|t| t.run_s),
        fast(|t| t.render_s),
        fast(|t| t.write_s),
    );
    println!("job latency p50 and p99 rank the {jobs} jobs of each pass");
    println!("failed_frac 0 ratio (every job completed and stayed under its limit)");
    Ok(vec![
        metric("jobs_per_s", jobs as f64 / fast(|t| t.total_s), "jobs/s"),
        metric("setup_s", fastest(&setups), "s"),
        metric("job_p50_ms", fastest(&p50) * 1e3, "ms"),
        metric("job_p99_ms", fastest(&p99) * 1e3, "ms"),
        metric("peak_rss_mb", rss::self_peak_mib(), "MiB"),
        metric("completed_frac", 1.0, "ratio"),
        metric("schedule_len_s", totals.0, "sim_s"),
        metric("sim_effort_s", totals.1, "sim_s"),
    ])
}

/// Per-layer numbers of one traced pass, in report order.
type LayerSample = Vec<Metric>;

/// The per-layer metrics: untraced passes at two and at one worker, then
/// traced passes, then the thermal replay.
fn per_layer(
    setup: &Setup,
    mode: Mode,
    budget: Duration,
    checked: &mut Checked,
) -> Result<Vec<Metric>, String> {
    let phase = budget / 3;
    let untraced = |mode: Mode| run_pass(setup, mode, &Tracer::disabled(), &MetricsRegistry::new());
    let mut wall = Vec::new();
    let mut loop_2w = Vec::new();
    let mut worker_peak = 0.0;
    let mut jobs = 0;
    repeat(
        phase,
        1,
        checked,
        || untraced(mode),
        |pass| {
            jobs = pass.report.jobs().len();
            wall.push(pass.times.total_s);
            loop_2w.push(pass.report.stats().wall_seconds);
            worker_peak = rss::children_peak_mib();
            Ok(())
        },
    )?;
    let single = match mode {
        Mode::Threads(_) => Mode::Threads(1),
        Mode::Processes(_) => Mode::Processes(1),
    };
    let mut loop_1w = Vec::new();
    repeat(
        phase,
        1,
        checked,
        || untraced(single),
        |pass| {
            loop_1w.push(pass.report.stats().wall_seconds);
            Ok(())
        },
    )?;

    let mut traced_wall = Vec::new();
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut last: Option<Pass> = None;
    let mut trace_bytes = 0;
    let mut dropped = 0;
    repeat(
        phase,
        1,
        checked,
        || {
            // The capacity is a bound, not an allocation: any one shard
            // could take every span of the pass.
            let tracer = Tracer::new(TracerConfig {
                capacity_per_shard: jobs * SPAN_SLOTS_PER_JOB,
                ..TracerConfig::default()
            });
            let registry = MetricsRegistry::new();
            let pass = run_pass(setup, mode, &tracer, &registry)?;
            let document = TraceDocument::capture(&tracer, &registry);
            dropped = document.dropped_spans;
            if dropped != 0 {
                return Err(format!("the trace dropped {dropped} spans"));
            }
            trace_bytes = to_document(&document)
                .render_pretty()
                .map_err(|e| format!("rendering trace: {e}"))?
                .len();
            samples.push(traced_sample(&pass, mode, &document)?);
            Ok(pass)
        },
        |pass| {
            traced_wall.push(pass.times.total_s);
            last = Some(pass);
            Ok(())
        },
    )?;
    let pass = last.expect("at least one traced pass");

    let replay = thermal::replay(&pass.corpus, setup.workload.backend(), &pass.report)?;
    let t = replay.thermal;
    let processes = match mode {
        Mode::Threads(_) => 0,
        Mode::Processes(n) => n,
    };
    let hello_corpus = encode_value(&pass.corpus.to_wire())
        .map_err(|e| format!("encoding corpus: {e}"))?
        .len();
    let speedup = median(&loop_1w) / median(&loop_2w);
    // Each traced metric is the median over the traced passes.
    let mut out: Vec<Metric> = (0..samples[0].len())
        .map(|i| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            metric(samples[0][i].name, median(&values), samples[0][i].unit)
        })
        .collect();
    let mut push =
        |name: &'static str, value: f64, unit: &'static str| out.push(metric(name, value, unit));
    push("service.speedup_2w", speedup, "ratio");
    push(
        "multiproc.hello_bytes",
        (hello_corpus * processes) as f64,
        "bytes",
    );
    push(
        "multiproc.worker_peak_rss_mb",
        if processes > 0 { worker_peak } else { 0.0 },
        "MiB",
    );
    push("thermal.session_calls", t.session_calls as f64, "count");
    push("thermal.session_s", t.session_s, "s");
    push("thermal.trace_calls", t.trace_calls as f64, "count");
    push("thermal.trace_s", t.trace_s, "s");
    push(
        "thermal.trace_phases_mean",
        if t.trace_calls > 0 {
            t.trace_phases as f64 / t.trace_calls as f64
        } else {
            0.0
        },
        "count",
    );
    push("thermal.warm_calls", t.warm_calls as f64, "count");
    push("thermal.batch_calls", t.batch_calls as f64, "count");
    push("thermal.batch_lanes", t.batch_lanes as f64, "count");
    push("thermal.batch_s", t.batch_s, "s");
    push(
        "thermal.share",
        (t.session_s + t.trace_s) / replay.engine_s,
        "ratio",
    );
    push(
        "obs.trace_overhead",
        median(&traced_wall) / median(&wall),
        "ratio",
    );
    push("obs.dropped_spans", dropped as f64, "count");
    push("obs.trace_bytes", trace_bytes as f64, "bytes");
    println!(
        "{} untraced passes at {PARALLELISM}, {} at 1, {} traced; thermal replay of {} jobs on 1 thread matches the run",
        wall.len(),
        loop_1w.len(),
        traced_wall.len(),
        pass.report.jobs().len()
    );
    Ok(out)
}

/// The per-layer numbers of one traced pass, after checking that the
/// per-job spans' self times add up to the `job` spans.
fn traced_sample(pass: &Pass, mode: Mode, document: &TraceDocument) -> Result<LayerSample, String> {
    let spans = SpanTotals::from_spans(&document.spans);
    let job_s = spans.total("job");
    let accounted = spans.per_job_self_time();
    if (accounted - job_s).abs() > 1e-6 * job_s.max(1.0) {
        return Err(format!(
            "per-job self times add up to {accounted} s, not the {job_s} s of the job spans"
        ));
    }
    if spans.count("job") != pass.report.jobs().len() {
        return Err(format!(
            "{} job spans for {} jobs",
            spans.count("job"),
            pass.report.jobs().len()
        ));
    }
    let stats = pass.report.stats();
    let (parallelism, multiprocess) = match mode {
        Mode::Threads(n) => (n, false),
        Mode::Processes(n) => (n, true),
    };
    let busy = job_s / (stats.wall_seconds * parallelism as f64);
    // Across processes every backend build runs in a worker, concurrently.
    let worker_build = document
        .spans
        .iter()
        .filter(|s| multiprocess && s.name == "backend.build")
        .map(|s| s.duration_seconds)
        .fold(0.0, f64::max);
    let discarded: usize = pass
        .report
        .jobs()
        .iter()
        .filter_map(|j| j.outcome.metrics())
        .map(|m| m.discarded_sessions)
        .sum();
    let count = |n: u64| n as f64;
    Ok(vec![
        metric("wire.parse_s", spans.total("wire.parse"), "s"),
        metric("wire.decode_s", spans.total("wire.decode"), "s"),
        metric("wire.render_s", spans.total("wire.render"), "s"),
        metric("wire.corpus_bytes", pass.corpus_bytes as f64, "bytes"),
        metric("wire.result_bytes", pass.result_bytes as f64, "bytes"),
        metric("service.backend_build_s", spans.total("backend.build"), "s"),
        metric("service.prewarm_s", spans.total("prewarm"), "s"),
        metric(
            "service.prewarm_lanes",
            stats.prewarmed_sessions as f64,
            "count",
        ),
        metric("service.job_loop_s", stats.wall_seconds, "s"),
        metric(
            "service.job_self_s",
            spans.self_time("job") + spans.self_time("attempt"),
            "s",
        ),
        metric("service.worker_busy_frac", busy, "ratio"),
        metric("multiproc.worker_build_s", worker_build, "s"),
        metric(
            "multiproc.boundary_share",
            if multiprocess { 1.0 - busy } else { 0.0 },
            "ratio",
        ),
        metric(
            "multiproc.worker_crashes",
            stats.worker_crashes as f64,
            "count",
        ),
        metric(
            "core.engine_schedule_s",
            spans.total("engine.schedule"),
            "s",
        ),
        metric(
            "core.phase1_self_s",
            spans.self_time("scheduler.phase1"),
            "s",
        ),
        metric(
            "core.phase2_self_s",
            spans.self_time("scheduler.phase2"),
            "s",
        ),
        metric(
            "core.cached_validations",
            stats.cached_validations as f64,
            "count",
        ),
        metric(
            "core.warm_cache_hits",
            stats.warm_cache_hits as f64,
            "count",
        ),
        metric("core.discarded_sessions", discarded as f64, "count"),
        metric("store.probe_s", spans.total("store.probe"), "s"),
        metric("store.publish_s", spans.total("store.publish"), "s"),
        metric("store.lookups", count(stats.store.lookups), "count"),
        metric("store.hit_rate", stats.store.hit_rate(), "ratio"),
        metric("store.insertions", count(stats.store.insertions), "count"),
        metric(
            "store.contended_locks",
            count(stats.store.contended_locks),
            "count",
        ),
        metric(
            "operator_cache.builds",
            count(stats.operator_cache.misses),
            "count",
        ),
        metric(
            "operator_cache.hit_rate",
            stats.operator_cache.hit_rate(),
            "ratio",
        ),
    ])
}
