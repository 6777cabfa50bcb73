//! The span recorder: [`Tracer`] handles, RAII [`Span`] guards, and the
//! lock-sharded bounded sink behind them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Which clock a run is timed against: span timings here, and in the
/// service layer its injected delays, retry backoffs and job latencies.
///
/// `Wall` records real start offsets and durations (useful traces,
/// timing-dependent bytes), while `Virtual` pins both to zero so the
/// *entire* trace document — not just its structural slice — is a pure
/// function of the work done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockKind {
    /// Real time: real span start offsets and durations; injected delays
    /// and retry backoffs sleep, and job latency is measured wall-clock.
    /// The production setting.
    #[default]
    Wall,
    /// Virtual time: span timings are pinned to zero, so only the
    /// sequence-number virtual clock orders events; delays and backoffs
    /// accrue deterministic virtual latency seconds without sleeping.
    Virtual,
}

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A boolean flag.
    Bool(bool),
    /// A non-negative integer (counts, indices, sequence numbers).
    Unsigned(u64),
    /// A signed integer.
    Signed(i64),
    /// A finite float (simulated seconds, temperatures).
    Float(f64),
    /// A short text value (names, labels, variant tags).
    Text(String),
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::Unsigned(v)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::Unsigned(v as u64)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::Unsigned(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Signed(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Text(v.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(v)
    }
}

/// One key/value attribute on a span.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// The attribute name.
    pub key: String,
    /// The typed value.
    pub value: AttrValue,
    /// Whether the value is deterministic (part of the structural slice)
    /// or interleaving-dependent (cache warmth, wall timings).
    pub structural: bool,
}

/// One finished span, as stored in the sink and exported on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span name (a static instrumentation-site label).
    pub name: String,
    /// The job this span belongs to, or `None` for run-level spans
    /// (backend builds, prewarming) that are excluded from the
    /// structural slice.
    pub job: Option<u64>,
    /// Monotonic per-job sequence number — the deterministic virtual
    /// clock. Run-level spans draw from a per-sink sequence instead.
    pub seq: u64,
    /// Sequence number of the enclosing span within the same job.
    pub parent: Option<u64>,
    /// Wall-clock start offset from the tracer's epoch in seconds
    /// (0.0 under [`ClockKind::Virtual`]).
    pub start_seconds: f64,
    /// Wall-clock duration in seconds (0.0 under [`ClockKind::Virtual`]).
    pub duration_seconds: f64,
    /// Attributes in recording order.
    pub attrs: Vec<Attr>,
}

impl SpanRecord {
    /// The structural attributes alone, in recording order.
    pub fn structural_attrs(&self) -> impl Iterator<Item = &Attr> {
        self.attrs.iter().filter(|a| a.structural)
    }
}

/// Sizing and clock configuration of an enabled [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracerConfig {
    /// Which clock stamps span timings.
    pub clock: ClockKind,
    /// Number of independently locked sink shards (at least 1).
    pub shards: usize,
    /// Hard capacity of each shard; a full shard drops new spans and
    /// counts them in [`Tracer::dropped_spans`].
    pub capacity_per_shard: usize,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            clock: ClockKind::Wall,
            shards: 8,
            capacity_per_shard: 8192,
        }
    }
}

/// The bounded, lock-sharded span store shared by all tracer clones.
#[derive(Debug)]
struct Sink {
    clock: ClockKind,
    epoch: Instant,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    capacity_per_shard: usize,
    dropped: AtomicU64,
    /// Sequence numbers for run-level (jobless) spans.
    free_seq: AtomicU64,
}

impl Sink {
    fn push(&self, record: SpanRecord) {
        let shard = (record.job.unwrap_or(record.seq) as usize) % self.shards.len();
        let mut spans = self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if spans.len() >= self.capacity_per_shard {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(record);
    }
}

/// Per-job state: the job id, its virtual clock, and the current parent
/// span. Jobs execute single-threaded (one worker runs one job at a
/// time, and inner fan-outs are kept sequential by the scheduler's
/// nested-parallelism guard), so plain relaxed atomics suffice.
#[derive(Debug)]
struct JobScope {
    job: u64,
    next_seq: AtomicU64,
    /// Encoded as `seq + 1`; 0 means "no enclosing span".
    parent: AtomicU64,
}

/// A cheap-to-clone tracing handle.
///
/// A tracer is either *enabled* (clones share one bounded span sink) or
/// *disabled* (every operation is a branch-and-return no-op — no
/// allocation, no lock). [`Tracer::for_job`] derives a job-scoped handle
/// whose spans carry the job id and a fresh per-job sequence counter.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Sink>>,
    scope: Option<Arc<JobScope>>,
}

impl Tracer {
    /// The no-op tracer: records nothing, allocates nothing, locks
    /// nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            sink: None,
            scope: None,
        }
    }

    /// An enabled tracer with the given sink sizing and clock.
    pub fn new(config: TracerConfig) -> Tracer {
        let shards = config.shards.max(1);
        Tracer {
            sink: Some(Arc::new(Sink {
                clock: config.clock,
                epoch: Instant::now(),
                shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
                capacity_per_shard: config.capacity_per_shard,
                dropped: AtomicU64::new(0),
                free_seq: AtomicU64::new(0),
            })),
            scope: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The clock stamping span timings ([`ClockKind::Wall`] when
    /// disabled).
    pub fn clock(&self) -> ClockKind {
        self.sink.as_ref().map_or(ClockKind::Wall, |s| s.clock)
    }

    /// A handle scoped to `job`: its spans carry the job id, a fresh
    /// monotonic sequence counter, and parent links within the job. On a
    /// disabled tracer this is free and stays disabled.
    pub fn for_job(&self, job: u64) -> Tracer {
        match &self.sink {
            None => Tracer::disabled(),
            Some(sink) => Tracer {
                sink: Some(Arc::clone(sink)),
                scope: Some(Arc::new(JobScope {
                    job,
                    next_seq: AtomicU64::new(0),
                    parent: AtomicU64::new(0),
                })),
            },
        }
    }

    /// Opens a span; it records itself into the sink when dropped. On a
    /// disabled tracer this returns an inert guard without allocating.
    pub fn span(&self, name: &'static str) -> Span {
        let Some(sink) = &self.sink else {
            return Span { inner: None };
        };
        let (job, seq, parent, saved_parent) = match &self.scope {
            Some(scope) => {
                let seq = scope.next_seq.fetch_add(1, Ordering::Relaxed);
                let saved = scope.parent.swap(seq + 1, Ordering::Relaxed);
                (Some(scope.job), seq, saved.checked_sub(1), saved)
            }
            None => (None, sink.free_seq.fetch_add(1, Ordering::Relaxed), None, 0),
        };
        let start = Instant::now();
        let start_seconds = match sink.clock {
            ClockKind::Wall => start.duration_since(sink.epoch).as_secs_f64(),
            ClockKind::Virtual => 0.0,
        };
        Span {
            inner: Some(SpanInner {
                sink: Arc::clone(sink),
                scope: self.scope.clone(),
                name,
                job,
                seq,
                parent,
                saved_parent,
                start,
                start_seconds,
                attrs: Vec::new(),
            }),
        }
    }

    /// Spans dropped because their sink shard was full.
    pub fn dropped_spans(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// Removes and returns every recorded span (shard by shard; no
    /// global order — sort by `(job, seq)` for the deterministic view).
    pub fn drain(&self) -> Vec<SpanRecord> {
        let Some(sink) = &self.sink else {
            return Vec::new();
        };
        let mut all = Vec::new();
        for shard in &sink.shards {
            let mut spans = shard.lock().unwrap_or_else(PoisonError::into_inner);
            all.append(&mut spans);
        }
        all
    }

    /// Inserts externally recorded spans (e.g. shipped from a worker
    /// process) into this tracer's sink, subject to the same capacity.
    pub fn absorb(&self, records: Vec<SpanRecord>) {
        let Some(sink) = &self.sink else { return };
        for record in records {
            sink.push(record);
        }
    }

    /// Adds `count` to the dropped-span counter — how a coordinator folds
    /// the drop counts reported by remote workers into the merged trace.
    pub fn add_dropped(&self, count: u64) {
        if let Some(sink) = &self.sink {
            sink.dropped.fetch_add(count, Ordering::Relaxed);
        }
    }
}

/// Live state of an open span (only present on enabled tracers).
#[derive(Debug)]
struct SpanInner {
    sink: Arc<Sink>,
    scope: Option<Arc<JobScope>>,
    name: &'static str,
    job: Option<u64>,
    seq: u64,
    parent: Option<u64>,
    saved_parent: u64,
    start: Instant,
    start_seconds: f64,
    attrs: Vec<Attr>,
}

/// An RAII span guard: records a [`SpanRecord`] into the sink on drop.
/// Inert (and free) when the tracer is disabled.
#[derive(Debug)]
#[must_use = "a span records itself when dropped; binding it to _ ends it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Records a *structural* (deterministic) attribute — a value that is
    /// a pure function of the job, byte-identical at any worker count.
    pub fn attr(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push(Attr {
                key: key.to_owned(),
                value: value.into(),
                structural: true,
            });
        }
    }

    /// Records an *observed* (interleaving-dependent) attribute — cache
    /// warmth, wall timings, queue waits. Excluded from the structural
    /// slice.
    pub fn attr_observed(&mut self, key: &str, value: impl Into<AttrValue>) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push(Attr {
                key: key.to_owned(),
                value: value.into(),
                structural: false,
            });
        }
    }

    /// Whether this guard will record anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        if let Some(scope) = &inner.scope {
            scope.parent.store(inner.saved_parent, Ordering::Relaxed);
        }
        let duration_seconds = match inner.sink.clock {
            ClockKind::Wall => inner.start.elapsed().as_secs_f64(),
            ClockKind::Virtual => 0.0,
        };
        inner.sink.push(SpanRecord {
            name: inner.name.to_owned(),
            job: inner.job,
            seq: inner.seq,
            parent: inner.parent,
            start_seconds: inner.start_seconds,
            duration_seconds,
            attrs: inner.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert_everywhere() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let job = tracer.for_job(7);
        assert!(!job.is_enabled());
        let mut span = job.span("noop");
        assert!(!span.is_recording());
        span.attr("k", 1u64);
        drop(span);
        assert!(tracer.drain().is_empty());
        assert_eq!(tracer.dropped_spans(), 0);
    }

    #[test]
    fn job_spans_get_sequence_numbers_and_parent_links() {
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        let job = tracer.for_job(3);
        {
            let mut root = job.span("root");
            root.attr("cores", 4usize);
            root.attr_observed("queue_seconds", 0.5);
            {
                let _child = job.span("child");
                let _grandchild = job.span("grandchild");
            }
            let _sibling = job.span("sibling");
        }
        let mut spans = tracer.drain();
        spans.sort_by_key(|s| s.seq);
        let summary: Vec<(&str, u64, Option<u64>)> = spans
            .iter()
            .map(|s| (s.name.as_str(), s.seq, s.parent))
            .collect();
        // Drop order records grandchild before child before root, but the
        // (seq, parent) structure is the creation tree.
        assert_eq!(
            summary,
            vec![
                ("root", 0, None),
                ("child", 1, Some(0)),
                ("grandchild", 2, Some(1)),
                ("sibling", 3, Some(0)),
            ]
        );
        assert!(spans.iter().all(|s| s.job == Some(3)));
        assert!(spans
            .iter()
            .all(|s| s.duration_seconds == 0.0 && s.start_seconds == 0.0));
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let structural: Vec<&str> = root.structural_attrs().map(|a| a.key.as_str()).collect();
        assert_eq!(structural, vec!["cores"]);
        assert_eq!(root.attrs.len(), 2);
    }

    #[test]
    fn full_shards_drop_spans_and_count_them() {
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            shards: 1,
            capacity_per_shard: 2,
        });
        let job = tracer.for_job(0);
        for _ in 0..5 {
            let _span = job.span("s");
        }
        assert_eq!(tracer.dropped_spans(), 3);
        assert_eq!(tracer.drain().len(), 2);
    }

    #[test]
    fn run_level_spans_have_no_job_and_absorb_respects_capacity() {
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            shards: 1,
            capacity_per_shard: 3,
        });
        let _ = tracer.span("run-level");
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].job, None);

        tracer.absorb(vec![
            SpanRecord {
                name: "a".into(),
                job: Some(1),
                seq: 0,
                parent: None,
                start_seconds: 0.0,
                duration_seconds: 0.0,
                attrs: Vec::new(),
            };
            5
        ]);
        assert_eq!(tracer.drain().len(), 3);
        assert_eq!(tracer.dropped_spans(), 2);
    }
}
