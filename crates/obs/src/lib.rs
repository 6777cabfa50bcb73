//! Observability for the thermsched stack: span tracing, a metrics
//! registry, and wire-exportable run traces.
//!
//! Three pieces, all dependency-free (this crate leans only on
//! [`thermsched_wire`] for export):
//!
//! 1. **Span recording** ([`Tracer`], [`Span`]): a cheap-to-clone handle
//!    that records nested, attributed spans into a lock-sharded
//!    ring-buffer sink with a hard capacity and a dropped-span counter —
//!    no unbounded growth. A *disabled* tracer ([`Tracer::disabled`]) is
//!    a true no-op: no allocation, no lock, a single branch per call, so
//!    instrumented hot paths keep their benchmarks.
//! 2. **Metrics** ([`MetricsRegistry`]): named counters, gauges and
//!    fixed-bucket histograms behind lock-free (counters/gauges) or
//!    single-mutex (histograms) handles, snapshotted into a mergeable,
//!    wire-serializable [`MetricsSnapshot`].
//! 3. **Export** ([`TraceDocument`]): a versioned document carrying the
//!    drained spans plus a metrics snapshot, with `Wire` impls (text and
//!    binary) and a human waterfall rendering ([`render_trace`]).
//!
//! # The determinism boundary
//!
//! Every span carries two kinds of time. Which one a run keeps is its
//! [`ClockKind`], the one clock setting of the stack: the tracer reads it
//! from [`TracerConfig::clock`], and the service layer's configuration
//! holds the same type for its delays, backoffs and latencies.
//!
//! * a **virtual clock** — the monotonic per-job sequence number
//!   ([`SpanRecord::seq`]) and parent link, which are pure functions of
//!   the job's execution and therefore byte-identical at any worker or
//!   process count, and
//! * **wall-clock timings** (`start_seconds` / `duration_seconds`),
//!   which live outside the determinism boundary (and are pinned to zero
//!   under [`ClockKind::Virtual`]).
//!
//! Attributes follow the same discipline: [`Span::attr`] records a
//! *structural* (deterministic) attribute; [`Span::attr_observed`]
//! records an interleaving-dependent one (cache warmth, wall durations).
//! [`TraceDocument::structural_text`] renders exactly the deterministic
//! slice — job spans ordered by `(job, seq)`, structural attributes only
//! — and is byte-identical across worker and process counts as long as
//! no span was dropped ([`TraceDocument::dropped_spans`]` == 0`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod document;
mod metrics;
mod render;
mod tracer;
mod wire;

pub use document::{TraceDocument, TRACE_VERSION};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use render::render_trace;
pub use tracer::{Attr, AttrValue, ClockKind, Span, SpanRecord, Tracer, TracerConfig};
