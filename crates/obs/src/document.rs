//! The exportable run trace: [`TraceDocument`] and its deterministic
//! structural slice.

use thermsched_wire::{obj, JsonValue, Key, Wire};

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::tracer::{ClockKind, SpanRecord, Tracer};

/// Version tag carried by every [`TraceDocument`]; decoding rejects
/// other versions.
pub const TRACE_VERSION: u64 = 1;

/// A complete, wire-serializable record of one run: every drained span
/// plus a metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDocument {
    /// Format version ([`TRACE_VERSION`]).
    pub version: u64,
    /// Which clock stamped the span timings.
    pub clock: ClockKind,
    /// Spans lost to sink capacity. The structural slice is only
    /// guaranteed byte-identical across worker counts when this is 0.
    pub dropped_spans: u64,
    /// All spans, sorted job spans first by `(job, seq)`, then run-level
    /// spans by `seq`.
    pub spans: Vec<SpanRecord>,
    /// Point-in-time metrics at capture.
    pub metrics: MetricsSnapshot,
}

impl TraceDocument {
    /// Drains `tracer` and snapshots `registry` into a document.
    pub fn capture(tracer: &Tracer, registry: &MetricsRegistry) -> TraceDocument {
        let mut spans = tracer.drain();
        spans.sort_by(|a, b| {
            (a.job.is_none(), a.job.unwrap_or(0), a.seq).cmp(&(
                b.job.is_none(),
                b.job.unwrap_or(0),
                b.seq,
            ))
        });
        TraceDocument {
            version: TRACE_VERSION,
            clock: tracer.clock(),
            dropped_spans: tracer.dropped_spans(),
            spans,
            metrics: registry.snapshot(),
        }
    }

    /// The deterministic slice as a value: job spans only, ordered by
    /// `(job, seq)`, with name, tree position and *structural* attributes
    /// — no timings, no observed attributes, no run-level spans.
    pub fn structural_value(&self) -> JsonValue {
        let mut slice: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.job.is_some()).collect();
        slice.sort_by_key(|s| (s.job, s.seq));
        let spans: Vec<JsonValue> = slice
            .into_iter()
            .map(|span| {
                let attrs = JsonValue::Object(
                    span.structural_attrs()
                        .map(|a| (Key::from(a.key.as_str()), a.value.to_wire()))
                        .collect(),
                );
                obj()
                    .field("job", span.job)
                    .field("seq", span.seq)
                    .field("parent", span.parent)
                    .field("name", span.name.as_str())
                    .field("attrs", attrs)
                    .build()
            })
            .collect();
        JsonValue::Array(spans)
    }

    /// [`Self::structural_value`] rendered as canonical text —
    /// byte-comparable across runs.
    pub fn structural_text(&self) -> String {
        self.structural_value()
            .render_pretty()
            .expect("structural slice holds finite values only")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::TracerConfig;

    #[test]
    fn capture_sorts_job_spans_first_and_structural_slice_skips_observed() {
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        drop(tracer.span("backend.build"));
        let registry = MetricsRegistry::new();
        registry.counter("jobs").inc();
        for job in [1u64, 0u64] {
            let scoped = tracer.for_job(job);
            let mut span = scoped.span("job");
            span.attr("index", job);
            span.attr_observed("queue_seconds", 0.25);
        }

        let doc = TraceDocument::capture(&tracer, &registry);
        assert_eq!(doc.version, TRACE_VERSION);
        assert_eq!(doc.clock, ClockKind::Virtual);
        assert_eq!(doc.dropped_spans, 0);
        let order: Vec<Option<u64>> = doc.spans.iter().map(|s| s.job).collect();
        assert_eq!(order, vec![Some(0), Some(1), None]);
        assert_eq!(doc.metrics.counter("jobs"), Some(1));

        let text = doc.structural_text();
        assert!(text.contains("\"index\""));
        assert!(!text.contains("queue_seconds"));
        assert!(!text.contains("backend.build"));

        // Draining again yields an empty document but the same slice shape.
        let empty = TraceDocument::capture(&tracer, &registry);
        assert!(empty.spans.is_empty());
        assert_eq!(empty.structural_text(), "[]\n");
    }
}
