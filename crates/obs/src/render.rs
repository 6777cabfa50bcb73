//! Human rendering of a [`TraceDocument`]: per-job waterfall plus the
//! top-k slowest spans and a metrics digest.

use std::fmt::Write as _;

use crate::document::TraceDocument;
use crate::tracer::{AttrValue, ClockKind, SpanRecord};

fn format_attr_value(value: &AttrValue) -> String {
    match value {
        AttrValue::Bool(v) => v.to_string(),
        AttrValue::Unsigned(v) => v.to_string(),
        AttrValue::Signed(v) => v.to_string(),
        AttrValue::Float(v) => format!("{v:.4}"),
        AttrValue::Text(v) => v.clone(),
    }
}

fn format_attrs(span: &SpanRecord) -> String {
    if span.attrs.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = span
        .attrs
        .iter()
        .map(|a| format!("{}={}", a.key, format_attr_value(&a.value)))
        .collect();
    format!("  [{}]", rendered.join(" "))
}

fn depth_of(span: &SpanRecord, job_spans: &[&SpanRecord]) -> usize {
    let mut depth = 0;
    let mut parent = span.parent;
    while let Some(seq) = parent {
        depth += 1;
        if depth > job_spans.len() {
            break; // defensive: malformed parent links must not loop
        }
        parent = job_spans
            .iter()
            .find(|s| s.seq == seq)
            .and_then(|s| s.parent);
    }
    depth
}

/// Renders `doc` as text: a header, one indented waterfall per job
/// (ordered by sequence number), run-level spans, the `top_k` slowest
/// spans by duration, and the metrics snapshot.
pub fn render_trace(doc: &TraceDocument, top_k: usize) -> String {
    let mut out = String::new();
    let clock = match doc.clock {
        ClockKind::Wall => "wall",
        ClockKind::Virtual => "virtual",
    };
    let _ = writeln!(
        out,
        "trace v{} · clock={} · {} spans · {} dropped",
        doc.version,
        clock,
        doc.spans.len(),
        doc.dropped_spans
    );

    let mut jobs: Vec<u64> = doc.spans.iter().filter_map(|s| s.job).collect();
    jobs.sort_unstable();
    jobs.dedup();
    for job in jobs {
        let mut job_spans: Vec<&SpanRecord> =
            doc.spans.iter().filter(|s| s.job == Some(job)).collect();
        job_spans.sort_by_key(|s| s.seq);
        let _ = writeln!(out, "\njob {job}");
        for span in &job_spans {
            let indent = "  ".repeat(depth_of(span, &job_spans) + 1);
            let timing = match doc.clock {
                ClockKind::Wall => format!(" {:.3}ms", span.duration_seconds * 1e3),
                ClockKind::Virtual => String::new(),
            };
            let _ = writeln!(out, "{indent}{}{timing}{}", span.name, format_attrs(span));
        }
    }

    let run_level: Vec<&SpanRecord> = doc.spans.iter().filter(|s| s.job.is_none()).collect();
    if !run_level.is_empty() {
        let _ = writeln!(out, "\nrun-level");
        for span in run_level {
            let timing = match doc.clock {
                ClockKind::Wall => format!(" {:.3}ms", span.duration_seconds * 1e3),
                ClockKind::Virtual => String::new(),
            };
            let _ = writeln!(out, "  {}{timing}{}", span.name, format_attrs(span));
        }
    }

    if top_k > 0 && doc.clock == ClockKind::Wall && !doc.spans.is_empty() {
        let mut slowest: Vec<&SpanRecord> = doc.spans.iter().collect();
        slowest.sort_by(|a, b| {
            b.duration_seconds
                .partial_cmp(&a.duration_seconds)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let _ = writeln!(out, "\nslowest spans");
        for span in slowest.into_iter().take(top_k) {
            let scope = match span.job {
                Some(job) => format!("job {job}"),
                None => "run-level".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {:>10.3}ms  {}  ({scope})",
                span.duration_seconds * 1e3,
                span.name
            );
        }
    }

    if !doc.metrics.is_empty() {
        let _ = writeln!(out, "\nmetrics");
        for (name, value) in &doc.metrics.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
        for (name, value) in &doc.metrics.gauges {
            let _ = writeln!(out, "  {name} = {value:.4}");
        }
        for histogram in &doc.metrics.histograms {
            let mean = if histogram.count > 0 {
                histogram.sum / histogram.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {} · {} samples · mean {:.6}",
                histogram.name, histogram.count, mean
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::tracer::{Tracer, TracerConfig};

    #[test]
    fn waterfall_indents_children_and_lists_metrics() {
        let tracer = Tracer::new(TracerConfig::default());
        let job = tracer.for_job(0);
        {
            let mut root = job.span("job");
            root.attr("index", 0u64);
            let _child = job.span("engine.schedule");
        }
        drop(tracer.span("backend.build"));
        let registry = MetricsRegistry::new();
        registry.counter("service.completed").inc();
        let doc = TraceDocument::capture(&tracer, &registry);

        let text = render_trace(&doc, 2);
        assert!(text.starts_with("trace v1 · clock=wall · 3 spans · 0 dropped"));
        assert!(text.contains("\njob 0\n"));
        assert!(text.contains("\n  job "));
        assert!(text.contains("\n    engine.schedule "));
        assert!(text.contains("[index=0]"));
        assert!(text.contains("run-level\n  backend.build"));
        assert!(text.contains("slowest spans"));
        assert!(text.contains("service.completed = 1"));
    }

    #[test]
    fn virtual_clock_rendering_omits_timings_and_topk() {
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        let job = tracer.for_job(4);
        drop(job.span("job"));
        let doc = TraceDocument::capture(&tracer, &MetricsRegistry::new());
        let text = render_trace(&doc, 5);
        assert!(text.contains("clock=virtual"));
        assert!(!text.contains("ms"));
        assert!(!text.contains("slowest spans"));
    }
}
