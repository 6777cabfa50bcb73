//! `Wire` impls for the trace types: clock, attributes, spans, metric
//! snapshots and the versioned [`TraceDocument`].

use thermsched_wire::{
    wire_struct, wire_unit_enum, Number, ObjectSink, Result, Sink, View, Wire, WireError,
};

use crate::document::{TraceDocument, TRACE_VERSION};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::tracer::{Attr, AttrValue, ClockKind, SpanRecord};

wire_unit_enum! {
    "clock_kind" => ClockKind { "wall" => Wall, "virtual" => Virtual }
}

/// A value travels in whichever scalar lane it was recorded in.
impl Wire for AttrValue {
    const WIRE_TYPE: &'static str = "attr_value";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        match self {
            AttrValue::Bool(v) => sink.bool(*v),
            AttrValue::Unsigned(v) => sink.number(Number::Unsigned(*v)),
            AttrValue::Signed(v) => sink.number(Number::from_i64(*v)),
            AttrValue::Float(v) => sink.number(Number::Float(*v)),
            AttrValue::Text(v) => sink.str(v),
        }
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        match value.type_name() {
            "bool" => value.as_bool().map(AttrValue::Bool),
            "number" => Ok(match value.as_number()? {
                Number::Unsigned(v) => AttrValue::Unsigned(v),
                Number::Signed(v) => AttrValue::Signed(v),
                Number::Float(v) => AttrValue::Float(v),
            }),
            "string" => Ok(AttrValue::Text(value.as_str()?.to_owned())),
            other => Err(WireError::Invalid {
                type_name: Self::WIRE_TYPE,
                message: format!("expected bool, number or string, found {other}"),
            }),
        }
    }
}

wire_struct! {
    "attr" => Attr { key, value, structural };
    "span" => SpanRecord {
        name,
        job,
        seq,
        parent,
        start_seconds,
        duration_seconds,
        attrs,
    };
    "histogram" => HistogramSnapshot { name, bounds, counts, sum, count }
        validate |h: &HistogramSnapshot| match h.bounds.len() + 1 {
            n if n == h.counts.len() => Ok(()),
            n => Err(format!(
                "expected {n} counts for {} bounds, found {}",
                h.bounds.len(),
                h.counts.len()
            )),
        };
}

/// Writes `(name, value)` pairs as an object keyed by name.
fn write_named<S: Sink, T: Wire>(sink: S, pairs: &[(String, T)]) -> Result<()> {
    let mut object = sink.object(pairs.len())?;
    for (name, value) in pairs {
        object.field(name, value)?;
    }
    object.end()
}

/// Reads an object keyed by name into `(name, value)` pairs.
fn read_named<'a, T: Wire>(value: impl View<'a>) -> Result<Vec<(String, T)>> {
    value
        .entries()?
        .map(|(name, v)| Ok((name.to_owned(), T::read(v)?)))
        .collect()
}

/// Counters and gauges are objects keyed by metric name.
impl Wire for MetricsSnapshot {
    const WIRE_TYPE: &'static str = "metrics_snapshot";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut object = sink.object(3)?;
        write_named(object.entry("counters")?, &self.counters)?;
        write_named(object.entry("gauges")?, &self.gauges)?;
        object.field("histograms", &self.histograms)?;
        object.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        Ok(MetricsSnapshot {
            counters: read_named(value.field(Self::WIRE_TYPE, "counters")?)?,
            gauges: read_named(value.field(Self::WIRE_TYPE, "gauges")?)?,
            histograms: value.decode(Self::WIRE_TYPE, "histograms")?,
        })
    }
}

/// The version is checked before anything else is decoded.
impl Wire for TraceDocument {
    const WIRE_TYPE: &'static str = "trace_document";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        let mut object = sink.object(5)?;
        object.field("version", &self.version)?;
        object.field("clock", &self.clock)?;
        object.field("dropped_spans", &self.dropped_spans)?;
        object.field("spans", &self.spans)?;
        object.field("metrics", &self.metrics)?;
        object.end()
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        const T: &str = "trace_document";
        let version = value.decode(T, "version")?;
        if version != TRACE_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: TRACE_VERSION,
            });
        }
        Ok(TraceDocument {
            version,
            clock: value.decode(T, "clock")?,
            dropped_spans: value.decode(T, "dropped_spans")?,
            spans: value.decode(T, "spans")?,
            metrics: value.decode(T, "metrics")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::tracer::{Tracer, TracerConfig};
    use thermsched_wire::JsonValue;

    fn sample_document() -> TraceDocument {
        let tracer = Tracer::new(TracerConfig {
            clock: ClockKind::Virtual,
            ..TracerConfig::default()
        });
        let job = tracer.for_job(2);
        {
            let mut root = job.span("job");
            root.attr("index", 2u64);
            root.attr("label", "seed");
            root.attr_observed("queue_seconds", 0.125);
            let mut child = job.span("engine.schedule");
            child.attr("iterations", 5u64);
            child.attr("cold", false);
            child.attr("delta", -3i64);
        }
        drop(tracer.span("backend.build"));
        let registry = MetricsRegistry::new();
        registry.counter("service.jobs").add(3);
        registry.gauge("queue.depth").set(1.5);
        registry
            .histogram("job.latency_seconds", &[0.1, 1.0])
            .observe(0.4);
        TraceDocument::capture(&tracer, &registry)
    }

    #[test]
    fn trace_document_round_trips_text_and_binary() {
        let doc = sample_document();
        let text = doc.to_json().expect("renders");
        assert_eq!(TraceDocument::from_json(&text).expect("parses"), doc);
        let bytes = doc.to_binary().expect("encodes");
        assert_eq!(TraceDocument::from_binary(&bytes).expect("decodes"), doc);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut wire = sample_document().to_wire();
        if let JsonValue::Object(fields) = &mut wire {
            for (name, value) in fields.iter_mut() {
                if name == "version" {
                    *value = 99u64.into();
                }
            }
        }
        assert!(matches!(
            TraceDocument::from_wire(&wire),
            Err(WireError::UnsupportedVersion {
                found: 99,
                supported: TRACE_VERSION
            })
        ));
    }

    #[test]
    fn attr_values_keep_their_lanes() {
        let doc = sample_document();
        let restored = TraceDocument::from_wire(&doc.to_wire()).expect("round-trips");
        let child = restored
            .spans
            .iter()
            .find(|s| s.name == "engine.schedule")
            .expect("child span present");
        let values: Vec<&AttrValue> = child.attrs.iter().map(|a| &a.value).collect();
        assert_eq!(
            values,
            vec![
                &AttrValue::Unsigned(5),
                &AttrValue::Bool(false),
                &AttrValue::Signed(-3),
            ]
        );
    }
}
