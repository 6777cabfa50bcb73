//! `Wire` impls for the trace types: clock, attributes, spans, metric
//! snapshots and the versioned [`TraceDocument`].

use thermsched_wire::{
    obj, wire_struct, wire_unit_enum, JsonValue, Key, Number, Result, Wire, WireError,
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

    fn to_wire(&self) -> JsonValue {
        match self {
            AttrValue::Bool(v) => (*v).into(),
            AttrValue::Unsigned(v) => (*v).into(),
            AttrValue::Signed(v) => (*v).into(),
            AttrValue::Float(v) => (*v).into(),
            AttrValue::Text(v) => v.as_str().into(),
        }
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        match value {
            JsonValue::Bool(v) => Ok(AttrValue::Bool(*v)),
            JsonValue::Number(Number::Unsigned(v)) => Ok(AttrValue::Unsigned(*v)),
            JsonValue::Number(Number::Signed(v)) => Ok(AttrValue::Signed(*v)),
            JsonValue::Number(Number::Float(v)) => Ok(AttrValue::Float(*v)),
            JsonValue::String(v) => Ok(AttrValue::Text(v.clone())),
            other => Err(WireError::Invalid {
                type_name: Self::WIRE_TYPE,
                message: format!(
                    "expected bool, number or string, found {}",
                    other.type_name()
                ),
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

/// Encodes `(name, value)` pairs as an object keyed by name.
fn named_to_wire<T: Wire>(pairs: &[(String, T)]) -> JsonValue {
    JsonValue::Object(
        pairs
            .iter()
            .map(|(name, v)| (Key::from(name.as_str()), v.to_wire()))
            .collect(),
    )
}

/// Decodes an object keyed by name into `(name, value)` pairs.
fn named_from_wire<T: Wire>(value: &JsonValue) -> Result<Vec<(String, T)>> {
    value
        .entries()?
        .iter()
        .map(|(name, v)| Ok((name.as_str().to_owned(), T::from_wire(v)?)))
        .collect()
}

/// Counters and gauges are objects keyed by metric name.
impl Wire for MetricsSnapshot {
    const WIRE_TYPE: &'static str = "metrics_snapshot";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("counters", named_to_wire(&self.counters))
            .field("gauges", named_to_wire(&self.gauges))
            .field("histograms", self.histograms.to_wire())
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        Ok(MetricsSnapshot {
            counters: named_from_wire(value.field(Self::WIRE_TYPE, "counters")?)?,
            gauges: named_from_wire(value.field(Self::WIRE_TYPE, "gauges")?)?,
            histograms: value.decode(Self::WIRE_TYPE, "histograms")?,
        })
    }
}

/// The version is checked before anything else is decoded.
impl Wire for TraceDocument {
    const WIRE_TYPE: &'static str = "trace_document";

    fn to_wire(&self) -> JsonValue {
        obj()
            .field("version", self.version)
            .field("clock", self.clock.to_wire())
            .field("dropped_spans", self.dropped_spans)
            .field("spans", self.spans.to_wire())
            .field("metrics", self.metrics.to_wire())
            .build()
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
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
