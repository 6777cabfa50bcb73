//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms, snapshotted into a mergeable [`MetricsSnapshot`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter. Cheap to clone; clones share the
/// cell. Incrementing is a single relaxed atomic add.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float gauge (stored as raw bits; lock-free).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0.0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistogramState {
    /// `counts[i]` counts samples `<= bounds[i]`; the final slot is the
    /// overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// A fixed-bucket histogram. Buckets are cumulative-style upper bounds
/// plus one overflow slot; `observe` is a short mutex-guarded update
/// (histograms sit on per-job paths, not inner loops).
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Arc<[f64]>,
    state: Arc<Mutex<HistogramState>>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.into(),
            state: Arc::new(Mutex::new(HistogramState {
                counts: vec![0; bounds.len() + 1],
                sum: 0.0,
                count: 0,
            })),
        }
    }

    /// Records one sample (non-finite samples are ignored).
    pub fn observe(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let bucket = self.bounds.partition_point(|&b| b < value);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.counts[bucket] += 1;
        state.sum += value;
        state.count += 1;
    }

    /// The configured bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        HistogramSnapshot {
            name: name.to_owned(),
            bounds: self.bounds.to_vec(),
            counts: state.counts.clone(),
            sum: state.sum,
            count: state.count,
        }
    }

    fn absorb(&self, snapshot: &HistogramSnapshot) {
        if snapshot.bounds != *self.bounds || snapshot.counts.len() != self.bounds.len() + 1 {
            return; // incompatible bucket layout; nothing sensible to add
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        for (slot, add) in state.counts.iter_mut().zip(&snapshot.counts) {
            *slot += add;
        }
        state.sum += snapshot.sum;
        state.count += snapshot.count;
    }
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The registered metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` slots; last is overflow).
    pub counts: Vec<u64>,
    /// Sum of all observed samples.
    pub sum: f64,
    /// Number of observed samples.
    pub count: u64,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. Cheap to clone (clones share the map);
/// `counter`/`gauge`/`histogram` get-or-create, so callers keep hot
/// handles and never touch the registry lock on the increment path.
///
/// Asking for an existing name with a different metric kind returns a
/// fresh *detached* handle (it works but is not snapshotted) — names are
/// expected to be used consistently.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// The histogram registered under `name` with the given bucket upper
    /// bounds (created on first use; an existing histogram keeps its
    /// original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::new(bounds),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name within each kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        let mut snapshot = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snapshot.counters.push((name.clone(), c.value())),
                Metric::Gauge(g) => snapshot.gauges.push((name.clone(), g.value())),
                Metric::Histogram(h) => snapshot.histograms.push(h.snapshot(name)),
            }
        }
        snapshot
    }

    /// Folds a snapshot (e.g. shipped from a worker process) into this
    /// registry: counters add, gauges keep the maximum, histograms add
    /// bucket-wise (creating missing metrics as needed; histograms with
    /// incompatible bounds are skipped).
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        for (name, value) in &snapshot.counters {
            self.counter(name).add(*value);
        }
        for (name, value) in &snapshot.gauges {
            let gauge = self.gauge(name);
            if *value > gauge.value() {
                gauge.set(*value);
            }
        }
        for histogram in &snapshot.histograms {
            self.histogram(&histogram.name, &histogram.bounds)
                .absorb(histogram);
        }
    }
}

/// A point-in-time view of a [`MetricsRegistry`] — what a
/// [`crate::TraceDocument`] embeds, and what [`MetricsRegistry::absorb`]
/// merges into another registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The value of the named counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of the named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_handles_share_state_and_snapshot_sorted() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("z.total");
        let b = registry.counter("z.total");
        a.inc();
        b.add(2);
        registry.gauge("a.level").set(1.5);
        let h = registry.histogram("m.latency", &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(10.0);

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("z.total"), Some(3));
        assert_eq!(snapshot.gauges, vec![("a.level".to_owned(), 1.5)]);
        assert_eq!(snapshot.histograms.len(), 1);
        let hist = &snapshot.histograms[0];
        assert_eq!(hist.counts, vec![1, 1, 1]);
        assert_eq!(hist.count, 3);
        assert!((hist.sum - 10.55).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters_and_histograms_and_maxes_gauges() {
        let left = MetricsRegistry::new();
        left.counter("jobs").add(2);
        left.gauge("peak").set(3.0);
        left.histogram("lat", &[1.0]).observe(0.5);
        let right = MetricsRegistry::new();
        right.counter("jobs").add(5);
        right.counter("only.right").inc();
        right.gauge("peak").set(7.0);
        right.histogram("lat", &[1.0]).observe(2.0);

        left.absorb(&right.snapshot());
        let merged = left.snapshot();
        assert_eq!(merged.counter("jobs"), Some(7));
        assert_eq!(merged.counter("only.right"), Some(1));
        assert_eq!(merged.gauges, vec![("peak".to_owned(), 7.0)]);
        assert_eq!(merged.histograms[0].counts, vec![1, 1]);
        assert_eq!(merged.histograms[0].count, 2);
    }

    #[test]
    fn mismatched_kind_returns_detached_handles() {
        let registry = MetricsRegistry::new();
        registry.counter("x").add(4);
        let detached = registry.gauge("x");
        detached.set(9.0);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("x"), Some(4));
        assert!(snapshot.gauges.is_empty());
    }
}
