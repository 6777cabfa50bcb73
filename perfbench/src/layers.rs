//! Per-layer time from a recorded span trace.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover (overlapping children are counted once).

use std::collections::HashMap;

use thermsched_obs::SpanRecord;

/// Every span the program opens inside a job's `job` span.
const PER_JOB_SPANS: [&str; 7] = [
    "job",
    "attempt",
    "engine.schedule",
    "scheduler.phase1",
    "scheduler.phase2",
    "store.probe",
    "store.publish",
];

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span, in the order given. Parents are found by
/// `(job, parent seq)`; run-level spans (no job) have no parent links.
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let mut children: HashMap<(u64, u64), Vec<(f64, f64)>> = HashMap::new();
    for span in spans {
        if let (Some(job), Some(parent)) = (span.job, span.parent) {
            children.entry((job, parent)).or_default().push((
                span.start_seconds,
                span.start_seconds + span.duration_seconds,
            ));
        }
    }
    spans
        .iter()
        .map(|span| {
            let start = span.start_seconds;
            let end = start + span.duration_seconds;
            let child_time = span
                .job
                .and_then(|job| children.get_mut(&(job, span.seq)))
                .map_or(0.0, |kids| covered(start, end, kids));
            span.duration_seconds - child_time
        })
        .collect()
}

/// Durations and self times summed by span name.
#[derive(Debug, Default)]
pub struct SpanTotals {
    by_name: HashMap<String, (usize, f64, f64)>,
}

impl SpanTotals {
    /// Sums `spans` by name.
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let mut by_name: HashMap<String, (usize, f64, f64)> = HashMap::new();
        for (span, self_time) in spans.iter().zip(self_times(spans)) {
            let slot = by_name.entry(span.name.clone()).or_default();
            slot.0 += 1;
            slot.1 += span.duration_seconds;
            slot.2 += self_time;
        }
        SpanTotals { by_name }
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |t| t.0)
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.1)
    }

    /// Summed self time of the spans named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |t| t.2)
    }

    /// Self time of all per-job spans, which must add up to the summed
    /// `job` span time when every span nests inside its parent.
    pub fn per_job_self_time(&self) -> f64 {
        PER_JOB_SPANS.iter().map(|name| self.self_time(name)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: Option<u64>, seq: u64, parent: Option<u64>, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            name: format!("s{seq}"),
            job,
            seq,
            parent,
            start_seconds: start,
            duration_seconds: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn union_counts_overlap_once_and_clips_to_the_parent() {
        let mut disjoint = [(1.0, 2.0), (3.0, 4.0)];
        assert_eq!(covered(0.0, 10.0, &mut disjoint), 2.0);
        let mut overlapping = [(2.0, 5.0), (1.0, 3.0), (4.0, 6.0)];
        assert_eq!(covered(0.0, 10.0, &mut overlapping), 5.0);
        let mut nested = [(1.0, 6.0), (2.0, 3.0)];
        assert_eq!(covered(0.0, 10.0, &mut nested), 5.0);
        let mut spilling = [(-1.0, 1.0), (9.0, 12.0)];
        assert_eq!(covered(0.0, 10.0, &mut spilling), 2.0);
        assert_eq!(covered(0.0, 10.0, &mut []), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_not_grandchildren() {
        // job 0: root [0, 10] with children [1, 4] and [3, 6] (overlapping)
        // and a grandchild [1, 2] under the first child.
        let spans = vec![
            span(Some(0), 0, None, 0.0, 10.0),
            span(Some(0), 1, Some(0), 1.0, 3.0),
            span(Some(0), 2, Some(0), 3.0, 3.0),
            span(Some(0), 3, Some(1), 1.0, 1.0),
            // Same seq numbers in another job must not be mixed in.
            span(Some(1), 1, Some(0), 0.0, 9.0),
            span(None, 0, None, 0.0, 2.0),
        ];
        let times = self_times(&spans);
        assert_eq!(times, vec![5.0, 2.0, 3.0, 1.0, 9.0, 2.0]);
    }

    #[test]
    fn per_job_self_times_add_up_to_the_job_spans() {
        let mut spans = vec![
            span(Some(4), 0, None, 0.0, 8.0),
            span(Some(4), 1, Some(0), 0.5, 7.0),
            span(Some(4), 2, Some(1), 1.0, 6.0),
            span(Some(4), 3, Some(2), 1.0, 2.0),
            span(Some(4), 4, Some(3), 1.5, 0.25),
        ];
        for (s, name) in spans.iter_mut().zip([
            "job",
            "attempt",
            "engine.schedule",
            "scheduler.phase1",
            "store.probe",
        ]) {
            s.name = name.to_owned();
        }
        let totals = SpanTotals::from_spans(&spans);
        assert_eq!(totals.per_job_self_time(), totals.total("job"));
        assert_eq!(totals.self_time("job") + totals.self_time("attempt"), 2.0);
        assert_eq!(totals.self_time("scheduler.phase1"), 1.75);
        assert_eq!(totals.total("store.probe"), 0.25);
        assert_eq!(totals.count("job"), 1);
    }
}
