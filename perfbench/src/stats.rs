//! Order statistics over repeated measurements.

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples
/// (the ranking `thermsched_service::LatencyStats` uses).
pub fn samples_beyond(q: f64, n: usize) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest percentile of the ladder that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&q| samples_beyond(q, n) >= MIN_BEYOND)
}

/// The smallest of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no values");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        assert_eq!(samples_beyond(0.99, 8000), 80);
        assert_eq!(samples_beyond(0.999, 8000), 8);
        assert_eq!(samples_beyond(0.99, 200), 2);
        assert_eq!(samples_beyond(0.95, 200), 10);
        assert_eq!(samples_beyond(0.5, 1), 0);
        assert_eq!(samples_beyond(0.5, 0), 0);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        // p99.9 needs 10 000 samples, p99 1 000, p95 200.
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(8_000), Some(0.99));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(199), Some(0.9));
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(19), None);
    }
}
