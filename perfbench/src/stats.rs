//! Order statistics for the report: nearest-rank percentiles, medians,
//! and the tail rule (report the highest percentile that still has at
//! least [`TAIL_MIN_BEYOND`] samples beyond it).

/// Samples a reported tail percentile must have strictly above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0.0..=1.0`) of an ascending slice:
/// the smallest sample with at least `p·n` samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps products like `0.99 · 1000` from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`TAIL_MIN_BEYOND`] strictly above
/// the nearest-rank percentile `p`.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n >= TAIL_MIN_BEYOND && rank(n, p) <= n - TAIL_MIN_BEYOND
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support, or
/// `None` when not even the median has ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.90, 0.50]
        .into_iter()
        .find(|&p| percentile_supported(n, p))
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten above it.
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert_eq!(tail_percentile(999), Some(0.90));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(99), Some(0.50));
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
