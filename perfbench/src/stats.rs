//! Order statistics over per-operation samples.
//!
//! Every percentile the benchmark reports comes from here, computed from
//! the raw samples, never from bucketed histograms.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it. `p` is in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Each non-empty part's nearest-rank `p`-th percentile.
pub fn part_percentiles<V: AsRef<[f64]>>(parts: &[V], p: f64) -> Vec<f64> {
    parts
        .iter()
        .map(AsRef::as_ref)
        .filter(|part| !part.is_empty())
        .map(|part| percentile(&sorted(part), p))
        .collect()
}

/// Nearest-rank lower quartile of unsorted values. Over the parts of a
/// run that repeat the same work, it reads a part the host's bursts did
/// not reach as long as they reach fewer than three parts in four, and
/// unlike the smallest value it does not rest on one lucky part.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn lower_quartile(values: &[f64]) -> f64 {
    percentile(&sorted(values), 25.0)
}

/// An ascending copy; NaN sorts last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_of_one_to_hundred() {
        let us: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&us, 99.0), 99.0);
        assert_eq!(percentile(&us, 50.0), 50.0);
        assert_eq!(percentile(&us, 100.0), 100.0);
        assert_eq!(percentile(&us, 0.5), 1.0);
    }

    #[test]
    fn percentile_reports_only_observed_values() {
        let samples = sorted(&[3.0, 1.0, 2.0]);
        assert_eq!(percentile(&samples, 50.0), 2.0);
        assert_eq!(percentile(&samples, 99.0), 3.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn part_percentiles_keep_one_stall_in_its_part() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut stalled = calm.clone();
        stalled[99] = 1e6;
        let parts = [calm.clone(), stalled, calm, Vec::new()];
        assert_eq!(part_percentiles(&parts, 100.0), [100.0, 1e6, 100.0]);
        assert_eq!(median(&part_percentiles(&parts, 100.0)), 100.0);
        assert_eq!(lower_quartile(&part_percentiles(&parts, 99.0)), 99.0);
    }

    #[test]
    fn lower_quartile_ignores_a_slow_minority_and_one_fast_outlier() {
        let parts: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(lower_quartile(&parts), 2.0);
        let mut bursty = vec![10.0; 8];
        bursty[3] = 1.0;
        bursty[5] = 1e3;
        bursty[6] = 1e3;
        bursty[7] = 1e3;
        assert_eq!(lower_quartile(&bursty), 10.0);
        assert_eq!(lower_quartile(&[3.0]), 3.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[42.0]), 42.0);
    }
}
