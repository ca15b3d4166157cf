//! Order statistics over measured samples.

/// Samples a percentile must leave beyond it before it is reported: the
/// benchmark's tail metric is the highest percentile with at least this
/// many samples above it.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile of `values` (sorted or not); 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// The median (nearest rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The mean of the middle half of `values`: of the samples ranked above
/// the lowest quarter and up to the highest quarter (nearest rank); 0 for
/// an empty slice.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (lo, hi) = (n / 4, n - n / 4);
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Whether `n` samples put at least [`TAIL_SAMPLES`] beyond the `p`-th
/// percentile, so that percentile may be reported.
pub fn tail_supported(p: f64, n: usize) -> bool {
    n > 0 && n - rank(p, n) >= TAIL_SAMPLES
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(median(&values), 5.0);
        assert_eq!(percentile(&values, 80.0), 8.0);
        assert_eq!(percentile(&values, 100.0), 10.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // p80 of 50 samples is rank 40: exactly ten beyond.
        assert!(tail_supported(80.0, 50));
        assert!(!tail_supported(80.0, 49));
        // p99 needs a thousand samples.
        assert!(tail_supported(99.0, 1000));
        assert!(!tail_supported(99.0, 999));
        assert!(tail_supported(98.0, 999));
        // Twenty samples are the fewest that support a median.
        assert!(tail_supported(50.0, 20));
        assert!(!tail_supported(50.0, 19));
        assert!(!tail_supported(50.0, 0));
    }

    #[test]
    fn interquartile_mean_averages_the_middle_half() {
        let values: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(interquartile_mean(&values), 4.5);
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
