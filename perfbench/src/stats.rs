//! Order statistics over wall-time samples.

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it. Empty input
/// gives 0.
pub fn percentile(samples: &[u64], p: u32) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of real-valued samples (mean of the middle pair for an even
/// count). Empty input gives 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 50), 50);
        assert_eq!(percentile(&samples, 90), 90);
        assert_eq!(percentile(&samples, 99), 99);
        assert_eq!(percentile(&samples, 100), 100);
    }

    #[test]
    fn nearest_rank_small_sets() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 1), 7);
        assert_eq!(percentile(&[7], 99), 7);
        // Rank ceil(0.5 * 4) = 2: the lower middle, never an interpolation.
        assert_eq!(percentile(&[40, 10, 30, 20], 50), 20);
        // Rank ceil(0.9 * 10) = 9.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 90), 9);
        assert_eq!(percentile(&ten, 99), 10);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
