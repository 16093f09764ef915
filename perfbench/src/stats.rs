//! Exact order statistics over raw samples.

/// A percentile taken by nearest rank from raw samples, with the number of
/// samples that lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(p/100 * n)`.
    pub value: f64,
    /// Samples strictly after that rank.
    pub beyond: usize,
}

impl Percentile {
    /// The guide's reporting rule: a percentile is reported only when at
    /// least ten samples lie beyond it.
    pub fn reportable(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted` (ascending).
/// `None` when there are no samples.
pub fn percentile(sorted: &[u32], p: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    Some(Percentile {
        value: f64::from(sorted[rank - 1]),
        beyond: n - rank,
    })
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u32> = (1..=100).collect();
        let p50 = percentile(&sorted, 50.0).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.beyond, 50);
        let p99 = percentile(&sorted, 99.0).unwrap();
        assert_eq!(p99.value, 99.0);
        assert!(!p99.reportable(), "one sample beyond p99 of 100");
        assert!(percentile(&sorted, 90.0).unwrap().reportable());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
