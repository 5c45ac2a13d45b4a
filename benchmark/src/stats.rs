//! Order statistics for the report: per-round percentiles of call
//! latencies, medians over rounds, and the quartiles `compare` judges
//! spread by.

/// Median of `values` (mean of the two middle values for an even
/// count). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` of the samples at or below it. With `n >= 1000`
/// samples the p99 leaves `floor(n/100) >= 10` samples beyond it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=1.0).contains(&p));
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Signed: a clamped `j` extrapolates, exactly as Python does.
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// One metric over the timed rounds: the per-round values and their
/// median / min / max.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// One value per timed round, in round order.
    pub rounds: Vec<f64>,
}

impl Summary {
    /// Wraps per-round values (at least one).
    pub fn new(rounds: Vec<f64>) -> Self {
        assert!(!rounds.is_empty());
        Summary { rounds }
    }
    /// The reported value.
    pub fn median(&self) -> f64 {
        median(&self.rounds)
    }
    /// Smallest round.
    pub fn min(&self) -> f64 {
        self.rounds.iter().copied().fold(f64::INFINITY, f64::min)
    }
    /// Largest round.
    pub fn max(&self) -> f64 {
        self.rounds
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 500);
        assert_eq!(percentile_sorted(&v, 0.99), 990);
        assert_eq!(percentile_sorted(&v, 0.999), 999);
        assert_eq!(percentile_sorted(&v, 1.0), 1000);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        // 1025 calls (table_phases_bulk): ten samples lie beyond p99.
        let w: Vec<u64> = (1..=1025).collect();
        assert_eq!(1025 - percentile_sorted(&w, 0.99), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn summary_reports_median_min_max() {
        let s = Summary::new(vec![2.0, 9.0, 4.0]);
        assert_eq!((s.median(), s.min(), s.max()), (4.0, 2.0, 9.0));
    }
}
