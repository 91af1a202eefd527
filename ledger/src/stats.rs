//! Order statistics for the ledger: percentiles that refuse to report a
//! tail they have too few samples for, and the quartiles the comparison
//! rule uses.

/// Samples that must lie beyond a reported percentile (choosing-metrics
/// §1: report the highest percentile with at least ten samples beyond it).
pub const MIN_BEYOND: usize = 10;

/// Fewest timed operations a run completes, so that p90 always has
/// [`MIN_BEYOND`] samples beyond it.
pub const MIN_OPS: usize = 100;

/// Nearest-rank percentile `p` (0 < p < 1) of ascending `sorted`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (any order); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method), so spreads printed here match the acceptance scripts. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let v = d.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p90_of_120_samples_has_twelve_beyond() {
        assert_eq!(percentile(&ramp(120), 0.90), Some(108.0));
        assert_eq!(percentile(&ramp(120), 0.50), Some(60.0));
        assert_eq!(percentile(&ramp(MIN_OPS), 0.90), Some(90.0));
    }

    #[test]
    fn p99_is_refused_below_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(120), 0.99), None);
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
