//! The few statistics the benchmark reports.

/// Median of `values` (mean of the two middle ones when even); 0 when
/// empty, so a scheme that completed no round reports 0 and the run
/// reads as failed instead of panicking.
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

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. `q` in (0, 1]; 0 when empty.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile, capped at `cap`, that still has ten samples
/// beyond it; with fewer than twenty samples the median is all the
/// sample supports.
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    cap.min(1.0 - 10.0 / n as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // position k·(n+1)/4, 1-based, clamped to the sample
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_rounds_on_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // one slow round out of fifteen does not move it
        let mut rounds = vec![10.0; 14];
        rounds.push(1000.0);
        assert_eq!(median(&rounds), 10.0);
    }

    #[test]
    fn nearest_rank_percentile_on_known_vectors() {
        let v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[15, 20, 35, 40, 50], 0.3), 20);
        assert_eq!(percentile(&[15, 20, 35, 40, 50], 0.4), 20);
        assert_eq!(percentile(&[15, 20, 35, 40, 50], 0.5), 35);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(5, 0.99), 0.5);
        assert_eq!(tail_quantile(100, 0.99), 0.9);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(100_000, 0.99), 0.99);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
    }
}
