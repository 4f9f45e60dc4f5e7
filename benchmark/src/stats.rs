//! The harness's own order statistics. The vendored criterion stand-in
//! does none, and the regression rules (median, quartile spread, "ten
//! samples beyond the percentile") must be the same in `run` and `compare`.

/// Sorted copy; samples are finite wall times, so total order is safe.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// Median; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1) — always an observed sample.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile at or below `q_max` that still has at least ten
/// samples beyond it (100 samples → p90, 50 → p80, fewer than 20 → the
/// median): a tail estimated from fewer samples is a handful of outliers.
pub fn tail_quantile(n: usize, q_max: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(q_max)
}

/// `percentile` at `tail_quantile(len, q_max)`.
pub fn tail_percentile(v: &[f64], q_max: f64) -> f64 {
    percentile(v, tail_quantile(v.len(), q_max))
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)` (exclusive method), so the spread printed
/// here is the spread the acceptance procedure computes over repeated runs.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m.abs()
}

/// Prefix differencing: given the wall time of the plans Scan→…→opᵢ for
/// i = 0..k, the cost of operator i per input record is
/// (wallᵢ − wallᵢ₋₁) ÷ records entering it. Reported as measured: a prefix
/// that ran faster than its predecessor (noise on a cheap operator) reads
/// negative.
pub fn prefix_difference(prefix_wall_s: &[f64], records_in: &[usize]) -> Vec<f64> {
    prefix_wall_s
        .windows(2)
        .zip(records_in)
        .map(|(w, &n)| (w[1] - w[0]) / n.max(1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(100, 0.9), 0.9);
        assert_eq!(tail_quantile(1000, 0.9), 0.9);
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(50, 0.9), 0.8);
        assert_eq!(tail_quantile(19, 0.9), 0.5);
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), 40.0);
        assert_eq!(tail_percentile(&[5.0, 1.0, 9.0], 0.9), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartile_spread(&v), 1.0);
        assert_eq!(quartile_spread(&[4.0]), 0.0);
    }

    #[test]
    fn prefix_differencing_attributes_each_operator() {
        // Scan 1 s; +filter 3 s over 1000 records; +map 0.5 s over 400.
        let per_rec = prefix_difference(&[1.0, 4.0, 4.5], &[1000, 400]);
        assert_eq!(per_rec, vec![0.003, 0.00125]);
        // Zero records in divides by one, not by zero.
        assert_eq!(prefix_difference(&[2.0, 3.0], &[0]), vec![1.0]);
    }
}
