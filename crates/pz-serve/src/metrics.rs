//! Serving metrics: latency percentiles, throughput, fairness, shed rate.

use serde::Serialize;

/// Nearest-rank percentile over an unsorted sample. `q` in [0, 1].
/// Returns 0.0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    // A total order: a NaN sample sorts above every number instead of
    // making the sort panic.
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Jain's fairness index over per-tenant service shares:
/// `(Σx)² / (n · Σx²)`. 1.0 = perfectly fair, 1/n = one tenant got
/// everything. Returns 1.0 for degenerate inputs (≤ 1 tenant or all-zero
/// service — nothing to be unfair about).
pub fn jain_fairness(shares: &[f64]) -> f64 {
    if shares.len() <= 1 {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

/// Per-tenant accounting in a [`ServeMetrics`] report.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct TenantMetrics {
    pub tenant: String,
    pub sessions_completed: usize,
    pub sessions_shed: usize,
    pub cost_usd: f64,
    pub llm_calls: usize,
}

/// Aggregate serving metrics for one load run (BENCH json payload).
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ServeMetrics {
    pub sessions_submitted: usize,
    pub sessions_completed: usize,
    pub sessions_shed: usize,
    /// Fraction of submissions shed with a structured `Overloaded` error.
    pub shed_rate: f64,
    /// Virtual-clock session latency percentiles (submission → completion),
    /// admitted sessions only.
    pub p50_latency_secs: f64,
    pub p99_latency_secs: f64,
    /// Completed sessions per virtual-clock second.
    pub throughput_per_sec: f64,
    /// Jain's index over per-tenant completed-session service.
    pub fairness_jain: f64,
    pub per_tenant: Vec<TenantMetrics>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.99), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Unsorted input is fine.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn percentile_survives_nan_samples() {
        // 40 latencies, 6 of them NaN: a sort by `partial_cmp` treating NaN
        // as equal to everything is not a total order, and panics on this.
        let samples: Vec<f64> = (0..40)
            .map(|i| {
                if i % 7 == 3 {
                    f64::NAN
                } else {
                    f64::from(40 - i)
                }
            })
            .collect();
        let numbers = samples.iter().filter(|x| !x.is_nan()).count();
        assert_eq!(numbers, 34);
        // NaN sorts above every number, so the low ranks are the numbers.
        let mut want: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        want.sort_by(f64::total_cmp);
        assert_eq!(percentile(&samples, 0.5), want[19]);
        assert_eq!(percentile(&samples, 0.0), want[0]);
        assert!(percentile(&samples, 0.99).is_nan());
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[5.0]), 1.0);
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One tenant hogging everything: 1/n.
        let j = jain_fairness(&[4.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12, "{j}");
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn metrics_serialize() {
        let m = ServeMetrics {
            sessions_submitted: 10,
            sessions_completed: 8,
            sessions_shed: 2,
            shed_rate: 0.2,
            fairness_jain: 0.97,
            ..Default::default()
        };
        let j = serde_json::to_string(&m).unwrap();
        assert!(j.contains("\"shed_rate\":0.2"), "{j}");
        assert!(j.contains("fairness_jain"), "{j}");
    }
}
