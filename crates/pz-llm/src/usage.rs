//! Token and dollar accounting.
//!
//! Figure 5 of the paper shows per-pipeline cost and runtime summaries; the
//! ledger here is the substrate that makes those numbers available: every
//! simulated model call records its token usage and cost, tagged by model.

use crate::catalog::ModelId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Token counts for a single request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Usage {
    pub input_tokens: usize,
    pub output_tokens: usize,
}

impl Usage {
    pub fn new(input_tokens: usize, output_tokens: usize) -> Self {
        Self {
            input_tokens,
            output_tokens,
        }
    }

    pub fn total_tokens(&self) -> usize {
        self.input_tokens + self.output_tokens
    }
}

impl std::ops::Add for Usage {
    type Output = Usage;
    fn add(self, rhs: Usage) -> Usage {
        Usage {
            input_tokens: self.input_tokens + rhs.input_tokens,
            output_tokens: self.output_tokens + rhs.output_tokens,
        }
    }
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, rhs: Usage) {
        self.input_tokens += rhs.input_tokens;
        self.output_tokens += rhs.output_tokens;
    }
}

/// What model calls cost the run that made them: calls, tokens, dollars,
/// modelled latency, and the time their failed attempts lost first. Counts
/// are `f64`, so one input's share of a batched call is one too. A cache
/// entry keeps the share of the call that filled it, and a hit hands that
/// share on instead of billing anything.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallShare {
    pub calls: f64,
    pub input_tokens: f64,
    pub output_tokens: f64,
    pub cost_usd: f64,
    pub latency_secs: f64,
    pub stalled_secs: f64,
}

impl CallShare {
    /// `1/n` of one call that billed `usage`, `cost_usd` and `latency_secs`.
    pub fn of_call(usage: Usage, cost_usd: f64, latency_secs: f64, n: usize) -> Self {
        let n = n.max(1) as f64;
        Self {
            calls: 1.0 / n,
            input_tokens: usage.input_tokens as f64 / n,
            output_tokens: usage.output_tokens as f64 / n,
            cost_usd: cost_usd / n,
            latency_secs: latency_secs / n,
            stalled_secs: 0.0,
        }
    }

    /// Field by field, `f` of this and `other`.
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        Self {
            calls: f(self.calls, other.calls),
            input_tokens: f(self.input_tokens, other.input_tokens),
            output_tokens: f(self.output_tokens, other.output_tokens),
            cost_usd: f(self.cost_usd, other.cost_usd),
            latency_secs: f(self.latency_secs, other.latency_secs),
            stalled_secs: f(self.stalled_secs, other.stalled_secs),
        }
    }

    pub fn add(&mut self, other: &Self) {
        *self = self.zip(*other, |a, b| a + b);
    }

    /// What accrued since `before`, an earlier reading of the same totals.
    pub fn since(self, before: Self) -> Self {
        self.zip(before, |now, then| now - then)
    }
}

/// Per-model accumulated usage.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelUsage {
    pub requests: usize,
    pub usage: Usage,
    pub cost_usd: f64,
    pub latency_secs: f64,
    /// Lookups served from a response cache (no request was issued).
    pub cache_hits: usize,
    /// Lookups that missed the cache and became real requests.
    pub cache_misses: usize,
}

impl ModelUsage {
    /// Fraction of cache lookups served from cache; 0.0 when uncached.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Hard spending limits for a ledger — typically one tenant's budget in a
/// multi-tenant serving deployment. All limits are optional; the default is
/// unlimited, which keeps every existing single-run ledger byte-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Quota {
    /// Maximum total dollar spend across all models.
    pub max_cost_usd: Option<f64>,
    /// Maximum request count across all models.
    pub max_requests: Option<usize>,
    /// Maximum total tokens (input + output) across all models.
    pub max_tokens: Option<usize>,
}

impl Quota {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Dollar budget only.
    pub fn cost_limit(max_cost_usd: f64) -> Self {
        Self {
            max_cost_usd: Some(max_cost_usd),
            ..Self::default()
        }
    }

    /// Request-count budget only.
    pub fn request_limit(max_requests: usize) -> Self {
        Self {
            max_requests: Some(max_requests),
            ..Self::default()
        }
    }

    /// Whether any dimension is actually bounded.
    pub fn is_limited(&self) -> bool {
        self.max_cost_usd.is_some() || self.max_requests.is_some() || self.max_tokens.is_some()
    }
}

/// A refused [`UsageLedger::try_charge`]: admitting the call would cross
/// the ledger's quota. Charging is all-or-nothing — a refused call bills
/// nothing (no request, no tokens, no dollars).
#[derive(Clone, Debug, PartialEq)]
pub struct QuotaExceeded {
    /// Which dimension ran out, human-readable (e.g. `cost $0.0500 +
    /// $0.0121 > budget $0.0600`).
    pub reason: String,
    /// Dollars left under the cost cap at refusal time, if one is set.
    pub remaining_cost_usd: Option<f64>,
    /// Requests left under the request cap at refusal time, if one is set.
    pub remaining_requests: Option<usize>,
}

impl std::fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

#[derive(Debug, Default)]
struct LedgerInner {
    models: BTreeMap<ModelId, ModelUsage>,
    quota: Quota,
}

impl LedgerInner {
    fn charge(&mut self, model: &ModelId, usage: Usage, cost_usd: f64, latency_secs: f64) {
        let entry = self.models.entry(model.clone()).or_default();
        entry.requests += 1;
        entry.usage += usage;
        entry.cost_usd += cost_usd;
        entry.latency_secs += latency_secs;
    }
}

/// Thread-safe ledger of all model usage. Clones share state.
#[derive(Clone, Debug, Default)]
pub struct UsageLedger {
    inner: Arc<Mutex<LedgerInner>>,
}

impl UsageLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ledger with a hard quota installed from the start.
    pub fn with_quota(quota: Quota) -> Self {
        let ledger = Self::new();
        ledger.set_quota(quota);
        ledger
    }

    /// Install (or replace) the quota. Applies to subsequent
    /// [`Self::try_charge`] calls; already-recorded usage is kept.
    pub fn set_quota(&self, quota: Quota) {
        self.inner.lock().quota = quota;
    }

    /// The currently installed quota.
    pub fn quota(&self) -> Quota {
        self.inner.lock().quota
    }

    /// Record one request against `model`.
    pub fn record(&self, model: &ModelId, usage: Usage, cost_usd: f64, latency_secs: f64) {
        self.inner
            .lock()
            .charge(model, usage, cost_usd, latency_secs);
    }

    /// Atomically check the quota and bill one request against `model`.
    ///
    /// The check and the charge happen under one lock, so two sessions
    /// racing the last unit of budget cannot both slip past it: exactly one
    /// wins, the other is refused and bills *nothing*. With no quota
    /// installed this is identical to [`Self::record`].
    pub fn try_charge(
        &self,
        model: &ModelId,
        usage: Usage,
        cost_usd: f64,
        latency_secs: f64,
    ) -> Result<(), QuotaExceeded> {
        let mut inner = self.inner.lock();
        let quota = inner.quota;
        if quota.is_limited() {
            let spent_cost: f64 = inner.models.values().map(|m| m.cost_usd).sum();
            let spent_requests: usize = inner.models.values().map(|m| m.requests).sum();
            let spent_tokens: usize = inner.models.values().map(|m| m.usage.total_tokens()).sum();
            let refuse = |reason: String| QuotaExceeded {
                reason,
                remaining_cost_usd: quota.max_cost_usd.map(|c| (c - spent_cost).max(0.0)),
                remaining_requests: quota.max_requests.map(|r| r.saturating_sub(spent_requests)),
            };
            if let Some(cap) = quota.max_cost_usd {
                if spent_cost + cost_usd > cap + 1e-12 {
                    return Err(refuse(format!(
                        "cost ${spent_cost:.4} + ${cost_usd:.4} > budget ${cap:.4}"
                    )));
                }
            }
            if let Some(cap) = quota.max_requests {
                if spent_requests + 1 > cap {
                    return Err(refuse(format!(
                        "requests {spent_requests} + 1 > budget {cap}"
                    )));
                }
            }
            if let Some(cap) = quota.max_tokens {
                if spent_tokens + usage.total_tokens() > cap {
                    return Err(refuse(format!(
                        "tokens {spent_tokens} + {} > budget {cap}",
                        usage.total_tokens()
                    )));
                }
            }
        }
        inner.charge(model, usage, cost_usd, latency_secs);
        Ok(())
    }

    /// Record `n` cache hits against `model` (lookups served without a
    /// request).
    pub fn record_cache_hits(&self, model: &ModelId, n: usize) {
        if n > 0 {
            self.inner
                .lock()
                .models
                .entry(model.clone())
                .or_default()
                .cache_hits += n;
        }
    }

    /// Record `n` cache misses against `model` (lookups that became real
    /// requests).
    pub fn record_cache_misses(&self, model: &ModelId, n: usize) {
        if n > 0 {
            self.inner
                .lock()
                .models
                .entry(model.clone())
                .or_default()
                .cache_misses += n;
        }
    }

    /// Total cache hits across all models.
    pub fn total_cache_hits(&self) -> usize {
        self.inner
            .lock()
            .models
            .values()
            .map(|m| m.cache_hits)
            .sum()
    }

    /// Total cache misses across all models.
    pub fn total_cache_misses(&self) -> usize {
        self.inner
            .lock()
            .models
            .values()
            .map(|m| m.cache_misses)
            .sum()
    }

    /// Total dollar cost across all models.
    pub fn total_cost_usd(&self) -> f64 {
        self.inner.lock().models.values().map(|m| m.cost_usd).sum()
    }

    /// Total request count across all models.
    pub fn total_requests(&self) -> usize {
        self.inner.lock().models.values().map(|m| m.requests).sum()
    }

    /// Total token usage across all models.
    pub fn total_usage(&self) -> Usage {
        self.inner
            .lock()
            .models
            .values()
            .fold(Usage::default(), |acc, m| acc + m.usage)
    }

    /// Sum of modelled latencies (i.e. total model-time; an upper bound on
    /// pipeline runtime when calls are sequential).
    pub fn total_latency_secs(&self) -> f64 {
        self.inner
            .lock()
            .models
            .values()
            .map(|m| m.latency_secs)
            .sum()
    }

    /// Snapshot of the per-model breakdown (sorted by model id).
    pub fn by_model(&self) -> Vec<(ModelId, ModelUsage)> {
        self.inner
            .lock()
            .models
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Reset all counters. The quota is kept: between-experiment resets
    /// must not silently lift a tenant's budget.
    pub fn reset(&self) {
        self.inner.lock().models.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let l = UsageLedger::new();
        let m: ModelId = "gpt-4o".into();
        l.record(&m, Usage::new(100, 10), 0.001, 0.5);
        l.record(&m, Usage::new(200, 20), 0.002, 0.7);
        let by = l.by_model();
        assert_eq!(by.len(), 1);
        assert_eq!(by[0].1.requests, 2);
        assert_eq!(by[0].1.usage, Usage::new(300, 30));
        assert!((by[0].1.cost_usd - 0.003).abs() < 1e-12);
        assert!((l.total_latency_secs() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn totals_span_models() {
        let l = UsageLedger::new();
        l.record(&"a".into(), Usage::new(1, 2), 0.5, 0.1);
        l.record(&"b".into(), Usage::new(3, 4), 0.25, 0.2);
        assert_eq!(l.total_usage(), Usage::new(4, 6));
        assert!((l.total_cost_usd() - 0.75).abs() < 1e-12);
        assert_eq!(l.total_requests(), 2);
    }

    #[test]
    fn clones_share_state() {
        let l = UsageLedger::new();
        let l2 = l.clone();
        l.record(&"a".into(), Usage::new(5, 5), 0.1, 0.0);
        assert_eq!(l2.total_requests(), 1);
    }

    #[test]
    fn reset_clears() {
        let l = UsageLedger::new();
        l.record(&"a".into(), Usage::new(5, 5), 0.1, 0.0);
        l.reset();
        assert_eq!(l.total_requests(), 0);
        assert_eq!(l.total_cost_usd(), 0.0);
    }

    #[test]
    fn cache_counts_per_model() {
        let l = UsageLedger::new();
        let m: ModelId = "gpt-4o".into();
        l.record_cache_misses(&m, 2);
        l.record_cache_hits(&m, 6);
        l.record_cache_hits(&"gpt-4o-mini".into(), 1);
        let by = l.by_model();
        assert_eq!(by[0].1.cache_hits, 6);
        assert_eq!(by[0].1.cache_misses, 2);
        assert!((by[0].1.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(l.total_cache_hits(), 7);
        assert_eq!(l.total_cache_misses(), 2);
        // Cache bookkeeping never counts as a request.
        assert_eq!(l.total_requests(), 0);
        // Zero-count records are no-ops (no entry churn).
        l.record_cache_hits(&"untouched".into(), 0);
        assert_eq!(l.by_model().len(), 2);
    }

    #[test]
    fn usage_add() {
        assert_eq!(Usage::new(1, 2) + Usage::new(10, 20), Usage::new(11, 22));
        assert_eq!(Usage::new(3, 4).total_tokens(), 7);
    }

    #[test]
    fn try_charge_without_quota_is_record() {
        let l = UsageLedger::new();
        assert!(l
            .try_charge(&"m".into(), Usage::new(1, 1), 0.1, 0.2)
            .is_ok());
        assert_eq!(l.total_requests(), 1);
        assert!(!l.quota().is_limited());
    }

    #[test]
    fn quota_refusal_bills_nothing() {
        let l = UsageLedger::with_quota(Quota::cost_limit(0.05));
        l.try_charge(&"m".into(), Usage::new(10, 5), 0.04, 1.0)
            .unwrap();
        let err = l
            .try_charge(&"m".into(), Usage::new(10, 5), 0.04, 1.0)
            .unwrap_err();
        assert!(err.reason.contains("budget"), "{}", err.reason);
        assert!((err.remaining_cost_usd.unwrap() - 0.01).abs() < 1e-9);
        // The refused call left no trace: one request, $0.04, 15 tokens.
        assert_eq!(l.total_requests(), 1);
        assert!((l.total_cost_usd() - 0.04).abs() < 1e-12);
        assert_eq!(l.total_usage().total_tokens(), 15);
        // A smaller call that fits still goes through.
        assert!(l
            .try_charge(&"m".into(), Usage::new(1, 0), 0.005, 0.1)
            .is_ok());
    }

    #[test]
    fn quota_dimensions_requests_and_tokens() {
        let l = UsageLedger::with_quota(Quota::request_limit(1));
        assert!(l
            .try_charge(&"m".into(), Usage::new(1, 1), 0.0, 0.0)
            .is_ok());
        let err = l
            .try_charge(&"m".into(), Usage::new(1, 1), 0.0, 0.0)
            .unwrap_err();
        assert_eq!(err.remaining_requests, Some(0));

        let l = UsageLedger::with_quota(Quota {
            max_tokens: Some(10),
            ..Default::default()
        });
        assert!(l
            .try_charge(&"m".into(), Usage::new(6, 2), 0.0, 0.0)
            .is_ok());
        assert!(l
            .try_charge(&"m".into(), Usage::new(2, 1), 0.0, 0.0)
            .is_err());
    }

    #[test]
    fn reset_keeps_quota() {
        let l = UsageLedger::with_quota(Quota::request_limit(1));
        l.try_charge(&"m".into(), Usage::new(1, 1), 0.0, 0.0)
            .unwrap();
        l.reset();
        assert_eq!(l.quota(), Quota::request_limit(1));
        // Budget is re-usable after a reset (counters cleared)...
        l.try_charge(&"m".into(), Usage::new(1, 1), 0.0, 0.0)
            .unwrap();
        // ...but still enforced.
        assert!(l
            .try_charge(&"m".into(), Usage::new(1, 1), 0.0, 0.0)
            .is_err());
    }

    /// The satellite regression: two threads race a 1-call budget through
    /// the atomic check-and-bill; exactly one may win. A check-then-record
    /// API would let both observe "0 spent" and both bill.
    #[test]
    fn try_charge_race_exactly_one_wins() {
        for _ in 0..64 {
            let l = UsageLedger::with_quota(Quota::request_limit(1));
            let barrier = std::sync::Barrier::new(2);
            let wins: usize = std::thread::scope(|s| {
                let mut handles = Vec::new();
                for _ in 0..2 {
                    let l = l.clone();
                    let barrier = &barrier;
                    handles.push(s.spawn(move || {
                        barrier.wait();
                        l.try_charge(&"m".into(), Usage::new(1, 1), 0.01, 0.1)
                            .is_ok() as usize
                    }));
                }
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(wins, 1, "exactly one racer may pass the 1-call budget");
            assert_eq!(l.total_requests(), 1);
            assert!((l.total_cost_usd() - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn concurrent_records() {
        let l = UsageLedger::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = l.clone();
                s.spawn(move || {
                    for _ in 0..250 {
                        l.record(&"m".into(), Usage::new(1, 1), 0.001, 0.01);
                    }
                });
            }
        });
        assert_eq!(l.total_requests(), 1000);
        assert_eq!(l.total_usage(), Usage::new(1000, 1000));
    }
}
