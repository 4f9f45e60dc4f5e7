//! Per-model health tracking and circuit breaking.
//!
//! Each model gets an independent fault domain with a classic three-state
//! breaker driven entirely by the **virtual clock**:
//!
//! ```text
//!            trip / rate threshold            cooldown elapses
//!   Closed ───────────────────────▶ Open ────────────────────▶ HalfOpen
//!     ▲                              ▲                            │
//!     │            probe succeeds    │    probe fails             │
//!     └──────────────────────────────┼────────────────────────────┘
//!                                    └──── (reopen, fresh cooldown)
//! ```
//!
//! Two mechanisms open a breaker:
//!
//! 1. **Retry exhaustion** ([`HealthTracker::trip`]): the retry layer burned
//!    every attempt against the model. This is the primary signal — it is
//!    deterministic and essentially immune to the background transient rate
//!    used in tests (P(exhaust) = rate^attempts).
//! 2. **Failure-rate window**: a sliding window of per-attempt outcomes;
//!    the breaker opens when the window holds at least
//!    [`BreakerConfig::min_failures`] failures at a failure rate of at
//!    least [`BreakerConfig::failure_rate`]. Defaults are deliberately
//!    conservative so modest transient rates never trip it.
//!
//! Rate-limit errors carry a `retry_after` hint; an opening breaker honors
//! it by extending the cooldown to at least the hint, so half-open probes
//! don't land while the provider is still shedding load.

use crate::catalog::ModelId;
use crate::client::LlmError;
use parking_lot::Mutex;
use pz_obs::{Layer, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Tuning knobs for the per-model breakers.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Sliding window length, in attempts.
    pub window: usize,
    /// Minimum failures in the window before the rate check can fire.
    pub min_failures: usize,
    /// Failure rate over the window at/above which the breaker opens.
    pub failure_rate: f64,
    /// Seconds an opened breaker stays open before allowing a probe.
    pub cooldown_secs: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            window: 16,
            min_failures: 12,
            failure_rate: 0.75,
            cooldown_secs: 30.0,
        }
    }
}

/// Breaker state for one model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BreakerState {
    /// Healthy: calls flow freely.
    Closed,
    /// Unhealthy: calls are refused until `until_secs` on the virtual clock.
    Open { until_secs: f64 },
    /// Cooling down: exactly one probe call is allowed through; its outcome
    /// decides between Closed and a fresh Open.
    HalfOpen,
}

impl BreakerState {
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

#[derive(Clone, Debug)]
struct ModelHealth {
    state: BreakerState,
    /// Sliding window of attempt outcomes, `true` = failure.
    window: VecDeque<bool>,
    failures_total: u64,
    successes_total: u64,
    trips: u64,
}

impl Default for ModelHealth {
    fn default() -> Self {
        Self {
            state: BreakerState::Closed,
            window: VecDeque::new(),
            failures_total: 0,
            successes_total: 0,
            trips: 0,
        }
    }
}

/// One row of [`HealthTracker::snapshot`], for display.
#[derive(Clone, Debug)]
pub struct BreakerSnapshot {
    pub model: ModelId,
    pub state: BreakerState,
    pub failures_total: u64,
    pub successes_total: u64,
    pub trips: u64,
    /// Failure rate over the current sliding window.
    pub window_failure_rate: f64,
}

struct Inner {
    models: BTreeMap<ModelId, ModelHealth>,
    tracer: Option<Tracer>,
}

/// Shared per-model health tracker. Cheap to clone; all clones observe the
/// same state, so the retry layer and both executors see one truth.
#[derive(Clone)]
pub struct HealthTracker {
    inner: Arc<Mutex<Inner>>,
    config: BreakerConfig,
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new(BreakerConfig::default())
    }
}

impl HealthTracker {
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                models: BTreeMap::new(),
                tracer: None,
            })),
            config,
        }
    }

    /// Attach a tracer; breaker transitions emit `llm.breaker.*` events.
    pub fn with_tracer(self, tracer: Tracer) -> Self {
        self.inner.lock().tracer = Some(tracer);
        self
    }

    pub fn config(&self) -> BreakerConfig {
        self.config
    }

    /// May a call to `model` proceed at virtual time `now_secs`? Handles
    /// the Open → HalfOpen transition when the cooldown has elapsed.
    /// Returns `Err(retry_in_secs)` while the breaker refuses calls.
    pub fn allow(&self, model: &ModelId, now_secs: f64) -> Result<(), f64> {
        let mut inner = self.inner.lock();
        let health = inner.models.entry(model.clone()).or_default();
        match health.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open { until_secs } => {
                if now_secs >= until_secs {
                    health.state = BreakerState::HalfOpen;
                    emit(&mut inner, model, "breaker_half_open", now_secs, &[]);
                    Ok(())
                } else {
                    Err(until_secs - now_secs)
                }
            }
        }
    }

    /// Is the breaker currently refusing calls (without side effects)?
    pub fn is_open(&self, model: &ModelId, now_secs: f64) -> bool {
        let inner = self.inner.lock();
        matches!(
            inner.models.get(model).map(|h| h.state),
            Some(BreakerState::Open { until_secs }) if now_secs < until_secs
        )
    }

    /// Record a successful attempt. A half-open probe succeeding closes
    /// the breaker and resets the window.
    pub fn record_success(&self, model: &ModelId, now_secs: f64) {
        let mut inner = self.inner.lock();
        let health = inner.models.entry(model.clone()).or_default();
        health.successes_total += 1;
        if health.state == BreakerState::HalfOpen {
            health.state = BreakerState::Closed;
            health.window.clear();
            emit(&mut inner, model, "breaker_closed", now_secs, &[]);
        } else {
            push_outcome(health, false, self.config.window);
        }
    }

    /// Record a failed attempt. A half-open probe failing reopens the
    /// breaker; otherwise the sliding-window rate check may open it.
    pub fn record_failure(&self, model: &ModelId, err: &LlmError, now_secs: f64) {
        let mut inner = self.inner.lock();
        let health = inner.models.entry(model.clone()).or_default();
        health.failures_total += 1;
        if health.state == BreakerState::HalfOpen {
            open(
                &mut inner,
                model,
                err,
                now_secs,
                &self.config,
                "half-open probe failed",
            );
            return;
        }
        push_outcome(health, true, self.config.window);
        let failures = health.window.iter().filter(|f| **f).count();
        let rate = failures as f64 / health.window.len().max(1) as f64;
        if matches!(health.state, BreakerState::Closed)
            && failures >= self.config.min_failures
            && rate >= self.config.failure_rate
        {
            open(
                &mut inner,
                model,
                err,
                now_secs,
                &self.config,
                "failure-rate window",
            );
        }
    }

    /// Force-open the breaker: the retry layer exhausted every attempt.
    pub fn trip(&self, model: &ModelId, err: &LlmError, now_secs: f64) {
        let mut inner = self.inner.lock();
        open(
            &mut inner,
            model,
            err,
            now_secs,
            &self.config,
            "retry exhausted",
        );
    }

    /// Current state for one model (Closed if never seen).
    pub fn state(&self, model: &ModelId) -> BreakerState {
        self.inner
            .lock()
            .models
            .get(model)
            .map(|h| h.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// One model's (failed, succeeded) attempt counts since the last reset,
    /// without a snapshot.
    pub fn outcomes(&self, model: &ModelId) -> (u64, u64) {
        let inner = self.inner.lock();
        inner
            .models
            .get(model)
            .map_or((0, 0), |h| (h.failures_total, h.successes_total))
    }

    /// Failed attempts since `since` (an earlier [`Self::outcomes`]), and
    /// the failure rate over the window outcomes from since then (0 if a
    /// trip cleared them).
    pub fn failures_since(&self, model: &ModelId, since: (u64, u64)) -> (u64, f64) {
        let inner = self.inner.lock();
        let Some(h) = inner.models.get(model) else {
            return (0, 0.0);
        };
        let failed = h.failures_total.saturating_sub(since.0);
        let attempts = failed + h.successes_total.saturating_sub(since.1);
        let recent = h.window.iter().rev().take(attempts as usize);
        let (n, bad) = recent.fold((0usize, 0usize), |(n, bad), f| {
            (n + 1, bad + usize::from(*f))
        });
        (failed, bad as f64 / n.max(1) as f64)
    }

    /// All tracked models, for `:breaker`-style display.
    pub fn snapshot(&self) -> Vec<BreakerSnapshot> {
        let inner = self.inner.lock();
        inner
            .models
            .iter()
            .map(|(model, h)| BreakerSnapshot {
                model: model.clone(),
                state: h.state,
                failures_total: h.failures_total,
                successes_total: h.successes_total,
                trips: h.trips,
                window_failure_rate: h.window.iter().filter(|f| **f).count() as f64
                    / h.window.len().max(1) as f64,
            })
            .collect()
    }

    /// Forget all health state (fresh run).
    pub fn reset(&self) {
        self.inner.lock().models.clear();
    }
}

fn push_outcome(health: &mut ModelHealth, failed: bool, window: usize) {
    health.window.push_back(failed);
    while health.window.len() > window.max(1) {
        health.window.pop_front();
    }
}

fn open(
    inner: &mut Inner,
    model: &ModelId,
    err: &LlmError,
    now_secs: f64,
    config: &BreakerConfig,
    reason: &str,
) {
    let cooldown = match err.retry_after_secs() {
        Some(hint) => config.cooldown_secs.max(hint),
        None => config.cooldown_secs,
    };
    let until_secs = now_secs + cooldown;
    let health = inner.models.entry(model.clone()).or_default();
    health.state = BreakerState::Open { until_secs };
    health.window.clear();
    health.trips += 1;
    emit(
        inner,
        model,
        "breaker_opened",
        now_secs,
        &[
            ("reason", reason.to_string()),
            ("until_secs", format!("{until_secs:.3}")),
        ],
    );
}

fn emit(inner: &mut Inner, model: &ModelId, event: &str, now_secs: f64, extra: &[(&str, String)]) {
    if let Some(tracer) = &inner.tracer {
        let mut attrs: Vec<(&str, String)> = vec![
            ("model", model.to_string()),
            ("at_secs", format!("{now_secs:.3}")),
        ];
        attrs.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
        tracer.event(Layer::Llm, event, &attrs);
        tracer.incr(&format!("llm.{event}"), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelId {
        "gpt-4o".into()
    }

    fn outage() -> LlmError {
        LlmError::Transient {
            attempt: 0,
            reason: "down".into(),
        }
    }

    #[test]
    fn starts_closed_and_allows() {
        let t = HealthTracker::default();
        assert_eq!(t.state(&model()), BreakerState::Closed);
        assert!(t.allow(&model(), 0.0).is_ok());
    }

    #[test]
    fn trip_opens_then_half_opens_after_cooldown() {
        let t = HealthTracker::default();
        t.trip(&model(), &outage(), 10.0);
        assert_eq!(t.state(&model()), BreakerState::Open { until_secs: 40.0 });
        // Refused with the remaining cooldown.
        assert_eq!(t.allow(&model(), 20.0), Err(20.0));
        // After cooldown: one probe allowed, state flips to HalfOpen.
        assert!(t.allow(&model(), 41.0).is_ok());
        assert_eq!(t.state(&model()), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_probe_success_closes() {
        let t = HealthTracker::default();
        t.trip(&model(), &outage(), 0.0);
        assert!(t.allow(&model(), 31.0).is_ok());
        t.record_success(&model(), 31.5);
        assert_eq!(t.state(&model()), BreakerState::Closed);
        assert!(t.allow(&model(), 32.0).is_ok());
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let t = HealthTracker::default();
        t.trip(&model(), &outage(), 0.0);
        assert!(t.allow(&model(), 31.0).is_ok());
        t.record_failure(&model(), &outage(), 31.5);
        assert_eq!(t.state(&model()), BreakerState::Open { until_secs: 61.5 });
    }

    #[test]
    fn open_honors_retry_after_hint() {
        let t = HealthTracker::default();
        let err = LlmError::RateLimited {
            model: model(),
            retry_after_secs: 120.0,
        };
        t.trip(&model(), &err, 0.0);
        assert_eq!(t.state(&model()), BreakerState::Open { until_secs: 120.0 });
    }

    #[test]
    fn rate_window_opens_only_past_threshold() {
        let t = HealthTracker::default();
        // 11 failures: below min_failures (12), stays closed.
        for i in 0..11 {
            t.record_failure(&model(), &outage(), i as f64);
        }
        assert_eq!(t.state(&model()), BreakerState::Closed);
        // 12th failure crosses min_failures at rate 1.0.
        t.record_failure(&model(), &outage(), 11.0);
        assert!(matches!(t.state(&model()), BreakerState::Open { .. }));
    }

    #[test]
    fn interleaved_successes_keep_rate_below_threshold() {
        let t = HealthTracker::default();
        // Alternate: rate never reaches 0.75.
        for i in 0..40 {
            if i % 2 == 0 {
                t.record_failure(&model(), &outage(), i as f64);
            } else {
                t.record_success(&model(), i as f64);
            }
        }
        assert_eq!(t.state(&model()), BreakerState::Closed);
    }

    #[test]
    fn models_are_independent_fault_domains() {
        let t = HealthTracker::default();
        t.trip(&model(), &outage(), 0.0);
        let other: ModelId = "gpt-4o-mini".into();
        assert!(t.allow(&other, 1.0).is_ok());
        assert_eq!(t.state(&other), BreakerState::Closed);
    }

    #[test]
    fn clones_share_state() {
        let t = HealthTracker::default();
        let u = t.clone();
        t.trip(&model(), &outage(), 0.0);
        assert!(u.is_open(&model(), 1.0));
    }

    #[test]
    fn snapshot_reports_counts() {
        let t = HealthTracker::default();
        t.record_success(&model(), 0.0);
        t.record_failure(&model(), &outage(), 1.0);
        t.trip(&model(), &outage(), 2.0);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].successes_total, 1);
        assert_eq!(snap[0].failures_total, 1);
        assert_eq!(snap[0].trips, 1);
        assert_eq!(snap[0].state.name(), "open");
    }

    #[test]
    fn tracer_records_breaker_events() {
        use crate::clock::VirtualClock;
        let clock = VirtualClock::new();
        let tracer = Tracer::new(Arc::new(clock));
        let t = HealthTracker::default().with_tracer(tracer.clone());
        t.trip(&model(), &outage(), 0.0);
        assert!(t.allow(&model(), 31.0).is_ok()); // -> half-open
        t.record_success(&model(), 31.0); // -> closed
        assert_eq!(tracer.counter("llm.breaker_opened"), 1);
        assert_eq!(tracer.counter("llm.breaker_half_open"), 1);
        assert_eq!(tracer.counter("llm.breaker_closed"), 1);
    }

    #[test]
    fn reset_clears_state() {
        let t = HealthTracker::default();
        t.trip(&model(), &outage(), 0.0);
        t.reset();
        assert_eq!(t.state(&model()), BreakerState::Closed);
        assert!(t.snapshot().is_empty());
    }
}
