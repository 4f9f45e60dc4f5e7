//! Scripted provider fault injection.
//!
//! The uniform `transient_failure_rate` in [`crate::sim::SimConfig`]
//! exercises retry paths but cannot model realistic provider misbehavior:
//! a single model going down for a window, brownouts where only a
//! fraction of calls fail, rate limiting with `retry-after` hints, client
//! timeouts, or malformed completions. A [`FaultPlan`] scripts those as
//! per-model windows on the **virtual clock**, so a fault scenario is as
//! deterministic and replayable as everything else in the substrate: the
//! same plan, seed, and pipeline always fail in exactly the same places.
//!
//! Faults are raised *before* the simulator records latency or usage, so
//! failed attempts bill nothing — the invariant the executors' ledger
//! reconciliation relies on. The one exception is [`FaultKind::Timeout`],
//! which advances the clock by the configured stall before erroring: a
//! timed-out call costs wall time even though it never returns tokens.

use crate::catalog::ModelId;
use crate::client::LlmError;
use crate::hash_unit;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What goes wrong inside a [`FaultWindow`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The provider errors with a generic transient failure.
    Outage,
    /// HTTP-429-style rejection carrying a `retry_after` hint in seconds.
    RateLimit { retry_after_secs: f64 },
    /// The call stalls for `stall_secs` of virtual time, then errors.
    Timeout { stall_secs: f64 },
    /// The provider returns garbage: surfaced as a malformed-output error.
    Malformed,
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::RateLimit { .. } => "ratelimit",
            FaultKind::Timeout { .. } => "timeout",
            FaultKind::Malformed => "malformed",
        }
    }
}

/// One scripted fault window for one model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// The model this window afflicts.
    pub model: ModelId,
    /// Window start on the virtual clock, inclusive, in seconds.
    pub start_secs: f64,
    /// Window end, exclusive, in seconds.
    pub end_secs: f64,
    /// What kind of fault calls in the window hit.
    pub kind: FaultKind,
    /// Probability a call inside the window faults: `1.0` is a hard
    /// outage, anything lower a brownout. Draws are seeded and keyed on
    /// a per-plan call counter, so brownouts are deterministic too.
    pub intensity: f64,
}

impl FaultWindow {
    fn contains(&self, now_secs: f64) -> bool {
        now_secs >= self.start_secs && now_secs < self.end_secs
    }
}

/// A seeded script of per-model fault windows.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for brownout draws (independent from the simulator seed so a
    /// fault scenario can be re-rolled without changing model answers).
    pub seed: u64,
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Add a window (builder style).
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Hard outage for `model` over `[start, end)`.
    pub fn outage(self, model: impl Into<ModelId>, start: f64, end: f64) -> Self {
        self.with_window(FaultWindow {
            model: model.into(),
            start_secs: start,
            end_secs: end,
            kind: FaultKind::Outage,
            intensity: 1.0,
        })
    }

    /// The fault a call to `model` at virtual time `now_secs` hits, if
    /// any. `draw` must be unique per call (the injector's counter) so
    /// brownout sampling is deterministic yet uncorrelated across calls.
    pub fn fault_for(&self, model: &ModelId, now_secs: f64, draw: u64) -> Option<&FaultWindow> {
        self.windows
            .iter()
            .filter(|w| &w.model == model && w.contains(now_secs))
            .find(|w| {
                w.intensity >= 1.0
                    || hash_unit(&[
                        &self.seed.to_string(),
                        "fault",
                        w.model.as_str(),
                        w.kind.name(),
                        &draw.to_string(),
                    ]) < w.intensity
            })
    }

    /// Parse a compact spec string:
    ///
    /// ```text
    /// gpt-4o:outage@30..1e18; gpt-4o-mini:ratelimit@0..120:retry=30;
    /// llama-3-70b:brownout@10..50:p=0.5; gpt-4o:timeout@5..25:stall=60;
    /// mixtral-8x7b:malformed@0..40:p=0.3
    /// ```
    ///
    /// Clauses are `model:kind@start..end` with optional `:p=<prob>`,
    /// `:retry=<secs>` (ratelimit) and `:stall=<secs>` (timeout) suffixes,
    /// joined by `;`. `brownout` is `outage` with `p` defaulting to 0.5.
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        let mut plan = FaultPlan {
            seed,
            windows: Vec::new(),
        };
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(':');
            let model = parts
                .next()
                .filter(|m| !m.is_empty())
                .ok_or_else(|| format!("missing model in clause {clause:?}"))?;
            let kind_and_range = parts
                .next()
                .ok_or_else(|| format!("missing kind@start..end in clause {clause:?}"))?;
            let (kind_name, range) = kind_and_range
                .split_once('@')
                .ok_or_else(|| format!("expected kind@start..end in clause {clause:?}"))?;
            let (start, end) = range
                .split_once("..")
                .ok_or_else(|| format!("expected start..end in clause {clause:?}"))?;
            let start: f64 = start
                .trim()
                .parse()
                .map_err(|_| format!("bad start {start:?} in clause {clause:?}"))?;
            let end: f64 = end
                .trim()
                .parse()
                .map_err(|_| format!("bad end {end:?} in clause {clause:?}"))?;

            let mut intensity: Option<f64> = None;
            let mut retry_after: Option<f64> = None;
            let mut stall: Option<f64> = None;
            for opt in parts {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got {opt:?}"))?;
                let v: f64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {key}"))?;
                match key.trim() {
                    "p" => intensity = Some(v),
                    "retry" => retry_after = Some(v),
                    "stall" => stall = Some(v),
                    other => return Err(format!("unknown option {other:?} in {clause:?}")),
                }
            }
            let (kind, default_intensity) = match kind_name.trim() {
                "outage" => (FaultKind::Outage, 1.0),
                "brownout" => (FaultKind::Outage, 0.5),
                "ratelimit" => (
                    FaultKind::RateLimit {
                        retry_after_secs: retry_after.unwrap_or(10.0),
                    },
                    1.0,
                ),
                "timeout" => (
                    FaultKind::Timeout {
                        stall_secs: stall.unwrap_or(30.0),
                    },
                    1.0,
                ),
                "malformed" => (FaultKind::Malformed, 1.0),
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            plan.windows.push(FaultWindow {
                model: model.into(),
                start_secs: start,
                end_secs: end,
                kind,
                intensity: intensity.unwrap_or(default_intensity).clamp(0.0, 1.0),
            });
        }
        Ok(plan)
    }

    /// Render back to the spec syntax accepted by [`FaultPlan::parse`].
    pub fn describe(&self) -> String {
        if self.windows.is_empty() {
            return "(no faults)".into();
        }
        self.windows
            .iter()
            .map(|w| {
                let mut s = format!(
                    "{}:{}@{}..{}",
                    w.model,
                    w.kind.name(),
                    w.start_secs,
                    w.end_secs
                );
                match w.kind {
                    FaultKind::RateLimit { retry_after_secs } => {
                        s.push_str(&format!(":retry={retry_after_secs}"));
                    }
                    FaultKind::Timeout { stall_secs } => {
                        s.push_str(&format!(":stall={stall_secs}"));
                    }
                    _ => {}
                }
                if w.intensity < 1.0 {
                    s.push_str(&format!(":p={}", w.intensity));
                }
                s
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Shared, swappable handle on the active [`FaultPlan`].
///
/// The simulator holds one and consults it per call; contexts expose a
/// clone so the REPL (`:faults`) and CLI (`--fault-plan`) can script
/// faults mid-session without rebuilding the client stack.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<RwLock<FaultPlan>>,
    /// Per-injector call counter driving brownout draws. Separate from
    /// the simulator's transient counter so an empty plan leaves legacy
    /// behavior untouched.
    draws: Arc<AtomicU64>,
    /// See [`Self::regime`].
    regime: Arc<AtomicU64>,
}

/// The next [`FaultInjector::regime`], unique in the process.
static NEXT_REGIME: AtomicU64 = AtomicU64::new(1);

fn fresh_regime() -> u64 {
    NEXT_REGIME.fetch_add(1, Ordering::Relaxed)
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new(FaultPlan::none())
    }
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            inner: Arc::new(RwLock::new(plan)),
            draws: Arc::new(AtomicU64::new(0)),
            regime: Arc::new(AtomicU64::new(fresh_regime())),
        }
    }

    /// Replace the active plan. This starts a new [`Self::regime`].
    pub fn set(&self, plan: FaultPlan) {
        *self.inner.write() = plan;
        self.regime.store(fresh_regime(), Ordering::Relaxed);
    }

    /// Names the plan in force: unique to this injector, and new with
    /// every [`Self::set`] or [`Self::clear`]. What a call lost to
    /// failures under one regime is no evidence about another, so a
    /// response cache hands that time on only within the regime that
    /// measured it.
    pub fn regime(&self) -> u64 {
        self.regime.load(Ordering::Relaxed)
    }

    /// Remove all scripted faults.
    pub fn clear(&self) {
        self.set(FaultPlan::none());
    }

    /// Snapshot of the active plan.
    pub fn plan(&self) -> FaultPlan {
        self.inner.read().clone()
    }

    pub fn is_active(&self) -> bool {
        !self.inner.read().is_empty()
    }

    /// Check the active plan for a fault afflicting `model` now. Returns
    /// the error to surface; [`FaultKind::Timeout`] stalls are charged by
    /// the caller (the clock lives there).
    ///
    /// The fast path (empty plan) takes a read lock and touches nothing
    /// else, so zero-fault runs stay byte-identical to pre-fault builds.
    pub fn check(&self, model: &ModelId, now_secs: f64) -> Result<(), InjectedFault> {
        let plan = self.inner.read();
        if plan.is_empty() {
            return Ok(());
        }
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        let Some(window) = plan.fault_for(model, now_secs, draw) else {
            return Ok(());
        };
        let (error, stall_secs) = match window.kind {
            FaultKind::Outage => (
                LlmError::Transient {
                    attempt: draw as usize,
                    reason: format!("scripted outage for {model}"),
                },
                0.0,
            ),
            FaultKind::RateLimit { retry_after_secs } => {
                // Don't hint past the end of the window: a client that
                // honors the hint should come back when service resumes.
                let hint = retry_after_secs.min((window.end_secs - now_secs).max(0.0));
                (
                    LlmError::RateLimited {
                        model: model.clone(),
                        retry_after_secs: hint,
                    },
                    0.0,
                )
            }
            FaultKind::Timeout { stall_secs } => (
                LlmError::Timeout {
                    model: model.clone(),
                    after_secs: stall_secs,
                },
                stall_secs,
            ),
            FaultKind::Malformed => (
                LlmError::MalformedOutput {
                    model: model.clone(),
                    reason: "truncated completion".into(),
                },
                0.0,
            ),
        };
        Err(InjectedFault { error, stall_secs })
    }
}

/// A fault the injector decided to raise: the error plus any virtual
/// time the call burned before failing (timeouts only).
#[derive(Clone, Debug)]
pub struct InjectedFault {
    pub error: LlmError,
    pub stall_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let inj = FaultInjector::default();
        for t in [0.0, 10.0, 1e9] {
            assert!(inj.check(&"gpt-4o".into(), t).is_ok());
        }
        assert!(!inj.is_active());
    }

    #[test]
    fn outage_window_faults_only_inside() {
        let inj = FaultInjector::new(FaultPlan::default().outage("gpt-4o", 10.0, 20.0));
        assert!(inj.check(&"gpt-4o".into(), 9.9).is_ok());
        let f = inj.check(&"gpt-4o".into(), 10.0).unwrap_err();
        assert!(matches!(f.error, LlmError::Transient { .. }));
        assert!(inj.check(&"gpt-4o".into(), 20.0).is_ok());
        // Other models are unaffected.
        assert!(inj.check(&"gpt-4o-mini".into(), 15.0).is_ok());
    }

    #[test]
    fn ratelimit_hint_clamped_to_window_end() {
        let plan = FaultPlan::parse("gpt-4o:ratelimit@0..30:retry=100", 1).unwrap();
        let inj = FaultInjector::new(plan);
        let f = inj.check(&"gpt-4o".into(), 25.0).unwrap_err();
        match f.error {
            LlmError::RateLimited {
                retry_after_secs, ..
            } => assert!((retry_after_secs - 5.0).abs() < 1e-9),
            other => panic!("expected RateLimited, got {other:?}"),
        }
    }

    #[test]
    fn timeout_reports_stall() {
        let plan = FaultPlan::parse("gpt-4o:timeout@0..10:stall=7", 1).unwrap();
        let inj = FaultInjector::new(plan);
        let f = inj.check(&"gpt-4o".into(), 5.0).unwrap_err();
        assert!((f.stall_secs - 7.0).abs() < 1e-9);
        assert!(matches!(f.error, LlmError::Timeout { .. }));
    }

    #[test]
    fn brownout_fails_a_fraction_of_calls() {
        let plan = FaultPlan::parse("gpt-4o:brownout@0..1000:p=0.5", 7).unwrap();
        let inj = FaultInjector::new(plan);
        let failures = (0..200)
            .filter(|_| inj.check(&"gpt-4o".into(), 5.0).is_err())
            .count();
        assert!((60..=140).contains(&failures), "failures {failures}");
    }

    #[test]
    fn brownout_is_deterministic_across_injectors() {
        let plan = FaultPlan::parse("gpt-4o:brownout@0..100:p=0.4", 9).unwrap();
        let run = || {
            let inj = FaultInjector::new(plan.clone());
            (0..50)
                .map(|_| inj.check(&"gpt-4o".into(), 1.0).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parse_round_trips() {
        let spec = "gpt-4o:outage@30..900; gpt-4o-mini:ratelimit@0..120:retry=30; \
                    llama-3-70b:outage@10..50:p=0.5; mixtral-8x7b:timeout@5..25:stall=60";
        let plan = FaultPlan::parse(spec, 3).unwrap();
        assert_eq!(plan.windows.len(), 4);
        let reparsed = FaultPlan::parse(&plan.describe(), 3).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("gpt-4o", 0).is_err());
        assert!(FaultPlan::parse("gpt-4o:meltdown@0..1", 0).is_err());
        assert!(FaultPlan::parse("gpt-4o:outage@zero..1", 0).is_err());
        assert!(FaultPlan::parse("gpt-4o:outage@0..1:speed=9", 0).is_err());
    }

    #[test]
    fn set_and_clear_swap_the_active_plan() {
        let inj = FaultInjector::default();
        inj.set(FaultPlan::default().outage("gpt-4o", 0.0, 1e9));
        assert!(inj.is_active());
        assert!(inj.check(&"gpt-4o".into(), 1.0).is_err());
        inj.clear();
        assert!(inj.check(&"gpt-4o".into(), 1.0).is_ok());
    }
}
