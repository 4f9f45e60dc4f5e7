//! Runtime adaptive re-optimization: re-cost the *remaining* plan suffix
//! while it executes and repair it in place when reality diverges from the
//! estimate.
//!
//! The optimizer prices plans once, up front, from catalog priors. The
//! [`AdaptiveController`] closes the loop at runtime: it accumulates
//! per-model observations (records processed, wall-clock seconds on the
//! virtual clock, ledger dollars) against the per-operator predictions the
//! optimizer would make for the same work, and consults the circuit-breaker
//! health tracker plus scripted fault-window pressure. When a model's
//! observed drift ratio or provider health crosses a configured threshold,
//! the controller re-runs costing over the unexecuted suffix with the
//! degraded model's observed slowdown priced in, and — when a healthy
//! substitute prices out cheaper — emits a plan repair: a
//! champion/challenger switch that swaps the stage onto the substitute.
//! This generalizes `exec/failover.rs` from "model died" to "model is
//! degraded or not worth its price".
//!
//! Actuation differs per executor:
//! - **streaming**: [`AdaptiveController::challenge`] runs before each
//!   batch; a repair sticky-swaps the stage's active operator mid-stream
//!   (earlier batches already streamed downstream on the old model).
//! - **materializing**: [`AdaptiveController::repair_suffix`] runs between
//!   operators; a repair rewrites not-yet-executed operators in the plan.
//!
//! Determinism: every decision is a pure function of virtual-clock time,
//! deterministic ledger/breaker/fault state, and the seeded plan — no
//! wall-clock or randomness — so adaptive runs replay byte-identically.
//! When disabled (the default) the controller is never constructed and
//! execution is byte-invisible relative to pre-adaptive builds
//! (differential-tested).
//!
//! Observed time is attributed by *clock delta minus other stages' billed
//! latency*: fault stalls and retry backoff advance the clock without ever
//! touching the ledger (failed calls bill nothing), so ledger latency alone
//! is blind to brownouts — the clock delta is the only signal that sees
//! them.

use crate::context::PzContext;
use crate::exec::failover::{self, FailoverRank};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::optimizer::cost::{estimate_plan_detailed, CostContext, OperatorEstimate};
use parking_lot::Mutex;
use pz_llm::ModelId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Ratio ceiling kept finite so reports survive JSON round-trips
/// (serde_json renders non-finite floats as `null`).
const RATIO_CAP: f64 = 1e6;

/// Thresholds and limits for the adaptive controller. Disabled by default;
/// `AdaptiveConfig::on()` enables it with stock thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Master switch. Off = controller never constructed, byte-invisible.
    pub enabled: bool,
    /// Repair when observed seconds per record exceed the estimate by this
    /// factor (accumulated per model, so stalls amortize over records).
    pub time_drift_threshold: f64,
    /// Repair when observed dollars per record exceed the estimate by this
    /// factor.
    pub cost_drift_threshold: f64,
    /// Repair when a model's sliding-window failure rate (or an active
    /// scripted fault window's intensity, corroborated by at least one
    /// observed failure) reaches this rate — deliberately below the
    /// breaker's trip rate, so adaptation fires on brownouts the breaker
    /// rides out.
    pub health_failure_rate: f64,
    /// Minimum records observed on a model before drift ratios count
    /// (health triggers are exempt — a dying provider needs no sample).
    pub min_records: usize,
    /// Ceiling on repairs per run, guarding against oscillation.
    pub max_repairs: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            time_drift_threshold: 3.0,
            cost_drift_threshold: 3.0,
            health_failure_rate: 0.34,
            min_records: 2,
            max_repairs: 4,
        }
    }
}

impl AdaptiveConfig {
    /// Enabled with default thresholds.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

/// One plan repair, recorded in `ExecutionStats::adaptive` and mirrored by
/// an `exec.replan` observability event.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveReport {
    /// Index of the repaired operator in the physical plan.
    pub operator_index: usize,
    pub operator: String,
    pub from_model: String,
    pub to_model: String,
    /// Which threshold fired: `time drift`, `cost drift`, or
    /// `provider health`.
    pub trigger: String,
    /// The observed ratio/rate that crossed the threshold (capped finite).
    pub observed_ratio: f64,
    /// The threshold it crossed.
    pub threshold: f64,
    /// Re-costed suffix seconds if left on the degraded model (with its
    /// observed slowdown priced in).
    pub est_suffix_secs_before: f64,
    /// Re-costed suffix seconds on the repaired plan.
    pub est_suffix_secs_after: f64,
    /// Records the repair still applies to.
    pub records_remaining: usize,
    /// Virtual-clock time of the decision.
    pub at_secs: f64,
}

/// Per-model accumulator: observed work next to what the optimizer would
/// have predicted for exactly that many records.
#[derive(Clone, Copy, Default)]
struct ModelObs {
    records: usize,
    obs_secs: f64,
    obs_cost: f64,
    est_secs: f64,
    est_cost: f64,
}

#[derive(Default)]
struct AdaptiveState {
    models: BTreeMap<ModelId, ModelObs>,
    /// Records observed entering each operator (streaming uses this to
    /// size the remaining-work estimate).
    op_records: Vec<usize>,
    /// Models already demoted this run; never swapped back to (sticky).
    demoted: Vec<ModelId>,
    reports: Vec<AdaptiveReport>,
}

/// `obs/est` with zero guards: both ~0 → 1.0 (no evidence of drift), est ~0
/// with real obs → capped blow-up. Always finite.
fn capped_ratio(obs: f64, est: f64) -> f64 {
    const EPS: f64 = 1e-12;
    if obs.abs() < EPS && est.abs() < EPS {
        return 1.0;
    }
    if est.abs() < EPS {
        return RATIO_CAP;
    }
    (obs / est).min(RATIO_CAP)
}

/// The runtime adaptation layer. Constructed per run (only when enabled),
/// shared by all stages in streaming mode.
pub struct AdaptiveController {
    config: AdaptiveConfig,
    rank: FailoverRank,
    /// Baseline per-operator estimates for the plan as launched (serial,
    /// unpipelined: per-record terms the accumulators can scale).
    estimates: Vec<OperatorEstimate>,
    cost_ctx: CostContext,
    /// Scan dataset prepended to suffix plans so re-costing sees a
    /// cardinality.
    dataset: String,
    state: Mutex<AdaptiveState>,
}

impl AdaptiveController {
    /// Build a controller for `plan`, or `None` when disabled or the plan
    /// cannot be costed (no scan / unsampleable source) — adaptation then
    /// silently stands down rather than failing the run. Construction
    /// touches no clock, ledger, or trace state.
    pub fn from_plan(
        ctx: &PzContext,
        plan: &PhysicalPlan,
        config: AdaptiveConfig,
        rank: FailoverRank,
    ) -> Option<Self> {
        if !config.enabled {
            return None;
        }
        let dataset = plan.ops.iter().find_map(|op| match op {
            PhysicalOp::Scan { dataset } => Some(dataset.clone()),
            _ => None,
        })?;
        let cost_ctx = CostContext::from_physical_plan(ctx, plan).ok()?;
        let estimates = estimate_plan_detailed(plan, &cost_ctx, false).1;
        Some(Self {
            config,
            rank,
            estimates,
            cost_ctx,
            dataset,
            state: Mutex::new(AdaptiveState {
                op_records: vec![0; plan.ops.len()],
                ..AdaptiveState::default()
            }),
        })
    }

    /// Record one observation: operator `op_index` processed `records`
    /// input records on `model`, taking `elapsed_secs` of attributed
    /// virtual-clock time and `cost_usd` of ledger spend. The matching
    /// estimate (records × the operator's predicted per-record time/cost)
    /// accrues alongside, so drift is always observed-vs-predicted for the
    /// *same* work.
    pub fn observe(
        &self,
        op_index: usize,
        model: Option<&ModelId>,
        records: usize,
        elapsed_secs: f64,
        cost_usd: f64,
    ) {
        if records == 0 {
            return;
        }
        let mut st = self.state.lock();
        if let Some(slot) = st.op_records.get_mut(op_index) {
            *slot += records;
        }
        let Some(model) = model else { return };
        let Some(est) = self.estimates.get(op_index) else {
            return;
        };
        let per_rec = |total: f64| {
            if est.input_cardinality > 0.0 {
                total / est.input_cardinality
            } else {
                0.0
            }
        };
        let (per_secs, per_cost) = (per_rec(est.time_secs), per_rec(est.cost_usd));
        let m = st.models.entry(model.clone()).or_default();
        m.records += records;
        m.obs_secs += elapsed_secs;
        m.obs_cost += cost_usd;
        m.est_secs += records as f64 * per_secs;
        m.est_cost += records as f64 * per_cost;
    }

    /// Whether `model` is currently degraded: returns the trigger name, the
    /// observed ratio/rate, and the threshold it crossed.
    fn trigger(
        &self,
        st: &AdaptiveState,
        ctx: &PzContext,
        model: &ModelId,
        now: f64,
    ) -> Option<(&'static str, f64, f64)> {
        if let Some(obs) = st.models.get(model) {
            if obs.records >= self.config.min_records {
                let t = capped_ratio(obs.obs_secs, obs.est_secs);
                if t >= self.config.time_drift_threshold {
                    return Some(("time drift", t, self.config.time_drift_threshold));
                }
                let c = capped_ratio(obs.obs_cost, obs.est_cost);
                if c >= self.config.cost_drift_threshold {
                    return Some(("cost drift", c, self.config.cost_drift_threshold));
                }
            }
        }
        let threshold = self.config.health_failure_rate;
        if ctx.health.is_open(model, now) {
            return Some(("provider health", 1.0, threshold));
        }
        let snap = ctx.health.snapshot();
        let row = snap.iter().find(|s| &s.model == model);
        if let Some(r) = row {
            if r.failures_total >= 2 && r.window_failure_rate >= threshold {
                return Some(("provider health", r.window_failure_rate, threshold));
            }
        }
        // Scripted fault pressure: an active window hot enough to matter,
        // corroborated by at least one failure the breaker actually saw
        // (so a window that never bites never triggers).
        if row.is_some_and(|r| r.failures_total >= 1) {
            let plan = ctx.faults.plan();
            if let Some(w) = plan.windows.iter().find(|w| {
                &w.model == model
                    && now >= w.start_secs
                    && now < w.end_secs
                    && w.intensity >= threshold
            }) {
                return Some(("provider health", w.intensity, threshold));
            }
        }
        None
    }

    /// Multiplier applied to a model's estimated time when re-costing:
    /// its observed drift ratio (≥ 1), escalated to at least the time
    /// threshold while a health trigger is live (a browning-out provider
    /// will keep stalling even if the drift sample is still thin).
    fn eff_ratio(&self, st: &AdaptiveState, ctx: &PzContext, model: &ModelId, now: f64) -> f64 {
        let observed = st
            .models
            .get(model)
            .filter(|o| o.records > 0)
            .map_or(1.0, |o| capped_ratio(o.obs_secs, o.est_secs));
        if self.trigger(st, ctx, model, now).is_some() {
            observed.max(self.config.time_drift_threshold)
        } else {
            observed.max(1.0)
        }
    }

    /// Re-cost `suffix` as if fed `records` input records: a synthetic scan
    /// supplies the cardinality, then the optimizer's own estimator runs
    /// unchanged. Returns per-operator rows aligned with `suffix`.
    fn suffix_estimate(&self, suffix: &[PhysicalOp], records: usize) -> Vec<OperatorEstimate> {
        let mut ops = Vec::with_capacity(suffix.len() + 1);
        ops.push(PhysicalOp::Scan {
            dataset: self.dataset.clone(),
        });
        ops.extend(suffix.iter().cloned());
        let mut cctx = self.cost_ctx.clone();
        cctx.input_cardinality = records.max(1) as f64;
        let (_, rows) = estimate_plan_detailed(&PhysicalPlan { ops }, &cctx, false);
        rows.into_iter().skip(1).collect()
    }

    /// Total estimated seconds for `suffix`, each operator scaled by its
    /// model's effective slowdown.
    fn scored_secs(
        &self,
        st: &AdaptiveState,
        ctx: &PzContext,
        suffix: &[PhysicalOp],
        records: usize,
        now: f64,
    ) -> f64 {
        self.suffix_estimate(suffix, records)
            .iter()
            .zip(suffix)
            .map(|(row, op)| {
                let slow = op.model().map_or(1.0, |m| self.eff_ratio(st, ctx, m, now));
                row.time_secs * slow
            })
            .sum()
    }

    /// Pick the best healthy, not-yet-demoted, not-itself-degraded
    /// substitute for `op`.
    fn substitute(
        &self,
        st: &AdaptiveState,
        ctx: &PzContext,
        op: &PhysicalOp,
        now: f64,
    ) -> Option<ModelId> {
        failover::candidates(&ctx.catalog, &ctx.health, op, self.rank, now)
            .into_iter()
            .find(|c| !st.demoted.contains(c) && self.trigger(st, ctx, c, now).is_none())
    }

    /// Streaming actuation: called before each batch with the stage's
    /// active operator. When the operator's model is degraded and a
    /// substitute re-costs cheaper for the records still expected, records
    /// the repair and returns the substitute — the stage sticky-swaps onto
    /// it.
    pub fn challenge(&self, ctx: &PzContext, op: &PhysicalOp, op_index: usize) -> Option<ModelId> {
        if !failover::swappable(op) {
            return None;
        }
        let model = op.model().cloned()?;
        let mut st = self.state.lock();
        if st.reports.len() >= self.config.max_repairs {
            return None;
        }
        let now = ctx.clock.now_secs();
        let (trig, ratio, threshold) = self.trigger(&st, ctx, &model, now)?;
        let to = self.substitute(&st, ctx, op, now)?;
        let seen = st.op_records.get(op_index).copied().unwrap_or(0);
        let est_in = self
            .estimates
            .get(op_index)
            .map_or(0.0, |e| e.input_cardinality);
        let remaining = (est_in - seen as f64).ceil().max(1.0) as usize;
        let champion = [op.clone()];
        let challenger = [failover::with_model(op, to.clone()).expect("swappable operator")];
        let before = self.scored_secs(&st, ctx, &champion, remaining, now);
        let after = self.scored_secs(&st, ctx, &challenger, remaining, now);
        if after >= before {
            return None;
        }
        let entry = AdaptiveReport {
            operator_index: op_index,
            operator: op.describe(),
            from_model: model.to_string(),
            to_model: to.to_string(),
            trigger: trig.to_string(),
            observed_ratio: ratio,
            threshold,
            est_suffix_secs_before: before,
            est_suffix_secs_after: after,
            records_remaining: remaining,
            at_secs: now,
        };
        emit_replan(&ctx.tracer, &entry);
        st.demoted.push(model);
        st.reports.push(entry);
        Some(to)
    }

    /// Materializing actuation: called after operator `from - 1` completes
    /// with `records_now` records in flight. Re-costs the unexecuted suffix
    /// `ops[from..]`; any operator sitting on a degraded model is swapped
    /// to a substitute when the repaired suffix prices out cheaper than the
    /// degraded one (observed slowdowns included). Rewrites `ops` in place.
    pub fn repair_suffix(
        &self,
        ctx: &PzContext,
        ops: &mut [PhysicalOp],
        from: usize,
        records_now: usize,
    ) {
        if from >= ops.len() || records_now == 0 {
            return;
        }
        let mut st = self.state.lock();
        if st.reports.len() >= self.config.max_repairs {
            return;
        }
        let now = ctx.clock.now_secs();
        let budget = self.config.max_repairs - st.reports.len();
        let mut repaired = ops[from..].to_vec();
        let mut swaps: Vec<(usize, ModelId, ModelId, &'static str, f64, f64)> = Vec::new();
        for (k, op) in ops[from..].iter().enumerate() {
            if swaps.len() >= budget {
                break;
            }
            let Some(model) = op.model().cloned() else {
                continue;
            };
            if !failover::swappable(op) {
                continue;
            }
            let Some((trig, ratio, threshold)) = self.trigger(&st, ctx, &model, now) else {
                continue;
            };
            let Some(to) = self.substitute(&st, ctx, op, now) else {
                continue;
            };
            repaired[k] = failover::with_model(op, to.clone()).expect("swappable operator");
            swaps.push((k, model, to, trig, ratio, threshold));
        }
        if swaps.is_empty() {
            return;
        }
        let before = self.scored_secs(&st, ctx, &ops[from..], records_now, now);
        let after = self.scored_secs(&st, ctx, &repaired, records_now, now);
        if after >= before {
            return;
        }
        for (k, from_model, to, trig, ratio, threshold) in swaps {
            let entry = AdaptiveReport {
                operator_index: from + k,
                operator: ops[from + k].describe(),
                from_model: from_model.to_string(),
                to_model: to.to_string(),
                trigger: trig.to_string(),
                observed_ratio: ratio,
                threshold,
                est_suffix_secs_before: before,
                est_suffix_secs_after: after,
                records_remaining: records_now,
                at_secs: now,
            };
            emit_replan(&ctx.tracer, &entry);
            st.demoted.push(from_model);
            st.reports.push(entry);
            ops[from + k] = repaired[k].clone();
        }
    }

    /// Drain the recorded repairs (called once per run, into
    /// `ExecutionStats::adaptive`).
    pub fn take_reports(&self) -> Vec<AdaptiveReport> {
        std::mem::take(&mut self.state.lock().reports)
    }
}

/// Emit the observability record of one plan repair: a structured
/// executor-layer event plus the `exec.replan` counter (the mirror of
/// `failover::emit_event`).
pub(crate) fn emit_replan(tracer: &pz_obs::Tracer, entry: &AdaptiveReport) {
    tracer.event(
        pz_obs::Layer::Executor,
        "replan",
        &[
            ("operator", entry.operator.clone()),
            ("from", entry.from_model.clone()),
            ("to", entry.to_model.clone()),
            ("trigger", entry.trigger.clone()),
            ("ratio", format!("{:.3}", entry.observed_ratio)),
            ("records_remaining", entry.records_remaining.to_string()),
            ("at_secs", format!("{:.3}", entry.at_secs)),
        ],
    );
    tracer.incr("exec.replan", 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PzContext;
    use crate::datasource::MemorySource;
    use pz_llm::protocol::Effort;
    use std::sync::Arc;

    fn ctx() -> PzContext {
        let ctx = PzContext::simulated();
        let (docs, _) = pz_datagen::science::demo_corpus();
        let items: Vec<(String, String)> =
            docs.into_iter().map(|d| (d.filename, d.content)).collect();
        ctx.registry.register(Arc::new(MemorySource::new(
            "adaptive-test",
            crate::schema::Schema::pdf_file(),
            items,
        )));
        ctx
    }

    fn plan(model: &str) -> PhysicalPlan {
        PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "adaptive-test".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "about cancer".into(),
                    model: model.into(),
                    effort: Effort::Standard,
                },
            ],
        }
    }

    #[test]
    fn disabled_config_builds_no_controller() {
        let ctx = ctx();
        assert!(AdaptiveController::from_plan(
            &ctx,
            &plan("gpt-4o"),
            AdaptiveConfig::default(),
            FailoverRank::Quality,
        )
        .is_none());
    }

    #[test]
    fn capped_ratio_is_always_finite() {
        assert_eq!(capped_ratio(0.0, 0.0), 1.0);
        assert_eq!(capped_ratio(5.0, 0.0), RATIO_CAP);
        assert_eq!(capped_ratio(6.0, 2.0), 3.0);
        assert!(capped_ratio(f64::MAX, 1e-300).is_finite());
    }

    #[test]
    fn healthy_model_never_triggers() {
        let ctx = ctx();
        let ctrl = AdaptiveController::from_plan(
            &ctx,
            &plan("gpt-4o"),
            AdaptiveConfig::on(),
            FailoverRank::Quality,
        )
        .unwrap();
        // Observations right on the estimate: no trigger, no challenge.
        let model: ModelId = "gpt-4o".into();
        let est = ctrl.estimates[1].clone();
        let per_rec = est.time_secs / est.input_cardinality;
        ctrl.observe(1, Some(&model), 4, 4.0 * per_rec, 0.0);
        let st = ctrl.state.lock();
        assert!(ctrl.trigger(&st, &ctx, &model, 0.0).is_none());
        drop(st);
        assert!(ctrl.challenge(&ctx, &plan("gpt-4o").ops[1], 1).is_none());
        assert!(ctrl.take_reports().is_empty());
    }

    #[test]
    fn time_drift_triggers_challenge_and_reports() {
        let ctx = ctx();
        let ctrl = AdaptiveController::from_plan(
            &ctx,
            &plan("gpt-4o"),
            AdaptiveConfig::on(),
            FailoverRank::Quality,
        )
        .unwrap();
        let model: ModelId = "gpt-4o".into();
        let est = ctrl.estimates[1].clone();
        let per_rec = est.time_secs / est.input_cardinality;
        // 10x slower than predicted over 4 records: well past the 3x gate.
        ctrl.observe(1, Some(&model), 4, 40.0 * per_rec, 0.0);
        let op = plan("gpt-4o").ops[1].clone();
        let to = ctrl.challenge(&ctx, &op, 1).expect("repair expected");
        assert_ne!(to, model);
        let reports = ctrl.take_reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.trigger, "time drift");
        assert_eq!(r.from_model, "gpt-4o");
        assert_eq!(r.to_model, to.to_string());
        assert!(r.observed_ratio >= r.threshold);
        assert!(r.est_suffix_secs_after < r.est_suffix_secs_before);
        assert!(r.observed_ratio.is_finite());
        // Sticky: the demoted model is never offered as a substitute again.
        let sub_op = failover::with_model(&op, to).unwrap();
        let st = ctrl.state.lock();
        assert!(st.demoted.contains(&model));
        let next = ctrl.substitute(&st, &ctx, &sub_op, 0.0);
        assert!(next.is_none_or(|m| m != model));
    }

    #[test]
    fn repair_suffix_swaps_later_op_sharing_drifted_model() {
        let ctx = ctx();
        let mut ops = vec![
            PhysicalOp::Scan {
                dataset: "adaptive-test".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: "about cancer".into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
            PhysicalOp::LlmFilter {
                predicate: "mentions a trial".into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
        ];
        let plan = PhysicalPlan { ops: ops.clone() };
        let ctrl =
            AdaptiveController::from_plan(&ctx, &plan, AdaptiveConfig::on(), FailoverRank::Quality)
                .unwrap();
        let model: ModelId = "gpt-4o".into();
        let est = ctrl.estimates[1].clone();
        let per_rec = est.time_secs / est.input_cardinality;
        // Op 1 drifted 8x; the suffix repair should move op 2 off gpt-4o.
        ctrl.observe(1, Some(&model), 6, 48.0 * per_rec, 0.0);
        ctrl.repair_suffix(&ctx, &mut ops, 2, 6);
        assert_ne!(ops[2].model().unwrap(), &model, "suffix op not repaired");
        assert_eq!(ops[1].model().unwrap(), &model, "executed prefix rewritten");
        let reports = ctrl.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].operator_index, 2);
        assert_eq!(reports[0].records_remaining, 6);
    }

    #[test]
    fn max_repairs_caps_switching() {
        let ctx = ctx();
        let mut cfg = AdaptiveConfig::on();
        cfg.max_repairs = 0;
        let ctrl = AdaptiveController::from_plan(&ctx, &plan("gpt-4o"), cfg, FailoverRank::Quality)
            .unwrap();
        let model: ModelId = "gpt-4o".into();
        ctrl.observe(1, Some(&model), 6, 1e6, 0.0);
        assert!(ctrl.challenge(&ctx, &plan("gpt-4o").ops[1], 1).is_none());
    }

    #[test]
    fn reports_round_trip_json_finite() {
        let r = AdaptiveReport {
            observed_ratio: capped_ratio(1.0, 0.0),
            ..AdaptiveReport::default()
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: AdaptiveReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.observed_ratio, RATIO_CAP);
    }
}
