//! Model substitution: the one place a running plan moves an operator onto
//! another model — another of the physical implementations the optimizer
//! enumerates for it. Failover is its case at failure rate 1.
//!
//! The executor consults [`Substitution`] at the top of every step of a
//! swappable operator, in both modes, and hands it what the step measured;
//! the runner calls it when a call fails past its retries.
//! - **Failure rate 1** (an open breaker, or a provider fault that survived
//!   retries): a *failover*, a [`DegradedExecution`] and an `exec.failover`
//!   event; the batch in flight re-runs on the substitute.
//! - **A brownout** (a stall ratio of 3 over 2 records or more, or a
//!   failure rate of 0.34 in the breaker window, under its trip rate): a
//!   *replan* before the step, an [`AdaptiveReport`] and an `exec.replan`
//!   event — if a substitute, priced from its catalog card at the request
//!   shape this operator was billed for, comes out faster.
//!
//! The stall ratio, (billed + stalled) seconds per billed second, needs no
//! estimate: stalled seconds are what calls lost to failures (fault
//! stalls, retry backoff) in the run's own books (`exec/observed.rs`). A
//! healthy model loses nothing, so it reads exactly 1 however long its
//! documents are, and no other run on a shared clock can add to it.
//! Nothing samples the source.
//!
//! All evidence is the run's own: the failure rate reads only the window
//! outcomes that came after the run first saw the model, and a cache hit
//! hands on what its call cost the run that made it, so a re-run makes
//! that run's decisions. Swaps are sticky: an operator never returns to a
//! model it left. Substitutes are same-kind models with a closed breaker
//! and no brownout, best first along the policy's primary dimension. Runs
//! replay byte-identically; a healthy run decides nothing and allocates
//! nothing.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::exec::observed::Observed;
use crate::exec::stats::{AdaptiveReport, DegradedExecution};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::optimizer::policy::Policy;
use pz_llm::{HealthTracker, ModelCard, ModelId, ModelKind};

/// Billed plus stalled seconds per billed second at which a model is
/// browning out.
const STALL_RATIO: f64 = 3.0;
/// Records a model must have served before its stall ratio counts.
const MIN_RECORDS: f64 = 2.0;
/// Failure rate over the run's outcomes in the breaker window at which a
/// model is browning out.
const FAILURE_RATE: f64 = 0.34;
/// Failed attempts in the run before a model's failure rate counts.
const MIN_FAILURES: u64 = 2;
/// Ratio ceiling, finite so reports survive JSON round-trips.
const RATIO_CAP: f64 = 1e6;
/// Request shape (input, output tokens) priced before any billing.
const UNBILLED_SHAPE: (usize, usize) = (1000, 100);

/// The dimension substitutes are ranked by: the policy's primary axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rank {
    Quality,
    Cost,
    Time,
}

impl From<&Policy> for Rank {
    fn from(policy: &Policy) -> Self {
        match policy {
            Policy::MaxQuality | Policy::MaxQualityAtCost(_) | Policy::MaxQualityAtTime(_) => {
                Rank::Quality
            }
            Policy::MinCost | Policy::MinCostAtQuality(_) => Rank::Cost,
            Policy::MinTime => Rank::Time,
        }
    }
}

/// The model field of a swappable operator and the kind a substitute must
/// be; `None` for every other operator. Ensemble filters are not
/// swappable: their resilience *is* the ensemble, and replacing one voter
/// would change the vote.
fn model_of(op: &mut PhysicalOp) -> Option<(&mut ModelId, ModelKind)> {
    match op {
        PhysicalOp::LlmFilter { model, .. }
        | PhysicalOp::LlmConvert { model, .. }
        | PhysicalOp::FieldwiseConvert { model, .. }
        | PhysicalOp::LlmJoin { model, .. }
        | PhysicalOp::LlmClassify { model, .. } => Some((model, ModelKind::Chat)),
        PhysicalOp::EmbeddingFilter { model, .. } | PhysicalOp::Retrieve { model, .. } => {
            Some((model, ModelKind::Embedding))
        }
        _ => None,
    }
}

/// Estimated quality change of swapping `from` for `to` (negative =
/// degradation), from the model cards; an unknown model counts as 0.
fn quality_delta(ctx: &PzContext, from: &ModelId, to: &ModelId) -> f64 {
    let q = |m: &ModelId| ctx.catalog.get(m).map_or(0.0, |c| c.quality);
    q(to) - q(from)
}

impl Observed {
    /// Billed plus stalled seconds per billed second: exactly 1 without a
    /// stall, capped (finite) when nothing was billed at all.
    fn stall_ratio(&self) -> f64 {
        let (billed, stalled) = (self.share.latency_secs, self.share.stalled_secs);
        if stalled <= 0.0 {
            1.0
        } else if billed <= 0.0 {
            RATIO_CAP
        } else {
            ((billed + stalled) / billed).min(RATIO_CAP)
        }
    }

    /// Seconds per record `card` takes at the request shape billed here.
    fn secs_per_record(&self, card: Option<&ModelCard>) -> f64 {
        let Some(card) = card else { return 0.0 };
        let share = &self.share;
        let (input, output) = match share.calls {
            n if n < 1.0 => UNBILLED_SHAPE,
            n => (
                (share.input_tokens / n) as usize,
                (share.output_tokens / n) as usize,
            ),
        };
        card.latency_secs(input, output) * share.calls.max(1.0) / self.records.max(1.0)
    }
}

/// What the run saw of one model.
struct Seen {
    model: ModelId,
    observed: Observed,
    /// The breaker's (failed, succeeded) attempt counts when the run first
    /// saw the model: its failure rate counts only what came after.
    outcomes_before: (u64, u64),
}

/// One swappable operator.
struct Slot {
    /// The active form, its model, and that model's row in `models`.
    op: PhysicalOp,
    model: ModelId,
    row: usize,
    kind: ModelKind,
    /// As planned: a replan re-plans the operator, a failover does not.
    planned: PhysicalOp,
    /// This operator's own billing: the shape substitutes are priced at.
    billed: Observed,
    /// Models this operator was moved off; never its substitutes again.
    left: Vec<ModelId>,
    /// A failover cut into the current step: its measurements mix models.
    failed_over: bool,
    /// Failover decisions, in order. What a substitute serves accrues onto
    /// the latest: the records the planned model did not handle.
    degraded: Vec<DegradedExecution>,
}

/// The substitution controller of one run (module docs): plain data owned
/// by the executor's drive.
pub(crate) struct Substitution {
    rank: Rank,
    /// Per plan stage: `Some` for a swappable operator.
    slots: Vec<Option<Slot>>,
    /// Per model the run has run, or moved an operator onto.
    models: Vec<Seen>,
    reports: Vec<AdaptiveReport>,
}

impl Substitution {
    pub(crate) fn new(plan: &PhysicalPlan, rank: Rank, health: &HealthTracker) -> Self {
        let mut this = Self {
            rank,
            slots: Vec::with_capacity(plan.ops.len()),
            models: Vec::new(),
            reports: Vec::new(),
        };
        for op in &plan.ops {
            let mut op = op.clone();
            let slot = model_of(&mut op).map(|(model, kind)| (model.clone(), kind));
            let slot = slot.map(|(model, kind)| Slot {
                row: this.row_of(health, &model),
                planned: op.clone(),
                op,
                model,
                kind,
                billed: Observed::default(),
                left: Vec::new(),
                failed_over: false,
                degraded: Vec::new(),
            });
            this.slots.push(slot);
        }
        this
    }

    /// Index of `model`'s row, added on first sight.
    fn row_of(&mut self, health: &HealthTracker, model: &ModelId) -> usize {
        if let Some(row) = self.models.iter().position(|m| m.model == *model) {
            return row;
        }
        self.models.push(Seen {
            model: model.clone(),
            observed: Observed::default(),
            outcomes_before: health.outcomes(model),
        });
        self.models.len() - 1
    }

    fn slot(&self, i: usize) -> Option<&Slot> {
        self.slots.get(i).and_then(Option::as_ref)
    }

    /// Stage `i`'s operator in its active form; `None` unless swappable.
    pub(crate) fn active(&self, i: usize) -> Option<&PhysicalOp> {
        self.slot(i).map(|s| &s.op)
    }

    /// Stage `i`'s operator as (re-)planned, which its stats row and spans
    /// name; `None` unless swappable.
    pub(crate) fn planned(&self, i: usize) -> Option<&PhysicalOp> {
        self.slot(i).map(|s| &s.planned)
    }

    /// The top of a step of stage `i`, about to consume `records` records:
    /// an open breaker fails the operator over; a brownout replans it when
    /// a substitute prices out faster. `true` when a replan moved it. Errs
    /// when the breaker is open and nothing stands in.
    pub(crate) fn consult(&mut self, ctx: &PzContext, i: usize, records: usize) -> PzResult<bool> {
        let now = ctx.clock.now_secs();
        let Some(slot) = self.slots.get_mut(i).and_then(Option::as_mut) else {
            return Ok(false);
        };
        slot.failed_over = false;
        if !ctx.health.is_open(&slot.model, now) {
            return Ok(self.replan(ctx, i, records, now).is_some());
        }
        let model = slot.model.clone();
        if self.fail_over(ctx, i, "breaker open", records) {
            return Ok(false);
        }
        Err(PzError::Execution(format!(
            "circuit breaker open for {model} and no healthy substitute model"
        )))
    }

    /// A brownout replan of stage `i`, if its model is browning out and a
    /// substitute prices out faster for the `n` records in hand.
    fn replan(&mut self, ctx: &PzContext, i: usize, n: usize, now: f64) -> Option<()> {
        let slot = self.slot(i)?;
        let (trigger, ratio, threshold) = self.brownout(ctx, Some(slot.row))?;
        let to = self.substitute(ctx, slot, now)?;
        // Both priced at this operator's billed request shape: the degraded
        // model stalling at no less than the threshold, the substitute as
        // it has so far.
        let stall = |m: &ModelId| {
            let seen = self.models.iter().find(|seen| seen.model == *m);
            seen.map_or(1.0, |seen| seen.observed.stall_ratio())
        };
        let secs = |m: &ModelId| n as f64 * slot.billed.secs_per_record(ctx.catalog.get(m));
        let before = secs(&slot.model) * stall(&slot.model).max(STALL_RATIO);
        let after = secs(&to) * stall(&to);
        if after >= before {
            return None;
        }
        let report = AdaptiveReport {
            operator_index: i,
            operator: slot.op.describe(),
            from_model: slot.model.to_string(),
            to_model: to.to_string(),
            trigger: trigger.to_string(),
            observed_ratio: ratio,
            threshold,
            est_suffix_secs_before: before,
            est_suffix_secs_after: after,
            records_remaining: n,
            at_secs: now,
        };
        ctx.tracer.event(
            pz_obs::Layer::Executor,
            "replan",
            &[
                ("operator", report.operator.clone()),
                ("from", report.from_model.clone()),
                ("to", report.to_model.clone()),
                ("trigger", report.trigger.clone()),
                ("ratio", format!("{ratio:.3}")),
                ("records_remaining", n.to_string()),
                ("at_secs", format!("{now:.3}")),
            ],
        );
        ctx.tracer.incr("exec.replan", 1);
        self.reports.push(report);
        let slot = self.swap(&ctx.health, i, to)?;
        slot.planned = slot.op.clone();
        Some(())
    }

    /// Whether the model in row `row` (if the run has seen it) is browning
    /// out: the trigger, the observed ratio or rate, and the threshold.
    fn brownout(&self, ctx: &PzContext, row: Option<usize>) -> Option<(&'static str, f64, f64)> {
        let seen = self.models.get(row?)?;
        let ratio = seen.observed.stall_ratio();
        if seen.observed.records >= MIN_RECORDS && ratio >= STALL_RATIO {
            return Some(("stall ratio", ratio, STALL_RATIO));
        }
        let (failed, rate) = ctx.health.failures_since(&seen.model, seen.outcomes_before);
        let failing = failed >= MIN_FAILURES && rate >= FAILURE_RATE;
        failing.then_some(("provider health", rate, FAILURE_RATE))
    }

    /// The best model to stand in for `slot`'s: same kind, not one the
    /// operator left, breaker closed at `now`, no brownout of its own.
    fn substitute(&self, ctx: &PzContext, slot: &Slot, now: f64) -> Option<ModelId> {
        let key = |card: &ModelCard| match self.rank {
            Rank::Quality => -card.quality,
            Rank::Cost => card.cost_usd(UNBILLED_SHAPE.0, UNBILLED_SHAPE.1),
            Rank::Time => card.latency_secs(UNBILLED_SHAPE.0, UNBILLED_SHAPE.1),
        };
        let healthy = |id: &ModelId| {
            let row = self.models.iter().position(|m| m.model == *id);
            !ctx.health.is_open(id, now) && self.brownout(ctx, row).is_none()
        };
        (ctx.catalog.of_kind(slot.kind))
            .filter(|card| card.id != slot.model && !slot.left.contains(&card.id))
            .filter(|card| healthy(&card.id))
            .min_by(|a, b| {
                (key(a).total_cmp(&key(b)))
                    .then(b.quality.total_cmp(&a.quality))
                    .then(a.id.cmp(&b.id))
            })
            .map(|card| card.id.clone())
    }

    /// Move stage `i` onto `to` for good: it never returns to the model it
    /// leaves.
    fn swap(&mut self, health: &HealthTracker, i: usize, to: ModelId) -> Option<&mut Slot> {
        let row = self.row_of(health, &to);
        let slot = self.slots.get_mut(i).and_then(Option::as_mut)?;
        if let Some((model, _)) = model_of(&mut slot.op) {
            *model = to.clone();
        }
        slot.row = row;
        let from = std::mem::replace(&mut slot.model, to);
        slot.left.push(from);
        Some(slot)
    }

    /// Stage `i`'s model failed with failure rate 1 (`reason`) while
    /// `in_flight` records wait on it: swap to the best substitute and
    /// record the failover. `false` when nothing can stand in.
    pub(crate) fn fail_over(
        &mut self,
        ctx: &PzContext,
        i: usize,
        reason: &str,
        in_flight: usize,
    ) -> bool {
        let now = ctx.clock.now_secs();
        let Some(slot) = self.slot(i) else {
            return false;
        };
        let Some(to) = self.substitute(ctx, slot, now) else {
            return false;
        };
        let entry = DegradedExecution {
            operator_index: i,
            operator: slot.planned.describe(),
            from_model: slot.model.to_string(),
            to_model: to.to_string(),
            // Accrued per batch the substitute serves (`observe`).
            records_affected: 0,
            est_quality_delta: quality_delta(ctx, &slot.model, &to),
            at_secs: now,
            reason: reason.to_string(),
        };
        ctx.tracer.event(
            pz_obs::Layer::Executor,
            "failover",
            &[
                ("operator", entry.operator.clone()),
                ("from", entry.from_model.clone()),
                ("to", entry.to_model.clone()),
                ("reason", entry.reason.clone()),
                ("records", in_flight.to_string()),
                ("at_secs", format!("{now:.3}")),
            ],
        );
        ctx.tracer.incr("exec.failover", 1);
        let swapped = self.swap(&ctx.health, i, to).map(|slot| {
            slot.degraded.push(entry);
            slot.failed_over = true;
        });
        swapped.is_some()
    }

    /// What a step of stage `i` measured, its cache hits' shares included.
    pub(crate) fn observe(&mut self, i: usize, seen: &Observed) {
        let Some(slot) = self.slots.get_mut(i).and_then(Option::as_mut) else {
            return;
        };
        if slot.planned.model() != Some(&slot.model) {
            if let Some(entry) = slot.degraded.last_mut() {
                entry.records_affected += seen.records as usize;
            }
        }
        if slot.failed_over {
            return;
        }
        slot.billed.add(seen);
        if let Some(model) = self.models.get_mut(slot.row) {
            model.observed.add(seen);
        }
    }

    /// Stage `i`'s failover decisions, in order.
    pub(crate) fn take_degraded(&mut self, i: usize) -> Vec<DegradedExecution> {
        let slot = self.slots.get_mut(i).and_then(Option::as_mut);
        slot.map_or_else(Vec::new, |s| std::mem::take(&mut s.degraded))
    }

    /// Every replan of the run, in the order made.
    pub(crate) fn take_reports(&mut self) -> Vec<AdaptiveReport> {
        std::mem::take(&mut self.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::MemorySource;
    use crate::schema::Schema;
    use pz_llm::protocol::Effort;
    use std::sync::Arc;

    fn filter_op(model: &str) -> PhysicalOp {
        PhysicalOp::LlmFilter {
            predicate: "about cancer".into(),
            model: model.into(),
            effort: Effort::Standard,
        }
    }

    fn scan() -> PhysicalOp {
        PhysicalOp::Scan {
            dataset: "sigmod-demo".into(),
        }
    }

    /// A controller over `ops`, behind a scan at stage 0, for a run on
    /// `ctx`.
    fn subst(ctx: &PzContext, ops: Vec<PhysicalOp>, rank: Rank) -> Substitution {
        let mut all = vec![scan()];
        all.extend(ops);
        Substitution::new(&PhysicalPlan { ops: all }, rank, &ctx.health)
    }

    /// The substitute the controller would pick for stage `i` right now.
    fn best(s: &Substitution, ctx: &PzContext, i: usize) -> Option<String> {
        let slot = s.slot(i)?;
        s.substitute(ctx, slot, ctx.clock.now_secs())
            .map(|m| m.to_string())
    }

    fn demo_ctx(faults: pz_llm::FaultPlan) -> PzContext {
        let ctx = PzContext::simulated_with(pz_llm::SimConfig {
            fault_plan: faults,
            ..Default::default()
        });
        let (docs, _) = pz_datagen::science::demo_corpus();
        let items = docs.into_iter().map(|d| (d.filename, d.content)).collect();
        ctx.registry.register(Arc::new(MemorySource::new(
            "sigmod-demo",
            Schema::pdf_file(),
            items,
        )));
        ctx
    }

    /// What a step over `records` one-call records measured: `billed`
    /// seconds of latency and `stalled` seconds lost to failures.
    fn step(records: usize, billed: f64, stalled: f64) -> Observed {
        let records = records as f64;
        let share = pz_llm::CallShare {
            calls: records,
            input_tokens: 400.0 * records,
            output_tokens: 2.0 * records,
            latency_secs: billed,
            stalled_secs: stalled,
            ..Default::default()
        };
        Observed { records, share }
    }

    fn transient(reason: &str) -> pz_llm::LlmError {
        pz_llm::LlmError::Transient {
            attempt: 0,
            reason: reason.into(),
        }
    }

    #[test]
    fn rank_follows_policy_primary_dimension() {
        assert_eq!(Rank::from(&Policy::MaxQuality), Rank::Quality);
        assert_eq!(Rank::from(&Policy::MaxQualityAtCost(1.0)), Rank::Quality);
        assert_eq!(Rank::from(&Policy::MinCost), Rank::Cost);
        assert_eq!(Rank::from(&Policy::MinCostAtQuality(0.8)), Rank::Cost);
        assert_eq!(Rank::from(&Policy::MinTime), Rank::Time);
    }

    #[test]
    fn quality_rank_prefers_next_best_model() {
        let ctx = PzContext::simulated();
        let s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        // gpt-4o (0.96) is the operator's own; llama-3-70b (0.92) is next,
        // and only chat models qualify for a chat operator.
        assert_eq!(best(&s, &ctx, 1).as_deref(), Some("llama-3-70b"));
    }

    #[test]
    fn cost_rank_prefers_cheapest_model() {
        let ctx = PzContext::simulated();
        let s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Cost);
        let cheapest = ctx
            .catalog
            .of_kind(ModelKind::Chat)
            .filter(|c| c.id.as_str() != "gpt-4o")
            .min_by(|a, b| a.cost_usd(1000, 100).total_cmp(&b.cost_usd(1000, 100)))
            .map(|c| c.id.to_string());
        assert!(cheapest.is_some());
        assert_eq!(best(&s, &ctx, 1), cheapest);
    }

    #[test]
    fn missing_model_degrades_instead_of_panicking() {
        // An operator whose planned model is absent from the catalog (a
        // retired alias, a typo in a hand-written plan) must still find
        // substitutes: they are drawn from the catalog, never resolved
        // from the current model.
        let ctx = PzContext::simulated();
        for rank in [Rank::Quality, Rank::Cost, Rank::Time] {
            let s = subst(&ctx, vec![filter_op("retired-model-v0")], rank);
            assert!(best(&s, &ctx, 1).is_some(), "{rank:?}");
        }
        let s = subst(&ctx, vec![filter_op("retired-model-v0")], Rank::Quality);
        assert_eq!(best(&s, &ctx, 1).as_deref(), Some("gpt-4o"));
        // The quality delta against an unknown model stays finite (read as
        // an upgrade from quality 0, never a panic).
        let d = quality_delta(&ctx, &"retired-model-v0".into(), &"gpt-4o".into());
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    fn open_breakers_are_excluded() {
        let ctx = PzContext::simulated();
        ctx.health
            .trip(&"llama-3-70b".into(), &transient("down"), 0.0);
        ctx.clock.advance_secs(1.0);
        let s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        assert_eq!(best(&s, &ctx, 1).as_deref(), Some("gpt-4o-mini"));
    }

    #[test]
    fn swap_preserves_everything_but_the_model() {
        let ctx = PzContext::simulated();
        let mut s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        s.swap(&ctx.health, 1, "gpt-4o-mini".into());
        match s.active(1).cloned() {
            Some(PhysicalOp::LlmFilter {
                predicate, model, ..
            }) => {
                assert_eq!(predicate, "about cancer");
                assert_eq!(model.as_str(), "gpt-4o-mini");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ensemble_and_conventional_ops_are_not_swappable() {
        let ctx = PzContext::simulated();
        let ensemble = PhysicalOp::EnsembleFilter {
            predicate: "x".into(),
            models: vec!["gpt-4o".into(), "gpt-4o-mini".into(), "llama-3-70b".into()],
            effort: Effort::Standard,
        };
        let limit = PhysicalOp::Limit { n: 3 };
        let s = subst(&ctx, vec![ensemble, limit], Rank::Quality);
        assert!((0..3).all(|i| s.active(i).is_none() && s.planned(i).is_none()));
    }

    #[test]
    fn embedding_ops_only_get_embedding_models() {
        // The builtin catalog has a single embedding model, so a retrieve
        // op has no substitute: its failover falls through to the error.
        let ctx = PzContext::simulated();
        let op = PhysicalOp::Retrieve {
            query: "q".into(),
            k: 3,
            model: "text-embedding-3-small".into(),
        };
        let s = subst(&ctx, vec![op], Rank::Quality);
        assert!(s.active(1).is_some());
        assert_eq!(best(&s, &ctx, 1), None);
    }

    #[test]
    fn quality_delta_is_signed() {
        let ctx = PzContext::simulated();
        assert!(quality_delta(&ctx, &"gpt-4o".into(), &"llama-3-70b".into()) < 0.0);
        assert!(quality_delta(&ctx, &"llama-3-70b".into(), &"gpt-4o".into()) > 0.0);
    }

    #[test]
    fn capped_ratio_is_always_finite() {
        let seen = |billed, stalled| step(0, billed, stalled);
        assert_eq!(seen(0.0, 0.0).stall_ratio(), 1.0);
        assert_eq!(seen(0.0, 5.0).stall_ratio(), RATIO_CAP);
        assert_eq!(seen(2.0, 4.0).stall_ratio(), 3.0);
        assert!(seen(1e-300, f64::MAX).stall_ratio().is_finite());
    }

    #[test]
    fn healthy_model_never_triggers() {
        let ctx = PzContext::simulated();
        let mut s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        // Nothing lost to failures: nothing to act on.
        s.observe(1, &step(4, 8.0, 0.0));
        assert_eq!(s.consult(&ctx, 1, 4).ok(), Some(false));
        assert!(s.take_reports().is_empty());
        assert_eq!(ctx.tracer.counter("exec.replan"), 0);
    }

    #[test]
    fn stall_ratio_triggers_replan_and_reports() {
        let ctx = PzContext::simulated();
        let mut s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        // Nine stalled seconds per billed second over four records.
        s.observe(1, &step(4, 8.0, 72.0));
        assert_eq!(s.consult(&ctx, 1, 5).ok(), Some(true));
        let to = s.active(1).and_then(|op| op.model()).cloned();
        assert!(
            to.as_ref().is_some_and(|m| m.as_str() != "gpt-4o"),
            "{to:?}"
        );
        assert_eq!(s.planned(1), s.active(1));
        let reports = s.take_reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.trigger, "stall ratio");
        assert_eq!((r.operator_index, r.from_model.as_str()), (1, "gpt-4o"));
        assert_eq!(Some(r.to_model.as_str()), to.as_ref().map(|m| m.as_str()));
        assert_eq!(r.observed_ratio, 10.0);
        assert!(r.observed_ratio >= r.threshold);
        assert!(r.est_suffix_secs_after < r.est_suffix_secs_before);
        assert_eq!(r.records_remaining, 5);
        assert_eq!(ctx.tracer.counter("exec.replan"), 1);
        // Sticky: the model it left is never offered to it again.
        assert!(s
            .slot(1)
            .is_some_and(|slot| slot.left.iter().any(|m| m.as_str() == "gpt-4o")));
        assert_ne!(best(&s, &ctx, 1).as_deref(), Some("gpt-4o"));
    }

    #[test]
    fn drifted_model_is_swapped_out_of_a_later_operator() {
        let ctx = PzContext::simulated();
        let mut s = subst(
            &ctx,
            vec![filter_op("gpt-4o"), filter_op("gpt-4o")],
            Rank::Quality,
        );
        // Stage 1 stalled 8x; stage 2, on the same model, is moved off it
        // at the top of its first step. Stage 1 is left as it ran.
        s.observe(1, &step(6, 6.0, 42.0));
        assert_eq!(s.consult(&ctx, 2, 6).ok(), Some(true));
        assert_ne!(
            s.active(2).and_then(|op| op.model()),
            Some(&"gpt-4o".into())
        );
        assert_eq!(
            s.active(1).and_then(|op| op.model()),
            Some(&"gpt-4o".into())
        );
        let reports = s.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].operator_index, 2);
        assert_eq!(reports[0].records_remaining, 6);
    }

    #[test]
    fn breaker_window_failure_rate_triggers_provider_health() {
        let ctx = PzContext::simulated();
        let gpt4o: ModelId = "gpt-4o".into();
        let flaky = |ctx: &PzContext| {
            // Half the attempts fail: under the breaker's 0.75 trip rate,
            // over the controller's 0.34.
            for t in 0..4 {
                ctx.health.record_success(&gpt4o, t as f64);
                ctx.health
                    .record_failure(&gpt4o, &transient("flaky"), t as f64);
            }
        };
        // Failures from before the run are not this run's evidence.
        flaky(&ctx);
        let mut s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        assert_eq!(s.consult(&ctx, 1, 4).ok(), Some(false));
        flaky(&ctx);
        assert_eq!(ctx.health.outcomes(&gpt4o), (8, 8));
        assert_eq!(s.consult(&ctx, 1, 4).ok(), Some(true));
        let reports = s.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].trigger, "provider health");
        assert_eq!(reports[0].observed_ratio, 0.5);
    }

    #[test]
    fn reports_round_trip_json_finite() {
        let r = AdaptiveReport {
            observed_ratio: step(0, 0.0, 1.0).stall_ratio(),
            ..AdaptiveReport::default()
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: AdaptiveReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.observed_ratio, RATIO_CAP);
    }

    #[test]
    fn open_breaker_fails_over_before_the_step() {
        let ctx = PzContext::simulated();
        ctx.health.trip(&"gpt-4o".into(), &transient("down"), 0.0);
        let mut s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        assert_eq!(s.consult(&ctx, 1, 3).ok(), Some(false));
        s.observe(1, &step(3, 1.0, 0.0));
        let degraded = s.take_degraded(1);
        assert_eq!(degraded.len(), 1);
        let d = &degraded[0];
        assert_eq!(
            (d.from_model.as_str(), d.to_model.as_str()),
            ("gpt-4o", "llama-3-70b")
        );
        assert_eq!((d.reason.as_str(), d.records_affected), ("breaker open", 3));
        assert!(s.take_reports().is_empty());
        // A failover is not a replan: the operator stays planned as it was.
        assert_eq!(
            s.planned(1).and_then(|op| op.model()),
            Some(&"gpt-4o".into())
        );
        // With nothing to fail over to, the open breaker is the error.
        let mut ctx = ctx;
        let mut only = pz_llm::Catalog::new();
        if let Some(card) = ctx.catalog.get(&"gpt-4o".into()) {
            only.insert(card.clone());
        }
        ctx.catalog = only;
        let mut s = subst(&ctx, vec![filter_op("gpt-4o")], Rank::Quality);
        let e = s.consult(&ctx, 1, 3).err().map(|e| e.to_string());
        assert!(e.is_some_and(|e| e.contains("circuit breaker open for gpt-4o")));
    }

    /// Run the demo corpus through `op` in batches of four on a context
    /// with its own failure sink, handing each batch's metered cost to the
    /// controller as a step does; returns the stall ratio the controller
    /// then holds for gpt-4o.
    fn stall_ratio_over_demo(faults: &str) -> f64 {
        let mut ctx = demo_ctx(pz_llm::FaultPlan::parse(faults, 11).unwrap());
        ctx.run_sink = Some(Arc::default());
        let op = filter_op("gpt-4o");
        let mut s = subst(&ctx, vec![op.clone()], Rank::Quality);
        let corpus = ctx.open_scan("sigmod-demo", 4).unwrap();
        for batch in corpus {
            let batch = batch.unwrap();
            let records = batch.len() as f64;
            let before = Observed::meter(&ctx);
            op.execute(&ctx, batch).unwrap();
            let seen = Observed {
                records,
                ..Observed::meter(&ctx).since(before)
            };
            s.observe(1, &seen);
        }
        s.models[s.slot(1).map_or(0, |slot| slot.row)]
            .observed
            .stall_ratio()
    }

    #[test]
    fn stall_ratio_is_exactly_one_on_a_healthy_run() {
        assert_eq!(stall_ratio_over_demo(""), 1.0);
    }

    #[test]
    fn stall_ratio_crosses_three_under_the_e18_brownout() {
        let ratio = stall_ratio_over_demo("gpt-4o:timeout@0..1e9:p=0.35:stall=25");
        assert!(ratio >= STALL_RATIO, "stall ratio {ratio}");
    }
}
