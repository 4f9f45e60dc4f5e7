//! The Palimpzest optimizer.
//!
//! §2.1: "Palimpzest creates a search space of all possible physical plans
//! [...] which are effectively logically equivalent but may yield outputs
//! of different quality, with a different cost, or with a different
//! runtime. In a subsequent optimization phase, Palimpzest automatically
//! ranks physical plans and selects the most optimal one that meets
//! user-defined preferences."
//!
//! Pipeline: [`rewrite`] normalizes the logical plan (cheap filters first,
//! duplicate elimination), [`enumerate`] builds the physical plan space,
//! [`cost`] estimates each plan's (cost, time, quality), [`pareto`] prunes
//! dominated plans, [`policy`] picks the winner, and [`sentinel`]
//! optionally calibrates the estimates by running candidates on a data
//! sample first.

pub mod cost;
pub mod drift;
pub mod enumerate;
pub mod pareto;
pub mod policy;
pub mod rewrite;
pub mod sentinel;

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::ops::logical::LogicalPlan;
use crate::ops::physical::PhysicalPlan;
use cost::{CostContext, PlanEstimate};
use policy::Policy;

/// What the optimizer did, for reporting and the E4 experiment.
#[derive(Clone, Debug, Default)]
pub struct OptimizerReport {
    /// Full physical plan space size (before any pruning).
    pub plan_space_size: u128,
    /// Plans actually estimated.
    pub plans_considered: usize,
    /// Plans surviving Pareto pruning.
    pub pareto_size: usize,
    /// Whether sentinel calibration ran.
    pub calibrated: bool,
    /// What the logical rewriter changed.
    pub rewrites: rewrite::RewriteReport,
    /// Per-operator predictions for the *chosen* plan (final calibrated
    /// cost model), kept so execution can be compared back against the
    /// estimate ([`drift::DriftReport`]).
    pub op_estimates: Vec<cost::OperatorEstimate>,
}

/// The optimizer facade.
#[derive(Clone, Debug)]
pub struct Optimizer {
    /// Cap on fully-enumerated plans; beyond it the Pareto DP is used.
    pub enumeration_cap: usize,
    /// Run sentinel calibration on a sample before estimating.
    pub sentinel_sample: Option<usize>,
}

impl Default for Optimizer {
    fn default() -> Self {
        Self {
            enumeration_cap: 20_000,
            sentinel_sample: None,
        }
    }
}

impl Optimizer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_sentinel(mut self, sample: usize) -> Self {
        self.sentinel_sample = Some(sample);
        self
    }

    /// Choose the best physical plan for `plan` under `policy`.
    pub fn optimize(
        &self,
        ctx: &PzContext,
        plan: &LogicalPlan,
        policy: &Policy,
    ) -> PzResult<(PhysicalPlan, PlanEstimate, OptimizerReport)> {
        // Validate schemas eagerly so bad plans fail before any model call.
        plan.schemas(&ctx.registry)?;

        let span = ctx.tracer.span(pz_obs::Layer::Optimizer, "optimize");
        span.set_attr("policy", policy.name());

        // Logical normalization: semantics-preserving, always beneficial.
        let (plan, rewrites) = rewrite::rewrite(plan);
        let plan = &plan;

        let mut cost_ctx = CostContext::from_context(ctx, plan)?;
        let mut report = OptimizerReport {
            plan_space_size: enumerate::plan_space_size(plan, &ctx.catalog),
            rewrites,
            ..Default::default()
        };
        if let Some(sample) = self.sentinel_sample {
            let calib = sentinel::calibrate(ctx, plan, sample)?;
            ctx.tracer.event(
                pz_obs::Layer::Optimizer,
                "sentinel_calibrated",
                &[
                    ("sample", sample.to_string()),
                    ("selectivities", calib.selectivity.len().to_string()),
                    ("quality_points", calib.quality.len().to_string()),
                ],
            );
            cost_ctx.calibration = Some(calib);
            report.calibrated = true;
        }

        let candidates = if report.plan_space_size <= self.enumeration_cap as u128 {
            let plans = enumerate::enumerate_plans(plan, &ctx.catalog, self.enumeration_cap);
            report.plans_considered = plans.len();
            plans
                .into_iter()
                .map(|p| {
                    let est = cost::estimate_plan(&p, &cost_ctx);
                    (p, est)
                })
                .collect()
        } else {
            let frontier = pareto::enumerate_pareto(plan, &ctx.catalog, &cost_ctx);
            report.plans_considered = frontier.len();
            frontier
        };

        let frontier = pareto::pareto_front(candidates);
        report.pareto_size = frontier.len();
        ctx.tracer
            .incr("optimizer.plans_considered", report.plans_considered as u64);
        ctx.tracer.incr(
            "optimizer.pareto_pruned",
            report.plans_considered.saturating_sub(report.pareto_size) as u64,
        );
        let idx = policy
            .choose(&frontier)
            .ok_or_else(|| PzError::Optimizer("no candidate plans".into()))?;
        let (chosen, est) = frontier.into_iter().nth(idx).expect("index from choose");
        // Re-estimate the winner once more for the per-operator breakdown;
        // same cost context, so totals match `est` exactly.
        report.op_estimates = cost::estimate_plan_detailed(&chosen, &cost_ctx).1;
        span.set_attr("plan_space", report.plan_space_size.to_string());
        span.set_attr("considered", report.plans_considered.to_string());
        span.set_attr("pareto", report.pareto_size.to_string());
        span.set_attr("chosen", chosen.describe());
        Ok((chosen, est, report))
    }
}
