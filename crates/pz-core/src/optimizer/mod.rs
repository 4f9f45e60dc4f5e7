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
//! duplicate elimination), [`enumerate`] lists each operator's physical
//! alternatives, [`cost`] prices one operator at a time on a running
//! (cost, time, quality) estimate, [`pareto`] searches the plan space by
//! extending only non-dominated prefixes, [`policy`] picks the winner from
//! that frontier, and [`sentinel`] optionally calibrates the estimates by
//! running candidates on a data sample first. There is one search:
//! [`enumerate::enumerate_plans`] lists the whole space only as the
//! reference that tests and E4 compare the search against.

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
    /// Prefix extensions priced by the search (one pricing step each).
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
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    /// Run sentinel calibration on a sample before estimating.
    pub sentinel_sample: Option<usize>,
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

        let (chosen, est) = search(plan, &cost_ctx, policy, &mut report)?;
        ctx.tracer
            .incr("optimizer.plans_considered", report.plans_considered as u64);
        ctx.tracer.incr(
            "optimizer.pareto_pruned",
            report.plans_considered.saturating_sub(report.pareto_size) as u64,
        );
        span.set_attr("plan_space", report.plan_space_size.to_string());
        span.set_attr("considered", report.plans_considered.to_string());
        span.set_attr("pareto", report.pareto_size.to_string());
        span.set_attr("chosen", chosen.describe());
        Ok((chosen, est, report))
    }
}

/// The one plan search: the Pareto frontier of `plan` under `cost_ctx`, and
/// `policy`'s pick from it with its per-operator breakdown.
fn search(
    plan: &LogicalPlan,
    cost_ctx: &CostContext,
    policy: &Policy,
    report: &mut OptimizerReport,
) -> PzResult<(PhysicalPlan, PlanEstimate)> {
    let frontier = pareto::enumerate_pareto(plan, &cost_ctx.catalog, cost_ctx);
    report.plans_considered = frontier.priced;
    report.pareto_size = frontier.plans.len();
    let idx = policy
        .choose(&frontier.plans)
        .ok_or_else(|| PzError::Optimizer("no candidate plans".into()))?;
    let (chosen, est) = frontier
        .plans
        .into_iter()
        .nth(idx)
        .expect("index from choose");
    // Re-estimate the winner for the per-operator breakdown: the same
    // steps, so its totals are `est` to the bit.
    report.op_estimates = cost::estimate_plan_detailed(&chosen, cost_ctx).1;
    Ok((chosen, est))
}

#[cfg(test)]
mod tests {
    //! Differential test of the one search against the exhaustive
    //! reference: `enumerate_plans` → `estimate_plan` → `pareto_front` →
    //! `Policy::choose`, on generated plans, cost contexts and policies.

    use super::*;
    use crate::datasource::MemorySource;
    use crate::field::FieldDef;
    use crate::ops::logical::{Cardinality, FilterPredicate, JoinCondition, LogicalOp};
    use crate::schema::Schema;
    use cost::Calibration;
    use pz_llm::{Catalog, ModelKind};
    use std::sync::Arc;

    /// splitmix64: a self-contained generator, so every case is replayable
    /// from its seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Join build side of the `i`th semantic operator (one per join, so
    /// joined field names stay distinct).
    fn build_side(i: usize) -> String {
        format!("reviews{i}")
    }

    fn semantic_op(g: &mut Gen, i: usize) -> LogicalOp {
        let target = |n: usize| {
            let fields = (0..n)
                .map(|f| FieldDef::text(format!("f{f}"), ""))
                .collect();
            Schema::new(format!("T{i}"), "", fields).unwrap()
        };
        match g.below(5) {
            0 => LogicalOp::Filter {
                predicate: FilterPredicate::NaturalLanguage(format!("predicate number {i}")),
            },
            1 => LogicalOp::Convert {
                target: target(1 + g.below(3)),
                cardinality: Cardinality::OneToOne,
                description: String::new(),
            },
            2 => LogicalOp::Convert {
                target: target(1 + g.below(3)),
                cardinality: Cardinality::OneToMany,
                description: String::new(),
            },
            3 => LogicalOp::Classify {
                labels: vec!["yes".into(), "no".into(), "maybe".into()],
                output_field: format!("label{i}"),
            },
            _ => LogicalOp::Join {
                dataset: build_side(i),
                condition: JoinCondition::Semantic {
                    criterion: format!("the two are related {i}"),
                },
            },
        }
    }

    /// Scan, then 1–4 semantic operators with UDF filters and Limits mixed in.
    fn gen_plan(g: &mut Gen, dataset: &str) -> LogicalPlan {
        let mut ops = vec![LogicalOp::Scan {
            dataset: dataset.into(),
        }];
        for i in 0..1 + g.below(4) {
            match g.below(4) {
                0 => ops.push(LogicalOp::Filter {
                    predicate: FilterPredicate::Udf(format!("udf{i}")),
                }),
                1 => ops.push(LogicalOp::Limit { n: 1 + g.below(40) }),
                _ => {}
            }
            ops.push(semantic_op(g, i));
        }
        LogicalPlan::new(ops).unwrap()
    }

    /// Selectivity (zero included), fan-out and quality overrides for some
    /// operators and models.
    fn gen_calibration(g: &mut Gen, plan: &LogicalPlan, catalog: &Catalog) -> Calibration {
        let models: Vec<String> = catalog.iter().map(|m| m.id.as_str().to_string()).collect();
        let mut c = Calibration::default();
        for idx in 1..plan.ops.len() {
            if g.below(2) == 0 {
                let s = if g.below(8) == 0 { 0.0 } else { g.unit() };
                c.selectivity.insert(idx, s);
            }
            if g.below(3) == 0 {
                c.fanout.insert(idx, 1.0 + 3.0 * g.unit());
            }
            for m in &models {
                if g.below(3) == 0 {
                    c.quality.insert((idx, m.clone()), 0.05 + 0.95 * g.unit());
                }
            }
        }
        if g.below(2) == 0 {
            c.avg_record_tokens = Some(10.0 + 4000.0 * g.unit());
        }
        c
    }

    /// Every policy kind; each constrained budget is drawn from the range of
    /// the reference frontier, sometimes exactly one of its points.
    fn gen_policies(g: &mut Gen, front: &[(PhysicalPlan, PlanEstimate)]) -> Vec<Policy> {
        let draw = |g: &mut Gen, axis: fn(&PlanEstimate) -> f64| {
            if g.below(4) == 0 {
                return axis(&front[g.below(front.len())].1);
            }
            let (lo, hi) = front
                .iter()
                .map(|(_, e)| axis(e))
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                });
            lo + (hi - lo) * g.unit()
        };
        vec![
            Policy::MaxQuality,
            Policy::MinCost,
            Policy::MinTime,
            Policy::MaxQualityAtCost(draw(g, |e| e.cost_usd)),
            Policy::MaxQualityAtTime(draw(g, |e| e.time_secs)),
            Policy::MinCostAtQuality(draw(g, |e| e.quality)),
        ]
    }

    fn reference_front(
        plan: &LogicalPlan,
        cost_ctx: &CostContext,
    ) -> Vec<(PhysicalPlan, PlanEstimate)> {
        let all = enumerate::enumerate_plans(plan, &cost_ctx.catalog, usize::MAX)
            .into_iter()
            .map(|p| {
                let e = cost::estimate_plan(&p, cost_ctx);
                (p, e)
            })
            .collect();
        pareto::pareto_front(all)
    }

    fn bits(e: &PlanEstimate) -> [u64; 4] {
        [
            e.cost_usd.to_bits(),
            e.time_secs.to_bits(),
            e.quality.to_bits(),
            e.output_cardinality.to_bits(),
        ]
    }

    fn sorted_bits(front: &[(PhysicalPlan, PlanEstimate)]) -> Vec<[u64; 4]> {
        let mut v: Vec<_> = front.iter().map(|(_, e)| bits(e)).collect();
        v.sort_unstable();
        v
    }

    /// The chosen plan and estimate match the reference's; the breakdown
    /// adds up to the estimate.
    fn assert_same_choice(
        case: &str,
        policy: &Policy,
        reference: &[(PhysicalPlan, PlanEstimate)],
        (chosen, est): &(PhysicalPlan, PlanEstimate),
        report: &OptimizerReport,
    ) {
        let (want, want_est) = &reference[policy.choose(reference).unwrap()];
        assert_eq!(chosen.describe(), want.describe(), "{case} {policy}");
        assert_eq!(bits(est), bits(want_est), "{case} {policy}");
        assert_eq!(report.pareto_size, reference.len(), "{case} {policy}");
        let rows = &report.op_estimates;
        assert_eq!(rows.len(), chosen.ops.len(), "{case} {policy}");
        let close = |sum: f64, total: f64| (sum - total).abs() <= 1e-9 * total.abs().max(1.0);
        let cost: f64 = rows.iter().map(|r| r.cost_usd).sum();
        let time: f64 = rows.iter().map(|r| r.time_secs).sum();
        assert!(
            close(cost, est.cost_usd),
            "{case} {policy}: {cost} vs {est:?}"
        );
        assert!(
            close(time, est.time_secs),
            "{case} {policy}: {time} vs {est:?}"
        );
        let out = rows.last().unwrap().output_cardinality;
        assert_eq!(out.to_bits(), est.output_cardinality.to_bits(), "{case}");
    }

    #[test]
    fn search_matches_exhaustive_reference() {
        let catalog = Catalog::builtin();
        for seed in 0..48u64 {
            let mut g = Gen(seed);
            let plan = gen_plan(&mut g, "d");
            let mut cost_ctx = CostContext {
                catalog: catalog.clone(),
                // An empty source makes every plan free, so plans tie
                // and the policy's first-winner order decides.
                input_cardinality: match g.below(6) {
                    0 => 0.0,
                    _ => g.below(400) as f64,
                },
                avg_record_tokens: 20.0 + 3000.0 * g.unit(),
                build_cardinality: (0..4)
                    .map(|i| (build_side(i), 1.0 + g.below(30) as f64))
                    .collect(),
                calibration: None,
            };
            if seed % 2 == 1 {
                cost_ctx.calibration = Some(gen_calibration(&mut g, &plan, &catalog));
            }
            let case = format!("seed {seed}: {}", plan.describe());
            let reference = reference_front(&plan, &cost_ctx);
            let frontier = pareto::enumerate_pareto(&plan, &catalog, &cost_ctx);
            assert_eq!(
                sorted_bits(&frontier.plans),
                sorted_bits(&reference),
                "{case}"
            );
            for policy in gen_policies(&mut g, &reference) {
                let mut report = OptimizerReport::default();
                let got = search(&plan, &cost_ctx, &policy, &mut report).unwrap();
                assert_same_choice(&case, &policy, &reference, &got, &report);
            }
        }
    }

    #[test]
    fn optimize_matches_exhaustive_reference_on_a_live_context() {
        let ctx = PzContext::simulated();
        let (docs, _) = pz_datagen::science::demo_corpus();
        let items: Vec<(String, String)> =
            docs.into_iter().map(|d| (d.filename, d.content)).collect();
        for name in (0..4).map(build_side).chain(["papers".into()]) {
            ctx.registry.register(Arc::new(MemorySource::new(
                name,
                Schema::pdf_file(),
                items.clone(),
            )));
        }
        for seed in 100..112u64 {
            let mut g = Gen(seed);
            let plan = gen_plan(&mut g, "papers");
            let (rewritten, _) = rewrite::rewrite(&plan);
            let cost_ctx = CostContext::from_context(&ctx, &rewritten).unwrap();
            let reference = reference_front(&rewritten, &cost_ctx);
            let case = format!("seed {seed}: {}", plan.describe());
            for policy in gen_policies(&mut g, &reference) {
                let (chosen, est, report) =
                    Optimizer::default().optimize(&ctx, &plan, &policy).unwrap();
                assert_same_choice(&case, &policy, &reference, &(chosen, est), &report);
            }
        }
    }

    #[test]
    fn search_prices_each_extension_once() {
        let catalog = Catalog::builtin();
        let chat = catalog.of_kind(ModelKind::Chat).count();
        let plan = LogicalPlan::new(vec![
            LogicalOp::Scan {
                dataset: "d".into(),
            },
            LogicalOp::Filter {
                predicate: FilterPredicate::NaturalLanguage("p".into()),
            },
        ])
        .unwrap();
        let cost_ctx = CostContext {
            catalog: catalog.clone(),
            input_cardinality: 10.0,
            avg_record_tokens: 100.0,
            build_cardinality: Default::default(),
            calibration: None,
        };
        let frontier = pareto::enumerate_pareto(&plan, &catalog, &cost_ctx);
        // One step for the scan, then one per filter alternative.
        assert_eq!(frontier.priced, 1 + chat * 2 + 2);
    }
}
