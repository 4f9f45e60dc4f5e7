//! Pareto-frontier pruning and the plan search built on it.
//!
//! A plan is *dominated* when another plan is at least as good on all three
//! objectives (cost ↓, time ↓, quality ↑) and strictly better on one. No
//! policy can ever prefer a dominated plan, so they are pruned before
//! ranking. [`enumerate_pareto`] interleaves pruning with enumeration:
//! because all alternatives of an operator share the same cardinality
//! model, prefix-dominance is safe and the frontier stays small while the
//! full space grows exponentially (experiment E4).

use crate::ops::logical::LogicalPlan;
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::optimizer::cost::{CostContext, PlanEstimate, Running};
use crate::optimizer::enumerate::alternatives;
use pz_llm::Catalog;

/// Does `a` dominate `b`?
pub fn dominates(a: &PlanEstimate, b: &PlanEstimate) -> bool {
    let at_least_as_good =
        a.cost_usd <= b.cost_usd && a.time_secs <= b.time_secs && a.quality >= b.quality;
    let strictly_better =
        a.cost_usd < b.cost_usd || a.time_secs < b.time_secs || a.quality > b.quality;
    at_least_as_good && strictly_better
}

/// Keep only non-dominated entries (stable order).
///
/// Visits the entries by (cost ↑, time ↑, quality ↓), an order in which
/// every dominator comes before what it dominates, so each entry is
/// checked only against the survivors so far: O(n log n + n·frontier).
/// Estimates are never NaN or negative, so the total order agrees with
/// `<=` on them.
pub fn pareto_front<T>(items: Vec<(T, PlanEstimate)>) -> Vec<(T, PlanEstimate)> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&items[a].1, &items[b].1);
        a.cost_usd
            .total_cmp(&b.cost_usd)
            .then(a.time_secs.total_cmp(&b.time_secs))
            .then(b.quality.total_cmp(&a.quality))
    });
    let mut keep = vec![false; items.len()];
    let mut survivors: Vec<&PlanEstimate> = Vec::new();
    for i in order {
        let e = &items[i].1;
        if !survivors.iter().any(|s| dominates(s, e)) {
            survivors.push(e);
            keep[i] = true;
        }
    }
    items
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(it, _)| it)
        .collect()
}

/// The Pareto frontier of a logical plan's physical plans.
#[derive(Clone, Debug)]
pub struct Frontier {
    /// Non-dominated plans with their estimates, in enumeration order.
    pub plans: Vec<(PhysicalPlan, PlanEstimate)>,
    /// Prefix extensions priced on the way, one pricing step each.
    pub priced: usize,
}

/// Enumerate with prefix-level Pareto pruning: every surviving prefix is
/// extended with every alternative of the next operator by one pricing
/// step, and dominated extensions are dropped. Sound because every prefix
/// leaves the same cardinality and record size ([`Running`]), so a
/// completion adds identical deltas to every prefix it extends. Plans are
/// built only for the final frontier, in the order that
/// [`enumerate_plans`](crate::optimizer::enumerate::enumerate_plans) lists
/// them.
pub fn enumerate_pareto(plan: &LogicalPlan, catalog: &Catalog, ctx: &CostContext) -> Frontier {
    let per_op: Vec<Vec<PhysicalOp>> = plan
        .ops
        .iter()
        .map(|op| alternatives(op, catalog))
        .collect();
    let mut frontier = vec![Running::start(ctx)];
    // Per operator: each survivor's (prefix index, alternative index).
    let mut links: Vec<Vec<(usize, usize)>> = Vec::with_capacity(per_op.len());
    let mut priced = 0;
    for (idx, alts) in per_op.iter().enumerate() {
        let mut extended = Vec::with_capacity(frontier.len() * alts.len());
        for (p, prefix) in frontier.iter().enumerate() {
            for (a, op) in alts.iter().enumerate() {
                let mut next = *prefix;
                next.step(idx, op, ctx);
                extended.push(((p, a, next), next.est));
            }
        }
        priced += extended.len();
        let kept = pareto_front(extended);
        links.push(kept.iter().map(|((p, a, _), _)| (*p, *a)).collect());
        frontier = kept.into_iter().map(|((_, _, next), _)| next).collect();
    }
    let plans = frontier
        .into_iter()
        .enumerate()
        .map(|(mut at, run)| {
            let mut ops = Vec::with_capacity(per_op.len());
            for (layer, alts) in links.iter().zip(&per_op).rev() {
                let (prefix, alt) = layer[at];
                ops.push(alts[alt].clone());
                at = prefix;
            }
            ops.reverse();
            (PhysicalPlan { ops }, run.est)
        })
        .collect();
    Frontier { plans, priced }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::logical::{FilterPredicate, LogicalOp};
    use crate::optimizer::cost::estimate_plan;
    use crate::optimizer::enumerate::enumerate_plans;
    use proptest::prelude::*;

    fn est(cost: f64, time: f64, quality: f64) -> PlanEstimate {
        PlanEstimate {
            cost_usd: cost,
            time_secs: time,
            quality,
            output_cardinality: 1.0,
        }
    }

    fn dummy_plan() -> PhysicalPlan {
        PhysicalPlan { ops: vec![] }
    }

    #[test]
    fn dominance_rules() {
        assert!(dominates(&est(1.0, 1.0, 0.9), &est(2.0, 1.0, 0.9)));
        assert!(dominates(&est(1.0, 1.0, 0.9), &est(1.0, 2.0, 0.8)));
        assert!(!dominates(&est(1.0, 1.0, 0.9), &est(1.0, 1.0, 0.9))); // equal
        assert!(!dominates(&est(1.0, 2.0, 0.9), &est(2.0, 1.0, 0.8))); // tradeoff
    }

    #[test]
    fn front_removes_dominated() {
        let items = vec![
            (dummy_plan(), est(1.0, 1.0, 0.9)),
            (dummy_plan(), est(2.0, 2.0, 0.8)), // dominated
            (dummy_plan(), est(0.5, 3.0, 0.7)), // tradeoff: cheaper
        ];
        let front = pareto_front(items);
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn front_keeps_duplicates_of_equal_points() {
        let items = vec![
            (dummy_plan(), est(1.0, 1.0, 0.9)),
            (dummy_plan(), est(1.0, 1.0, 0.9)),
        ];
        assert_eq!(pareto_front(items).len(), 2);
    }

    fn science_cost_ctx() -> CostContext {
        CostContext {
            catalog: Catalog::builtin(),
            input_cardinality: 100.0,
            avg_record_tokens: 500.0,
            build_cardinality: Default::default(),
            calibration: None,
        }
    }

    fn chain(n_filters: usize) -> LogicalPlan {
        let mut ops = vec![LogicalOp::Scan {
            dataset: "d".into(),
        }];
        for i in 0..n_filters {
            ops.push(LogicalOp::Filter {
                predicate: FilterPredicate::NaturalLanguage(format!("predicate {i}")),
            });
        }
        LogicalPlan::new(ops).unwrap()
    }

    #[test]
    fn pruned_enumeration_matches_exhaustive_frontier() {
        let plan = chain(2);
        let cat = Catalog::builtin();
        let ctx = science_cost_ctx();
        let exhaustive: Vec<(PhysicalPlan, PlanEstimate)> =
            enumerate_plans(&plan, &cat, usize::MAX)
                .into_iter()
                .map(|p| {
                    let e = estimate_plan(&p, &ctx);
                    (p, e)
                })
                .collect();
        let full_front = pareto_front(exhaustive);
        let pruned = enumerate_pareto(&plan, &cat, &ctx).plans;
        // Same frontier *estimates* (plans may tie).
        let mut a: Vec<String> = full_front
            .iter()
            .map(|(_, e)| format!("{:.6}|{:.4}|{:.4}", e.cost_usd, e.time_secs, e.quality))
            .collect();
        let mut b: Vec<String> = pruned
            .iter()
            .map(|(_, e)| format!("{:.6}|{:.4}|{:.4}", e.cost_usd, e.time_secs, e.quality))
            .collect();
        a.sort();
        a.dedup();
        b.sort();
        b.dedup();
        assert_eq!(a, b);
    }

    #[test]
    fn frontier_stays_small_as_space_explodes() {
        let cat = Catalog::builtin();
        let ctx = science_cost_ctx();
        let f3 = enumerate_pareto(&chain(3), &cat, &ctx).plans.len();
        let f5 = enumerate_pareto(&chain(5), &cat, &ctx).plans.len();
        // Full spaces: 13^3 = 2197, 13^5 = 371293. Frontiers stay tiny.
        assert!(f3 < 200, "frontier {f3}");
        assert!(f5 < 2000, "frontier {f5}");
    }

    proptest! {
        #[test]
        fn front_never_contains_dominated_pair(
            points in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.1f64..1.0), 1..30)
        ) {
            let items: Vec<(PhysicalPlan, PlanEstimate)> = points
                .into_iter()
                .map(|(c, t, q)| (dummy_plan(), est(c, t, q)))
                .collect();
            let front = pareto_front(items);
            for i in 0..front.len() {
                for j in 0..front.len() {
                    if i != j {
                        prop_assert!(!dominates(&front[j].1, &front[i].1));
                    }
                }
            }
        }

        #[test]
        fn every_input_is_on_front_or_dominated(
            points in proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0, 0.1f64..1.0), 1..20)
        ) {
            let items: Vec<(PhysicalPlan, PlanEstimate)> = points
                .iter()
                .map(|&(c, t, q)| (dummy_plan(), est(c, t, q)))
                .collect();
            let front = pareto_front(items.clone());
            for (_, e) in &items {
                let on_front = front.iter().any(|(_, f)| f == e);
                let dominated = front.iter().any(|(_, f)| dominates(f, e));
                prop_assert!(on_front || dominated);
            }
        }
    }
}
