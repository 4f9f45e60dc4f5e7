//! Physical plan enumeration.
//!
//! For each logical operator, the catalog induces a set of physical
//! alternatives; the plan space is their cartesian product. The optimizer's
//! search ([`pareto::enumerate_pareto`](crate::optimizer::pareto::enumerate_pareto))
//! walks these alternatives one operator at a time. [`enumerate_plans`]
//! lists the whole product; it is the reference that tests and experiment
//! E4 compare the search against, never the optimizer's path.

use crate::ops::logical::{FilterPredicate, JoinCondition, LogicalOp, LogicalPlan};
use crate::ops::physical::{default_physical, PhysicalOp, PhysicalPlan};
use pz_llm::protocol::Effort;
use pz_llm::{Catalog, ModelKind};

/// Threshold for the embedding-filter alternative.
pub const EMBEDDING_FILTER_THRESHOLD: f32 = 0.30;

/// All physical implementations of one logical operator.
pub fn alternatives(op: &LogicalOp, catalog: &Catalog) -> Vec<PhysicalOp> {
    match op {
        LogicalOp::Filter {
            predicate: FilterPredicate::NaturalLanguage(p),
        } => {
            let mut out = Vec::new();
            for m in catalog.of_kind(ModelKind::Chat) {
                for effort in [Effort::Standard, Effort::High] {
                    out.push(PhysicalOp::LlmFilter {
                        predicate: p.clone(),
                        model: m.id.clone(),
                        effort,
                    });
                }
            }
            if let Some(e) = catalog.of_kind(ModelKind::Embedding).next() {
                out.push(PhysicalOp::EmbeddingFilter {
                    predicate: p.clone(),
                    model: e.id.clone(),
                    threshold: EMBEDDING_FILTER_THRESHOLD,
                });
            }
            // Mixture-of-agents: the top-3 models vote. Quality above any
            // single member at the summed cost — a distinct frontier point.
            let top: Vec<_> = catalog
                .chat_models_by_quality()
                .into_iter()
                .take(3)
                .map(|m| m.id.clone())
                .collect();
            if top.len() == 3 {
                out.push(PhysicalOp::EnsembleFilter {
                    predicate: p.clone(),
                    models: top,
                    effort: Effort::Standard,
                });
            }
            out
        }
        LogicalOp::Filter {
            predicate: FilterPredicate::Udf(u),
        } => {
            vec![PhysicalOp::UdfFilter { udf: u.clone() }]
        }
        LogicalOp::Convert {
            target,
            cardinality,
            description,
        } => {
            let mut out = Vec::new();
            for m in catalog.of_kind(ModelKind::Chat) {
                for effort in [Effort::Standard, Effort::High] {
                    out.push(PhysicalOp::LlmConvert {
                        target: target.clone(),
                        cardinality: *cardinality,
                        description: description.clone(),
                        model: m.id.clone(),
                        effort,
                    });
                }
                // The "conventional" per-field strategy (standard effort
                // only: high effort on top of per-field calls is strictly
                // dominated in this cost model).
                out.push(PhysicalOp::FieldwiseConvert {
                    target: target.clone(),
                    cardinality: *cardinality,
                    description: description.clone(),
                    model: m.id.clone(),
                    effort: Effort::Standard,
                });
            }
            out
        }
        LogicalOp::Join {
            dataset,
            condition: JoinCondition::Semantic { criterion },
        } => {
            let mut out = Vec::new();
            for m in catalog.of_kind(ModelKind::Chat) {
                for effort in [Effort::Standard, Effort::High] {
                    out.push(PhysicalOp::LlmJoin {
                        dataset: dataset.clone(),
                        criterion: criterion.clone(),
                        model: m.id.clone(),
                        effort,
                    });
                }
            }
            out
        }
        LogicalOp::Classify {
            labels,
            output_field,
        } => {
            let mut out = Vec::new();
            for m in catalog.of_kind(ModelKind::Chat) {
                for effort in [Effort::Standard, Effort::High] {
                    out.push(PhysicalOp::LlmClassify {
                        labels: labels.clone(),
                        output_field: output_field.clone(),
                        model: m.id.clone(),
                        effort,
                    });
                }
            }
            out
        }
        LogicalOp::Retrieve { query, k } => catalog
            .of_kind(ModelKind::Embedding)
            .map(|m| PhysicalOp::Retrieve {
                query: query.clone(),
                k: *k,
                model: m.id.clone(),
            })
            .collect(),
        other => default_physical(other).into_iter().collect(),
    }
}

/// Size of the physical plan space (product of per-op alternative counts),
/// without materializing it; saturates at `u128::MAX`.
pub fn plan_space_size(plan: &LogicalPlan, catalog: &Catalog) -> u128 {
    plan.ops.iter().fold(1, |size: u128, op| {
        size.saturating_mul(alternatives(op, catalog).len() as u128)
    })
}

/// Materialize up to `cap` physical plans: the cartesian product, in
/// lexicographic order of each operator's alternatives.
pub fn enumerate_plans(plan: &LogicalPlan, catalog: &Catalog, cap: usize) -> Vec<PhysicalPlan> {
    let prefixes = plan.ops.iter().fold(vec![Vec::new()], |prefixes, op| {
        let alts = alternatives(op, catalog);
        // The first `cap` plans extend the first `cap` prefixes.
        prefixes
            .iter()
            .flat_map(|p: &Vec<PhysicalOp>| {
                alts.iter()
                    .map(move |a| p.iter().chain([a]).cloned().collect())
            })
            .take(cap)
            .collect()
    });
    prefixes
        .into_iter()
        .map(|ops| PhysicalPlan { ops })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldDef;
    use crate::ops::logical::Cardinality;
    use crate::schema::Schema;

    fn catalog() -> Catalog {
        Catalog::builtin()
    }

    fn nl_filter() -> LogicalOp {
        LogicalOp::Filter {
            predicate: FilterPredicate::NaturalLanguage("about cancer".into()),
        }
    }

    fn convert() -> LogicalOp {
        LogicalOp::Convert {
            target: Schema::new("S", "", vec![FieldDef::text("a", "")]).unwrap(),
            cardinality: Cardinality::OneToOne,
            description: String::new(),
        }
    }

    #[test]
    fn filter_alternatives_cover_models_efforts_and_embedding() {
        let alts = alternatives(&nl_filter(), &catalog());
        let chat_models = catalog().of_kind(ModelKind::Chat).count();
        // models × efforts + embedding + 3-model ensemble
        assert_eq!(alts.len(), chat_models * 2 + 2);
        assert!(alts
            .iter()
            .any(|a| matches!(a, PhysicalOp::EmbeddingFilter { .. })));
        assert!(alts
            .iter()
            .any(|a| matches!(a, PhysicalOp::EnsembleFilter { .. })));
    }

    #[test]
    fn udf_filter_single_alternative() {
        let alts = alternatives(
            &LogicalOp::Filter {
                predicate: FilterPredicate::Udf("f".into()),
            },
            &catalog(),
        );
        assert_eq!(alts.len(), 1);
    }

    #[test]
    fn conventional_ops_single_alternative() {
        assert_eq!(
            alternatives(&LogicalOp::Limit { n: 3 }, &catalog()).len(),
            1
        );
        assert_eq!(
            alternatives(
                &LogicalOp::Scan {
                    dataset: "d".into()
                },
                &catalog()
            )
            .len(),
            1
        );
    }

    #[test]
    fn plan_space_is_product() {
        let plan = LogicalPlan::new(vec![
            LogicalOp::Scan {
                dataset: "d".into(),
            },
            nl_filter(),
            convert(),
        ])
        .unwrap();
        let cat = catalog();
        let filters = alternatives(&nl_filter(), &cat).len() as u128;
        let converts = alternatives(&convert(), &cat).len() as u128;
        assert_eq!(plan_space_size(&plan, &cat), filters * converts);
    }

    #[test]
    fn enumerate_matches_space_size() {
        let plan = LogicalPlan::new(vec![
            LogicalOp::Scan {
                dataset: "d".into(),
            },
            nl_filter(),
            convert(),
        ])
        .unwrap();
        let cat = catalog();
        let plans = enumerate_plans(&plan, &cat, 100_000);
        assert_eq!(plans.len() as u128, plan_space_size(&plan, &cat));
        // All plans implement the logical plan and are distinct.
        for p in &plans {
            assert!(p.implements(&plan));
        }
        let mut descs: Vec<String> = plans.iter().map(|p| p.describe()).collect();
        descs.sort();
        descs.dedup();
        assert_eq!(descs.len(), plans.len());
    }

    #[test]
    fn cap_limits_enumeration() {
        let plan = LogicalPlan::new(vec![
            LogicalOp::Scan {
                dataset: "d".into(),
            },
            nl_filter(),
            nl_filter(),
            nl_filter(),
        ])
        .unwrap();
        let plans = enumerate_plans(&plan, &catalog(), 50);
        assert_eq!(plans.len(), 50);
    }

    #[test]
    fn space_size_saturates_instead_of_overflowing() {
        let mut ops = vec![LogicalOp::Scan {
            dataset: "d".into(),
        }];
        ops.extend((0..40).map(|_| nl_filter()));
        let plan = LogicalPlan::new(ops).unwrap();
        assert_eq!(plan_space_size(&plan, &catalog()), u128::MAX);
    }

    #[test]
    fn space_grows_exponentially_with_semantic_ops() {
        let cat = catalog();
        let mut ops = vec![LogicalOp::Scan {
            dataset: "d".into(),
        }];
        let mut sizes = Vec::new();
        for _ in 0..3 {
            ops.push(nl_filter());
            let plan = LogicalPlan::new(ops.clone()).unwrap();
            sizes.push(plan_space_size(&plan, &cat));
        }
        assert!(sizes[1] / sizes[0] >= 10);
        assert_eq!(sizes[1] / sizes[0], sizes[2] / sizes[1]);
    }
}
