//! Physical operators.
//!
//! Paper §2.1: "For each logical operator, multiple equivalent physical
//! implementations may be available. For instance, a filter operation might
//! be performed via different LLM models, each representing a distinct
//! physical method." A [`PhysicalOp`] fixes those choices: which model,
//! which strategy (LLM vs embedding vs UDF), which effort level. A
//! [`PhysicalPlan`] is one fully-specified implementation of a logical
//! plan; the optimizer enumerates and ranks them.

use crate::context::PzContext;
use crate::error::PzResult;
use crate::ops::logical::{AggExpr, Cardinality, LogicalOp};
use crate::record::DataRecord;
use crate::schema::Schema;
use pz_llm::protocol::Effort;
use pz_llm::ModelId;
use serde::{Deserialize, Serialize};

/// One fully-specified physical operator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PhysicalOp {
    /// Materialize a registered dataset.
    Scan {
        dataset: String,
    },
    /// Filter via an LLM judgement per record.
    LlmFilter {
        predicate: String,
        model: ModelId,
        effort: Effort,
    },
    /// Filter via embedding similarity between predicate and record text —
    /// much cheaper, lower quality.
    EmbeddingFilter {
        predicate: String,
        model: ModelId,
        threshold: f32,
    },
    /// Mixture-of-agents filter: several models vote per record; majority
    /// wins (ties drop the record). Better quality than any single member,
    /// at the summed cost.
    EnsembleFilter {
        predicate: String,
        models: Vec<ModelId>,
        effort: Effort,
    },
    /// Filter via a registered boolean UDF.
    UdfFilter {
        udf: String,
    },
    /// Schema conversion via one "bonded" LLM extraction per record (all
    /// missing fields in a single prompt).
    LlmConvert {
        target: Schema,
        cardinality: Cardinality,
        description: String,
        model: ModelId,
        effort: Effort,
    },
    /// Schema conversion via one LLM call *per missing field* per record
    /// (the "conventional" strategy): focused prompts raise per-field
    /// accuracy, but one-to-many outputs must be zipped positionally across
    /// calls, and the cost multiplies by the field count.
    FieldwiseConvert {
        target: Schema,
        cardinality: Cardinality,
        description: String,
        model: ModelId,
        effort: Effort,
    },
    /// Registered record transform.
    Map {
        udf: String,
    },
    Project {
        fields: Vec<String>,
    },
    Limit {
        n: usize,
    },
    Sort {
        field: String,
        descending: bool,
    },
    Distinct {
        fields: Vec<String>,
    },
    Aggregate {
        group_by: Vec<String>,
        aggs: Vec<AggExpr>,
    },
    /// Semantic top-k: cosine similarity to the query over the input.
    Retrieve {
        query: String,
        k: usize,
        model: ModelId,
    },
    /// Conventional equi-join against a registered dataset.
    HashJoin {
        dataset: String,
        left_field: String,
        right_field: String,
    },
    /// Semantic join: an LLM judges every (left, right) pair.
    LlmJoin {
        dataset: String,
        criterion: String,
        model: ModelId,
        effort: Effort,
    },
    /// Semantic categorization: one label per record, nothing dropped.
    LlmClassify {
        labels: Vec<String>,
        output_field: String,
        model: ModelId,
        effort: Effort,
    },
    /// UNION ALL with another registered dataset.
    UnionAll {
        dataset: String,
    },
}

impl PhysicalOp {
    /// Short implementation name (Figure 5's "operators chosen" column).
    pub fn describe(&self) -> String {
        match self {
            PhysicalOp::Scan { dataset } => format!("Scan[{dataset}]"),
            PhysicalOp::LlmFilter { model, effort, .. } => {
                format!("LLMFilter[{model}{}]", effort_suffix(*effort))
            }
            PhysicalOp::EmbeddingFilter {
                model, threshold, ..
            } => {
                format!("EmbedFilter[{model}, t={threshold}]")
            }
            PhysicalOp::EnsembleFilter { models, .. } => format!(
                "EnsembleFilter[{}]",
                models
                    .iter()
                    .map(|m| m.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            ),
            PhysicalOp::UdfFilter { udf } => format!("UDFFilter[{udf}]"),
            PhysicalOp::LlmConvert {
                target,
                model,
                effort,
                ..
            } => {
                format!(
                    "LLMConvert[{} via {model}{}]",
                    target.name,
                    effort_suffix(*effort)
                )
            }
            PhysicalOp::FieldwiseConvert {
                target,
                model,
                effort,
                ..
            } => {
                format!(
                    "FieldwiseConvert[{} via {model}{}]",
                    target.name,
                    effort_suffix(*effort)
                )
            }
            PhysicalOp::Map { udf } => format!("Map[{udf}]"),
            PhysicalOp::Project { fields } => format!("Project[{}]", fields.join(",")),
            PhysicalOp::Limit { n } => format!("Limit[{n}]"),
            PhysicalOp::Sort { field, descending } => {
                format!("Sort[{field}{}]", if *descending { " desc" } else { "" })
            }
            PhysicalOp::Distinct { fields } => format!("Distinct[{}]", fields.join(",")),
            PhysicalOp::Aggregate { group_by, .. } => {
                format!("Aggregate[by {}]", group_by.join(","))
            }
            PhysicalOp::Retrieve { k, model, .. } => format!("Retrieve[k={k} via {model}]"),
            PhysicalOp::HashJoin {
                dataset,
                left_field,
                right_field,
            } => {
                format!("HashJoin[{dataset} on {left_field}={right_field}]")
            }
            PhysicalOp::LlmJoin {
                dataset,
                model,
                effort,
                ..
            } => {
                format!("LLMJoin[{dataset} via {model}{}]", effort_suffix(*effort))
            }
            PhysicalOp::LlmClassify {
                output_field,
                model,
                effort,
                ..
            } => {
                format!(
                    "LLMClassify[->{output_field} via {model}{}]",
                    effort_suffix(*effort)
                )
            }
            PhysicalOp::UnionAll { dataset } => format!("UnionAll[{dataset}]"),
        }
    }

    /// The model this operator calls, if any.
    pub fn model(&self) -> Option<&ModelId> {
        match self {
            PhysicalOp::LlmFilter { model, .. }
            | PhysicalOp::EmbeddingFilter { model, .. }
            | PhysicalOp::LlmConvert { model, .. }
            | PhysicalOp::FieldwiseConvert { model, .. }
            | PhysicalOp::Retrieve { model, .. }
            | PhysicalOp::LlmJoin { model, .. }
            | PhysicalOp::LlmClassify { model, .. } => Some(model),
            PhysicalOp::EnsembleFilter { models, .. } => models.first(),
            _ => None,
        }
    }

    /// Logical operator kind implemented by this physical op.
    pub fn logical_kind(&self) -> &'static str {
        match self {
            PhysicalOp::Scan { .. } => "scan",
            PhysicalOp::LlmFilter { .. }
            | PhysicalOp::EmbeddingFilter { .. }
            | PhysicalOp::EnsembleFilter { .. }
            | PhysicalOp::UdfFilter { .. } => "filter",
            PhysicalOp::LlmConvert { .. } | PhysicalOp::FieldwiseConvert { .. } => "convert",
            PhysicalOp::Map { .. } => "map",
            PhysicalOp::Project { .. } => "project",
            PhysicalOp::Limit { .. } => "limit",
            PhysicalOp::Sort { .. } => "sort",
            PhysicalOp::Distinct { .. } => "distinct",
            PhysicalOp::Aggregate { .. } => "aggregate",
            PhysicalOp::Retrieve { .. } => "retrieve",
            PhysicalOp::HashJoin { .. } | PhysicalOp::LlmJoin { .. } => "join",
            PhysicalOp::LlmClassify { .. } => "classify",
            PhysicalOp::UnionAll { .. } => "union",
        }
    }

    /// Can the executor fan records of this op out to parallel workers?
    /// True exactly for the per-record LLM-bound operators.
    pub fn is_parallelizable(&self) -> bool {
        matches!(
            self,
            PhysicalOp::LlmFilter { .. }
                | PhysicalOp::EmbeddingFilter { .. }
                | PhysicalOp::EnsembleFilter { .. }
                | PhysicalOp::LlmConvert { .. }
                | PhysicalOp::FieldwiseConvert { .. }
                | PhysicalOp::LlmJoin { .. }
                | PhysicalOp::LlmClassify { .. }
        )
    }

    /// Execute this operator over materialized input.
    pub fn execute(&self, ctx: &PzContext, input: Vec<DataRecord>) -> PzResult<Vec<DataRecord>> {
        match self {
            PhysicalOp::Scan { dataset } => {
                // Chunk size 0 asks for one batch holding everything.
                let mut batches = ctx.open_scan(dataset, 0)?;
                let mut all = batches.next().transpose()?.unwrap_or_default();
                for batch in batches {
                    all.extend(batch?);
                }
                Ok(all)
            }
            PhysicalOp::LlmFilter {
                predicate,
                model,
                effort,
            } => crate::ops::filter::llm_filter(ctx, input, predicate, model, *effort),
            PhysicalOp::EmbeddingFilter {
                predicate,
                model,
                threshold,
            } => crate::ops::filter::embedding_filter(ctx, input, predicate, model, *threshold),
            PhysicalOp::EnsembleFilter {
                predicate,
                models,
                effort,
            } => crate::ops::filter::ensemble_filter(ctx, input, predicate, models, *effort),
            PhysicalOp::UdfFilter { udf } => crate::ops::filter::udf_filter(ctx, input, udf),
            PhysicalOp::LlmConvert {
                target,
                cardinality,
                model,
                effort,
                ..
            } => crate::ops::convert::llm_convert(ctx, input, target, *cardinality, model, *effort),
            PhysicalOp::FieldwiseConvert {
                target,
                cardinality,
                model,
                effort,
                ..
            } => crate::ops::convert::llm_convert_fieldwise(
                ctx,
                input,
                target,
                *cardinality,
                model,
                *effort,
            ),
            PhysicalOp::Map { udf } => crate::ops::relational::map(ctx, input, udf),
            PhysicalOp::Project { fields } => Ok(crate::ops::relational::project(input, fields)),
            PhysicalOp::Limit { n } => Ok(crate::ops::relational::limit(input, *n)),
            PhysicalOp::Sort { field, descending } => {
                Ok(crate::ops::relational::sort(input, field, *descending))
            }
            PhysicalOp::Distinct { fields } => Ok(crate::ops::relational::distinct(input, fields)),
            PhysicalOp::Aggregate { group_by, aggs } => {
                crate::ops::relational::aggregate(ctx, input, group_by, aggs)
            }
            PhysicalOp::Retrieve { query, k, model } => {
                crate::ops::retrieve::retrieve(ctx, input, query, *k, model)
            }
            PhysicalOp::HashJoin {
                dataset,
                left_field,
                right_field,
            } => crate::ops::join::hash_join(ctx, input, dataset, left_field, right_field),
            PhysicalOp::LlmJoin {
                dataset,
                criterion,
                model,
                effort,
            } => crate::ops::join::llm_join(ctx, input, dataset, criterion, model, *effort),
            PhysicalOp::LlmClassify {
                labels,
                output_field,
                model,
                effort,
            } => {
                crate::ops::classify::llm_classify(ctx, input, labels, output_field, model, *effort)
            }
            PhysicalOp::UnionAll { dataset } => {
                let src = ctx.registry.get(dataset)?;
                let mut out = input;
                out.extend(src.records(ctx.reserve_ids(src.as_ref()))?);
                Ok(out)
            }
        }
    }
}

fn effort_suffix(effort: Effort) -> &'static str {
    match effort {
        Effort::Standard => "",
        Effort::High => ", high-effort",
    }
}

/// A fully-specified physical plan: one physical choice per logical op.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhysicalPlan {
    pub ops: Vec<PhysicalOp>,
}

impl PhysicalPlan {
    pub fn describe(&self) -> String {
        self.ops
            .iter()
            .map(|o| o.describe())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// The logical kinds, for checking a physical plan implements a given
    /// logical plan.
    pub fn logical_kinds(&self) -> Vec<&'static str> {
        self.ops.iter().map(|o| o.logical_kind()).collect()
    }

    /// Does this plan implement the given logical plan (same op kinds in
    /// the same order)?
    pub fn implements(&self, logical: &crate::ops::logical::LogicalPlan) -> bool {
        self.ops.len() == logical.ops.len()
            && self
                .ops
                .iter()
                .zip(&logical.ops)
                .all(|(p, l)| p.logical_kind() == l.kind())
    }
}

/// The trivially-correct physical rendering of non-semantic logical ops
/// (used by enumeration and tests).
pub fn default_physical(op: &LogicalOp) -> Option<PhysicalOp> {
    Some(match op {
        LogicalOp::Scan { dataset } => PhysicalOp::Scan {
            dataset: dataset.clone(),
        },
        LogicalOp::Map { udf } => PhysicalOp::Map { udf: udf.clone() },
        LogicalOp::Project { fields } => PhysicalOp::Project {
            fields: fields.clone(),
        },
        LogicalOp::Limit { n } => PhysicalOp::Limit { n: *n },
        LogicalOp::Sort { field, descending } => PhysicalOp::Sort {
            field: field.clone(),
            descending: *descending,
        },
        LogicalOp::Distinct { fields } => PhysicalOp::Distinct {
            fields: fields.clone(),
        },
        LogicalOp::Aggregate { group_by, aggs } => PhysicalOp::Aggregate {
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        LogicalOp::Union { dataset } => PhysicalOp::UnionAll {
            dataset: dataset.clone(),
        },
        LogicalOp::Join {
            dataset,
            condition: crate::ops::logical::JoinCondition::FieldEq { left, right },
        } => PhysicalOp::HashJoin {
            dataset: dataset.clone(),
            left_field: left.clone(),
            right_field: right.clone(),
        },
        LogicalOp::Filter { .. }
        | LogicalOp::Convert { .. }
        | LogicalOp::Retrieve { .. }
        | LogicalOp::Classify { .. }
        | LogicalOp::Join {
            condition: crate::ops::logical::JoinCondition::Semantic { .. },
            ..
        } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldDef;
    use crate::ops::logical::FilterPredicate;

    fn clinical() -> Schema {
        Schema::new(
            "ClinicalData",
            "",
            vec![FieldDef::text("name", "dataset name")],
        )
        .unwrap()
    }

    #[test]
    fn describe_formats() {
        let op = PhysicalOp::LlmFilter {
            predicate: "p".into(),
            model: "gpt-4o".into(),
            effort: Effort::High,
        };
        assert_eq!(op.describe(), "LLMFilter[gpt-4o, high-effort]");
        assert_eq!(PhysicalOp::Limit { n: 3 }.describe(), "Limit[3]");
    }

    #[test]
    fn model_extraction() {
        let op = PhysicalOp::LlmConvert {
            target: clinical(),
            cardinality: Cardinality::OneToOne,
            description: String::new(),
            model: "gpt-4o-mini".into(),
            effort: Effort::Standard,
        };
        assert_eq!(op.model().unwrap().as_str(), "gpt-4o-mini");
        assert_eq!(PhysicalOp::Limit { n: 1 }.model(), None);
    }

    #[test]
    fn parallelizable_ops() {
        assert!(PhysicalOp::LlmFilter {
            predicate: "p".into(),
            model: "m".into(),
            effort: Effort::Standard
        }
        .is_parallelizable());
        assert!(!PhysicalOp::Sort {
            field: "f".into(),
            descending: false
        }
        .is_parallelizable());
        assert!(!PhysicalOp::Scan {
            dataset: "d".into()
        }
        .is_parallelizable());
    }

    #[test]
    fn implements_checks_kinds() {
        let logical = crate::ops::logical::LogicalPlan::new(vec![
            LogicalOp::Scan {
                dataset: "d".into(),
            },
            LogicalOp::Filter {
                predicate: FilterPredicate::NaturalLanguage("p".into()),
            },
        ])
        .unwrap();
        let good = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "d".into(),
                },
                PhysicalOp::EmbeddingFilter {
                    predicate: "p".into(),
                    model: "text-embedding-3-small".into(),
                    threshold: 0.2,
                },
            ],
        };
        assert!(good.implements(&logical));
        let bad = PhysicalPlan {
            ops: vec![PhysicalOp::Scan {
                dataset: "d".into(),
            }],
        };
        assert!(!bad.implements(&logical));
    }

    #[test]
    fn default_physical_covers_conventional_ops() {
        assert!(default_physical(&LogicalOp::Limit { n: 2 }).is_some());
        assert!(default_physical(&LogicalOp::Scan {
            dataset: "d".into()
        })
        .is_some());
        assert!(default_physical(&LogicalOp::Filter {
            predicate: FilterPredicate::NaturalLanguage("p".into())
        })
        .is_none());
        assert!(default_physical(&LogicalOp::Convert {
            target: clinical(),
            cardinality: Cardinality::OneToOne,
            description: String::new()
        })
        .is_none());
    }
}
