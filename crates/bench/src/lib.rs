//! Shared harness for the experiments (see EXPERIMENTS.md).
//!
//! [`experiments`] holds every experiment as one row of a table; the
//! `repro` binary parses flags and runs the rows. The helpers below make
//! every experiment run the same pipelines over the same corpora.

pub mod experiments;
pub mod report;

use pz_core::prelude::*;
use pz_datagen::science::{self, ScienceConfig, ScienceTruth};
use pz_datagen::truth::{score_dataset_extractions, PrF1};
use std::sync::Arc;

/// The demo dataset registry name (Figure 6's `source="sigmod-demo"`).
pub const DEMO_DATASET: &str = "sigmod-demo";

/// A context with the fixed 11-paper demo corpus registered.
pub fn demo_context() -> (PzContext, ScienceTruth) {
    let (docs, truth) = science::demo_corpus();
    (register_docs(docs), truth)
}

/// A context with a parameterized science corpus registered.
pub fn science_context(n_papers: usize, seed: u64) -> (PzContext, ScienceTruth) {
    let (docs, truth) = science::generate(ScienceConfig {
        n_papers,
        seed,
        ..Default::default()
    });
    (register_docs(docs), truth)
}

/// A context over a fully custom science corpus configuration.
pub fn science_context_with(cfg: ScienceConfig) -> (PzContext, ScienceTruth) {
    let (docs, truth) = science::generate(cfg);
    (register_docs(docs), truth)
}

fn register_docs(docs: Vec<pz_datagen::Document>) -> PzContext {
    let ctx = PzContext::simulated();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        DEMO_DATASET,
        Schema::pdf_file(),
        items,
    )));
    ctx
}

/// The ClinicalData schema from Figure 6.
pub fn clinical_schema() -> Schema {
    Schema::new(
        "ClinicalData",
        "A schema for extracting clinical data datasets from papers.",
        vec![
            FieldDef::text("name", "The name of the clinical data dataset"),
            FieldDef::text(
                "description",
                "A short description of the content of the dataset",
            ),
            FieldDef::text("url", "The public URL where the dataset can be accessed"),
        ],
    )
    .expect("static schema is valid")
}

/// The scientific-discovery logical plan (scan → filter → convert).
pub fn demo_plan() -> LogicalPlan {
    Dataset::source(DEMO_DATASET)
        .filter(science::FILTER_PREDICATE)
        .convert(
            clinical_schema(),
            Cardinality::OneToMany,
            "extract clinical datasets",
        )
        .build()
        .expect("static plan is valid")
}

/// A logical plan with `n` chained semantic filters (plan-space scaling).
pub fn chain_plan(n_filters: usize) -> LogicalPlan {
    let mut d = Dataset::source(DEMO_DATASET);
    for i in 0..n_filters {
        d = d.filter(format!("predicate number {i} about colorectal cancer"));
    }
    d.build().expect("static plan is valid")
}

/// Score the extraction output of the demo pipeline against ground truth
/// (name + URL must both match — the paper verified URLs by hand).
pub fn score_extractions(records: &[DataRecord], truth: &ScienceTruth) -> PrF1 {
    let predicted: Vec<(Option<String>, Option<String>)> = records
        .iter()
        .map(|r| {
            (
                r.get("name").and_then(|v| v.as_text()).map(String::from),
                r.get("url").and_then(|v| v.as_text()).map(String::from),
            )
        })
        .collect();
    score_dataset_extractions(&predicted, &truth.expected_mentions())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_harness_round_trip() {
        let (ctx, truth) = demo_context();
        let outcome = execute(
            &ctx,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        let score = score_extractions(&outcome.records, &truth);
        assert!(score.f1 > 0.7, "MaxQuality F1 {}", score.f1);
        assert_eq!(truth.expected_mentions().len(), 6);
    }

    #[test]
    fn chain_plan_shapes() {
        assert_eq!(chain_plan(3).ops.len(), 4);
        assert_eq!(chain_plan(3).semantic_op_count(), 3);
    }

    #[test]
    fn science_context_scales() {
        let (ctx, truth) = science_context(30, 7);
        assert!(ctx.registry.contains(DEMO_DATASET));
        assert_eq!(truth.papers.len(), 30);
    }
}
