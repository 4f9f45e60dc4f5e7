//! Shared fixtures for the integration-test suites.
//!
//! `properties.rs`, `adaptive.rs`, `resilience.rs` and `incremental.rs`
//! need the same things: a simulated context over a registered corpus,
//! randomized operator chains, and multiset/reconciliation assertions. They live here
//! once so a new suite cannot fork its own slightly-different generator —
//! and so seeds stay private to each proptest run (the suites share
//! *generators*, never RNG state; proptest owns the seeds).
//!
//! Compiled per test binary via `mod common;` — not every suite uses every
//! helper, hence the file-level `dead_code` allow.
#![allow(dead_code)]

use proptest::prelude::*;
use pz_core::prelude::*;
use pz_llm::protocol::Effort;
use pz_llm::{FaultPlan, SimConfig};
use std::sync::Arc;

/// Field-content multiset key: record ids are excluded (different
/// execution modes allocate ids differently), field maps are ordered, so
/// the JSON is a stable content fingerprint.
pub fn multiset(records: &[DataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(&r.to_json()).unwrap())
        .collect();
    keys.sort();
    keys
}

/// Sorted `name` fields — the usual comparison key for extraction outputs.
pub fn sorted_names(records: &[DataRecord]) -> Vec<String> {
    let mut v: Vec<String> = records
        .iter()
        .map(|r| r.get("name").unwrap().as_display())
        .collect();
    v.sort();
    v
}

/// Every dollar and every call the ledger saw must be attributed to
/// exactly one operator in the stats.
pub fn assert_reconciled(ctx: &PzContext, stats: &ExecutionStats) {
    let op_cost: f64 = stats.operators.iter().map(|o| o.cost_usd).sum();
    assert!(
        (op_cost - ctx.ledger.total_cost_usd()).abs() < 1e-9,
        "operator cost {} vs ledger {}",
        op_cost,
        ctx.ledger.total_cost_usd()
    );
    let op_calls: usize = stats.operators.iter().map(|o| o.llm_calls).sum();
    assert_eq!(op_calls, ctx.ledger.total_requests());
}

/// The demo extraction target (paper §3: name + URL of public datasets).
pub fn clinical_schema() -> Schema {
    Schema::new(
        "ClinicalData",
        "datasets",
        vec![
            FieldDef::text("name", "The dataset name"),
            FieldDef::text("url", "The public URL of the dataset"),
        ],
    )
    .unwrap()
}

/// Simulated context with the fixed 11-paper demo corpus registered as
/// `sigmod-demo`, under a scripted fault plan.
pub fn ctx_with(plan: FaultPlan, seed: u64) -> PzContext {
    let ctx = PzContext::simulated_with(SimConfig {
        seed,
        fault_plan: plan,
        ..Default::default()
    });
    let (docs, _) = pz_datagen::science::demo_corpus();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sigmod-demo",
        Schema::pdf_file(),
        items,
    )));
    ctx
}

/// `ctx` with a catalog in which `model` is the only chat model: nothing
/// can stand in for it, so a run on it is what a run without model
/// substitution would be.
pub fn offering_no_substitute(mut ctx: PzContext, model: &str) -> PzContext {
    let mut catalog = pz_llm::Catalog::new();
    for card in ctx.catalog.iter() {
        if card.id.as_str() == model || card.kind == pz_llm::ModelKind::Embedding {
            catalog.insert(card.clone());
        }
    }
    ctx.catalog = catalog;
    ctx
}

// ---------------------------------------------------------------------------
// Randomized plans and corpora for differential testing.
// ---------------------------------------------------------------------------

pub const PREDICATES: [&str; 3] = [
    "the document is about cancer research",
    "the document mentions a public dataset",
    "the document describes a modern home",
];

pub const CLASSIFY_LABELS: [&str; 3] = ["cancer", "dataset", "other"];

/// One step of a randomized plan tail.
#[derive(Clone, Debug)]
pub enum Step {
    Filter(usize),
    Sort(bool),
    Limit(usize),
    Project,
    Distinct,
    /// LLM categorization: adds a label field, keeps everything else —
    /// safe anywhere in the chain.
    Classify,
}

/// The original differential step mix (relational tail + LLM filters).
pub fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..5, 0usize..12, any::<bool>()), 0..4).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, n, b)| step_of(kind, n, b))
            .collect()
    })
}

/// Step mix extended with `Classify`, for suites exercising per-operator
/// re-run deltas; kept separate so `properties.rs` coverage is unchanged.
pub fn arb_steps_llm() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..6, 0usize..12, any::<bool>()), 0..4).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, n, b)| step_of(kind, n, b))
            .collect()
    })
}

fn step_of(kind: u8, n: usize, b: bool) -> Step {
    match kind {
        0 => Step::Filter(n % PREDICATES.len()),
        1 => Step::Sort(b),
        2 => Step::Limit(n),
        3 => Step::Project,
        4 => Step::Distinct,
        _ => Step::Classify,
    }
}

pub fn arb_corpus() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec("[a-f ]{0,40}", 1..9).prop_map(|contents| {
        contents
            .into_iter()
            .enumerate()
            .map(|(i, c)| (format!("doc-{i:03}.pdf"), format!("Document {i}. {c}")))
            .collect()
    })
}

/// Lower a step chain onto `dataset` as a physical plan.
pub fn build_plan(dataset: &str, steps: &[Step]) -> PhysicalPlan {
    let mut ops = vec![PhysicalOp::Scan {
        dataset: dataset.into(),
    }];
    for s in steps {
        ops.push(match s {
            Step::Filter(i) => PhysicalOp::LlmFilter {
                predicate: PREDICATES[*i].into(),
                model: "gpt-4o-mini".into(),
                effort: Effort::Standard,
            },
            Step::Sort(desc) => PhysicalOp::Sort {
                field: "filename".into(),
                descending: *desc,
            },
            Step::Limit(n) => PhysicalOp::Limit { n: *n },
            Step::Project => PhysicalOp::Project {
                fields: vec!["filename".into()],
            },
            Step::Distinct => PhysicalOp::Distinct {
                fields: vec!["filename".into()],
            },
            Step::Classify => PhysicalOp::LlmClassify {
                labels: CLASSIFY_LABELS.iter().map(|s| s.to_string()).collect(),
                output_field: "label".into(),
                model: "gpt-4o-mini".into(),
                effort: Effort::Standard,
            },
        });
    }
    PhysicalPlan { ops }
}

/// A tail Limit legitimately lets streaming (and a re-run after an edit)
/// skip upstream LLM calls, so exact cost equality only binds without one.
pub fn has_early_exit(steps: &[Step]) -> bool {
    steps.iter().any(|s| matches!(s, Step::Limit(_)))
}

/// Fresh simulated context with `corpus` registered under `dataset`.
pub fn fresh_ctx(dataset: &str, corpus: &[(String, String)]) -> PzContext {
    let ctx = PzContext::simulated();
    ctx.registry.register(Arc::new(MemorySource::new(
        dataset,
        Schema::pdf_file(),
        corpus.to_vec(),
    )));
    ctx
}
