//! Integration: the §3 scientific-discovery pipeline across all layers
//! (datagen → datasource → optimizer → executor → LLM substrate), checked
//! against ground truth.

use pz_core::prelude::*;
use pz_datagen::science;
use pz_datagen::truth::score_dataset_extractions;
use std::sync::Arc;

fn science_ctx() -> (PzContext, science::ScienceTruth) {
    let ctx = PzContext::simulated();
    let (docs, truth) = science::demo_corpus();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sigmod-demo",
        Schema::pdf_file(),
        items,
    )));
    (ctx, truth)
}

fn clinical() -> Schema {
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
    .unwrap()
}

fn demo_plan() -> LogicalPlan {
    Dataset::source("sigmod-demo")
        .filter(science::FILTER_PREDICATE)
        .convert(
            clinical(),
            Cardinality::OneToMany,
            "extract clinical datasets",
        )
        .build()
        .unwrap()
}

fn f1(records: &[DataRecord], truth: &science::ScienceTruth) -> f64 {
    let predicted: Vec<(Option<String>, Option<String>)> = records
        .iter()
        .map(|r| {
            (
                r.get("name").and_then(|v| v.as_text()).map(String::from),
                r.get("url").and_then(|v| v.as_text()).map(String::from),
            )
        })
        .collect();
    score_dataset_extractions(&predicted, &truth.expected_mentions()).f1
}

#[test]
fn max_quality_reproduces_paper_headline() {
    let (ctx, truth) = science_ctx();
    let outcome = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    // Paper: 11 papers in, 6 datasets out, all URLs verified.
    assert_eq!(outcome.stats.operators[0].output_records, 11);
    assert!(
        (5..=7).contains(&outcome.records.len()),
        "{}",
        outcome.records.len()
    );
    assert!(f1(&outcome.records, &truth) >= 0.8);
    // Paper: ~240 s, ~$0.35 — same order of magnitude.
    assert!(
        (50.0..500.0).contains(&outcome.stats.total_time_secs),
        "runtime {}",
        outcome.stats.total_time_secs
    );
    assert!(
        (0.1..1.0).contains(&outcome.stats.total_cost_usd),
        "cost {}",
        outcome.stats.total_cost_usd
    );
}

#[test]
fn policy_tradeoffs_order_correctly() {
    let run = |policy: Policy| {
        let (ctx, truth) = science_ctx();
        let o = execute(&ctx, &demo_plan(), &policy, ExecutionConfig::sequential()).unwrap();
        (
            o.stats.total_cost_usd,
            o.stats.total_time_secs,
            f1(&o.records, &truth),
        )
    };
    let (qc, qt, qf) = run(Policy::MaxQuality);
    let (cc, _ct, cf) = run(Policy::MinCost);
    let (_tc, tt, _tf) = run(Policy::MinTime);
    assert!(cc < qc, "MinCost {cc} must be cheaper than MaxQuality {qc}");
    assert!(tt < qt, "MinTime {tt} must be faster than MaxQuality {qt}");
    assert!(
        qf >= cf,
        "MaxQuality F1 {qf} must be at least MinCost F1 {cf}"
    );
}

#[test]
fn constrained_policy_lands_between_extremes() {
    let (ctx, _) = science_ctx();
    let budgeted = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQualityAtCost(0.05),
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert!(budgeted.estimate.cost_usd <= 0.05);
    let (ctx2, _) = science_ctx();
    let cheapest = execute(
        &ctx2,
        &demo_plan(),
        &Policy::MinCost,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert!(budgeted.estimate.quality >= cheapest.estimate.quality);
}

#[test]
fn parallel_matches_sequential_outputs() {
    let (ctx1, _) = science_ctx();
    let seq = execute(
        &ctx1,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let (ctx2, _) = science_ctx();
    let par = execute(
        &ctx2,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential().with_parallelism(4),
    )
    .unwrap();
    let names = |o: &ExecutionOutcome| {
        let mut v: Vec<String> = o
            .records
            .iter()
            .map(|r| r.get("name").map(|x| x.as_display()).unwrap_or_default())
            .collect();
        v.sort();
        v
    };
    assert_eq!(names(&seq), names(&par));
    assert!((seq.stats.total_cost_usd - par.stats.total_cost_usd).abs() < 1e-9);
    assert!(par.stats.total_time_secs < seq.stats.total_time_secs);
}

#[test]
fn deterministic_across_full_reruns() {
    let run = || {
        let (ctx, _) = science_ctx();
        let o = execute(
            &ctx,
            &demo_plan(),
            &Policy::MaxQuality,
            ExecutionConfig::sequential(),
        )
        .unwrap();
        (
            o.records
                .iter()
                .map(|r| r.to_json().to_string())
                .collect::<Vec<_>>(),
            format!("{:.6}", o.stats.total_cost_usd),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn lineage_traces_back_to_source_papers() {
    let (ctx, _) = science_ctx();
    let outcome = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    for r in &outcome.records {
        assert!(
            !r.lineage.is_empty(),
            "extracted record lost its provenance"
        );
    }
}

#[test]
fn conventional_tail_ops_compose_with_semantic_ops() {
    let (ctx, _) = science_ctx();
    let plan = Dataset::source("sigmod-demo")
        .filter(science::FILTER_PREDICATE)
        .convert(clinical(), Cardinality::OneToMany, "extract")
        .sort("name", false)
        .distinct(&["name"])
        .limit(3)
        .build()
        .unwrap();
    let outcome = execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert!(outcome.records.len() <= 3);
    // Sorted ascending by name.
    let names: Vec<String> = outcome
        .records
        .iter()
        .map(|r| r.get("name").unwrap().as_display())
        .collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
}

#[test]
fn aggregation_counts_extractions_per_paper() {
    let (ctx, _) = science_ctx();
    let plan = Dataset::source("sigmod-demo")
        .filter(science::FILTER_PREDICATE)
        .convert(clinical(), Cardinality::OneToMany, "extract")
        .aggregate(&[], vec![AggExpr::new(AggFunc::Count, "", "n_datasets")])
        .build()
        .unwrap();
    let outcome = execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert_eq!(outcome.records.len(), 1);
    let n = outcome.records[0]
        .get("n_datasets")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!((4.0..=8.0).contains(&n), "n {n}");
}
