//! Integration: the response cache across whole pipeline executions.

use pz_core::prelude::*;
use pz_datagen::science;
use std::sync::Arc;

fn cached_ctx() -> PzContext {
    let ctx = PzContext::simulated().with_cache();
    let (docs, _) = science::demo_corpus();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sigmod-demo",
        Schema::pdf_file(),
        items,
    )));
    ctx
}

fn filter_plan() -> LogicalPlan {
    Dataset::source("sigmod-demo")
        .filter(science::FILTER_PREDICATE)
        .build()
        .unwrap()
}

#[test]
fn rerunning_an_unchanged_pipeline_is_free() {
    let ctx = cached_ctx();
    let o1 = execute(
        &ctx,
        &filter_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let cost_after_first = ctx.ledger.total_cost_usd();
    let o2 = execute(
        &ctx,
        &filter_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert_eq!(o1.records.len(), o2.records.len());
    // The second run hit only the cache: no new ledger charges.
    assert!((ctx.ledger.total_cost_usd() - cost_after_first).abs() < 1e-12);
    assert!(o2.stats.total_cost_usd < 1e-12);
    let stats = ctx.cache.as_ref().unwrap().stats();
    assert!(stats.completion_hits >= 11, "{stats:?}");
}

#[test]
fn sentinel_plus_execution_share_the_cache() {
    // Sentinel calibration runs the champion on sample records; when the
    // full MaxQuality execution later issues the same prompts, they are
    // free. (Standard-effort sentinel vs high-effort execution differ, so
    // only the standard-effort champion calls overlap — use a plan whose
    // chosen physical op matches the sentinel's standard effort.)
    let ctx = cached_ctx();
    pz_core::optimizer::sentinel::calibrate(&ctx, &filter_plan(), 11).unwrap();
    let misses_after_sentinel = ctx.cache.as_ref().unwrap().stats().completion_misses;
    // Execute with the same physical config the sentinel used.
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "sigmod-demo".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: pz_llm::protocol::Effort::Standard,
            },
        ],
    };
    pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();
    let stats = ctx.cache.as_ref().unwrap().stats();
    assert_eq!(
        stats.completion_misses, misses_after_sentinel,
        "execution should not re-pay for prompts the sentinel already issued"
    );
    assert!(stats.completion_hits >= 11);
}

#[test]
fn cache_disabled_by_default() {
    let ctx = PzContext::simulated();
    assert!(ctx.cache.is_none());
}

#[test]
fn parallel_workers_share_one_cache() {
    let ctx = cached_ctx();
    execute(
        &ctx,
        &filter_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential().with_parallelism(4),
    )
    .unwrap();
    let cost_after_first = ctx.ledger.total_cost_usd();
    execute(
        &ctx,
        &filter_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential().with_parallelism(4),
    )
    .unwrap();
    assert!((ctx.ledger.total_cost_usd() - cost_after_first).abs() < 1e-12);
}
