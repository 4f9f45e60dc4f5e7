//! Integration: the pipeline profiler — byte-invisibility when disarmed,
//! zero perturbation of execution when armed, estimate-vs-observed drift
//! reconciliation, and bucket accounting under worker pools.

use proptest::prelude::*;
use pz_core::prelude::*;
use pz_datagen::science::{self, ScienceConfig};
use std::sync::Arc;

fn science_ctx() -> PzContext {
    let (docs, _truth) = science::demo_corpus();
    ctx_from_docs(docs)
}

fn ctx_from_docs(docs: Vec<pz_datagen::Document>) -> PzContext {
    let ctx = PzContext::simulated();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sigmod-demo",
        Schema::pdf_file(),
        items,
    )));
    ctx
}

fn clinical() -> Schema {
    Schema::new(
        "ClinicalData",
        "A schema for extracting clinical data datasets from papers.",
        vec![
            FieldDef::text("name", "The name of the clinical data dataset"),
            FieldDef::text("url", "The public URL where the dataset can be accessed"),
        ],
    )
    .unwrap()
}

fn demo_plan() -> LogicalPlan {
    Dataset::source("sigmod-demo")
        .filter(science::FILTER_PREDICATE)
        .convert(clinical(), Cardinality::OneToMany, "extract datasets")
        .build()
        .unwrap()
}

fn config(parallelism: usize) -> ExecutionConfig {
    ExecutionConfig::sequential().with_parallelism(parallelism)
}

fn record_keys(records: &[DataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(&r.to_json()).unwrap())
        .collect();
    keys.sort();
    keys
}

/// With the profiler disarmed (the default), the trace is byte-identical
/// across runs and contains none of the profiler's artifacts — the gauges
/// are invisible, not merely empty.
#[test]
fn profiling_off_trace_is_byte_identical_and_artifact_free() {
    let cfg = config(1);
    let traces: Vec<String> = (0..2)
        .map(|_| {
            let ctx = science_ctx();
            assert!(!ctx.tracer.profiling_enabled(), "profiler must default off");
            execute(&ctx, &demo_plan(), &Policy::MaxQuality, cfg).unwrap();
            ctx.tracer.snapshot().to_jsonl()
        })
        .collect();
    assert_eq!(
        traces[0], traces[1],
        "disarmed runs must produce bit-identical traces"
    );
    assert!(
        !traces[0].contains("prof_"),
        "disarmed trace leaked prof_* span attrs"
    );
}

/// Arming the profiler changes what is *recorded*, never what *runs*:
/// same records, same dollars, same virtual-clock stats.
#[test]
fn armed_profiler_does_not_perturb_execution() {
    let run = |profiling: bool| {
        let ctx = science_ctx();
        ctx.tracer.set_profiling(profiling);
        let outcome = execute(&ctx, &demo_plan(), &Policy::MaxQuality, config(8)).unwrap();
        (
            record_keys(&outcome.records),
            ctx.ledger.total_cost_usd(),
            outcome.stats.total_time_secs,
            ctx.tracer.snapshot(),
        )
    };
    let (keys_off, cost_off, time_off, snap_off) = run(false);
    let (keys_on, cost_on, time_on, snap_on) = run(true);
    assert_eq!(keys_off, keys_on, "profiler changed the output multiset");
    assert!((cost_off - cost_on).abs() < 1e-12, "profiler changed cost");
    assert!(
        (time_off - time_on).abs() < 1e-9,
        "profiler changed virtual time"
    );
    // And the armed run actually recorded the gauges.
    let profile = pz_obs::profile_plan(&snap_on).expect("armed run yields a profile");
    assert_eq!(profile.stages.len(), 3);
    assert!(profile.stages.iter().all(|s| s.window_us > 0));
    // The schedule-derived gauges have E17's shape: the scan is held back
    // by the stages below it, the convert waits on filtered input.
    let gauge = |stage: usize, key: &str| -> u64 {
        let id = &profile.stages[stage].span_id;
        let span = snap_on.spans.iter().find(|s| &s.id == id).unwrap();
        span.attrs[key].parse().unwrap()
    };
    assert!(gauge(0, "prof_backpressure_us") > 0);
    assert_eq!(gauge(0, "prof_queue_wait_us"), 0);
    assert!(gauge(2, "prof_queue_wait_us") > 0);
    assert_eq!(gauge(2, "prof_backpressure_us"), 0);
    assert!(snap_off
        .spans
        .iter()
        .all(|s| !s.attrs.keys().any(|k| k.starts_with("prof_"))));
}

/// The drift report's per-stage estimate rows are produced by the same
/// pass as the headline plan estimate, so they sum back to it exactly;
/// its observed side is the execution stats verbatim.
#[test]
fn drift_report_reconciles_with_estimate_and_stats() {
    let ctx = science_ctx();
    // The headline time estimate is the sum of stages.
    let outcome = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let drift = outcome.drift_report().expect("estimates were kept");
    assert_eq!(drift.stages.len(), outcome.stats.operators.len());

    let est_cost: f64 = drift.stages.iter().map(|s| s.est_cost_usd).sum();
    assert!(
        (est_cost - outcome.estimate.cost_usd).abs() < 1e-9,
        "per-stage estimated cost must sum to the plan estimate: {est_cost} vs {}",
        outcome.estimate.cost_usd
    );
    let est_time: f64 = drift.stages.iter().map(|s| s.est_time_secs).sum();
    assert!(
        (est_time - outcome.estimate.time_secs).abs() < 1e-9,
        "per-stage estimated time must sum to the plan estimate: {est_time} vs {}",
        outcome.estimate.time_secs
    );
    assert!((drift.obs_total_cost_usd - outcome.stats.total_cost_usd).abs() < 1e-12);
    assert!((drift.obs_total_time_secs - outcome.stats.total_time_secs).abs() < 1e-12);
    for s in &drift.stages {
        assert!(s.time_ratio().is_finite() || s.est_time_secs == 0.0);
        assert!(s.est_selectivity > 0.0);
    }
    // The simulator is the cost model's own ground truth: the LLM stages'
    // estimates should land within an order of magnitude of observation.
    for s in drift.stages.iter().filter(|s| s.is_llm()) {
        let r = s.cost_ratio();
        assert!(
            (0.1..=10.0).contains(&r),
            "stage {} cost drift {r}x is out of band",
            s.index
        );
    }
}

proptest! {
    /// Attribution buckets partition each stage's window exactly — for
    /// any corpus draw and at every worker-pool size the executor
    /// supports (serial, small pool, rate-limit-clamped pool).
    #[test]
    fn buckets_sum_to_stage_window(
        n_papers in 3usize..14,
        seed in 0u64..500,
        pool_pick in 0usize..3,
    ) {
        let parallelism = [1usize, 2, 8][pool_pick];
        let (docs, _truth) = science::generate(ScienceConfig {
            n_papers,
            seed,
            ..Default::default()
        });
        let ctx = ctx_from_docs(docs);
        ctx.tracer.set_profiling(true);
        execute(&ctx, &demo_plan(), &Policy::MinCost, config(parallelism)).unwrap();
        let snap = ctx.tracer.snapshot();
        let profile = pz_obs::profile_plan(&snap).expect("profile");
        prop_assert_eq!(profile.stages.len(), 3);
        for s in &profile.stages {
            prop_assert_eq!(
                s.buckets.total_us(),
                s.window_us,
                "stage {} buckets must partition its window exactly",
                s.index
            );
        }
    }
}
