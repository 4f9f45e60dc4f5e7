//! Integration: provider fault domains, circuit breakers, and mid-plan
//! model failover. A scripted `FaultPlan` takes models down on the
//! virtual clock; the executor must route around the outage via the
//! next-best healthy model, keep the ledger exactly reconciled, and — on
//! an empty fault plan — behave byte-identically to a run whose context
//! offers no substitute model at all.

mod common;

use common::offering_no_substitute;
use pz_core::prelude::*;
use pz_datagen::science;
use pz_llm::{FaultPlan, SimConfig};
use std::sync::Arc;

fn ctx_with_faults(plan: FaultPlan) -> PzContext {
    let ctx = PzContext::simulated_with(SimConfig {
        fault_plan: plan,
        ..Default::default()
    });
    let (docs, _) = science::demo_corpus();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sigmod-demo",
        Schema::pdf_file(),
        items,
    )));
    ctx
}

fn demo_plan() -> LogicalPlan {
    let clinical = Schema::new(
        "ClinicalData",
        "datasets",
        vec![
            FieldDef::text("name", "The dataset name"),
            FieldDef::text("url", "The public URL of the dataset"),
        ],
    )
    .unwrap();
    Dataset::source("sigmod-demo")
        .filter(science::FILTER_PREDICATE)
        .convert(clinical, Cardinality::OneToMany, "extract")
        .build()
        .unwrap()
}

/// (operator_index, operator, from, to, records_affected) — the parts of a
/// failover decision two runs of one plan must agree on. `reason` and
/// `at_secs` are left out: they name how and when the swap was seen.
fn decisions(stats: &ExecutionStats) -> Vec<(usize, String, String, String, usize)> {
    stats
        .degraded
        .iter()
        .map(|d| {
            (
                d.operator_index,
                d.operator.clone(),
                d.from_model.clone(),
                d.to_model.clone(),
                d.records_affected,
            )
        })
        .collect()
}

fn assert_reconciled(ctx: &PzContext, stats: &ExecutionStats) {
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

/// The acceptance scenario: the primary model of the demo pipeline goes
/// fully down; the run must complete via failover and leave breaker-trip
/// events in the trace. A second run at modelled parallelism 4 must agree
/// with it on the output, the ledger cost and the recorded failover
/// decisions: the worker count divides attributed time and decides
/// nothing.
#[test]
fn full_outage_differential_materializing_vs_streaming() {
    // gpt-4o (MaxQuality's champion) is down for the entire run.
    let outage = FaultPlan::none().outage("gpt-4o", 0.0, 1e9);
    let run = |parallelism: usize| {
        let ctx = ctx_with_faults(outage.clone());
        let config = ExecutionConfig::sequential().with_parallelism(parallelism);
        let out = execute(&ctx, &demo_plan(), &Policy::MaxQuality, config).unwrap();
        (ctx, out)
    };
    let (ctx_1, out_1) = run(1);
    let (ctx_4, out_4) = run(4);

    // The pipeline completed with real output despite the outage.
    assert!(!out_1.records.is_empty());
    assert_eq!(out_1.records, out_4.records);

    // Every afflicted operator failed over to the next-best model under
    // MaxQuality, whatever the worker count.
    assert!(!out_1.stats.degraded.is_empty());
    assert_eq!(decisions(&out_1.stats), decisions(&out_4.stats));
    for d in &out_1.stats.degraded {
        assert_eq!(d.from_model, "gpt-4o");
        assert_eq!(d.to_model, "llama-3-70b");
        assert!(d.est_quality_delta < 0.0);
        assert!(d.records_affected > 0, "{d:?}");
    }

    // Identical cost on the ledger: failed calls bill nothing.
    assert!((ctx_1.ledger.total_cost_usd() - ctx_4.ledger.total_cost_usd()).abs() < 1e-9);

    // Stats reconcile exactly with the ledger.
    assert_reconciled(&ctx_1, &out_1.stats);
    assert_reconciled(&ctx_4, &out_4.stats);

    // Breaker and failover activity is visible in the trace.
    assert!(ctx_1.tracer.counter("llm.breaker_opened") > 0);
    assert!(ctx_1.tracer.counter("exec.failover") > 0);
    let trace = ctx_1.tracer.snapshot().to_jsonl();
    assert!(trace.contains("breaker_opened"), "no breaker event");
    assert!(trace.contains("failover"), "no failover event");

    // The run summary surfaces the degradation.
    assert!(out_1.stats.render_table().contains("DEGRADED"));
}

#[test]
fn mid_run_outage_recovers_in_each_mode() {
    // The outage opens a few virtual seconds in: some records are served
    // by the planned model, the remainder by the substitute.
    let config = ExecutionConfig::sequential();
    let ctx = ctx_with_faults(FaultPlan::none().outage("gpt-4o", 5.0, 1e9));
    let out = execute(&ctx, &demo_plan(), &Policy::MaxQuality, config).unwrap();
    assert!(!out.records.is_empty());
    assert!(!out.stats.degraded.is_empty());
    assert!(ctx.tracer.counter("llm.breaker_opened") > 0);
    assert_reconciled(&ctx, &out.stats);
}

#[test]
fn empty_fault_plan_matches_failover_less_run_exactly() {
    // With no faults the resilience layer must be invisible: same records,
    // same cost, same clock, no degraded entries, no breaker activity —
    // the same bytes as a run that has no substitute to fail over to.
    // (`exec_golden.rs` pins these bytes against the engine's history.)
    let ctx_a = ctx_with_faults(FaultPlan::none());
    let out_a = execute(
        &ctx_a,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();

    let ctx_b = offering_no_substitute(ctx_with_faults(FaultPlan::none()), "gpt-4o");
    let (records_b, stats_b) =
        pz_core::exec::execute_plan(&ctx_b, &out_a.chosen_plan, ExecutionConfig::sequential())
            .unwrap();

    assert_eq!(out_a.records, records_b);
    assert_eq!(ctx_a.ledger.total_cost_usd(), ctx_b.ledger.total_cost_usd());
    assert_eq!(ctx_a.ledger.total_requests(), ctx_b.ledger.total_requests());
    assert_eq!(ctx_a.clock.now_secs(), ctx_b.clock.now_secs());
    assert!(out_a.stats.degraded.is_empty());
    assert!(!out_a.stats.deadline_exceeded);
    assert_eq!(ctx_a.tracer.counter("llm.breaker_opened"), 0);
    assert_eq!(ctx_a.tracer.counter("exec.failover"), 0);
    assert_eq!(ctx_a.tracer.counter("exec.replan"), 0);
    // Stats serialize identically (no resilience fields on healthy runs);
    // only the policy label, which `execute` adds, tells them apart.
    let stats_a = ExecutionStats {
        policy: String::new(),
        ..out_a.stats.clone()
    };
    assert_eq!(
        serde_json::to_string(&stats_a).unwrap(),
        serde_json::to_string(&stats_b).unwrap()
    );
}

#[test]
fn deadline_yields_partial_results_not_a_hang() {
    let config = ExecutionConfig::sequential().with_deadline(1.0);
    let ctx = ctx_with_faults(FaultPlan::none());
    let out = execute(&ctx, &demo_plan(), &Policy::MaxQuality, config).unwrap();
    assert!(out.stats.deadline_exceeded);
    assert!(out.stats.render_table().contains("DEADLINE EXCEEDED"));
    assert_reconciled(&ctx, &out.stats);
    // A generous deadline changes nothing.
    let ctx = ctx_with_faults(FaultPlan::none());
    let out = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential().with_deadline(1e9),
    )
    .unwrap();
    assert!(!out.stats.deadline_exceeded);
    assert!(!out.records.is_empty());
}

#[test]
fn rate_limit_hints_extend_breaker_cooldown_but_run_completes() {
    let plan = FaultPlan::none().with_window(pz_llm::FaultWindow {
        model: "gpt-4o".into(),
        start_secs: 0.0,
        end_secs: 1e9,
        kind: pz_llm::FaultKind::RateLimit {
            retry_after_secs: 120.0,
        },
        intensity: 1.0,
    });
    let ctx = ctx_with_faults(plan);
    let out = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert!(!out.records.is_empty());
    assert!(!out.stats.degraded.is_empty());
    assert_reconciled(&ctx, &out.stats);
}

#[test]
fn fault_plan_spec_round_trips_through_context_handle() {
    let ctx = ctx_with_faults(FaultPlan::none());
    assert!(!ctx.faults.is_active());
    let plan =
        FaultPlan::parse("gpt-4o:outage@0..60;llama-3-70b:brownout@10..50:p=0.3", 42).unwrap();
    ctx.faults.set(plan.clone());
    assert!(ctx.faults.is_active());
    assert_eq!(ctx.faults.plan(), plan);
    ctx.faults.clear();
    assert!(!ctx.faults.is_active());
}
