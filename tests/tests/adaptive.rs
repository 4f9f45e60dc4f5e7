//! Integration: runtime adaptive re-optimization (`optimizer/adaptive.rs`).
//!
//! The brownout scenario the breaker cannot see: a model answers, slowly
//! and through stalls, at a failure rate below the trip threshold. Static
//! execution grinds through it; adaptive execution re-costs the remaining
//! suffix and swaps the degraded model for a healthy substitute, producing
//! the same output multiset in less virtual time. Off (the default), the
//! layer must be byte-invisible.

mod common;

use common::{assert_reconciled, clinical_schema, ctx_with, sorted_names};
use pz_core::prelude::*;
use pz_datagen::science;
use pz_llm::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn demo_plan() -> LogicalPlan {
    Dataset::source("sigmod-demo")
        .filter(science::FILTER_PREDICATE)
        .convert(clinical_schema(), Cardinality::OneToMany, "extract")
        .build()
        .unwrap()
}

/// The E18 physical plan, written out explicitly so both runs execute the
/// *identical* operators: the filter sits on the (faulted) champion, the
/// convert on the healthy substitute — so a mid-stream filter swap is the
/// only difference adaptation can introduce.
fn brownout_plan() -> PhysicalPlan {
    PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "sigmod-demo".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Default::default(),
            },
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract".into(),
                model: "llama-3-70b".into(),
                effort: Default::default(),
            },
        ],
    }
}

/// The scripted brownout: gpt-4o stalls 25 virtual seconds on ~35% of
/// calls — enough pressure to cross the adaptive health threshold (0.34),
/// far below the breaker's trip rate (0.75 over a 12-failure window).
fn brownout() -> FaultPlan {
    FaultPlan::parse("gpt-4o:timeout@0..1e9:p=0.35:stall=25", 11).unwrap()
}

/// Off by default: a faulted run with adaptation disabled must leave zero
/// adaptive fingerprints anywhere — no replan counter, no trace events, no
/// `adaptive` key in the serialized stats.
#[test]
fn adaptive_off_leaves_no_trace_under_faults() {
    for config in [ExecutionConfig::sequential(), ExecutionConfig::streaming()] {
        let ctx = ctx_with(brownout(), 0);
        let (records, stats) = pz_core::exec::execute_plan(&ctx, &brownout_plan(), config).unwrap();
        assert!(!records.is_empty());
        assert!(stats.adaptive.is_empty());
        assert_eq!(ctx.tracer.counter("exec.replan"), 0);
        let json = serde_json::to_string(&stats).unwrap();
        assert!(!json.contains("adaptive"), "empty adaptive vec serialized");
        assert!(!ctx.tracer.snapshot().to_jsonl().contains("replan"));
    }
}

/// While every model stays healthy and on-estimate, an adaptive-enabled
/// run is indistinguishable from a disabled one under either policy: same
/// records, request count, cost, virtual clock, and serialized stats,
/// byte for byte.
#[test]
fn healthy_adaptive_run_is_byte_identical_to_off() {
    for config in [ExecutionConfig::sequential(), ExecutionConfig::streaming()] {
        let ctx_off = ctx_with(FaultPlan::none(), 0);
        let out_off = execute(&ctx_off, &demo_plan(), &Policy::MaxQuality, config).unwrap();

        let ctx_on = ctx_with(FaultPlan::none(), 0);
        let out_on = execute(
            &ctx_on,
            &demo_plan(),
            &Policy::MaxQuality,
            config.with_adaptive(AdaptiveConfig::on()),
        )
        .unwrap();

        assert_eq!(out_off.records, out_on.records, "{:?}", config.mode);
        assert_eq!(
            ctx_off.ledger.total_requests(),
            ctx_on.ledger.total_requests()
        );
        assert_eq!(
            ctx_off.ledger.total_cost_usd(),
            ctx_on.ledger.total_cost_usd()
        );
        assert_eq!(ctx_off.clock.now_secs(), ctx_on.clock.now_secs());
        assert!(out_on.stats.adaptive.is_empty());
        assert_eq!(ctx_on.tracer.counter("exec.replan"), 0);
        assert_eq!(
            serde_json::to_string(&out_off.stats).unwrap(),
            serde_json::to_string(&out_on.stats).unwrap(),
            "{:?}",
            config.mode
        );
    }
}

/// Materializing actuation: the filter browns out while it runs; once it
/// completes, the controller re-costs the suffix and moves the *convert*
/// (still planned on the same degraded model) to a healthy substitute
/// before it starts.
#[test]
fn materializing_brownout_repairs_unexecuted_suffix() {
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "sigmod-demo".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Default::default(),
            },
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract".into(),
                model: "gpt-4o".into(),
                effort: Default::default(),
            },
        ],
    };
    let ctx = ctx_with(brownout(), 0);
    let config = ExecutionConfig::sequential().with_adaptive(AdaptiveConfig::on());
    let (records, stats) = pz_core::exec::execute_plan(&ctx, &plan, config).unwrap();
    assert!(!records.is_empty());
    assert!(
        !stats.adaptive.is_empty(),
        "brownout left the plan unrepaired"
    );
    let r = &stats.adaptive[0];
    assert_eq!(r.operator_index, 2, "repair hit the wrong operator");
    assert_eq!(r.from_model, "gpt-4o");
    assert_ne!(r.to_model, "gpt-4o");
    assert!(r.observed_ratio >= r.threshold);
    assert!(r.est_suffix_secs_after < r.est_suffix_secs_before);
    // The repaired convert actually ran on the substitute.
    let convert = &stats.operators[2];
    assert_eq!(convert.model.as_deref(), Some(r.to_model.as_str()));
    assert_eq!(
        ctx.tracer.counter("exec.replan"),
        stats.adaptive.len() as u64
    );
    assert!(ctx.tracer.snapshot().to_jsonl().contains("replan"));
    assert_reconciled(&ctx, &stats);
    assert!(stats.render_table().contains("REPLANNED"));
}

/// E18, the acceptance scenario: under the brownout the static pipeline
/// keeps paying 25-second stalls on every third call; the adaptive one
/// sticky-swaps the filter onto a healthy model mid-stream. Both produce
/// the same output multiset; adaptive finishes in strictly less virtual
/// time; every switch is visible as an `exec.replan` event reconciling
/// with the recorded reports.
#[test]
fn e18_streaming_brownout_static_vs_adaptive() {
    let ctx_s = ctx_with(brownout(), 0);
    let (rec_s, stats_s) =
        pz_core::exec::execute_plan(&ctx_s, &brownout_plan(), ExecutionConfig::streaming())
            .unwrap();

    let ctx_a = ctx_with(brownout(), 0);
    let (rec_a, stats_a) = pz_core::exec::execute_plan(
        &ctx_a,
        &brownout_plan(),
        ExecutionConfig::streaming().with_adaptive(AdaptiveConfig::on()),
    )
    .unwrap();

    // The static run rode the brownout without tripping anything: no
    // breaker, no failover — the regime adaptation exists for.
    assert!(stats_s.adaptive.is_empty());
    assert!(
        stats_s.degraded.is_empty(),
        "static run failed over; brownout too hot: {:?}",
        stats_s.degraded
    );
    assert_eq!(ctx_s.tracer.counter("llm.breaker_opened"), 0);

    // The adaptive run repaired the filter stage mid-stream.
    assert!(!stats_a.adaptive.is_empty(), "no adaptive repair fired");
    let r = &stats_a.adaptive[0];
    assert_eq!(r.operator_index, 1);
    assert_eq!(r.from_model, "gpt-4o");
    assert!(r.records_remaining > 0);
    assert!(r.observed_ratio >= r.threshold);

    // Same answer, strictly less virtual time.
    assert!(!rec_s.is_empty());
    assert_eq!(sorted_names(&rec_s), sorted_names(&rec_a));
    assert!(
        ctx_a.clock.now_secs() < ctx_s.clock.now_secs(),
        "adaptive {} not faster than static {}",
        ctx_a.clock.now_secs(),
        ctx_s.clock.now_secs()
    );

    // Observability reconciles: one counter tick and one trace event per
    // recorded report, and the ledger matches the per-operator stats.
    assert_eq!(
        ctx_a.tracer.counter("exec.replan"),
        stats_a.adaptive.len() as u64
    );
    let trace = ctx_a.tracer.snapshot().to_jsonl();
    assert_eq!(
        trace.matches("\"replan\"").count(),
        stats_a.adaptive.len(),
        "trace events disagree with reports"
    );
    assert_reconciled(&ctx_s, &stats_s);
    assert_reconciled(&ctx_a, &stats_a);

    // The swap is priced: the report claims the repair was worth it.
    assert!(r.est_suffix_secs_after < r.est_suffix_secs_before);
}

/// Regression (PR 7 satellite): a non-profiled run must not leave a
/// caller-installed retry-wait sink wired into its clones — backoff from
/// an unprofiled execution used to leak into a sink installed for a
/// *previous* profiled run on the same context.
#[test]
fn non_profiled_run_does_not_feed_stale_retry_sink() {
    let mut ctx = ctx_with(brownout(), 0);
    let sink = Arc::new(AtomicU64::new(0));
    ctx.retry_wait_us = Some(sink.clone());
    let (records, _) =
        pz_core::exec::execute_plan(&ctx, &brownout_plan(), ExecutionConfig::sequential()).unwrap();
    assert!(!records.is_empty());
    assert_eq!(
        sink.load(Ordering::Relaxed),
        0,
        "non-profiled run wrote retry backoff into a stale sink"
    );
}
