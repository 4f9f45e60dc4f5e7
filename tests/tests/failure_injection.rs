//! Integration: failure handling — transient provider errors with retry,
//! context-window pressure, and agent-level error recovery.

use pz_core::prelude::*;
use pz_datagen::science;
use pz_llm::SimConfig;
use std::sync::Arc;

fn ctx_with_failures(rate: f64) -> PzContext {
    let ctx = PzContext::simulated_with(SimConfig {
        transient_failure_rate: rate,
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

#[test]
fn pipeline_survives_transient_failures_via_retry() {
    // 20% failure rate: with 5 attempts the chance any call exhausts its
    // retries is ~3e-4 per call; the retry policy must absorb it.
    let mut ctx = ctx_with_failures(0.2);
    ctx.retry = pz_llm::RetryPolicy {
        max_attempts: 5,
        ..Default::default()
    };
    let outcome = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert!(!outcome.records.is_empty());
    // Retries charge backoff time on the virtual clock.
    assert!(outcome.stats.total_time_secs > 0.0);
}

#[test]
fn overwhelming_failure_rate_surfaces_an_error() {
    let ctx = ctx_with_failures(1.0);
    let err = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap_err();
    // The executor wraps the transient error with the failing operator.
    let msg = err.to_string();
    assert!(msg.contains("transient provider error"), "{msg}");
    assert!(msg.contains("operator LLMFilter"), "{msg}");
}

#[test]
fn streaming_pipeline_recovers_from_transient_failures_mid_stream() {
    // Same 20% transient rate, with the filter and convert steps
    // interleaved: every mid-stream failure must still route through
    // RetryPolicy, and the billed work must match a run without failures
    // (failed attempts are never billed, successful calls are
    // content-keyed). 8 attempts make retry exhaustion vanishingly
    // unlikely (0.2^8 per call).
    let mk = |rate: f64| {
        let mut ctx = ctx_with_failures(rate);
        ctx.retry = pz_llm::RetryPolicy {
            max_attempts: 8,
            ..Default::default()
        };
        ctx
    };
    let ctx_m = mk(0.0);
    let m = execute(
        &ctx_m,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let ctx_s = mk(0.2);
    let s = execute(
        &ctx_s,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    // The failures cost clock time, never dollars.
    assert!(s.stats.total_time_secs > m.stats.total_time_secs);
    assert!(!s.records.is_empty());
    assert_eq!(m.records.len(), s.records.len());
    let names = |o: &pz_core::ExecutionOutcome| {
        let mut v: Vec<String> = o
            .records
            .iter()
            .filter_map(|r| r.get("name").map(|x| x.as_display()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(names(&m), names(&s));
    assert!((ctx_m.ledger.total_cost_usd() - ctx_s.ledger.total_cost_usd()).abs() < 1e-9);
}

#[test]
fn streaming_fatal_error_cancels_upstream_without_deadlock() {
    let ctx = ctx_with_failures(1.0);
    let err = execute(
        &ctx,
        &demo_plan(),
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap_err();
    // The first stage error is surfaced with its operator context.
    let msg = err.to_string();
    assert!(msg.contains("transient provider error"), "{msg}");
    assert!(msg.contains("operator LLMFilter"), "{msg}");
    // The pipeline drained instead of hanging or grinding on: the virtual
    // clock only paid for the bounded burst of in-flight retries, not for
    // the whole corpus failing at every stage.
    assert!(
        ctx.clock.now_secs() < 3_600.0,
        "virtual clock ran to {}s — upstream cancellation failed",
        ctx.clock.now_secs()
    );
}

#[test]
fn small_window_models_truncate_but_still_extract() {
    // Force the 8k-window model on ~4k-token papers at high effort — the
    // head+tail truncation must keep both topic words and the trailing
    // data-availability section usable.
    let ctx = ctx_with_failures(0.0);
    let clinical = Schema::new(
        "ClinicalData",
        "datasets",
        vec![
            FieldDef::text("name", "The dataset name"),
            FieldDef::text("url", "The public URL of the dataset"),
        ],
    )
    .unwrap();
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "sigmod-demo".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "llama-3-70b".into(),
                effort: pz_llm::protocol::Effort::Standard,
            },
            PhysicalOp::LlmConvert {
                target: clinical,
                cardinality: Cardinality::OneToMany,
                description: "extract".into(),
                model: "llama-3-70b".into(),
                effort: pz_llm::protocol::Effort::Standard,
            },
        ],
    };
    let (records, stats) =
        pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();
    assert!(stats.total_llm_calls > 0);
    // Extraction still finds datasets despite truncation.
    let with_url = records
        .iter()
        .filter(|r| r.get("url").is_some_and(|v| !v.is_null()))
        .count();
    assert!(
        with_url >= 2,
        "only {with_url} records kept a URL after truncation"
    );
}

#[test]
fn chat_reports_tool_failures_without_crashing() {
    let mut chat = palimpchat::PalimpChat::new();
    // Convert without a schema: the tool errors, the agent observes it.
    chat.handle("load the dataset of scientific papers")
        .unwrap();
    let r = chat.handle("show me the extracted records").unwrap();
    assert!(r.trace.steps.iter().any(|s| s.failed));
    assert!(
        r.reply.contains("failed") || r.reply.contains("no pipeline"),
        "{}",
        r.reply
    );
    // The session is still usable afterwards.
    let r2 = chat
        .handle("keep only papers about colorectal cancer")
        .unwrap();
    assert!(!r2.trace.steps.iter().any(|s| s.failed));
}

#[test]
fn bad_tool_arguments_are_rejected_cleanly() {
    use archytas::tool::ToolArgs;
    let session = palimpchat::session::new_session();
    let tool = palimpchat::tools::create_schema_tool(session);
    let mut args = ToolArgs::new();
    args.insert("schema_name".into(), serde_json::json!("X"));
    args.insert("field_names".into(), serde_json::json!([1, 2, 3])); // not strings
    let err = tool.invoke(&args).unwrap_err();
    assert!(
        err.to_string().contains("expected list of strings"),
        "{err}"
    );
}
