//! Integration: the unified pz-obs trace spans every layer of one chat
//! session — chat turn → agent step → optimizer → executor operator →
//! LLM call — on the shared virtual clock, and its totals reconcile with
//! the older telemetry (ExecutionStats, UsageLedger).

use palimpchat::PalimpChat;
use pz_core::prelude::*;
use pz_obs::{Layer, TraceSnapshot};
use std::sync::Arc;

/// The §3 demonstration dialogue: load, build the pipeline, run it.
fn run_dialogue() -> PalimpChat {
    let mut chat = PalimpChat::new();
    chat.handle("Please load the dataset of scientific papers from my folder")
        .unwrap();
    chat.handle(
        "I'm interested in papers that are about colorectal cancer, and for these \
         papers, extract whatever public dataset is used by the study",
    )
    .unwrap();
    chat.handle("run the pipeline with maximum quality")
        .unwrap();
    chat
}

#[test]
fn one_dialogue_produces_a_trace_spanning_every_layer() {
    let chat = run_dialogue();
    let snap = chat.tracer().snapshot();

    // One root span per chat turn, nothing floating outside a turn.
    let roots = snap.roots();
    assert_eq!(roots.len(), 3, "{}", pz_obs::render_tree(&snap));
    assert!(roots.iter().all(|r| r.layer == Layer::Chat));
    assert_eq!(roots[0].name, "turn:1");
    assert_eq!(roots[2].name, "turn:3");
    for s in &snap.spans {
        assert!(
            roots.iter().any(|r| r.id.contains(&s.id)),
            "span {} ({}) is outside every chat turn",
            s.id,
            s.name
        );
    }

    // Every layer shows up.
    for layer in [
        Layer::Chat,
        Layer::Agent,
        Layer::Optimizer,
        Layer::Executor,
        Layer::Llm,
    ] {
        assert!(
            !snap.spans_in_layer(layer).is_empty(),
            "no spans in layer {layer:?}"
        );
    }

    // The execution turn nests agent → optimizer/executor → LLM.
    let turn3 = roots[2];
    let under_turn3 = |layer: Layer| {
        snap.spans_in_layer(layer)
            .into_iter()
            .filter(|s| turn3.id.contains(&s.id))
            .count()
    };
    assert!(under_turn3(Layer::Agent) >= 3, "react + act + observe");
    assert_eq!(under_turn3(Layer::Optimizer), 1, "one optimize span");
    assert!(under_turn3(Layer::Executor) >= 3, "plan span + operators");
    assert!(under_turn3(Layer::Llm) > 0, "real model calls");

    // All spans closed, timestamps monotone within each span.
    for s in &snap.spans {
        let end = s.end_us.expect("span left open");
        assert!(end >= s.start_us, "span {} ends before it starts", s.name);
    }
}

#[test]
fn trace_totals_reconcile_with_stats_and_ledger() {
    let chat = run_dialogue();
    let snap = chat.tracer().snapshot();
    let (stats, ledger) = {
        let state = chat.session().lock();
        (
            state.last_outcome.as_ref().unwrap().stats.clone(),
            state.ctx.ledger.clone(),
        )
    };

    // Every ledger-counted request has exactly one LLM span.
    let llm_spans = snap.spans_in_layer(Layer::Llm);
    assert_eq!(llm_spans.len(), ledger.total_requests());

    // LLM span cost attributes sum to the ledger's dollars.
    let span_cost = snap.attr_sum(Layer::Llm, "cost_usd");
    assert!(
        (span_cost - ledger.total_cost_usd()).abs() < 1e-4,
        "spans ${span_cost} vs ledger ${}",
        ledger.total_cost_usd()
    );

    // Executor operator spans reconcile with the Figure-5 stats table.
    let op_spans: Vec<_> = snap
        .spans_in_layer(Layer::Executor)
        .into_iter()
        .filter(|s| s.name.starts_with("op:"))
        .collect();
    assert_eq!(op_spans.len(), stats.operators.len());
    let span_calls: f64 = op_spans
        .iter()
        .filter_map(|s| s.attrs.get("llm_calls"))
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    assert_eq!(span_calls as usize, stats.total_llm_calls);
    let span_op_cost: f64 = op_spans
        .iter()
        .filter_map(|s| s.attrs.get("cost_usd"))
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    assert!((span_op_cost - stats.total_cost_usd).abs() < 1e-4);

    // The optimizer's counters match its own report.
    let outcome_report = {
        let state = chat.session().lock();
        state.last_outcome.as_ref().unwrap().report.clone()
    };
    assert_eq!(
        snap.counters["optimizer.plans_considered"],
        outcome_report.plans_considered as u64
    );
    assert_eq!(
        snap.counters["optimizer.pareto_pruned"],
        (outcome_report.plans_considered - outcome_report.pareto_size) as u64
    );

    // Trace timestamps live on the same virtual clock as the ledger's
    // latency accounting: the last span ends when the clock stopped.
    let max_end = snap.spans.iter().filter_map(|s| s.end_us).max().unwrap();
    assert_eq!(max_end, chat.tracer().now_micros());
}

#[test]
fn streaming_trace_reconciles_with_stats_and_ledger() {
    // The reconciliation contract of a run outside a chat session, with
    // the filter and convert steps interleaved: each stage's row must
    // attribute exactly the ledger's calls/dollars it caused, and all spans
    // must stay under the plan span on the shared virtual clock.
    let ctx = PzContext::simulated();
    let (docs, _) = pz_datagen::science::demo_corpus();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sigmod-demo",
        Schema::pdf_file(),
        items,
    )));
    let clinical = Schema::new(
        "ClinicalData",
        "datasets",
        vec![
            FieldDef::text("name", "The dataset name"),
            FieldDef::text("url", "The public URL of the dataset"),
        ],
    )
    .unwrap();
    let plan = Dataset::source("sigmod-demo")
        .filter("The papers are about colorectal cancer")
        .convert(clinical, Cardinality::OneToMany, "extract datasets")
        .build()
        .unwrap();
    let outcome = execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let snap = ctx.tracer.snapshot();
    let stats = &outcome.stats;

    // Every billed request has exactly one LLM span.
    let llm_spans = snap.spans_in_layer(Layer::Llm);
    assert_eq!(llm_spans.len(), ctx.ledger.total_requests());
    let span_cost = snap.attr_sum(Layer::Llm, "cost_usd");
    assert!(
        (span_cost - ctx.ledger.total_cost_usd()).abs() < 1e-4,
        "spans ${span_cost} vs ledger ${}",
        ctx.ledger.total_cost_usd()
    );

    // One op span per operator; their attribute totals match the stats
    // table and the ledger.
    let op_spans: Vec<_> = snap
        .spans_in_layer(Layer::Executor)
        .into_iter()
        .filter(|s| s.name.starts_with("op:"))
        .collect();
    assert_eq!(op_spans.len(), stats.operators.len());
    let attr_sum_of = |key: &str| -> f64 {
        op_spans
            .iter()
            .filter_map(|s| s.attrs.get(key))
            .filter_map(|v| v.parse::<f64>().ok())
            .sum()
    };
    assert_eq!(attr_sum_of("llm_calls") as usize, stats.total_llm_calls);
    assert!((attr_sum_of("cost_usd") - stats.total_cost_usd).abs() < 1e-4);
    assert_eq!(stats.total_llm_calls, ctx.ledger.total_requests());
    assert!((stats.total_cost_usd - ctx.ledger.total_cost_usd()).abs() < 1e-9);

    // Both time figures: the sequential one is the stages' sum, the
    // pipelined one reflects their overlap and is no larger.
    let busy_sum: f64 = stats.operators.iter().map(|o| o.time_secs).sum();
    assert!((stats.total_time_secs - busy_sum).abs() < 1e-9);
    assert!(stats.pipelined_secs <= busy_sum + 1e-9);
    assert!(stats.pipelined_secs > 0.0);

    // All op spans nest under the plan span, every span is closed, and
    // the trace ends when the virtual clock stopped.
    let plan_span = snap
        .spans_in_layer(Layer::Executor)
        .into_iter()
        .find(|s| s.name == "execute_plan")
        .expect("plan span");
    for op in &op_spans {
        assert!(
            plan_span.id.contains(&op.id),
            "op span {} escaped the plan span",
            op.name
        );
    }
    for s in &snap.spans {
        let end = s.end_us.expect("span left open");
        assert!(end >= s.start_us);
    }
    let max_end = snap.spans.iter().filter_map(|s| s.end_us).max().unwrap();
    assert_eq!(max_end, ctx.tracer.now_micros());
}

#[test]
fn cached_rerun_hits_land_on_tracer_and_ledger_not_llm_spans() {
    let ctx = PzContext::simulated().with_cache();
    let (docs, _) = pz_datagen::science::demo_corpus();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sigmod-demo",
        Schema::pdf_file(),
        items,
    )));
    let plan = Dataset::source("sigmod-demo")
        .filter("The papers are about colorectal cancer")
        .build()
        .unwrap();

    // MaxQuality routes the filter to completion calls (MinCost would pick
    // the embedding filter, whose cache counts per input).
    execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let misses_after_first = ctx.ledger.total_cache_misses();
    assert!(misses_after_first > 0);
    assert_eq!(ctx.ledger.total_cache_hits(), 0);

    execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let snap = ctx.tracer.snapshot();

    // Second run was served from cache: hits on the ledger…
    assert_eq!(ctx.ledger.total_cache_hits(), misses_after_first);
    // …on the trace's hit counter…
    let hits = snap.counters.get(pz_llm::cache::HITS).copied().unwrap_or(0);
    assert_eq!(hits as usize, ctx.ledger.total_cache_hits());
    // …and NO extra LLM spans (hits never reach the provider).
    assert_eq!(
        snap.spans_in_layer(Layer::Llm).len(),
        ctx.ledger.total_requests()
    );
}

#[test]
fn trace_exports_as_jsonl_and_round_trips() {
    let chat = run_dialogue();
    let snap = chat.tracer().snapshot();
    let jsonl = snap.to_jsonl();

    // Every line is standalone JSON.
    assert!(jsonl.lines().count() >= snap.spans.len());
    for line in jsonl.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
        assert!(v.is_object() || v.is_string(), "{line}");
    }

    // Lossless round trip.
    let back = TraceSnapshot::from_jsonl(&jsonl).unwrap();
    assert_eq!(back, snap);

    // The re-imported trace supports the same queries.
    assert_eq!(back.roots().len(), 3);
    assert_eq!(
        back.spans_in_layer(Layer::Llm).len(),
        snap.spans_in_layer(Layer::Llm).len()
    );
}

#[test]
fn render_tree_shows_the_dialogue_structure() {
    let chat = run_dialogue();
    let tree = pz_obs::render_tree(&chat.tracer().snapshot());
    assert!(tree.contains("turn:1"), "{tree}");
    assert!(tree.contains("act:execute_pipeline"), "{tree}");
    assert!(tree.contains("optimize"), "{tree}");
    assert!(tree.contains("execute_plan"), "{tree}");
    assert!(tree.contains("[llm] complete"), "{tree}");
    assert!(tree.contains("counters:"), "{tree}");
}
