//! Integration: model substitution under a brownout (`exec/failover.rs`).
//!
//! The brownout scenario the breaker cannot see: a model answers, slowly
//! and through stalls, at a failure rate below the trip threshold. A run
//! whose context offers no substitute grinds through it; an ordinary run
//! sees the model's stall ratio cross its threshold and swaps it for a
//! healthy substitute, producing the same output multiset in less virtual
//! time. On a healthy run the controller is invisible.

mod common;

use common::{
    assert_reconciled, clinical_schema, ctx_with, multiset, offering_no_substitute, sorted_names,
};
use pz_core::prelude::*;
use pz_datagen::science;
use pz_llm::FaultPlan;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Scan → LLMFilter → LLMConvert over the demo corpus.
fn plan(filter_model: &str, convert_model: &str) -> PhysicalPlan {
    PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "sigmod-demo".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: filter_model.into(),
                effort: Default::default(),
            },
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract".into(),
                model: convert_model.into(),
                effort: Default::default(),
            },
        ],
    }
}

/// The E18 physical plan, written out explicitly so both runs execute the
/// *identical* operators: the filter sits on the (faulted) champion, the
/// convert on the healthy substitute — so a mid-stream filter swap is the
/// only difference substitution can introduce.
fn brownout_plan() -> PhysicalPlan {
    plan("gpt-4o", "llama-3-70b")
}

/// The scripted brownout: gpt-4o stalls 25 virtual seconds on ~35% of
/// calls — a stall ratio far past 3, at a failure rate far below the
/// breaker's trip rate (0.75 over a 12-failure window).
fn brownout() -> FaultPlan {
    FaultPlan::parse("gpt-4o:timeout@0..1e9:p=0.35:stall=25", 11).unwrap()
}

/// While every model stays healthy, a run is indistinguishable from one
/// whose context offers no substitute at all: same
/// records, request count, cost, virtual clock, serialized stats and
/// trace, byte for byte.
#[test]
fn healthy_adaptive_run_is_byte_identical_to_off() {
    let demo = plan("gpt-4o", "gpt-4o");
    let config = ExecutionConfig::sequential();
    let ctx_off = offering_no_substitute(ctx_with(FaultPlan::none(), 0), "gpt-4o");
    let (rec_off, stats_off) = pz_core::exec::execute_plan(&ctx_off, &demo, config).unwrap();
    let ctx_on = ctx_with(FaultPlan::none(), 0);
    let (rec_on, stats_on) = pz_core::exec::execute_plan(&ctx_on, &demo, config).unwrap();

    assert_eq!(rec_off, rec_on);
    assert_eq!(
        ctx_off.ledger.total_requests(),
        ctx_on.ledger.total_requests()
    );
    assert_eq!(
        ctx_off.ledger.total_cost_usd(),
        ctx_on.ledger.total_cost_usd()
    );
    assert_eq!(ctx_off.clock.now_secs(), ctx_on.clock.now_secs());
    assert!(stats_on.adaptive.is_empty());
    assert_eq!(ctx_on.tracer.counter("exec.replan"), 0);
    assert_eq!(
        serde_json::to_string(&stats_off).unwrap(),
        serde_json::to_string(&stats_on).unwrap()
    );
    assert_eq!(
        ctx_off.tracer.snapshot().to_jsonl(),
        ctx_on.tracer.snapshot().to_jsonl()
    );
}

/// Repairing what has not run yet: the filter browns out while it steps
/// through the corpus; by the top of the convert's first step the
/// controller has seen gpt-4o's stall ratio cross its threshold and moves
/// the *convert* (planned on the same degraded model) to a healthy
/// substitute before it starts.
#[test]
fn materializing_brownout_repairs_unexecuted_suffix() {
    let ctx = ctx_with(brownout(), 0);
    let (records, stats) = pz_core::exec::execute_plan(
        &ctx,
        &plan("gpt-4o", "gpt-4o"),
        ExecutionConfig::sequential(),
    )
    .unwrap();
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

/// E18, the acceptance scenario: under the brownout a run with no
/// substitute on offer keeps paying 25-second stalls on every third call;
/// an ordinary one sticky-swaps the filter onto a healthy model
/// mid-stream. Both produce the same output multiset; the swapping run
/// finishes in strictly less virtual time; every switch is visible as an
/// `exec.replan` event reconciling with the recorded reports.
#[test]
fn e18_streaming_brownout_static_vs_adaptive() {
    let ctx_s = offering_no_substitute(ctx_with(brownout(), 0), "gpt-4o");
    let (rec_s, stats_s) =
        pz_core::exec::execute_plan(&ctx_s, &brownout_plan(), ExecutionConfig::sequential())
            .unwrap();

    let ctx_a = ctx_with(brownout(), 0);
    let (rec_a, stats_a) =
        pz_core::exec::execute_plan(&ctx_a, &brownout_plan(), ExecutionConfig::sequential())
            .unwrap();

    // The static run rode the brownout without tripping anything: no
    // breaker, no failover — the regime replanning exists for.
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

/// Evidence belongs to the run that gathered it. After a brownout run on a
/// context, clearing the faults and re-running on the same context is a
/// healthy run — no replan, and the answer, bill and clock time of a fresh
/// healthy context — although the breaker still counts the brownout's
/// failures.
#[test]
fn a_cleared_brownout_is_not_held_against_the_next_run() {
    let demo = plan("gpt-4o", "gpt-4o");
    let config = ExecutionConfig::sequential();
    let ctx = ctx_with(brownout(), 0);
    let (_, stats) = pz_core::exec::execute_plan(&ctx, &demo, config).unwrap();
    assert!(!stats.adaptive.is_empty(), "no replan");
    assert!(ctx.health.outcomes(&"gpt-4o".into()).0 >= 2);

    ctx.faults.clear();
    let calls = ctx.ledger.total_requests();
    let (cost, clock) = (ctx.ledger.total_cost_usd(), ctx.clock.now_micros());
    let (records, stats) = pz_core::exec::execute_plan(&ctx, &demo, config).unwrap();
    assert!(stats.adaptive.is_empty(), "{:?}", stats.adaptive);
    let fresh = ctx_with(FaultPlan::none(), 0);
    let (fresh_records, _) = pz_core::exec::execute_plan(&fresh, &demo, config).unwrap();
    assert_eq!(multiset(&records), multiset(&fresh_records));
    assert_eq!(
        ctx.ledger.total_requests() - calls,
        fresh.ledger.total_requests()
    );
    assert!((ctx.ledger.total_cost_usd() - cost - fresh.ledger.total_cost_usd()).abs() < 1e-9);
    assert_eq!(ctx.clock.now_micros() - clock, fresh.clock.now_micros());
}

/// Regression (PR 7 satellite): a non-profiled run must not leave a
/// caller-installed retry-wait sink wired into its clones — backoff from
/// an unprofiled execution used to leak into a sink installed for a
/// *previous* profiled run on the same context.
#[test]
fn non_profiled_run_does_not_feed_stale_retry_sink() {
    let mut ctx = ctx_with(brownout(), 0);
    let sink = Arc::new(pz_llm::RunSink::default());
    ctx.run_sink = Some(sink.clone());
    let (records, _) =
        pz_core::exec::execute_plan(&ctx, &brownout_plan(), ExecutionConfig::sequential()).unwrap();
    assert!(!records.is_empty());
    assert_eq!(
        sink.lost_secs(),
        0.0,
        "non-profiled run wrote retry backoff into a stale sink"
    );
}

/// Records per scan chunk (the executor's `SCAN_CHUNK`).
const SCAN_CHUNK: usize = 4096;

/// A generated corpus that counts whole-corpus reads: `records()` is what
/// materializes every record at once; the executor's scans go through
/// `batches()`.
struct CountingSource {
    inner: GeneratedSource,
    whole_reads: Arc<AtomicUsize>,
}

impl pz_core::datasource::DataSource for CountingSource {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn schema(&self) -> Schema {
        self.inner.schema()
    }
    fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
        self.whole_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.records(base_id)
    }
    fn batches(&self, base_id: u64, chunk_size: usize) -> PzResult<RecordBatchIter> {
        self.inner.batches(base_id, chunk_size)
    }
    fn cardinality_hint(&self) -> Option<usize> {
        self.inner.cardinality_hint()
    }
}

/// Bugfix: arming substitution used to cost the whole corpus — the
/// controller sampled the source (`records()`) to price its estimates, and
/// turned every operator into a barrier. Under a brownout, over two and a
/// half scan chunks, a run may not read the corpus whole or hold more than
/// two chunks at once.
#[test]
fn brownout_run_never_materializes_the_corpus() {
    let n = SCAN_CHUNK * 5 / 2;
    let config = ExecutionConfig::sequential();
    let ctx = ctx_with(brownout(), 0);
    let whole_reads = Arc::new(AtomicUsize::new(0));
    ctx.registry.register(Arc::new(CountingSource {
        inner: GeneratedSource::new("big", Schema::text_file(), n, |i| {
            let topic = if i % 2 == 0 {
                "colorectal cancer cohort"
            } else {
                "modern home"
            };
            (format!("doc-{i:05}.txt"), format!("Document {i}: {topic}."))
        }),
        whole_reads: whole_reads.clone(),
    }));
    // Every 256th document reaches the browning-out model.
    ctx.udfs.register_filter("sparse", |r: &DataRecord| {
        r.get("filename")
            .and_then(|v| v.as_display()[4..9].parse::<usize>().ok())
            .is_some_and(|i| i % 256 == 0)
    });
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "big".into(),
            },
            PhysicalOp::UdfFilter {
                udf: "sparse".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Default::default(),
            },
        ],
    };
    let (_, stats) = pz_core::exec::execute_plan(&ctx, &plan, config).unwrap();
    assert_eq!(
        whole_reads.load(Ordering::Relaxed),
        0,
        "the corpus was read whole"
    );
    assert!(
        stats.peak_resident_records <= 2 * SCAN_CHUNK,
        "peak {} resident records",
        stats.peak_resident_records
    );
    assert!(!stats.adaptive.is_empty(), "no replan");
}
