//! Integration: re-runs over an edited dataset through the response cache
//! (`PzContext::with_cache`).
//!
//! The headline guarantee, test-enforced: for any plan and any edit script
//! (appends, updates, deletes), re-running on a cached context over the
//! edited dataset produces the *same output multiset* as running from
//! scratch — while billing only the records the edit touched: an unchanged
//! record repeats its prompts verbatim and is served from the cache. The
//! differential proptests randomize plans × edit scripts × parallelism;
//! targeted tests pin each operator's delta, and that a
//! cold run through the cache is byte-invisible.

mod common;

use common::{
    arb_corpus, arb_steps_llm, assert_reconciled, build_plan, clinical_schema, has_early_exit,
    multiset, Step,
};
use proptest::prelude::*;
use pz_core::exec::execute_plan;
use pz_core::prelude::*;
use pz_datagen::edits::{self, EditOp};
use pz_datagen::science::{self, ScienceConfig};
use pz_datagen::Document;
use pz_llm::protocol::Effort;
use pz_llm::{FaultPlan, SimConfig};
use std::sync::Arc;

const DATASET: &str = "inc";

/// Cached context over a versioned copy of `items`.
fn versioned_ctx(items: &[(String, String)]) -> (PzContext, Arc<VersionedSource>) {
    let ctx = PzContext::simulated().with_cache();
    let src = Arc::new(VersionedSource::new(
        DATASET,
        Schema::pdf_file(),
        items.to_vec(),
    ));
    ctx.registry.register(src.clone());
    (ctx, src)
}

/// From-scratch baseline: fresh context, plain `MemorySource`, no cache.
fn scratch_run(
    items: &[(String, String)],
    plan: &PhysicalPlan,
    config: ExecutionConfig,
) -> (PzContext, Vec<DataRecord>, ExecutionStats) {
    let ctx = common::fresh_ctx(DATASET, items);
    let (rec, stats) = execute_plan(&ctx, plan, config).unwrap();
    (ctx, rec, stats)
}

fn to_docs(corpus: &[(String, String)]) -> Vec<Document> {
    corpus
        .iter()
        .map(|(f, c)| Document::new(f.clone(), f.clone(), c.clone()))
        .collect()
}

/// Apply one edit batch to the live source *and* to the mirror used for
/// the from-scratch comparison, mirroring `VersionedSource` semantics.
fn apply_batch(src: &VersionedSource, items: &mut Vec<(String, String)>, batch: &[EditOp]) {
    for op in batch {
        match op {
            EditOp::Append(d) => {
                src.append(&d.filename, &d.content);
                items.push((d.filename.clone(), d.content.clone()));
            }
            EditOp::Update { filename, content } => {
                src.update(filename, content);
                if let Some(e) = items.iter_mut().find(|(f, _)| f == filename) {
                    e.1 = content.clone();
                }
            }
            EditOp::Delete { filename } => {
                src.delete(filename);
                items.retain(|(f, _)| f != filename);
            }
        }
    }
}

proptest! {
    /// The tentpole guarantee. For a random plan, a random seeded edit
    /// script, and worker pools of 1/2/8: after
    /// every batch the cached re-run agrees with a from-scratch run on the
    /// output multiset and its per-operator stats still reconcile exactly
    /// against the ledger. Absent an early-exit Limit (which lets an edit
    /// pull unchanged records it never reached into the LLM steps), it
    /// never bills more, and no unchanged record bills a call: each LLM
    /// step bills at most once per appended or updated record.
    #[test]
    fn incremental_rerun_matches_from_scratch(
        corpus in arb_corpus(),
        steps in arb_steps_llm(),
        seed in any::<u64>(),
        p_idx in 0usize..3,
        (batches, ops) in (1usize..3, 1usize..4),
    ) {
        let parallelism = [1usize, 2, 8][p_idx];
        let plan = build_plan(DATASET, &steps);
        let config = ExecutionConfig::sequential().with_parallelism(parallelism);
        let llm_steps = steps
            .iter()
            .filter(|s| matches!(s, Step::Filter(_) | Step::Classify))
            .count();

        let script = edits::edit_script(&to_docs(&corpus), seed, batches, ops);
        let (ctx, src) = versioned_ctx(&corpus);
        let mut items = corpus.clone();

        // Cold run warms the cache.
        let (_, stats0) = execute_plan(&ctx, &plan, config).unwrap();
        prop_assert_eq!(stats0.memo_hits, ctx.ledger.total_cache_hits());
        assert_reconciled(&ctx, &stats0);

        for batch in &script.batches {
            apply_batch(&src, &mut items, batch);
            ctx.reset_accounting();
            let (rec_i, stats_i) = execute_plan(&ctx, &plan, config).unwrap();
            assert_reconciled(&ctx, &stats_i);

            let (ctx_f, rec_f, _) = scratch_run(&items, &plan, config);
            prop_assert_eq!(multiset(&rec_i), multiset(&rec_f));
            if !has_early_exit(&steps) {
                let dirty = batch
                    .iter()
                    .filter(|op| !matches!(op, EditOp::Delete { .. }))
                    .count();
                prop_assert!(
                    ctx.ledger.total_requests() <= llm_steps * dirty,
                    "{} calls for {dirty} edited record(s) over {llm_steps} LLM step(s)",
                    ctx.ledger.total_requests()
                );
                prop_assert!(
                    ctx.ledger.total_cost_usd() <= ctx_f.ledger.total_cost_usd() + 1e-9,
                    "cached re-run ${} > from-scratch ${}",
                    ctx.ledger.total_cost_usd(),
                    ctx_f.ledger.total_cost_usd()
                );
                prop_assert!(
                    ctx.ledger.total_requests() <= ctx_f.ledger.total_requests(),
                    "cached re-run {} calls > from-scratch {}",
                    ctx.ledger.total_requests(),
                    ctx_f.ledger.total_requests()
                );
            }
        }
    }

    /// Pure appends to a cached prefix re-bill *exactly* the delta: the
    /// re-run's call count equals fresh(final corpus) − fresh(old corpus).
    /// Duplicate LLM steps are deduplicated first — two identical
    /// operators send the same prompts, so the second is served from the
    /// cache even within one run, which is correct but makes the uncached
    /// subtraction above miscount.
    #[test]
    fn pure_append_rebills_exactly_the_delta(
        corpus in arb_corpus(),
        raw_steps in arb_steps_llm(),
        seed in any::<u64>(),
        appended in 1usize..3,
    ) {
        let mut seen_filters = Vec::new();
        let mut seen_classify = false;
        let steps: Vec<Step> = raw_steps
            .into_iter()
            .filter(|s| match s {
                Step::Limit(_) => false, // early exit voids exact counting
                Step::Filter(i) => {
                    if seen_filters.contains(i) {
                        false
                    } else {
                        seen_filters.push(*i);
                        true
                    }
                }
                Step::Classify => !std::mem::replace(&mut seen_classify, true),
                _ => true,
            })
            .collect();
        let plan = build_plan(DATASET, &steps);
        let config = ExecutionConfig::sequential();

        let script = edits::append_script(seed, 1, appended);
        let (ctx, src) = versioned_ctx(&corpus);
        let mut items = corpus.clone();
        execute_plan(&ctx, &plan, config).unwrap();
        apply_batch(&src, &mut items, &script.batches[0]);
        ctx.reset_accounting();
        let (rec_i, _) = execute_plan(&ctx, &plan, config).unwrap();
        let delta_calls = ctx.ledger.total_requests();

        let (ctx_old, _, _) = scratch_run(&corpus, &plan, config);
        let (ctx_new, rec_f, _) = scratch_run(&items, &plan, config);
        prop_assert_eq!(multiset(&rec_i), multiset(&rec_f));
        prop_assert_eq!(
            delta_calls,
            ctx_new.ledger.total_requests() - ctx_old.ledger.total_requests(),
            "append re-billed more than the new records"
        );
    }
}

// ---------------------------------------------------------------------------
// Targeted per-operator deltas.
// ---------------------------------------------------------------------------

fn demo_items() -> Vec<(String, String)> {
    let (docs, _) = science::demo_corpus();
    docs.into_iter().map(|d| (d.filename, d.content)).collect()
}

fn filter_convert_plan() -> PhysicalPlan {
    PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: DATASET.into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract datasets".into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
        ],
    }
}

fn single_op_plan(op: PhysicalOp) -> PhysicalPlan {
    PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: DATASET.into(),
            },
            op,
        ],
    }
}

const DELTA_DOC: &str = "Delta document. A colorectal cancer screening cohort with the FunkyData \
     registry available at https://example.org/funky.";

/// Run `plan` cold on the demo corpus, apply `edit`, re-run on the same
/// cached context, and run from scratch on the edited corpus. Returns both
/// contexts (their ledgers carry the re-billed vs full accounting) and
/// both record sets.
fn delta_scenario(
    plan: &PhysicalPlan,
    config: ExecutionConfig,
    edit: impl FnOnce(&VersionedSource, &mut Vec<(String, String)>),
) -> (PzContext, Vec<DataRecord>, PzContext, Vec<DataRecord>) {
    let mut items = demo_items();
    let (ctx, src) = versioned_ctx(&items);
    execute_plan(&ctx, plan, config).unwrap();
    edit(&src, &mut items);
    ctx.reset_accounting();
    let (rec_i, _) = execute_plan(&ctx, plan, config).unwrap();
    let (ctx_f, rec_f, _) = scratch_run(&items, plan, config);
    (ctx, rec_i, ctx_f, rec_f)
}

#[test]
fn update_rebills_only_the_touched_record() {
    let config = ExecutionConfig::sequential();
    let (ctx_i, rec_i, ctx_f, rec_f) =
        delta_scenario(&filter_convert_plan(), config, |src, items| {
            let filename = items[0].0.clone();
            src.update(&filename, DELTA_DOC);
            items[0].1 = DELTA_DOC.into();
        });
    let delta = ctx_i.ledger.total_requests();
    assert_eq!(multiset(&rec_i), multiset(&rec_f));
    assert!(
        delta <= 2,
        "update of 1 record re-billed {delta} calls (want <= filter + convert)"
    );
    assert!(delta < ctx_f.ledger.total_requests());
}

#[test]
fn delete_rebills_nothing() {
    let config = ExecutionConfig::sequential();
    let (ctx_i, rec_i, _, rec_f) = delta_scenario(&filter_convert_plan(), config, |src, items| {
        let filename = items[3].0.clone();
        src.delete(&filename);
        items.remove(3);
    });
    let delta = ctx_i.ledger.total_requests();
    assert_eq!(multiset(&rec_i), multiset(&rec_f));
    assert_eq!(delta, 0, "a delete re-billed {delta} calls");
}

#[test]
fn embedding_filter_delta_rule() {
    let plan = single_op_plan(PhysicalOp::EmbeddingFilter {
        predicate: "colorectal cancer tumor genomic mutation cohort".into(),
        model: "text-embedding-3-small".into(),
        threshold: 0.30,
    });
    let (ctx_i, rec_i, ctx_f, rec_f) =
        delta_scenario(&plan, ExecutionConfig::sequential(), |src, items| {
            src.append("delta-000.pdf", DELTA_DOC);
            items.push(("delta-000.pdf".into(), DELTA_DOC.into()));
        });
    assert_eq!(multiset(&rec_i), multiset(&rec_f));
    // Embeddings batch: both runs make one provider request, but the
    // re-run embeds only the appended record — the predicate and the old
    // records are cached — so the saving shows up in tokens, i.e. dollars.
    assert_eq!(ctx_i.ledger.total_requests(), 1);
    assert!(
        ctx_i.ledger.total_cost_usd() < ctx_f.ledger.total_cost_usd(),
        "re-run embed ${} not cheaper than from-scratch ${}",
        ctx_i.ledger.total_cost_usd(),
        ctx_f.ledger.total_cost_usd()
    );
}

#[test]
fn ensemble_filter_delta_rule() {
    let plan = single_op_plan(PhysicalOp::EnsembleFilter {
        predicate: science::FILTER_PREDICATE.into(),
        models: vec!["gpt-4o".into(), "gpt-4o-mini".into(), "llama-3-70b".into()],
        effort: Effort::Standard,
    });
    let (ctx_i, rec_i, ctx_f, rec_f) =
        delta_scenario(&plan, ExecutionConfig::sequential(), |src, items| {
            src.append("delta-000.pdf", DELTA_DOC);
            items.push(("delta-000.pdf".into(), DELTA_DOC.into()));
        });
    let delta = ctx_i.ledger.total_requests();
    assert_eq!(multiset(&rec_i), multiset(&rec_f));
    assert_eq!(
        delta, 3,
        "one vote per member model for the new record only"
    );
    assert!(delta < ctx_f.ledger.total_requests());
}

#[test]
fn classify_delta_rule() {
    let plan = single_op_plan(PhysicalOp::LlmClassify {
        labels: vec!["cancer".into(), "dataset".into(), "other".into()],
        output_field: "topic".into(),
        model: "gpt-4o".into(),
        effort: Effort::Standard,
    });
    let (ctx_i, rec_i, _, rec_f) =
        delta_scenario(&plan, ExecutionConfig::sequential(), |src, items| {
            src.append("delta-000.pdf", DELTA_DOC);
            items.push(("delta-000.pdf".into(), DELTA_DOC.into()));
        });
    let delta = ctx_i.ledger.total_requests();
    assert_eq!(multiset(&rec_i), multiset(&rec_f));
    assert_eq!(delta, 1, "classify bills exactly the appended record");
    // Every record still carries a label, cached or billed.
    assert!(rec_i.iter().all(|r| r.get("topic").is_some()));
}

#[test]
fn fieldwise_convert_delta_rule() {
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: DATASET.into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
            PhysicalOp::FieldwiseConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract datasets".into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
        ],
    };
    let (ctx_i, rec_i, ctx_f, rec_f) =
        delta_scenario(&plan, ExecutionConfig::sequential(), |src, items| {
            src.append("delta-000.pdf", DELTA_DOC);
            items.push(("delta-000.pdf".into(), DELTA_DOC.into()));
        });
    let delta = ctx_i.ledger.total_requests();
    assert_eq!(multiset(&rec_i), multiset(&rec_f));
    // Filter (1 call) + one call per target field (2) for the new record.
    assert!(delta <= 3, "fieldwise convert re-billed {delta} calls");
    assert!(delta < ctx_f.ledger.total_requests());
}

/// The join prompts once per (left, right) pair: an unchanged build side
/// re-runs for free, and editing it bills only the pairs with the new
/// right record — never a stale join.
#[test]
fn llm_join_right_side_edit_invalidates_fingerprint() {
    let left_items: Vec<(String, String)> = vec![
        (
            "l-0.txt".into(),
            "TCGA-COADREAD colorectal adenocarcinoma multi omics cohort".into(),
        ),
        (
            "l-1.txt".into(),
            "GSE39582 gene expression profiles of colon cancer tumors".into(),
        ),
    ];
    let right_items: Vec<(String, String)> = vec![
        (
            "cat-0.txt".into(),
            "repository: TCGA\ncatalog_entry: TCGA-COADREAD colorectal adenocarcinoma omics\n"
                .into(),
        ),
        (
            "cat-1.txt".into(),
            "repository: GEO\ncatalog_entry: GSE39582 colon cancer expression profiles\n".into(),
        ),
    ];
    let plan = single_op_plan(PhysicalOp::LlmJoin {
        dataset: "catalog".into(),
        criterion: "the records refer to the same dataset".into(),
        model: "gpt-4o".into(),
        effort: Effort::Standard,
    });

    let ctx = PzContext::simulated().with_cache();
    let left = Arc::new(VersionedSource::new(
        DATASET,
        Schema::text_file(),
        left_items.clone(),
    ));
    let right = Arc::new(VersionedSource::new(
        "catalog",
        Schema::text_file(),
        right_items.clone(),
    ));
    ctx.registry.register(left.clone());
    ctx.registry.register(right.clone());

    let config = ExecutionConfig::sequential();
    let (rec1, _) = execute_plan(&ctx, &plan, config).unwrap();
    assert_eq!(ctx.ledger.total_requests(), 2 * 2, "left × right pairs");

    // Unchanged build side: the join is served from the cache.
    ctx.reset_accounting();
    let (rec2, _) = execute_plan(&ctx, &plan, config).unwrap();
    assert_eq!(ctx.ledger.total_requests(), 0, "unchanged join re-billed");
    assert_eq!(multiset(&rec1), multiset(&rec2));

    // Edited build side: only the pairs with the new right record bill.
    let extra = (
        "cat-2.txt".to_string(),
        "repository: SDSS\ncatalog_entry: quasar redshift sky survey imaging\n".to_string(),
    );
    right.append(&extra.0, &extra.1);
    ctx.reset_accounting();
    let (rec3, _) = execute_plan(&ctx, &plan, config).unwrap();
    assert_eq!(
        ctx.ledger.total_requests(),
        2,
        "a right-side append bills one call per left record"
    );

    // And the re-run agrees with a from-scratch join over the new catalog.
    let scratch = PzContext::simulated();
    scratch.registry.register(Arc::new(MemorySource::new(
        DATASET,
        Schema::text_file(),
        left_items,
    )));
    let mut new_right = right_items;
    new_right.push(extra);
    scratch.registry.register(Arc::new(MemorySource::new(
        "catalog",
        Schema::text_file(),
        new_right,
    )));
    let (rec_f, _) = execute_plan(&scratch, &plan, ExecutionConfig::sequential()).unwrap();
    assert_eq!(multiset(&rec3), multiset(&rec_f));
}

/// Retrieve embeds per input, so an unchanged corpus re-runs for free and
/// an appended record bills its own embedding, plus a filter call if it
/// enters the top-k; the records already ranked stay free.
#[test]
fn retrieve_falls_back_to_full_rerun() {
    let (docs, _) = science::generate(ScienceConfig {
        n_papers: 12,
        ..Default::default()
    });
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: DATASET.into(),
            },
            PhysicalOp::Retrieve {
                query: "colorectal cancer tumor genomic mutation".into(),
                k: 5,
                model: "text-embedding-3-small".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
        ],
    };
    let (ctx, src) = versioned_ctx(&items);
    let config = ExecutionConfig::sequential();
    let (rec1, _) = execute_plan(&ctx, &plan, config).unwrap();
    let cold_calls = ctx.ledger.total_requests();

    ctx.reset_accounting();
    let (rec2, _) = execute_plan(&ctx, &plan, config).unwrap();
    assert_eq!(multiset(&rec1), multiset(&rec2));
    assert_eq!(
        ctx.ledger.total_requests(),
        0,
        "unchanged retrieve re-billed"
    );

    let mut items = items;
    src.append("delta-000.pdf", DELTA_DOC);
    items.push(("delta-000.pdf".into(), DELTA_DOC.into()));
    ctx.reset_accounting();
    let (rec3, _) = execute_plan(&ctx, &plan, config).unwrap();
    let rerun_calls = ctx.ledger.total_requests();
    let (ctx_f, rec_f, _) = scratch_run(&items, &plan, config);
    assert_eq!(multiset(&rec3), multiset(&rec_f));
    assert!(
        (1..=2).contains(&rerun_calls),
        "append re-billed {rerun_calls} calls (cold run: {cold_calls})"
    );
    assert!(ctx.ledger.total_cost_usd() < ctx_f.ledger.total_cost_usd());
}

/// A cold run through the cache is byte-invisible: it must behave
/// identically to a plain context over a plain `MemorySource` — same
/// records, cost, calls, clock, and byte-identical serialized stats, with
/// no cache-hit key in the JSON.
#[test]
fn incremental_off_is_byte_invisible() {
    let config = ExecutionConfig::sequential();
    let items = demo_items();
    let (ctx_armed, _src) = versioned_ctx(&items);
    let (rec_a, stats_a) = execute_plan(&ctx_armed, &filter_convert_plan(), config).unwrap();

    let ctx_plain = common::fresh_ctx(DATASET, &items);
    let (rec_p, stats_p) = execute_plan(&ctx_plain, &filter_convert_plan(), config).unwrap();

    assert_eq!(multiset(&rec_a), multiset(&rec_p));
    assert_eq!(
        ctx_armed.ledger.total_requests(),
        ctx_plain.ledger.total_requests()
    );
    assert!((ctx_armed.ledger.total_cost_usd() - ctx_plain.ledger.total_cost_usd()).abs() < 1e-9);
    assert!((ctx_armed.clock.now_secs() - ctx_plain.clock.now_secs()).abs() < 1e-9);
    assert_eq!(stats_a.memo_hits, 0);
    assert_eq!(ctx_armed.ledger.total_cache_hits(), 0);
    let json = serde_json::to_string(&stats_a).unwrap();
    assert!(!json.contains("memo_hits"), "zero memo_hits serialized");
    assert_eq!(
        serde_json::to_string(&stats_a).unwrap(),
        serde_json::to_string(&stats_p).unwrap()
    );
}

/// The fault-matrix cell: under the E18 brownout (sub-threshold timeouts,
/// retried to success — no breaker, no failover) a cached re-run after an
/// append must still agree with a from-scratch run under the *same* fault
/// plan, and still bill only the delta.
///
/// The brownout moves operators off gpt-4o. A cache hit hands the
/// substitution controller what its call cost the cold run, stall
/// included, so the re-run makes the cold run's swaps and finds every
/// cached response under the model that produced it. After the plan is
/// cleared, a re-run replans nothing and returns the healthy output.
#[test]
fn brownout_incremental_rerun_matches_from_scratch() {
    let (docs, _) = science::generate(ScienceConfig {
        n_papers: 40,
        ..Default::default()
    });
    let e19: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    // Who moved where. Not why: a hit takes no virtual time, so a breaker
    // the cold run saw cool down may still be open on the re-run.
    let decisions = |s: &ExecutionStats| {
        let failovers = (s.degraded.iter()).map(|d| (&d.operator, &d.from_model, &d.to_model));
        let swaps = (s.adaptive.iter()).map(|r| (&r.operator, &r.from_model, &r.to_model));
        (failovers.chain(swaps))
            .map(|(o, f, t)| format!("{o}: {f} -> {t}"))
            .collect::<Vec<_>>()
    };
    let mut failed_over = false;
    // The demo corpus; E19's, on E19's seeds (the simulator's default and
    // `repro --fault-plan`'s); and E19's under a hotter brownout, whose
    // cold filter runs out of retries and fails over mid-step before its
    // stall ratio is read.
    let e18 = "gpt-4o:timeout@0..1e9:p=0.35:stall=25";
    let hot = "gpt-4o:timeout@0..1e9:p=0.6:stall=25";
    for (corpus, seed, spec, fault_seed) in [
        (demo_items(), 0, e18, 11),
        (e19.clone(), 42, e18, 42),
        (e19, 42, hot, 42),
    ] {
        let brownout = || {
            let plan = FaultPlan::parse(spec, fault_seed);
            SimConfig {
                seed,
                fault_plan: plan.unwrap(),
                ..Default::default()
            }
        };
        let config = ExecutionConfig::sequential();
        let ctx = PzContext::simulated_with(brownout()).with_cache();
        let mut items = corpus.clone();
        let src = Arc::new(VersionedSource::new(
            DATASET,
            Schema::pdf_file(),
            items.clone(),
        ));
        ctx.registry.register(src.clone());

        let (_, cold) = execute_plan(&ctx, &filter_convert_plan(), config).unwrap();
        assert!(!decisions(&cold).is_empty(), "the brownout moved nothing");
        failed_over |= !cold.degraded.is_empty();
        src.append("delta-000.pdf", DELTA_DOC);
        items.push(("delta-000.pdf".into(), DELTA_DOC.into()));
        ctx.reset_accounting();
        let (rec_i, stats_i) = execute_plan(&ctx, &filter_convert_plan(), config).unwrap();
        let delta_calls = ctx.ledger.total_requests();
        assert_reconciled(&ctx, &stats_i);

        let scratch = PzContext::simulated_with(brownout());
        scratch.registry.register(Arc::new(MemorySource::new(
            DATASET,
            Schema::pdf_file(),
            items.clone(),
        )));
        let sequential = ExecutionConfig::sequential();
        let (rec_f, _) = execute_plan(&scratch, &filter_convert_plan(), sequential).unwrap();
        assert_eq!(multiset(&rec_i), multiset(&rec_f));
        assert_eq!(
            decisions(&stats_i),
            decisions(&cold),
            "the re-run decided otherwise"
        );
        assert!(delta_calls <= 2, "brownout delta re-billed {delta_calls}");
        assert!(delta_calls < scratch.ledger.total_requests());

        // What the calls lost is evidence only under the plan that
        // measured it: once it is cleared (and the breakers reset), the
        // re-run is the healthy run.
        ctx.faults.clear();
        ctx.reset_accounting();
        let (rec_h, healthy) = execute_plan(&ctx, &filter_convert_plan(), config).unwrap();
        assert!(decisions(&healthy).is_empty());
        let (_, rec_s, _) = scratch_run(&items, &filter_convert_plan(), config);
        assert_eq!(multiset(&rec_h), multiset(&rec_s));
    }
    assert!(failed_over, "no cold run failed over");
}
