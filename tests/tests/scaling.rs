//! Integration: the out-of-core data plane (`exec/run.rs` chunked scan,
//! and the blocking `Sort` behind it), plus `pz-vector`'s standalone HNSW
//! index.
//!
//! The headline guarantee, test-enforced: chunking is a memory property,
//! not a semantics one. The executor always pulls its leading scan in
//! fixed-size chunks; for any plan, a corpus that spans several chunks
//! must produce the same records, the same ledger bill, and the same stats
//! as the plan's operators applied to the whole corpus at once — and a
//! `Sort` must produce byte-identical output to a sort of the whole input. The HNSW index must stay deterministic
//! under a fixed seed and keep recall >= 0.9 against an exact flat scan.

mod common;

use common::{
    arb_steps, assert_reconciled, build_plan, has_early_exit, multiset, whole_input_reference,
};
use proptest::prelude::*;
use pz_core::exec::execute_plan;
use pz_core::prelude::*;
use pz_vector::{FlatIndex, HnswConfig, HnswIndex, Metric};
use std::sync::Arc;

const DATASET: &str = "scale";

/// The executor's scan chunk (a private constant of
/// `pz_core::exec::run`); the corpus sizes below are pinned to it.
const SCAN_CHUNK: usize = 4096;

/// One record short of a chunk, exactly one chunk, one record into the
/// second chunk, and two and a half chunks.
const BOUNDARY_SIZES: [usize; 4] = [
    SCAN_CHUNK - 1,
    SCAN_CHUNK,
    SCAN_CHUNK + 1,
    SCAN_CHUNK * 5 / 2,
];

fn record_keys(records: &[DataRecord]) -> Vec<String> {
    records.iter().map(|r| format!("{r:?}")).collect()
}

/// Fresh context over an `n`-document generated corpus. The `sparse` UDF
/// keeps every `keep_every`-th document — every scan chunk contributes
/// survivors, while the LLM work downstream stays small.
fn generated_ctx(n: usize, keep_every: usize) -> PzContext {
    let ctx = PzContext::simulated();
    ctx.registry.register(Arc::new(GeneratedSource::new(
        DATASET,
        Schema::pdf_file(),
        n,
        |i| {
            let topic = if i % 3 == 0 {
                "cancer cohort"
            } else {
                "modern home"
            };
            (format!("doc-{i:05}.pdf"), format!("Document {i}. {topic}"))
        },
    )));
    ctx.udfs.register_filter("sparse", move |r: &DataRecord| {
        r.get("filename")
            .and_then(|v| v.as_display()[4..9].parse::<usize>().ok())
            .is_some_and(|i| i % keep_every == 0)
    });
    ctx
}

/// `plan` with the `sparse` UDF filter spliced in right after its scan.
fn sparse(mut plan: PhysicalPlan) -> PhysicalPlan {
    plan.ops.insert(
        1,
        PhysicalOp::UdfFilter {
            udf: "sparse".into(),
        },
    );
    plan
}

// ---------------------------------------------------------------------------
// Differential: the chunked drive vs whole-corpus application.
// ---------------------------------------------------------------------------

proptest! {
    /// For any plan tail and a corpus on either side of the chunk
    /// boundary, the chunked drive is bytewise-invisible at parallelism 1:
    /// identical records (ids included), and the same ledger bill unless a
    /// satisfied `Limit` spared upstream calls (then never more).
    #[test]
    fn chunked_scan_equals_whole_corpus(
        steps in arb_steps(),
        size in 0usize..3,
    ) {
        let n = BOUNDARY_SIZES[size];
        let plan = sparse(build_plan(DATASET, &steps));
        let ctx_whole = generated_ctx(n, 64);
        let whole = whole_input_reference(&ctx_whole, &plan);
        let ctx_chunked = generated_ctx(n, 64);
        let (chunked, stats) =
            execute_plan(&ctx_chunked, &plan, ExecutionConfig::sequential()).unwrap();
        prop_assert_eq!(record_keys(&whole), record_keys(&chunked));
        let (whole_cost, chunked_cost) = (
            ctx_whole.ledger.total_cost_usd(),
            ctx_chunked.ledger.total_cost_usd(),
        );
        if has_early_exit(&steps) {
            prop_assert!(stats.total_llm_calls <= ctx_whole.ledger.total_requests());
        } else {
            prop_assert!(
                (whole_cost - chunked_cost).abs() < 1e-9,
                "whole ${} vs chunked ${}", whole_cost, chunked_cost
            );
            prop_assert_eq!(ctx_whole.ledger.total_requests(), stats.total_llm_calls);
        }
        assert_reconciled(&ctx_chunked, &stats);
    }

    /// A sort behind the chunked scan is bytewise the sort of the whole
    /// input: same records (stability included).
    #[test]
    fn spill_sort_equals_in_memory(
        corpus in common::arb_corpus(),
        descending in any::<bool>(),
    ) {
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan { dataset: DATASET.into() },
                PhysicalOp::Sort { field: "filename".into(), descending },
            ],
        };
        let in_memory = whole_input_reference(&common::fresh_ctx(DATASET, &corpus), &plan);
        let ctx = common::fresh_ctx(DATASET, &corpus);
        let (driven, _) = execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();
        prop_assert_eq!(record_keys(&in_memory), record_keys(&driven));
    }
}

// ---------------------------------------------------------------------------
// Fixed matrix: corpus sizes x parallelism.
// ---------------------------------------------------------------------------

fn matrix_plan() -> PhysicalPlan {
    sparse(PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: DATASET.into(),
            },
            PhysicalOp::LlmFilter {
                predicate: "the document discusses cancer".into(),
                model: "gpt-4o-mini".into(),
                effort: pz_llm::protocol::Effort::Standard,
            },
            PhysicalOp::LlmClassify {
                labels: vec!["cancer".into(), "dataset".into(), "other".into()],
                output_field: "label".into(),
                model: "gpt-4o-mini".into(),
                effort: pz_llm::protocol::Effort::Standard,
            },
        ],
    })
}

/// Corpus sizes {chunk - 1, chunk, chunk + 1, 2.5 chunks} x parallelism
/// {1, 4}: every cell agrees with the whole-corpus
/// reference on the output multiset and the ledger bill. (Parallel
/// workers race derived-id assignment, so the comparison is content, not
/// ids.)
#[test]
fn chunk_matrix_materializing() {
    let plan = matrix_plan();
    for n in BOUNDARY_SIZES {
        let ctx = generated_ctx(n, 16);
        let base_keys = multiset(&whole_input_reference(&ctx, &plan));
        let base_cost = ctx.ledger.total_cost_usd();
        for workers in [1usize, 4] {
            let ctx = generated_ctx(n, 16);
            let config = ExecutionConfig::sequential().with_parallelism(workers);
            let (records, stats) = execute_plan(&ctx, &plan, config).unwrap();
            assert_eq!(
                multiset(&records),
                base_keys,
                "multiset diverged at n={n} workers={workers}"
            );
            let cost = ctx.ledger.total_cost_usd();
            assert!(
                (cost - base_cost).abs() < 1e-9,
                "cost diverged at n={n} workers={workers}: ${base_cost} vs ${cost}"
            );
            assert_reconciled(&ctx, &stats);
        }
    }
}

/// A multi-chunk run of the matrix plan at modelled parallelism 1, 4 and 8:
/// every row's counts match the whole-corpus reference operator by
/// operator — stepping a model stage four records at a time changes no
/// count — and the two time figures keep their relation: the sequential
/// one is the rows' sum, the pipelined one no larger.
#[test]
fn chunk_matrix_agrees_with_streaming() {
    let n = SCAN_CHUNK * 5 / 2;
    let plan = matrix_plan();
    for workers in [1usize, 4, 8] {
        let ctx = generated_ctx(n, 16);
        let config = ExecutionConfig::sequential().with_parallelism(workers);
        let (_, stats) = execute_plan(&ctx, &plan, config).unwrap();
        let ctx_ref = generated_ctx(n, 16);
        let mut records = Vec::new();
        for (op, row) in plan.ops.iter().zip(&stats.operators) {
            let (in_len, calls) = (records.len(), ctx_ref.ledger.total_requests());
            records = op.execute(&ctx_ref, records).unwrap();
            let counts = (
                in_len,
                records.len(),
                ctx_ref.ledger.total_requests() - calls,
            );
            assert_eq!(
                (row.input_records, row.output_records, row.llm_calls),
                counts,
                "{} at workers={workers}",
                row.physical
            );
        }
        let sum: f64 = stats.operators.iter().map(|o| o.time_secs).sum();
        assert!((stats.total_time_secs - sum).abs() < 1e-9);
        assert!(stats.pipelined_secs <= stats.total_time_secs + 1e-9);
    }
}

/// Chunking composes with a blocking sort: a multi-chunk scan into a sort
/// and a tail limit matches the whole-corpus application bytewise
/// (sequential, so ids line up too).
#[test]
fn chunked_scan_with_spill_sort_is_bytewise_identical() {
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: DATASET.into(),
            },
            PhysicalOp::Sort {
                field: "filename".into(),
                descending: true,
            },
            PhysicalOp::Limit { n: 5 },
        ],
    };
    for n in [SCAN_CHUNK + 1, SCAN_CHUNK * 5 / 2] {
        let baseline = whole_input_reference(&generated_ctx(n, 1), &plan);
        let (records, _) =
            execute_plan(&generated_ctx(n, 1), &plan, ExecutionConfig::sequential()).unwrap();
        assert_eq!(
            record_keys(&baseline),
            record_keys(&records),
            "diverged at n={n}"
        );
    }
}

/// A corpus that fits one chunk is resident whole; a larger one keeps
/// O(chunk + output) records resident, and the stats gauge must show it.
#[test]
fn chunked_scan_caps_resident_records() {
    let plan = matrix_plan();
    let small = SCAN_CHUNK / 4;
    let (_, whole) = execute_plan(
        &generated_ctx(small, 16),
        &plan,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert_eq!(whole.peak_resident_records, small);
    let n = SCAN_CHUNK * 5 / 2;
    let (records, chunked) =
        execute_plan(&generated_ctx(n, 16), &plan, ExecutionConfig::sequential()).unwrap();
    assert!(
        chunked.peak_resident_records <= records.len() + SCAN_CHUNK,
        "chunked drive held {} records resident (output {}, chunk {SCAN_CHUNK})",
        chunked.peak_resident_records,
        records.len()
    );
    assert!(chunked.peak_resident_records < n);
}

// ---------------------------------------------------------------------------
// HNSW: recall and determinism.
// ---------------------------------------------------------------------------

/// Seeded pseudo-random unit-cube vector; pure function of (stream, i).
fn vec_at(stream: u64, i: usize, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|d| {
            let mut z =
                stream.wrapping_add(((i * dim + d) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64) as f32
        })
        .collect()
}

/// HNSW recall@10 vs an exact flat scan stays >= 0.9 on a 4k corpus.
#[test]
fn hnsw_recall_against_flat_ground_truth() {
    const N: usize = 4096;
    const DIM: usize = 16;
    const K: usize = 10;
    let mut hnsw = HnswIndex::new(DIM, Metric::Cosine, HnswConfig::default());
    let mut flat = FlatIndex::new(DIM, Metric::Cosine);
    for i in 0..N {
        let v = vec_at(3, i, DIM);
        hnsw.add(&v);
        flat.add(&v);
    }
    let mut overlap = 0usize;
    let queries = 64;
    for q in 0..queries {
        let query = vec_at(99, q, DIM);
        let truth: std::collections::HashSet<_> =
            flat.search(&query, K).into_iter().map(|s| s.id).collect();
        overlap += hnsw
            .search(&query, K)
            .iter()
            .filter(|s| truth.contains(&s.id))
            .count();
    }
    let recall = overlap as f64 / (queries * K) as f64;
    assert!(recall >= 0.9, "hnsw recall@{K} = {recall:.3} < 0.9");
}

/// Same seed, same insert order => the graph is identical and so is every
/// search result, ids and ranks included.
#[test]
fn hnsw_is_deterministic_under_fixed_seed() {
    const N: usize = 2000;
    const DIM: usize = 12;
    let build = || {
        let mut idx = HnswIndex::new(DIM, Metric::Euclidean, HnswConfig::default());
        for i in 0..N {
            idx.add(&vec_at(5, i, DIM));
        }
        idx
    };
    let (a, b) = (build(), build());
    for q in 0..32 {
        let query = vec_at(77, q, DIM);
        let (ra, rb) = (a.search(&query, 10), b.search(&query, 10));
        let key = |r: &[pz_vector::flat::Scored]| -> Vec<(pz_vector::VecId, String)> {
            r.iter()
                .map(|s| (s.id, format!("{:.6}", s.score)))
                .collect()
        };
        assert_eq!(key(&ra), key(&rb), "query {q} diverged between twin builds");
    }
}
