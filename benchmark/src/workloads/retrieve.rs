//! `retrieve` — Scan → Retrieve(k=50) → LLMFilter over enough papers to
//! cross both of the vector store's routing thresholds (exact scan below
//! 1k, IVF rebuilds up to 8k, HNSW past it), default executor.
//!
//! `pz-vector` does nearly all the work and no other workload touches it:
//! the IVF-window and HNSW-build questions on the ROADMAP are decided here.
//! A pass costs many seconds, so this is the one workload that runs two
//! passes instead of many short ones.

use crate::adapter::{self, Drive};
use crate::harness::{timed, Cell, Pass, Workload};
use crate::workloads::scaled;
use std::collections::BTreeSet;

const DATASET: &str = "papers";
const WARM: &str = "papers-warm";
/// Past the IVF threshold, so the warm-up reaches the rebuild path.
const WARM_DOCS: usize = 1500;

/// HNSW at its default search width misses 0–7 of the exact top-50 here and
/// returns the next-ranked neighbours in their place (strict set recall
/// 0.86–1.0 over twenty seeds). A retrieved record therefore counts as a
/// hit when it is within this share of the k-th exact similarity: junk or
/// missing results still fail, a near-tie does not.
const SCORE_TOLERANCE: f32 = 0.01;

/// What an exact scan followed by the plan's own LLM filter returns.
struct Expected {
    /// Keys of the kept records among the exact top-k.
    strict: BTreeSet<String>,
    /// The same over every document within `SCORE_TOLERANCE` of the k-th.
    tolerant: BTreeSet<String>,
}

pub struct Retrieve {
    docs: Vec<adapter::Document>,
    source: adapter::Source,
    warm: adapter::Source,
    expected: Option<Expected>,
}

impl Retrieve {
    fn run(&self, dataset: &str) -> (adapter::PzContext, Vec<adapter::DataRecord>, Cell) {
        let ctx = adapter::new_ctx();
        adapter::register(&ctx, self.source.clone());
        adapter::register(&ctx, self.warm.clone());
        let plan = adapter::retrieve_plan(&ctx, dataset, 3);
        let ((records, _), cell) =
            timed(|| adapter::execute_plan(&ctx, &plan, Drive::Materializing));
        (ctx, records, cell)
    }

    fn expected(&mut self) -> &Expected {
        self.expected.get_or_insert_with(|| {
            let ctx = adapter::new_ctx();
            let mut texts = vec![adapter::RETRIEVE_QUERY.to_string()];
            texts.extend(self.docs.iter().map(|d| d.content.clone()));
            let vectors = adapter::embed(&ctx, texts);
            let mut scored: Vec<(f32, usize)> = vectors[1..]
                .iter()
                .enumerate()
                .map(|(i, v)| (adapter::cosine(&vectors[0], v), i))
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let k = adapter::RETRIEVE_K.min(scored.len());
            let floor = scored[k - 1].0 * (1.0 - SCORE_TOLERANCE);
            let near: Vec<adapter::Document> = scored
                .iter()
                .take_while(|(score, _)| *score >= floor)
                .map(|&(_, i)| self.docs[i].clone())
                .collect();
            adapter::register(&ctx, adapter::memory_source("near-top-k", &near));
            let plan = adapter::extract_plan("near-top-k", 2);
            let (kept, _) = adapter::execute_plan(&ctx, &plan, Drive::Materializing);
            let top: BTreeSet<&str> = near[..k].iter().map(|d| d.filename.as_str()).collect();
            Expected {
                strict: kept
                    .iter()
                    .filter(|r| top.contains(adapter::filename(r)))
                    .map(adapter::record_key)
                    .collect(),
                tolerant: kept.iter().map(adapter::record_key).collect(),
            }
        })
    }
}

impl Workload for Retrieve {
    const NAME: &'static str = "retrieve";

    fn setup(seed: u64, quick: bool) -> Self {
        let n = scaled(8400, quick, 120);
        let docs = adapter::gen_docs(n, seed);
        Retrieve {
            source: adapter::memory_source(DATASET, &docs),
            warm: adapter::memory_source(WARM, &docs[..WARM_DOCS.min(n)]),
            docs,
            expected: None,
        }
    }

    /// A full pass would triple the run time; a 1.5k-document pass touches
    /// every code path but the HNSW build.
    fn warm_up(&mut self) {
        self.run(WARM);
    }

    fn pass(&mut self) -> Pass {
        let (ctx, records, cell) = self.run(DATASET);
        let (secs, n) = (cell.secs, self.docs.len() as f64);
        let mut pass = Pass {
            wall_s: secs,
            rate_per_s: n / secs,
            layer: vec![
                ("llm.calls", adapter::ledger_requests(&ctx) as f64),
                ("obs.spans", adapter::span_count(&ctx) as f64),
                (
                    "vector.index_builds",
                    adapter::counter(&ctx, "vector.index_builds") as f64,
                ),
                ("exec.mat.allocs_per_rec", cell.allocs as f64 / n),
                ("exec.mat.alloc_bytes_per_rec", cell.alloc_bytes as f64 / n),
            ],
            ..Default::default()
        };
        pass.set_waits(&[secs * 1000.0]);

        let got: BTreeSet<String> = records.iter().map(adapter::record_key).collect();
        let expected = self.expected();
        let share = |hits: usize| hits as f64 / expected.strict.len().max(1) as f64;
        let strict = share(expected.strict.intersection(&got).count());
        let recall = share(expected.tolerant.intersection(&got).count()).min(1.0);
        pass.named = vec![("recall", recall), ("strict_recall", strict)];
        pass.check(recall >= 0.9, 1, || {
            format!(
                "retrieve: recall {recall:.3} (strict {strict:.3}) of the exact top-k is below 0.9"
            )
        });
        pass
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![("docs", self.docs.len()), ("k", adapter::RETRIEVE_K)]
    }
}
