//! `rerun` — incremental re-execution over an evolving dataset: each pass
//! is one cold run of the `extract` plan with the memo armed, then a script
//! of edit batches (append / update / delete), each followed by a re-run.
//!
//! Same executor and LLM client as `extract`, used the other way round: the
//! cold run *writes* the memo (its rate sits below `extract`'s), re-runs
//! *read* it. A memo speed-up that taxes the cold path shows here, and
//! `extract` (memo off) must not move.

use crate::adapter::{self, Drive, EditOp};
use crate::harness::{timed, Pass, Workload};
use crate::workloads::scaled;

const DATASET: &str = "papers";
const COLD_RUNS: usize = 3;

pub struct Rerun {
    docs: Vec<adapter::Document>,
    script: Vec<Vec<EditOp>>,
}

/// Records a batch adds or rewrites: each may cost a filter and a convert
/// call, and nothing else in the re-run may cost anything.
fn dirty(batch: &[EditOp]) -> usize {
    batch
        .iter()
        .filter(|op| !matches!(op, EditOp::Delete { .. }))
        .count()
}

impl Workload for Rerun {
    const NAME: &'static str = "rerun";

    fn setup(seed: u64, quick: bool) -> Self {
        let n = scaled(600, quick, 40);
        let docs = adapter::gen_docs(n, seed);
        // 100 re-runs a pass: enough for a p90 with ten samples beyond it.
        let batches = if quick { 20 } else { 100 };
        let script = adapter::edit_script(&docs, seed, batches, (n / 100).max(2));
        Rerun { docs, script }
    }

    fn pass(&mut self) -> Pass {
        let plan = adapter::extract_plan(DATASET, 3);
        let n = self.docs.len() as f64;
        // The cold run is short next to the hundred re-runs that follow, so
        // a pass takes it three times (fresh memo each) and keeps the
        // median; the edit script continues from the last one.
        let mut colds = Vec::new();
        let (ctx, source) = loop {
            let ctx = adapter::new_ctx_incremental();
            let source = adapter::versioned_source(DATASET, &self.docs);
            adapter::register(&ctx, source.clone());
            colds.push(timed(|| adapter::execute_plan_incremental(&ctx, &plan)).1);
            if colds.len() == COLD_RUNS {
                break (ctx, source);
            }
        };
        let cold = colds[COLD_RUNS - 1];
        let cold_s = crate::stats::median(&colds.iter().map(|c| c.secs).collect::<Vec<_>>());
        let mut pass = Pass {
            wall_s: colds.iter().map(|c| c.secs).sum(),
            rate_per_s: n / cold_s,
            attempted: COLD_RUNS as u64,
            ..Default::default()
        };

        let mut samples_ms = Vec::with_capacity(self.script.len());
        let (mut memo_hits, mut delta_calls) = (0usize, 0usize);
        let mut last = Vec::new();
        for batch in &self.script {
            adapter::apply_edits(&source, batch);
            let before = adapter::ledger_requests(&ctx);
            let ((records, stats), cell) = timed(|| adapter::execute_plan_incremental(&ctx, &plan));
            let calls = adapter::ledger_requests(&ctx) - before;
            pass.check(calls <= 2 * dirty(batch), 1, || {
                format!("rerun: {calls} calls for {} dirty records", dirty(batch))
            });
            samples_ms.push(cell.secs * 1000.0);
            pass.wall_s += cell.secs;
            memo_hits += stats.memo_hits;
            delta_calls += calls;
            last = records;
        }
        pass.set_waits(&samples_ms);
        pass.layer = vec![
            ("llm.calls", adapter::ledger_requests(&ctx) as f64),
            ("obs.spans", adapter::span_count(&ctx) as f64),
            ("exec.memo.hits", memo_hits as f64),
            ("exec.memo.delta_calls", delta_calls as f64),
            ("exec.mat.allocs_per_rec", cold.allocs as f64 / n),
            ("exec.mat.alloc_bytes_per_rec", cold.alloc_bytes as f64 / n),
        ];

        // The incremental answer on the final version must be the answer a
        // memo-less run over that version gives.
        let scratch = adapter::new_ctx();
        adapter::register(&scratch, source);
        let (fresh, _) = adapter::execute_plan(&scratch, &plan, Drive::Materializing);
        pass.check(
            adapter::multiset(&last) == adapter::multiset(&fresh),
            1,
            || "rerun: incremental output differs from a from-scratch run".into(),
        );
        pass
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("docs", self.docs.len()),
            ("edit_batches", self.script.len()),
            ("ops_per_batch", self.script.first().map_or(0, Vec::len)),
        ]
    }
}
