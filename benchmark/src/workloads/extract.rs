//! `extract` — the paper's §3 pipeline as a fixed physical plan
//! (Scan → LLMFilter[gpt-4o] → LLMConvert[ClinicalData, llama-3-70b]) over
//! unique generated papers, once per pass under each executor.
//!
//! The LLM-side layers dominate here (1.4 simulator calls per record, a
//! `pz-obs` span per call); the executor's own per-record cost is the
//! minority. `relational` is the inverse.
//!
//! Only the materializing cell feeds the driver's metrics. The streaming
//! cell's wall time depends on how fast this VM's two vCPUs wake each other
//! (stage threads hand over a batch of 4 records at a time), and that
//! drifts by 40–80% over ten minutes on the same commit: it is reported as
//! `stream_records_per_s`, compared by `pzbench compare`, and gated nowhere.

use crate::adapter::{self, Drive};
use crate::harness::{Pass, Workload};
use crate::workloads::{run_plan, scaled};

const DATASET: &str = "papers";

pub struct Extract {
    n: usize,
    source: adapter::Source,
    /// Mentions a perfect filter + convert would extract.
    truth: usize,
}

impl Workload for Extract {
    const NAME: &'static str = "extract";

    fn setup(seed: u64, quick: bool) -> Self {
        let n = scaled(3000, quick, 40);
        let docs = adapter::gen_docs(n, seed);
        Extract {
            n,
            source: adapter::memory_source(DATASET, &docs),
            truth: adapter::truth_mentions(n, seed),
        }
    }

    /// Set-up time must not inherit the streaming cell's drift.
    fn warm_up(&mut self) {
        run_plan(
            &self.source,
            &adapter::extract_plan(DATASET, 3),
            Drive::Materializing,
        );
    }

    fn pass(&mut self) -> Pass {
        let plan = adapter::extract_plan(DATASET, 3);
        let m = run_plan(&self.source, &plan, Drive::Materializing);
        let s = run_plan(&self.source, &plan, Drive::Streaming);
        let (mat, stream) = (m.cell, s.cell);

        let n = self.n as f64;
        let mut pass = Pass {
            wall_s: mat.secs + stream.secs,
            rate_per_s: n / mat.secs,
            named: vec![("stream_records_per_s", n / stream.secs)],
            layer: vec![
                ("llm.calls", adapter::ledger_requests(&m.ctx) as f64),
                ("llm.retries", adapter::counter(&m.ctx, "llm.errors") as f64),
                ("obs.spans", adapter::span_count(&m.ctx) as f64),
                (
                    "exec.peak_resident_records",
                    m.stats.peak_resident_records as f64,
                ),
                ("exec.mat.allocs_per_rec", mat.allocs as f64 / n),
                ("exec.mat.alloc_bytes_per_rec", mat.alloc_bytes as f64 / n),
                ("exec.stream.allocs_per_rec", stream.allocs as f64 / n),
            ],
            ..Default::default()
        };
        pass.set_waits(&[mat.secs * 1000.0]);

        // Both executors must agree on output, requests and dollars, and
        // the output must be what the corpus's ground truth implies, up to
        // the simulator's seeded per-model error rate.
        let same = adapter::multiset(&m.records) == adapter::multiset(&s.records)
            && adapter::ledger_requests(&m.ctx) == adapter::ledger_requests(&s.ctx)
            && (adapter::ledger_cost(&m.ctx) - adapter::ledger_cost(&s.ctx)).abs() < 1e-9;
        pass.check(same, 1, || {
            "extract: executors disagree on output or bill".into()
        });
        let off = (m.records.len() as f64 - self.truth as f64).abs() / (self.truth.max(1) as f64);
        pass.check(off <= 0.15, 1, || {
            format!(
                "extract: {} records out, truth {}",
                m.records.len(),
                self.truth
            )
        });
        pass
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![("docs", self.n)]
    }
}
