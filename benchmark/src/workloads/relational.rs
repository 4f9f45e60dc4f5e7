//! `relational` — no LLM at all: Scan → UdfFilter (keep ~50% by filename
//! hash) → UdfMap (adds `len`, `bucket`) → Sort(desc) → Aggregate(by
//! bucket: count, avg), under both executors.
//!
//! Record clone / `BTreeMap` / allocation and the drive itself are all the
//! work, so this is where `DataRecord` and executor-core changes must
//! show — and where `extract` should barely move.
//!
//! As in `extract`, only the materializing cell feeds the driver's metrics;
//! the streaming cell (five stage threads on two vCPUs) is reported as
//! `stream_records_per_s` and gated nowhere.

use crate::adapter::{self, Drive};
use crate::harness::{Pass, Workload};
use crate::workloads::{run_plan, scaled};
use std::collections::BTreeMap;

const DATASET: &str = "papers";

pub struct Relational {
    n: usize,
    source: adapter::Source,
    /// Plain-Rust answer: bucket → (count, avg len).
    reference: BTreeMap<i64, (f64, f64)>,
}

fn reference(docs: &[adapter::Document]) -> BTreeMap<i64, (f64, f64)> {
    let mut groups = BTreeMap::<i64, (f64, f64)>::new();
    for d in docs.iter().filter(|d| adapter::keeps(&d.filename)) {
        let len = d.content.len() as i64;
        let g = groups.entry(len / adapter::BUCKET_WIDTH).or_default();
        g.0 += 1.0;
        g.1 += len as f64;
    }
    for g in groups.values_mut() {
        g.1 /= g.0;
    }
    groups
}

impl Relational {
    fn matches_reference(&self, records: &[adapter::DataRecord]) -> bool {
        records.len() == self.reference.len()
            && records.iter().all(|r| {
                let bucket = adapter::field_f64(r, "bucket") as i64;
                self.reference.get(&bucket).is_some_and(|(n, avg)| {
                    adapter::field_f64(r, "n") == *n
                        && (adapter::field_f64(r, "avg_len") - avg).abs() < 1e-6
                })
            })
    }
}

impl Workload for Relational {
    const NAME: &'static str = "relational";

    fn setup(seed: u64, quick: bool) -> Self {
        let n = scaled(20_000, quick, 200);
        let docs = adapter::gen_docs(n, seed);
        Relational {
            n,
            source: adapter::memory_source(DATASET, &docs),
            reference: reference(&docs),
        }
    }

    /// Set-up time must not inherit the streaming cell's drift.
    fn warm_up(&mut self) {
        run_plan(
            &self.source,
            &adapter::relational_plan(DATASET, 5),
            Drive::Materializing,
        );
    }

    fn pass(&mut self) -> Pass {
        let plan = adapter::relational_plan(DATASET, 5);
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
        pass.check(self.matches_reference(&m.records), 1, || {
            "relational: materializing output differs from the plain-Rust reference".into()
        });
        pass.check(self.matches_reference(&s.records), 1, || {
            "relational: streaming output differs from the plain-Rust reference".into()
        });
        pass
    }

    fn sizes(&self) -> Vec<(&'static str, usize)> {
        vec![("docs", self.n)]
    }
}
