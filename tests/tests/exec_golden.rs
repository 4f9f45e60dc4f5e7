//! Golden digests of whole plan executions.
//!
//! Each case digests everything a run leaves behind: the output records
//! with their ids and lineage, the serialized `ExecutionStats`, the ledger
//! totals, the virtual clock's bits and the trace JSONL. The cases are the
//! §3 demo plan and an `extract`-shaped plan (filter on gpt-4o, convert on
//! llama-3-70b over generated papers), healthy at parallelism 1, 2 and 8,
//! plus the E15 gpt-4o outages — full and mid-run. The constants were
//! computed when the executor's two modes became one drive, which moved
//! every one of them: one `op:` span per stage replaced a span per
//! application, model stages step four records at a time, and the stats
//! carry `pipelined_secs`. The three outage digests moved once more when
//! the retry loop stopped sleeping a backoff after its last attempt. The
//! two E15 digests, whose runs go through the optimizer, moved again when
//! the plan search became one Pareto DP: the optimizer span's `considered`
//! attribute and the `optimizer.plans_considered` and
//! `optimizer.pareto_pruned` counters count priced prefix extensions (213
//! for the §3 plan) instead of enumerated plans (252); records, stats,
//! ledger and clock did not move. A run that moves any of them now changed
//! what a user sees.
//!
//! Brownout runs are deliberately not pinned: when and where a degraded
//! model is replaced is the controller's decision to make.
//!
//! The digest is a local FNV-1a so the test does not lean on the hashes
//! the engine itself uses.

mod common;

use common::clinical_schema;
use pz_core::prelude::*;
use pz_datagen::stream::{doc_at, StreamConfig};
use pz_llm::protocol::Effort;
use pz_llm::{FaultPlan, SimConfig};
use std::sync::Arc;

struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed so adjacent texts cannot trade bytes.
    fn text(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

const DEMO: &str = "sigmod-demo";
const PAPERS: &str = "generated-papers";

/// Simulated context (default seed) with the demo corpus and 48 generated
/// papers registered, under `faults`.
fn ctx(faults: FaultPlan) -> PzContext {
    let ctx = PzContext::simulated_with(SimConfig {
        fault_plan: faults,
        ..Default::default()
    });
    let (docs, _) = pz_datagen::science::demo_corpus();
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry
        .register(Arc::new(MemorySource::new(DEMO, Schema::pdf_file(), items)));
    let cfg = StreamConfig::sized(48, 12);
    let papers = (0..cfg.n_docs)
        .map(|i| {
            let d = doc_at(&cfg, i);
            (d.filename, d.content)
        })
        .collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        PAPERS,
        Schema::pdf_file(),
        papers,
    )));
    ctx
}

/// The §3 demo plan as the optimizer picks it under `MaxQuality`.
fn demo_logical() -> LogicalPlan {
    Dataset::source(DEMO)
        .filter(pz_datagen::science::FILTER_PREDICATE)
        .convert(clinical_schema(), Cardinality::OneToMany, "extract")
        .build()
        .unwrap()
}

/// Scan → LLMFilter → LLMConvert over `dataset`.
fn physical(dataset: &str, filter_model: &str, convert_model: &str) -> PhysicalPlan {
    PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: dataset.into(),
            },
            PhysicalOp::LlmFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                model: filter_model.into(),
                effort: Effort::Standard,
            },
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract".into(),
                model: convert_model.into(),
                effort: Effort::Standard,
            },
        ],
    }
}

/// Digest of one finished run on `ctx`.
fn digest(ctx: &PzContext, records: &[DataRecord], stats: &ExecutionStats) -> u64 {
    let mut d = Digest::new();
    d.u64(records.len() as u64);
    for r in records {
        d.u64(r.id);
        d.u64(r.lineage.len() as u64);
        for l in &r.lineage {
            d.u64(*l);
        }
        d.text(&serde_json::to_string(&r.to_json()).unwrap());
    }
    d.text(&serde_json::to_string(stats).unwrap());
    let usage = ctx.ledger.total_usage();
    d.u64(ctx.ledger.total_requests() as u64);
    d.u64(usage.input_tokens as u64);
    d.u64(usage.output_tokens as u64);
    d.u64(ctx.ledger.total_cost_usd().to_bits());
    d.u64(ctx.ledger.total_latency_secs().to_bits());
    d.u64(ctx.clock.now_secs().to_bits());
    d.text(&ctx.tracer.snapshot().to_jsonl());
    d.0
}

/// Every pinned case, in a fixed order.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    // Healthy runs of both plans at every parallelism.
    for (name, plan) in [
        ("demo", physical(DEMO, "gpt-4o", "gpt-4o")),
        ("extract", physical(PAPERS, "gpt-4o", "llama-3-70b")),
    ] {
        for p in [1usize, 2, 8] {
            let ctx = ctx(FaultPlan::none());
            let config = ExecutionConfig::sequential().with_parallelism(p);
            let (records, stats) = pz_core::exec::execute_plan(&ctx, &plan, config).unwrap();
            out.push((
                format!("healthy/{name}/p{p}"),
                digest(&ctx, &records, &stats),
            ));
        }
    }
    let config = ExecutionConfig::sequential();
    // E15: gpt-4o down for the whole run, or from five seconds in, under
    // the optimizer's MaxQuality choice.
    for (name, start) in [("full", 0.0), ("mid", 5.0)] {
        let ctx = ctx(FaultPlan::none().outage("gpt-4o", start, 1e9));
        let out_run = execute(&ctx, &demo_logical(), &Policy::MaxQuality, config).unwrap();
        assert!(!out_run.stats.degraded.is_empty(), "{name}: no failover");
        out.push((
            format!("e15-{name}/demo"),
            digest(&ctx, &out_run.records, &out_run.stats),
        ));
    }
    // The extract plan's filter loses its model for the whole run.
    let ctx = ctx(FaultPlan::none().outage("gpt-4o", 0.0, 1e9));
    let plan = physical(PAPERS, "gpt-4o", "llama-3-70b");
    let (records, stats) = pz_core::exec::execute_plan(&ctx, &plan, config).unwrap();
    assert!(!stats.degraded.is_empty(), "extract outage: no failover");
    out.push(("outage/extract".to_string(), digest(&ctx, &records, &stats)));
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("healthy/demo/p1", 0xafa142d252bf2a55),
    ("healthy/demo/p2", 0x45d3f0f733ab5575),
    ("healthy/demo/p8", 0xaa2acaa32533b99a),
    ("healthy/extract/p1", 0xc3f14b86040dc007),
    ("healthy/extract/p2", 0x0b98155e859dea6c),
    ("healthy/extract/p8", 0x9062222f3506f29a),
    ("e15-full/demo", 0xa7147c83ba549489),
    ("e15-mid/demo", 0xb5b3b01da131dcbe),
    ("outage/extract", 0xa28b6ae417828aa3),
];

#[test]
fn executions_match_pinned_digests() {
    let actual = cases();
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),"))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(
        actual,
        expected,
        "execution digests moved; actual:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn reruns_digest_identically() {
    // Within one build, a case run twice is the same bytes: the pinned
    // digests above are facts of the engine, not of scheduling luck.
    assert_eq!(cases(), cases());
}
