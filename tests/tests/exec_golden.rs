//! Golden digests of whole plan executions.
//!
//! Each case digests everything a run leaves behind: the output records
//! with their ids and lineage, the serialized `ExecutionStats`, the ledger
//! totals, the virtual clock's bits and the trace JSONL. The cases are the
//! §3 demo plan and an `extract`-shaped plan (filter on gpt-4o, convert on
//! llama-3-70b over generated papers), healthy in both modes at
//! parallelism 1, 2 and 8, plus the E15 gpt-4o outages — full and mid-run,
//! in both modes. The constants were computed before the model-swap paths
//! became one substitution controller: a healthy run or an outage that
//! moves any of them changed what a user sees.
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

fn mode_name(config: &ExecutionConfig) -> &'static str {
    match config.mode {
        ExecMode::Materializing => "mat",
        ExecMode::Streaming { .. } => "stream",
    }
}

/// Every pinned case, in a fixed order.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let modes = [ExecutionConfig::sequential(), ExecutionConfig::streaming()];
    // Healthy runs of both plans, in both modes, at every parallelism.
    for (name, plan) in [
        ("demo", physical(DEMO, "gpt-4o", "gpt-4o")),
        ("extract", physical(PAPERS, "gpt-4o", "llama-3-70b")),
    ] {
        for config in modes {
            for p in [1usize, 2, 8] {
                let ctx = ctx(FaultPlan::none());
                let (records, stats) =
                    pz_core::exec::execute_plan(&ctx, &plan, config.with_parallelism(p)).unwrap();
                out.push((
                    format!("healthy/{name}/{}/p{p}", mode_name(&config)),
                    digest(&ctx, &records, &stats),
                ));
            }
        }
    }
    // E15: gpt-4o down for the whole run, or from five seconds in, under
    // the optimizer's MaxQuality choice.
    for (name, start) in [("full", 0.0), ("mid", 5.0)] {
        for config in modes {
            let ctx = ctx(FaultPlan::none().outage("gpt-4o", start, 1e9));
            let out_run = execute(&ctx, &demo_logical(), &Policy::MaxQuality, config).unwrap();
            assert!(!out_run.stats.degraded.is_empty(), "{name}: no failover");
            out.push((
                format!("e15-{name}/demo/{}", mode_name(&config)),
                digest(&ctx, &out_run.records, &out_run.stats),
            ));
        }
    }
    // The extract plan's filter loses its model for the whole run.
    for config in modes {
        let ctx = ctx(FaultPlan::none().outage("gpt-4o", 0.0, 1e9));
        let plan = physical(PAPERS, "gpt-4o", "llama-3-70b");
        let (records, stats) = pz_core::exec::execute_plan(&ctx, &plan, config).unwrap();
        assert!(!stats.degraded.is_empty(), "extract outage: no failover");
        out.push((
            format!("outage/extract/{}", mode_name(&config)),
            digest(&ctx, &records, &stats),
        ));
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("healthy/demo/mat/p1", 0x795563e3e6944e4f),
    ("healthy/demo/mat/p2", 0x38db745bd6e73034),
    ("healthy/demo/mat/p8", 0xd8ea49c23d8a2ee2),
    ("healthy/demo/stream/p1", 0x3ec568fdf098ee4d),
    ("healthy/demo/stream/p2", 0x45fd10b0a71536a7),
    ("healthy/demo/stream/p8", 0x253a983e3258a302),
    ("healthy/extract/mat/p1", 0x6fb3930e0ee2635f),
    ("healthy/extract/mat/p2", 0x5b8bd702662e1392),
    ("healthy/extract/mat/p8", 0x82761161d6a20b04),
    ("healthy/extract/stream/p1", 0xfb4788588e96ed7a),
    ("healthy/extract/stream/p2", 0x35facca90ed8108a),
    ("healthy/extract/stream/p8", 0xe5ebbd9c90c12be6),
    ("e15-full/demo/mat", 0xf849df5b879e8ce0),
    ("e15-full/demo/stream", 0xaa2c848c9d8066a6),
    ("e15-mid/demo/mat", 0xe8a15fffca719714),
    ("e15-mid/demo/stream", 0xd79faf719b14f82c),
    ("outage/extract/mat", 0x3ce9b86d71e3e3f8),
    ("outage/extract/stream", 0x477e5b4a8eee70bc),
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
