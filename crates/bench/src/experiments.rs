//! Every experiment in EXPERIMENTS.md, one row each in [`EXPERIMENTS`].
//!
//! An experiment runs under a [`Setup`] — what `repro`'s flags asked for —
//! and returns a [`Report`]: the tables it prints and the gates that judge
//! them. Each gate's bound is a constant beside the experiment that prints
//! the number it judges; nothing else re-measures it.

use crate::report::{Report, Table};
use crate::{
    chain_plan, clinical_schema, demo_context, demo_plan, science_context, science_context_with,
    score_extractions, DEMO_DATASET,
};
use palimpchat::PalimpChat;
use pz_core::optimizer::cost::{estimate_plan, CostContext};
use pz_core::optimizer::{enumerate, pareto, sentinel, Optimizer};
use pz_core::prelude::*;
use pz_datagen::science::{ScienceConfig, FILTER_PREDICATE};
use pz_datagen::truth::PrF1;
use pz_llm::protocol::Effort;
use pz_llm::FaultPlan;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

/// How `repro`'s flags configure a run. `Setup::default()` is a bare
/// `repro`: one worker, no faults, no exports.
#[derive(Clone, Debug, Default)]
pub struct Setup {
    /// `--parallelism`: modelled workers per operator (0 and 1 both mean
    /// one).
    pub parallelism: usize,
    /// `--fault-plan`: scripted into E1, E17, E19 and the trace export.
    pub faults: Option<FaultPlan>,
    /// `--scaling-out`: where E21 writes its curve as JSON.
    pub scaling_out: Option<String>,
    /// `--chrome-trace-out`, `--prom-out`, `--drift-out`: E17's exports.
    pub chrome_out: Option<String>,
    pub prom_out: Option<String>,
    pub drift_out: Option<String>,
}

impl Setup {
    fn config(&self) -> ExecutionConfig {
        self.config_with(self.parallelism)
    }

    fn config_with(&self, workers: usize) -> ExecutionConfig {
        ExecutionConfig::sequential().with_parallelism(workers)
    }

    fn script_faults(&self, ctx: &PzContext) {
        if let Some(plan) = &self.faults {
            ctx.faults.set(plan.clone());
        }
    }
}

/// One experiment: its id on the `repro` command line and in
/// EXPERIMENTS.md, a title, and the function that runs it.
pub struct Experiment {
    pub id: &'static str,
    pub title: &'static str,
    pub run: fn(&Setup) -> Report,
}

const fn row(id: &'static str, title: &'static str, run: fn(&Setup) -> Report) -> Experiment {
    Experiment { id, title, run }
}

pub const EXPERIMENTS: &[Experiment] = &[
    row("e1", "scientific discovery headline (paper §3)", e1),
    row("e2", "per-operator execution statistics (Figure 5)", e2),
    row("e3", "optimization-policy sweep (paper §2.1)", e3),
    row("e4", "physical plan space vs Pareto frontier", e4),
    row("e5", "chat-turn decomposition (Figure 4)", e5),
    row("e6", "three demo scenarios", e6),
    row("e7", "generated pipeline code (Figure 6)", e7),
    row("e8", "corpus-size and parallelism scaling", e8),
    row("e9", "sentinel calibration of optimizer estimates", e9),
    row("e11", "response-cache ablation", e11),
    row("e12", "filter physical-strategy ablation", e12),
    row("e13", "convert strategy ablation", e13),
    row("e14", "pipelined vs sequential time of one run", e14),
    row("e15", "provider outage, circuit breaker, failover", e15),
    row("e16", "intra-operator parallelism sweep", e16),
    row("e17", "pipeline profiler", e17),
    row("e18", "adaptive replanning under a model brownout", e18),
    row("e19", "incremental append vs from-scratch", e19),
    row("e20", "multi-tenant serving", e20),
    row("e21", "scaling curve of the chunked scan", e21),
];

/// Run `rows` under `setup`, printing each report and its gate verdicts
/// to `out`. Returns the failed gates, as `<id> <gate>`.
pub fn run_all<'a>(
    rows: impl IntoIterator<Item = &'a Experiment>,
    setup: &Setup,
    out: &mut dyn Write,
) -> io::Result<Vec<String>> {
    let mut failed = Vec::new();
    for e in rows {
        writeln!(out, "\n## {} — {}\n", e.id.to_uppercase(), e.title)?;
        let report = (e.run)(setup);
        for block in &report.blocks {
            writeln!(out, "{}", block.render())?;
        }
        for g in &report.gates {
            let verdict = if g.pass { "pass" } else { "FAIL" };
            let detail = if g.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", g.detail)
            };
            writeln!(out, "gate {} {}: {verdict}{detail}", e.id, g.name)?;
            if !g.pass {
                failed.push(format!("{} {}", e.id, g.name));
            }
        }
    }
    Ok(failed)
}

/// Run the §3 demo dialogue under `setup` and return its unified pz-obs
/// trace (`repro --trace-out`).
pub fn trace_dialogue(setup: &Setup) -> pz_obs::TraceSnapshot {
    let mut chat = PalimpChat::new();
    {
        let session = chat.session().lock();
        setup.script_faults(&session.ctx);
    }
    for turn in &DEMO_TURNS[..3] {
        chat.handle(turn).expect("chat turn");
    }
    chat.tracer().snapshot()
}

const DEMO_TURNS: [&str; 5] = [
    "Please load the dataset of scientific papers from my folder",
    "I'm interested in papers that are about colorectal cancer, and for these papers, \
     extract whatever public dataset is used by the study",
    "run the pipeline with maximum quality",
    "how much did the run cost and how long did it take?",
    "download the notebook with the generated code",
];

fn prf(m: &PrF1) -> String {
    format!("{:.2} / {:.2} / {:.2}", m.precision, m.recall, m.f1)
}

/// The `cost ($) | time (s)` cells of a run.
fn cost_time(stats: &ExecutionStats) -> String {
    format!("{:.4} | {:.1}", stats.total_cost_usd, stats.total_time_secs)
}

fn run_demo(ctx: &PzContext, policy: &Policy, config: ExecutionConfig) -> ExecutionOutcome {
    execute(ctx, &demo_plan(), policy, config).expect("demo pipeline runs")
}

fn run_plan(ctx: &PzContext, plan: &PhysicalPlan, config: ExecutionConfig) -> Vec<DataRecord> {
    let (records, _) = pz_core::exec::execute_plan(ctx, plan, config).expect("plan runs");
    records
}

/// Field-content multiset of `records`, for cross-run output comparison
/// (`to_json` leaves out the allocator-dependent record ids).
fn record_multiset(records: &[DataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(&r.to_json()).expect("record serializes"))
        .collect();
    keys.sort();
    keys
}

/// A scan of `dataset` followed by `ops`.
fn scan_then(dataset: &str, ops: impl IntoIterator<Item = PhysicalOp>) -> PhysicalPlan {
    let dataset = dataset.into();
    let ops = std::iter::once(PhysicalOp::Scan { dataset }).chain(ops);
    PhysicalPlan { ops: ops.collect() }
}

fn llm_filter(model: &str, effort: Effort) -> PhysicalOp {
    let (predicate, model) = (FILTER_PREDICATE.into(), model.into());
    PhysicalOp::LlmFilter {
        predicate,
        model,
        effort,
    }
}

fn llm_convert(model: &str) -> PhysicalOp {
    PhysicalOp::LlmConvert {
        target: clinical_schema(),
        cardinality: Cardinality::OneToMany,
        description: "extract datasets".into(),
        model: model.into(),
        effort: Effort::Standard,
    }
}

/// The E18/E19 plan: the filter on gpt-4o, the convert on llama-3-70b.
fn split_plan(dataset: &str) -> PhysicalPlan {
    let filter = llm_filter("gpt-4o", Effort::Standard);
    scan_then(dataset, [filter, llm_convert("llama-3-70b")])
}

fn e1(setup: &Setup) -> Report {
    let (ctx, truth) = demo_context();
    setup.script_faults(&ctx);
    let outcome = run_demo(&ctx, &Policy::MaxQuality, setup.config());
    let s = &outcome.stats;
    let out = |i: usize| s.operators.get(i).map_or(0, |o| o.output_records);
    let (time, cost, n) = (s.total_time_secs, s.total_cost_usd, outcome.records.len());
    let score = score_extractions(&outcome.records, &truth);
    let mut t = Table::new("metric | paper | measured");
    t.row(format!("input papers | 11 | {}", out(0)));
    t.row(format!("papers passing the filter | – | {}", out(1)));
    t.row(format!("datasets extracted | 6 | {n}"));
    let verified = score.true_positives;
    t.row(format!(
        "verified (name + URL match truth) | 6 (manually) | {verified}"
    ));
    t.row(format!("pipeline runtime (s, virtual) | ≈240 | {time:.1}"));
    t.row(format!("pipeline cost ($) | ≈0.35 | {cost:.3}"));
    t.row(format!("extraction P / R / F1 | – | {}", prf(&score)));
    t.row(format!(
        "chosen plan | – | {}",
        outcome.chosen_plan.describe()
    ));
    Report::tables([t])
}

fn e2(setup: &Setup) -> Report {
    let (ctx, _) = demo_context();
    let outcome = run_demo(&ctx, &Policy::MaxQuality, setup.config());
    let s = &outcome.stats;
    let mut t = Table::new("operator | in | out | sel | calls | tokens | cost ($) | time (s)");
    for op in &s.operators {
        let (name, i, o, sel) = (
            &op.physical,
            op.input_records,
            op.output_records,
            op.selectivity(),
        );
        let (calls, tokens) = (op.llm_calls, op.input_tokens + op.output_tokens);
        let (cost, time) = (op.cost_usd, op.time_secs);
        t.row(format!(
            "{name} | {i} | {o} | {sel:.2} | {calls} | {tokens} | {cost:.4} | {time:.2}"
        ));
    }
    let (o, calls) = (s.output_records, s.total_llm_calls);
    let (cost, time) = (s.total_cost_usd, s.total_time_secs);
    t.row(format!(
        "total |  | {o} |  | {calls} |  | {cost:.4} | {time:.2}"
    ));
    let mut sample = Table::new("name | description | url");
    for rec in outcome.records.iter().take(3) {
        let field = |f: &str| rec.get(f).map(|v| v.as_display()).unwrap_or_default();
        let row = [field("name"), field("description"), field("url")];
        sample.row(row.join(" | "));
    }
    Report::tables([t, sample])
}

fn e3(setup: &Setup) -> Report {
    let mut t = Table::new("policy | cost ($) | time (s) | out | F1 | chosen plan");
    for policy in [
        Policy::MaxQuality,
        Policy::MinCost,
        Policy::MinTime,
        Policy::MaxQualityAtCost(0.05),
        Policy::MaxQualityAtTime(60.0),
        Policy::MinCostAtQuality(0.85),
    ] {
        let (ctx, truth) = demo_context();
        let o = run_demo(&ctx, &policy, setup.config());
        let (name, n, plan) = (policy.name(), o.records.len(), o.chosen_plan.describe());
        let f1 = score_extractions(&o.records, &truth).f1;
        t.row(format!(
            "{name} | {} | {n} | {f1:.2} | {plan}",
            cost_time(&o.stats)
        ));
    }
    Report::tables([t])
}

/// E4 counts plans deterministically; the two timings (the exhaustive
/// reference and the DP search) are wall clock, so they print as a note
/// after the table.
fn e4(_: &Setup) -> Report {
    let catalog = pz_llm::Catalog::builtin();
    let cost_ctx = CostContext {
        catalog: catalog.clone(),
        input_cardinality: 100.0,
        avg_record_tokens: 3000.0,
        build_cardinality: Default::default(),
        calibration: None,
    };
    let mut t = Table::new("semantic ops | plan space | frontier");
    let mut timings = Vec::new();
    for n in 1..=6 {
        let plan = chain_plan(n);
        let space = enumerate::plan_space_size(&plan, &catalog);
        let t0 = Instant::now();
        let frontier = pareto::enumerate_pareto(&plan, &catalog, &cost_ctx)
            .plans
            .len();
        let pruned = t0.elapsed();
        let mut exhaustive = "skipped".to_string();
        if space <= 50_000 {
            let t1 = Instant::now();
            for p in enumerate::enumerate_plans(&plan, &catalog, 50_000) {
                estimate_plan(&p, &cost_ctx);
            }
            exhaustive = format!("{:.1?}", t1.elapsed());
        }
        t.row(format!("{n} | {space} | {frontier}"));
        timings.push(format!("{n}: {exhaustive} / {pruned:.1?}"));
    }
    let mut r = Report::tables([t]);
    let timings = timings.join("; ");
    r.note(format!(
        "wall clock, exhaustive reference / pruned DP (the optimizer's search) — {timings}"
    ));
    r
}

fn e5(_: &Setup) -> Report {
    let mut chat = PalimpChat::new();
    let mut t = Table::new("turn | steps | tools invoked");
    let mut decomposition = String::new();
    for (i, turn) in DEMO_TURNS.iter().enumerate() {
        let trace = chat.handle(turn).expect("chat turn").trace;
        let (steps, tools) = (trace.action_count(), trace.tools_used().join(" → "));
        t.row(format!("{} | {steps} | {tools}", i + 1));
        if i == 1 {
            decomposition = trace.render();
        }
    }
    let mut r = Report::tables([t]);
    r.text(decomposition);
    r
}

/// The §3 dialogue as E6 and E7 drive it: load, ask, run.
const SCIENCE_TURNS: [&str; 3] = [
    "load the dataset of scientific papers",
    DEMO_TURNS[1],
    DEMO_TURNS[2],
];

fn e6(_: &Setup) -> Report {
    let scenarios = [
        ("scientific discovery", SCIENCE_TURNS),
        (
            "legal discovery",
            [
                "load the legal discovery emails",
                "categorize the emails into acme initech merger deal and office social staff",
                "run the pipeline with minimum cost",
            ],
        ),
        (
            "real estate search",
            [
                "load the real estate listings",
                "keep only the listings that describe modern homes with a garden",
                "run the pipeline as quick as possible",
            ],
        ),
    ];
    let mut t = Table::new("scenario | policy | plan | out | cost ($) | time (s) | LLM calls");
    for (name, turns) in scenarios {
        let mut chat = PalimpChat::new();
        for turn in turns {
            chat.handle(turn).expect("chat turn");
        }
        let session = chat.session().lock();
        let o = session.last_outcome.as_ref().expect("the scenario ran");
        let (policy, plan, n) = (
            session.policy.name(),
            o.chosen_plan.describe(),
            o.records.len(),
        );
        let (cost_time, calls) = (cost_time(&o.stats), o.stats.total_llm_calls);
        t.row(format!(
            "{name} | {policy} | {plan} | {n} | {cost_time} | {calls}"
        ));
    }
    Report::tables([t])
}

fn e7(_: &Setup) -> Report {
    let mut chat = PalimpChat::new();
    for turn in SCIENCE_TURNS {
        chat.handle(turn).expect("chat turn");
    }
    let mut r = Report::default();
    r.text(chat.handle("export the notebook").expect("export").reply);
    r
}

fn e8(setup: &Setup) -> Report {
    let mut t = Table::new("papers | workers | cost ($) | time (s) | out | rec/s");
    for n in [11usize, 50, 200] {
        for workers in [1usize, 4, 8] {
            let (ctx, _) = science_context(n, 17);
            let o = run_demo(&ctx, &Policy::MinCost, setup.config_with(workers));
            let rate = n as f64 / o.stats.total_time_secs.max(1e-9);
            let (cost_time, out) = (cost_time(&o.stats), o.records.len());
            t.row(format!("{n} | {workers} | {cost_time} | {out} | {rate:.2}"));
        }
    }
    Report::tables([t])
}

/// E9 — on a corpus where only ~12% of papers are relevant, the default
/// 0.5 filter selectivity grossly over-estimates the work downstream.
fn e9(setup: &Setup) -> Report {
    let (ctx, _) = science_context_with(ScienceConfig {
        n_papers: 60,
        relevant_fraction: 0.12,
        seed: 29,
        ..Default::default()
    });
    let plan = demo_plan();
    let default_ctx = CostContext::from_context(&ctx, &plan).expect("costing");
    let before = ctx.ledger.total_cost_usd();
    let calib = sentinel::calibrate(&ctx, &plan, 10).expect("calibration");
    let sentinel_cost = ctx.ledger.total_cost_usd() - before;
    let mut calibrated_ctx = default_ctx.clone();
    calibrated_ctx.calibration = Some(calib);
    let (chosen, default_est, _) = Optimizer::default()
        .optimize(&ctx, &plan, &Policy::MaxQuality)
        .expect("optimize");
    let calibrated_est = estimate_plan(&chosen, &calibrated_ctx);
    ctx.reset_accounting();
    let (_, stats) = pz_core::exec::execute_plan(&ctx, &chosen, setup.config()).expect("runs");
    let (cost, time) = (stats.total_cost_usd, stats.total_time_secs);
    let (d, c) = (&default_est, &calibrated_est);
    let err = |est: f64, act: f64| format!("{:.1}%", (est - act).abs() / act.max(1e-9) * 100.0);
    let mut t = Table::new("quantity | default | calibrated | actual");
    t.row(format!(
        "cost ($) | {:.4} | {:.4} | {cost:.4}",
        d.cost_usd, c.cost_usd
    ));
    t.row(format!(
        "runtime (s) | {:.1} | {:.1} | {time:.1}",
        d.time_secs, c.time_secs
    ));
    let (d_err, c_err) = (err(d.cost_usd, cost), err(c.cost_usd, cost));
    t.row(format!("cost estimate error | {d_err} | {c_err} | –"));
    let (d_err, c_err) = (err(d.time_secs, time), err(c.time_secs, time));
    t.row(format!("runtime estimate error | {d_err} | {c_err} | –"));
    t.row(format!(
        "sentinel overhead ($) | – | {sentinel_cost:.4} | –"
    ));
    Report::tables([t])
}

fn e11(setup: &Setup) -> Report {
    let mut t = Table::new("configuration | run 1 ($) | run 2 ($) | cache hits / misses");
    for (name, cached) in [("no cache", false), ("exact-match cache", true)] {
        let (ctx, _) = demo_context();
        let ctx = if cached { ctx.with_cache() } else { ctx };
        run_demo(&ctx, &Policy::MaxQuality, setup.config());
        let run1 = ctx.ledger.total_cost_usd();
        run_demo(&ctx, &Policy::MaxQuality, setup.config());
        let run2 = ctx.ledger.total_cost_usd() - run1;
        let hits = ctx.cache.as_ref().map_or("–".to_string(), |c| {
            let s = c.stats();
            format!("{} / {}", s.completion_hits, s.completion_misses)
        });
        t.row(format!("{name} | {run1:.4} | {run2:.4} | {hits}"));
    }
    Report::tables([t])
}

/// E12 — one logical filter, every physical strategy, scored per paper
/// against the truth of a 60-paper corpus.
fn e12(setup: &Setup) -> Report {
    let predicate = || FILTER_PREDICATE.to_string();
    let models = ["gpt-4o", "llama-3-70b", "gpt-4o-mini"].map(Into::into);
    let strategies = [
        (
            "llama-3-8b (weak)",
            llm_filter("llama-3-8b", Effort::Standard),
        ),
        ("gpt-4o standard", llm_filter("gpt-4o", Effort::Standard)),
        ("gpt-4o high-effort", llm_filter("gpt-4o", Effort::High)),
        (
            "ensemble top-3 vote",
            PhysicalOp::EnsembleFilter {
                predicate: predicate(),
                models: models.to_vec(),
                effort: Effort::Standard,
            },
        ),
        (
            "embedding similarity",
            PhysicalOp::EmbeddingFilter {
                predicate: predicate(),
                model: "text-embedding-3-small".into(),
                threshold: 0.30,
            },
        ),
    ];
    let mut t = Table::new("strategy | cost ($) | time (s) | P / R / F1");
    for (name, op) in strategies {
        let (ctx, truth) = science_context(60, 41);
        let plan = scan_then(DEMO_DATASET, [op]);
        let (records, stats) =
            pz_core::exec::execute_plan(&ctx, &plan, setup.config()).expect("runs");
        let kept: std::collections::BTreeSet<String> = records
            .iter()
            .filter_map(|r| r.get("filename").map(|v| v.as_display()))
            .collect();
        let relevant: Vec<String> = (truth.papers.iter().enumerate())
            .filter(|(_, p)| p.relevant)
            .map(|(i, _)| format!("paper-{i:04}.pdf"))
            .collect();
        let tp = relevant.iter().filter(|f| kept.contains(*f)).count();
        let m = prf(&PrF1::from_counts(tp, kept.len(), relevant.len()));
        t.row(format!("{name} | {} | {m}", cost_time(&stats)));
    }
    Report::tables([t])
}

/// E13 — "bonded" (all fields in one prompt) vs field-wise extraction,
/// the convert choice the Palimpzest optimizer weighs.
fn e13(setup: &Setup) -> Report {
    let fieldwise = PhysicalOp::FieldwiseConvert {
        target: clinical_schema(),
        cardinality: Cardinality::OneToMany,
        description: "extract datasets".into(),
        model: "gpt-4o".into(),
        effort: Effort::Standard,
    };
    let mut t = Table::new("strategy | cost ($) | time (s) | P / R / F1");
    for (name, convert) in [
        ("bonded (one prompt, all fields)", llm_convert("gpt-4o")),
        ("field-wise (one prompt per field)", fieldwise),
    ] {
        let (ctx, truth) = demo_context();
        let plan = scan_then(
            DEMO_DATASET,
            [llm_filter("gpt-4o", Effort::Standard), convert],
        );
        let (records, stats) =
            pz_core::exec::execute_plan(&ctx, &plan, setup.config()).expect("runs");
        let m = prf(&score_extractions(&records, &truth));
        t.row(format!("{name} | {} | {m}", cost_time(&stats)));
    }
    Report::tables([t])
}

/// Run the demo plan under MaxQuality at each parallelism and tabulate
/// both time figures against the first row. Gates that every row bills
/// the same dollars and outputs the same multiset; returns each row's
/// speedup of the sequential figure.
fn demo_sweep(parallelisms: &[usize]) -> (Report, Vec<f64>) {
    let mut t = Table::new(
        "parallelism | sequential (s) | pipelined (s) | speedup | cost ($) | records | LLM calls",
    );
    let (mut base, mut speedups) = (None, Vec::new());
    let (mut same_cost, mut same_output) = (true, true);
    for &p in parallelisms {
        let (ctx, _) = demo_context();
        let config = ExecutionConfig::sequential().with_parallelism(p);
        let o = run_demo(&ctx, &Policy::MaxQuality, config);
        let (time, pipelined) = (o.stats.total_time_secs, o.stats.pipelined_secs);
        let cost = ctx.ledger.total_cost_usd();
        let keys = record_multiset(&o.records);
        let (base_time, base_cost, base_keys) =
            base.get_or_insert_with(|| (time, cost, keys.clone()));
        same_cost &= (cost - *base_cost).abs() < 1e-9;
        same_output &= keys == *base_keys;
        let speedup = *base_time / time;
        speedups.push(speedup);
        let (n, calls) = (o.records.len(), o.stats.total_llm_calls);
        t.row(format!(
            "{p} | {time:.1} | {pipelined:.1} | {speedup:.2}× | {cost:.3} | {n} | {calls}"
        ));
    }
    let mut r = Report::tables([t]);
    r.holds("ledger cost identical on every row", same_cost);
    r.holds("output multiset identical on every row", same_output);
    (r, speedups)
}

const PIPELINED_SPEEDUP_FLOOR: f64 = 1.3;

/// E14 — one run of the demo plan reports both time figures: its stages
/// one after another, and the same stages overlapped on the virtual clock.
fn e14(_: &Setup) -> Report {
    let (ctx, _) = demo_context();
    let o = run_demo(&ctx, &Policy::MaxQuality, ExecutionConfig::sequential());
    let s = &o.stats;
    let (sequential, pipelined) = (s.total_time_secs, s.pipelined_secs);
    let speedup = sequential / pipelined;
    let mut t =
        Table::new("sequential (s) | pipelined (s) | speedup | cost ($) | records | LLM calls");
    let (cost, n, calls) = (s.total_cost_usd, o.records.len(), s.total_llm_calls);
    t.row(format!(
        "{sequential:.1} | {pipelined:.1} | {speedup:.2}× | {cost:.3} | {n} | {calls}"
    ));
    let mut r = Report::tables([t]);
    r.holds(
        "the sequential figure is the clock the run advanced",
        (ctx.clock.now_secs() - sequential).abs() < 1e-9,
    );
    r.at_least("pipelined speedup", speedup, PIPELINED_SPEEDUP_FLOOR);
    r
}

fn e15(_: &Setup) -> Report {
    let mut t = Table::new(
        "scenario | records | cost ($) | time (s) | pipelined (s) | F1 | swaps | breaker trips",
    );
    let mut decisions = Table::new("op | operator | from | to | reason | records | est. quality");
    for (scenario, plan) in [
        ("healthy", FaultPlan::none()),
        (
            "gpt-4o outage",
            FaultPlan::none().outage("gpt-4o", 0.0, 1e9),
        ),
    ] {
        let (ctx, truth) = demo_context();
        ctx.faults.set(plan);
        let o = run_demo(&ctx, &Policy::MaxQuality, ExecutionConfig::sequential());
        let s = &o.stats;
        let (n, cost, time) = (o.records.len(), s.total_cost_usd, s.total_time_secs);
        let pipelined = s.pipelined_secs;
        let f1 = score_extractions(&o.records, &truth).f1;
        let (swaps, trips) = (s.degraded.len(), ctx.tracer.counter("llm.breaker_opened"));
        t.row(format!(
            "{scenario} | {n} | {cost:.3} | {time:.1} | {pipelined:.1} | {f1:.2} | {swaps} | {trips}"
        ));
        for d in &s.degraded {
            let (op, from, to) = (&d.operator, &d.from_model, &d.to_model);
            let (reason, n, dq) = (&d.reason, d.records_affected, d.est_quality_delta);
            let i = d.operator_index;
            decisions.row(format!(
                "{i} | {op} | {from} | {to} | {reason} | {n} | {dq:+.2}"
            ));
        }
    }
    Report::tables([t, decisions])
}

const PARALLEL_SPEEDUP_FLOOR: f64 = 2.0;

/// E16 — the demo plan at parallelism 1/2/4/8: parallelism changes how
/// much of a stage's calls overlap on the virtual clock, never what is
/// called.
fn e16(_: &Setup) -> Report {
    let (mut r, speedups) = demo_sweep(&[1, 2, 4, 8]);
    r.at_least("speedup at p=8", speedups[3], PARALLEL_SPEEDUP_FLOOR);
    r
}

const PROFILER_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// E17 — the E14 run with the profiler armed: per-stage attribution,
/// critical path, bottleneck agreement with the executor's fill model, and
/// estimate-vs-observed drift. Serial, so the drift compares the
/// optimizer's one time model with what the stages took. Also writes the
/// exports `setup` asks for, and times what arming the profiler costs.
fn e17(setup: &Setup) -> Report {
    let (ctx, _) = demo_context();
    ctx.tracer.set_profiling(true);
    setup.script_faults(&ctx);
    let outcome = run_demo(&ctx, &Policy::MaxQuality, ExecutionConfig::sequential());
    let snap = ctx.tracer.snapshot();
    let profile = pz_obs::profile_plan(&snap).expect("plan profile from the trace");
    let mut t =
        Table::new("stage | window (s) | compute | queue | provider | backpressure | retry | util");
    let mut sums_match = true;
    for s in &profile.stages {
        let (b, w) = (&s.buckets, s.window_us);
        sums_match &= (b.total_us() as f64 - w as f64).abs() <= (w as f64 * 0.01).max(1.0);
        let share = |us: u64| {
            let pct = if w == 0 {
                0.0
            } else {
                100.0 * us as f64 / w as f64
            };
            format!("{:.2} ({pct:.0}%)", us as f64 / 1e6)
        };
        let buckets = [
            b.compute_us,
            b.queue_wait_us,
            b.provider_wait_us,
            b.backpressure_us,
            b.retry_backoff_us,
        ];
        let buckets = buckets.map(share).join(" | ");
        let util = s
            .utilization
            .map_or("–".into(), |u| format!("{:.0}%", u * 100.0));
        let (i, name, window) = (s.index, &s.name, w as f64 / 1e6);
        t.row(format!("{i} {name} | {window:.2} | {buckets} | {util}"));
    }
    let startups: Vec<f64> = profile.stages.iter().map(|s| s.startup_secs).collect();
    let bottleneck = profile.bottleneck();
    let path: Vec<String> = profile
        .critical_path
        .iter()
        .map(|id| id.to_string())
        .collect();
    let mut summary =
        Table::new("wall (s) | bottleneck stage | modelled total (s) | critical path");
    let (wall, total) = (profile.wall_us as f64 / 1e6, profile.modelled_total_secs());
    let (stage, path) = (bottleneck.map_or(-1, |b| b as i64), path.join(" → "));
    summary.row(format!("{wall:.2} | {stage} | {total:.2} | {path}"));
    let drift = outcome
        .drift_report()
        .expect("drift report for the chosen plan");
    let mut d = Table::new(
        "stage | operator | time est / obs (s) | cost est / obs ($) | sel est / obs | ratio (t)",
    );
    for s in &drift.stages {
        let time = format!("{:.1} / {:.1}", s.est_time_secs, s.obs_time_secs);
        let cost = format!("{:.3} / {:.3}", s.est_cost_usd, s.obs_cost_usd);
        let sel = format!("{:.2} / {:.2}", s.est_selectivity, s.obs_selectivity);
        let (i, op, ratio) = (s.index, &s.physical, s.time_ratio());
        d.row(format!(
            "{i} | {op} | {time} | {cost} | {sel} | {ratio:.2}×"
        ));
    }
    let llm_stages: Vec<&StageDrift> = drift.stages.iter().filter(|s| s.is_llm()).collect();
    for (path, body) in [
        (&setup.chrome_out, pz_obs::to_chrome_trace(&snap)),
        (&setup.prom_out, pz_obs::to_prometheus(&snap)),
        (&setup.drift_out, drift.render_table()),
    ] {
        if let Some(path) = path {
            std::fs::write(path, body).expect("write profiler export");
        }
    }
    // Real time of the same run with the profiler off vs on: the best of
    // ten alternating pairs, after a warm-up, so load that comes and goes
    // on the machine hits both sides alike.
    let timed = |profiling: bool| {
        let (ctx, _) = demo_context();
        ctx.tracer.set_profiling(profiling);
        let t = Instant::now();
        run_demo(&ctx, &Policy::MaxQuality, ExecutionConfig::sequential());
        t.elapsed().as_secs_f64()
    };
    timed(false);
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..10 {
        off = off.min(timed(false));
        on = on.min(timed(true));
    }
    let overhead = ((on - off) / off.max(1e-9) * 100.0).max(0.0);

    let mut r = Report::tables([t, summary, d]);
    r.note(format!(
        "profiler overhead (wall clock): {off:.4}s off / {on:.4}s on = {overhead:.2}%"
    ));
    r.holds(
        "each stage's buckets sum to its window within 1%",
        sums_match,
    );
    let fill_model = outcome.stats.pipelined_bottleneck(&startups);
    r.holds(
        "bottleneck agrees with the fill model",
        bottleneck == fill_model,
    );
    r.holds(
        "modelled total matches the run's pipelined time",
        (total - outcome.stats.pipelined_secs).abs() < 1e-3,
    );
    let covered = llm_stages.iter().all(|s| s.obs_llm_calls > 0.0);
    r.holds(
        "every LLM stage has observed drift",
        !llm_stages.is_empty() && covered,
    );
    r.at_most(
        "profiler overhead %",
        overhead,
        PROFILER_OVERHEAD_CEILING_PCT,
    );
    r
}

/// `ctx` with a catalog in which `model` is the only chat model, so
/// nothing can stand in for it: a brownout on it is ridden out.
fn offering_no_substitute(mut ctx: PzContext, model: &str) -> PzContext {
    let mut catalog = pz_llm::Catalog::new();
    for card in ctx.catalog.iter() {
        if card.id.as_str() == model || card.kind == pz_llm::ModelKind::Embedding {
            catalog.insert(card.clone());
        }
    }
    ctx.catalog = catalog;
    ctx
}

/// One E18 run of the split plan: healthy, or with gpt-4o
/// browning out (25 s stalls on ~35% of calls, under the breaker's trip
/// rate), with a substitute on offer or not. Returns (virtual time,
/// ledger cost, output multiset, replans).
fn e18_run(brownout: bool, adaptive: bool) -> (f64, f64, Vec<String>, Vec<AdaptiveReport>) {
    let (ctx, _) = demo_context();
    let ctx = if adaptive {
        ctx
    } else {
        offering_no_substitute(ctx, "gpt-4o")
    };
    if brownout {
        let plan = FaultPlan::parse("gpt-4o:timeout@0..1e9:p=0.35:stall=25", 11);
        ctx.faults.set(plan.expect("fault spec"));
    }
    let plan = split_plan(DEMO_DATASET);
    let (records, stats) =
        pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::sequential()).expect("runs");
    let (time, cost) = (ctx.clock.now_secs(), ctx.ledger.total_cost_usd());
    (time, cost, record_multiset(&records), stats.adaptive)
}

const ADAPTIVE_SPEEDUP_FLOOR: f64 = 1.2;

/// E18 — with no substitute on offer the plan pays every stall on the
/// browning-out champion; otherwise the substitution controller sees the
/// filter's stall ratio cross its threshold and swaps it mid-stream.
fn e18(_: &Setup) -> Report {
    let healthy = e18_run(false, true);
    let fixed = e18_run(true, false);
    let adaptive = e18_run(true, true);
    let mut t = Table::new("configuration | time (s) | vs static | cost ($) | records | replans");
    for (name, (time, cost, keys, replans)) in [
        ("healthy baseline", &healthy),
        ("brownout, static", &fixed),
        ("brownout, adaptive", &adaptive),
    ] {
        let (speedup, n, replans) = (fixed.0 / time, keys.len(), replans.len());
        t.row(format!(
            "{name} | {time:.1} | {speedup:.2}× | {cost:.3} | {n} | {replans}"
        ));
    }
    let mut decisions = Table::new(
        "op | operator | from | to | trigger | ratio | threshold | records left | at (s)",
    );
    for d in &adaptive.3 {
        let (i, op, from, to) = (d.operator_index, &d.operator, &d.from_model, &d.to_model);
        let (trigger, ratio, threshold) = (&d.trigger, d.observed_ratio, d.threshold);
        let (left, at) = (d.records_remaining, d.at_secs);
        let cells = format!("{trigger} | {ratio:.2} | {threshold:.2} | {left} | {at:.1}");
        decisions.row(format!("{i} | {op} | {from} | {to} | {cells}"));
    }
    let mut r = Report::tables([t, decisions]);
    r.holds(
        "static and adaptive output multisets equal",
        fixed.2 == adaptive.2,
    );
    r.holds("the adaptive run replanned", !adaptive.3.is_empty());
    r.at_least(
        "adaptive speedup",
        fixed.0 / adaptive.0,
        ADAPTIVE_SPEEDUP_FLOOR,
    );
    r
}

const APPEND_SPEEDUP_FLOOR: f64 = 10.0;
const APPEND_MAX_DELTA_CALLS: usize = 2;

/// E19 — a 40-paper corpus runs cold through the response cache, one
/// paper is appended and the pipeline re-runs; a cold context then runs
/// the grown corpus from scratch.
fn e19(setup: &Setup) -> Report {
    let (docs, _) = pz_datagen::science::generate(ScienceConfig {
        n_papers: 40,
        ..Default::default()
    });
    let mut items: Vec<(String, String)> =
        docs.into_iter().map(|d| (d.filename, d.content)).collect();
    let plan = split_plan("sci-inc");
    let config = setup.config();

    let ctx = PzContext::simulated().with_cache();
    setup.script_faults(&ctx);
    let src = Arc::new(VersionedSource::new(
        "sci-inc",
        Schema::pdf_file(),
        items.clone(),
    ));
    ctx.registry.register(src.clone());
    run_plan(&ctx, &plan, config);
    let (cold_time, cold_calls) = (ctx.clock.now_secs(), ctx.ledger.total_requests());
    for op in &pz_datagen::edits::append_script(7, 1, 1).batches[0] {
        if let pz_datagen::edits::EditOp::Append(d) = op {
            src.append(&d.filename, &d.content);
            items.push((d.filename.clone(), d.content.clone()));
        }
    }
    ctx.reset_accounting();
    let (rerun, stats) = pz_core::exec::execute_plan(&ctx, &plan, config).expect("append re-run");
    let (rerun_time, rerun_calls) = (ctx.clock.now_secs(), ctx.ledger.total_requests());

    let scratch = PzContext::simulated();
    setup.script_faults(&scratch);
    let source = MemorySource::new("sci-inc", Schema::pdf_file(), items);
    scratch.registry.register(Arc::new(source));
    let fresh = run_plan(&scratch, &plan, setup.config());
    let (scratch_time, scratch_calls) = (scratch.clock.now_secs(), scratch.ledger.total_requests());

    let mut t = Table::new("configuration | time (s) | vs from-scratch | LLM calls | cache hits");
    for (name, time, calls, hits) in [
        ("cold run (40 papers)", cold_time, cold_calls, 0),
        (
            "append re-run (+1 paper)",
            rerun_time,
            rerun_calls,
            stats.memo_hits,
        ),
        ("from-scratch (41 papers)", scratch_time, scratch_calls, 0),
    ] {
        let speedup = scratch_time / time.max(1e-9);
        t.row(format!(
            "{name} | {time:.1} | {speedup:.1}× | {calls} | {hits}"
        ));
    }
    let mut r = Report::tables([t]);
    let speedup = scratch_time / rerun_time.max(1e-9);
    r.at_least(
        "append speedup vs from-scratch",
        speedup,
        APPEND_SPEEDUP_FLOOR,
    );
    // Scripted faults re-draw per request, so a faulted re-run and an
    // independently faulted scratch run may bill different attempts and
    // fail over differently: under a fault plan only the weaker invariant
    // holds — responses served from the cache, the delta cheaper than the
    // cold run.
    if setup.faults.is_some() {
        r.note("fault plan armed: strict equivalence waived; faults re-draw per run");
        r.holds("responses served from the cache", stats.memo_hits > 0);
        r.holds("delta cheaper than the cold run", rerun_calls < cold_calls);
    } else {
        let same_output = record_multiset(&rerun) == record_multiset(&fresh);
        r.holds(
            "re-run and from-scratch output multisets equal",
            same_output,
        );
        let prefix_free = cold_calls + rerun_calls == scratch_calls;
        r.holds(
            "prefix-free: cold + delta calls == from-scratch calls",
            prefix_free,
        );
        let delta = rerun_calls as f64;
        r.at_most(
            "delta calls for one appended record",
            delta,
            APPEND_MAX_DELTA_CALLS as f64,
        );
    }
    r
}

/// Register one serving session's corpus, content-salted with the
/// dataset name: template corpora can collide byte for byte across seeds,
/// and a collision would make shared-cache hits depend on interleaving.
fn serve_corpus(ctx: &PzContext, dataset: &str, seed: u64, n_docs: usize) {
    let (docs, _) = pz_datagen::science::generate(ScienceConfig {
        n_papers: n_docs,
        seed,
        ..Default::default()
    });
    let items: Vec<(String, String)> = docs
        .into_iter()
        .map(|d| (d.filename, format!("{}\n[workspace {dataset}]", d.content)))
        .collect();
    let source = MemorySource::new(dataset, Schema::pdf_file(), items);
    ctx.registry.register(Arc::new(source));
}

/// A host with `slots` concurrent runs and `queue` waiting places,
/// provisioned with `tenants`, and their session jobs. A tenant's sim
/// seed is a function of its id, so solo and concurrent hosts agree; no
/// deadlines, since deadline hits would depend on the load.
fn serve_host(
    slots: usize,
    queue: usize,
    tenants: &[pz_datagen::traffic::TenantTraffic],
) -> (pz_serve::ServeHost, Vec<pz_serve::SessionJob>) {
    let mut host = pz_serve::ServeHost::new(pz_serve::ServeConfig {
        admission: pz_serve::AdmissionConfig {
            max_concurrent_runs: slots,
            max_queued: queue,
            expected_run_secs: 30.0,
        },
        shared_cache: true,
    });
    let mut jobs = Vec::new();
    for t in tenants {
        let seed = 3000 + t.id.bytes().map(u64::from).sum::<u64>();
        let spec = pz_serve::TenantSpec::new(&t.id).with_weight(t.weight);
        host.add_tenant(spec.with_seed(seed));
        let ctx = host.session_ctx(&t.id).expect("tenant just added");
        for s in &t.sessions {
            serve_corpus(&ctx, &s.session, s.corpus_seed, s.n_docs);
            let plan = Dataset::source(&s.session).filter(FILTER_PREDICATE);
            let plan = plan.build().expect("static plan is valid");
            let job = pz_serve::SessionJob::new(&t.id, &s.session, plan);
            jobs.push(if t.interactive { job } else { job.batch() });
        }
    }
    (host, jobs)
}

const FAIRNESS_FLOOR: f64 = 0.8;
const OVERLOAD_P99_CEILING_SECS: f64 = 100_000.0;

/// E20 — 4 tenants (2 interactive, 2 batch) serve 12 concurrent sessions
/// on one host; each tenant's bill must match its solo run. Then the same
/// traffic hits a third of the capacity and must shed with structured
/// errors instead of hanging.
fn e20(_: &Setup) -> Report {
    let traffic = pz_datagen::traffic::generate(pz_datagen::traffic::TrafficConfig {
        tenants: 4,
        sessions_per_tenant: 3,
        interactive_fraction: 0.5,
        docs_per_session: 4,
        interactive_deadline_secs: 600.0,
        seed: 20,
    });
    let n = traffic.total_sessions();
    let (host, jobs) = serve_host(n, n, &traffic.tenants);
    let report = host.serve(jobs);
    let m = &report.metrics;
    let bill = |h: &pz_serve::ServeHost, id: &str| {
        let l = &h.tenant(id).expect("provisioned").ctx.ledger;
        let usage = (l.total_requests(), l.total_usage().total_tokens());
        (usage, l.total_cost_usd())
    };
    let mut t = Table::new("tenant | completed | shed | cost ($) | solo ($) | LLM calls");
    let mut no_bleed = true;
    for tm in &m.per_tenant {
        let id = tm.tenant.as_str();
        let tenant = traffic.tenants.iter().filter(|t| t.id == id);
        let (solo, solo_jobs) = serve_host(n, n, &tenant.cloned().collect::<Vec<_>>());
        solo.serve(solo_jobs);
        let ((usage, cost), (solo_usage, solo_cost)) = (bill(&host, id), bill(&solo, id));
        no_bleed &= usage == solo_usage && (cost - solo_cost).abs() < 1e-9;
        let (done, shed, calls) = (tm.sessions_completed, tm.sessions_shed, tm.llm_calls);
        t.row(format!(
            "{id} | {done} | {shed} | {cost:.4} | {solo_cost:.4} | {calls}"
        ));
    }

    let (tight, tight_jobs) = serve_host(2, 2, &traffic.tenants);
    let overload = tight.serve(tight_jobs);
    let o = &overload.metrics;
    let structured = overload.outcomes.iter().all(|s| match &s.result {
        Ok(_) => true,
        Err(PzError::Overloaded {
            reason,
            retry_after_secs,
        }) => !reason.is_empty() && *retry_after_secs > 0.0,
        Err(_) => false,
    });

    let mut r = Report::tables([t]);
    r.text(format!(
        "normal load: {}/{} completed, p50 {:.1}s p99 {:.1}s, {:.3} sessions/s, \
         Jain fairness {:.3}, {} scheduler grants\n\
         overload (1/3 capacity): {}/{} completed, {} shed ({:.0}%), p99 {:.1}s",
        m.sessions_completed,
        m.sessions_submitted,
        m.p50_latency_secs,
        m.p99_latency_secs,
        m.throughput_per_sec,
        m.fairness_jain,
        report.scheduler.granted,
        o.sessions_completed,
        o.sessions_submitted,
        o.sessions_shed,
        o.shed_rate * 100.0,
        o.p99_latency_secs,
    ));
    r.holds("every tenant's bill equals its solo bill", no_bleed);
    r.at_least("Jain fairness", m.fairness_jain, FAIRNESS_FLOOR);
    r.holds("the overloaded host sheds", o.sessions_shed > 0);
    r.holds(
        "every shed is Overloaded with a reason and a retry-after",
        structured,
    );
    r.at_most(
        "overload p99 (s)",
        o.p99_latency_secs,
        OVERLOAD_P99_CEILING_SECS,
    );
    r
}

/// Peak resident set size of this process in KiB, from Linux's `VmHWM`;
/// `0` where /proc is unavailable.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with("VmHWM:"));
    let kb = line.and_then(|l| l.split_whitespace().nth(1));
    kb.and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// One E21 cell: the default chunked scan plus a sparse UDF filter over a
/// streamed corpus of `n` documents. `repro scaling-cell <n>` runs it in a
/// process of its own, so the peak RSS is this cell's alone.
pub fn scaling_cell(n: usize) -> serde_json::Value {
    let ctx = PzContext::simulated();
    let cfg = pz_datagen::stream::StreamConfig::sized(n, 11);
    let source = GeneratedSource::new("stream-corpus", Schema::text_file(), n, move |i| {
        let d = pz_datagen::stream::doc_at(&cfg, i);
        (d.filename, d.content)
    });
    ctx.registry.register(Arc::new(source));
    // Keep every 10,000th document, so survivors stay O(1) at every size
    // and resident records measure the chunk, not the output.
    ctx.udfs.register_filter("sparse", |r: &DataRecord| {
        let name = r.get("filename").map(|v| v.as_display());
        name.is_some_and(|f| f.ends_with("0000.txt"))
    });
    let udf = "sparse".into();
    let plan = scan_then("stream-corpus", [PhysicalOp::UdfFilter { udf }]);
    let t = Instant::now();
    let (records, stats) =
        pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::sequential()).expect("scan");
    serde_json::json!({
        "records": n,
        "wall_secs": t.elapsed().as_secs_f64(),
        "outputs": records.len(),
        "peak_resident_records": stats.peak_resident_records,
        "peak_rss_kb": peak_rss_kb(),
    })
}

/// Run [`scaling_cell`] in a `scaling-cell` subprocess of the current
/// executable and parse the JSON line it prints.
fn spawn_scaling_cell(n: usize) -> serde_json::Value {
    let exe = std::env::current_exe().expect("current exe");
    let mut cell = std::process::Command::new(exe);
    let out = cell.args(["scaling-cell", &n.to_string()]).output();
    let out = out.expect("spawn scaling cell");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "scaling cell {n} failed: {stderr}");
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().rev().find(|l| l.starts_with('{'));
    serde_json::from_str(line.expect("scaling cell emitted no JSON")).expect("cell JSON")
}

const SCAN_MEMORY_GROWTH_CEILING: f64 = 1.5;

/// E21 — the out-of-core data plane at 10k / 100k / 1M records, each cell
/// in its own subprocess.
fn e21(setup: &Setup) -> Report {
    let curve: Vec<serde_json::Value> = [10_000, 100_000, 1_000_000]
        .into_iter()
        .map(spawn_scaling_cell)
        .collect();
    let num = |v: &serde_json::Value, k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let mut t = Table::new("records | wall (s) | peak RSS (MiB) | resident records | outputs");
    for v in &curve {
        let (n, wall, kb) = (
            num(v, "records"),
            num(v, "wall_secs"),
            num(v, "peak_rss_kb"),
        );
        let (resident, out) = (num(v, "peak_resident_records"), num(v, "outputs"));
        let mib = kb / 1024.0;
        t.row(format!("{n} | {wall:.2} | {mib:.1} | {resident} | {out}"));
    }
    // Prefer real RSS; where /proc is unavailable both cells read 0 and the
    // executor's deterministic resident-records gauge stands in.
    let (small, big) = (&curve[0], &curve[curve.len() - 1]);
    let key = if num(small, "peak_rss_kb") > 0.0 && num(big, "peak_rss_kb") > 0.0 {
        "peak_rss_kb"
    } else {
        "peak_resident_records"
    };
    let growth = num(big, key) / num(small, key).max(1.0);
    let flat = growth <= SCAN_MEMORY_GROWTH_CEILING;
    if let Some(path) = &setup.scaling_out {
        let doc = serde_json::json!({
            "experiment": "E21 scaling curve (chunked scan, 10k/100k/1M)",
            "scan_memory_flat": flat,
            "scan_memory_growth": growth,
            "scan_memory_growth_ceiling": SCAN_MEMORY_GROWTH_CEILING,
            "pass": flat,
            "scan": curve,
        });
        let json = serde_json::to_string_pretty(&doc).expect("render scaling json");
        std::fs::write(path, json).expect("write scaling json");
    }
    let mut r = Report::tables([t]);
    r.at_most(
        "scan peak-memory growth 10k → 1M",
        growth,
        SCAN_MEMORY_GROWTH_CEILING,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing(_: &Setup) -> Report {
        let mut t = Table::new("a | b");
        t.row("1 | 2".to_string());
        let mut r = Report::tables([t]);
        r.holds("holds", true);
        r
    }

    fn failing(setup: &Setup) -> Report {
        let mut r = passing(setup);
        r.at_least("speedup", 0.5, 2.0);
        r
    }

    #[test]
    fn a_failing_gate_is_reported_by_name_and_the_rest_still_print() {
        let rows = [
            row("x1", "passes", passing),
            row("x2", "fails", failing),
            row("x3", "passes too", passing),
        ];
        let mut out = Vec::new();
        let failed = run_all(&rows, &Setup::default(), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(failed, ["x2 speedup"]);
        assert!(
            out.contains("gate x2 speedup: FAIL (0.50, floor 2)"),
            "{out}"
        );
        assert!(out.contains("gate x3 holds: pass\n"), "{out}");
        assert!(out.contains("## X3 — passes too"), "{out}");
        assert_eq!(out.matches("| 1 | 2 |").count(), 3, "{out}");
    }
}
