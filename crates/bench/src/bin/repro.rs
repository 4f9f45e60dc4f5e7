//! Regenerate every experiment in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p bench --bin repro --release            # all experiments
//! cargo run -p bench --bin repro --release -- e1 e3   # a subset
//! cargo run -p bench --bin repro --release -- e1 --trace-out trace.jsonl
//! ```
//!
//! Experiment ids follow DESIGN.md §4 and EXPERIMENTS.md. Output is plain text so it
//! can be diffed against EXPERIMENTS.md. `--trace-out <path>` additionally
//! runs the §3 chat dialogue and exports its full pz-obs trace as JSONL.
//! `--exec-mode streaming|materializing` selects the executor used by every
//! experiment (default: materializing). `--fault-plan <spec>` scripts
//! provider faults (e.g. `gpt-4o:outage@0..120`) into the E1 headline run
//! and the trace export, so CI can archive a degraded-run trace.
//! `--parallelism N` (0 = one per core) sets every experiment's
//! intra-operator parallelism: thread fan-out per LLM operator when
//! materializing, modelled per-stage overlap when streaming.
//! `--incremental` arms delta-driven re-execution: the E1 context and the
//! trace-export chat session carry a memo snapshot, and every experiment's
//! executor replays memoized operator verdicts instead of re-billing them
//! (E19 scripts its own incremental-vs-from-scratch comparison regardless
//! of the flag).
//! `--profile` runs the E16 demo plan with the pipeline profiler armed and
//! prints the per-stage attribution table, critical path, and the
//! estimate-vs-observed drift report (this is experiment E17);
//! `--chrome-trace-out <path>`, `--prom-out <path>` and `--drift-out
//! <path>` additionally export that profiled run as a Chrome trace-event
//! file, Prometheus text exposition, and drift-report text.

use bench::{
    chain_plan, clinical_schema, demo_context, demo_plan, science_context, science_context_with,
    score_extractions, DEMO_DATASET,
};
use palimpchat::PalimpChat;
use pz_core::optimizer::cost::CostContext;
use pz_core::optimizer::{enumerate, pareto, sentinel, Optimizer};
use pz_core::prelude::*;
use std::time::Instant;

/// Execution mode applied to every experiment (`--exec-mode`).
static EXEC_MODE: std::sync::OnceLock<ExecMode> = std::sync::OnceLock::new();

/// Scripted provider faults (`--fault-plan <spec>`), injected into the E1
/// headline run and the trace export so CI can archive a degraded-run
/// trace. E15 scripts its own outage regardless of this flag.
static FAULT_PLAN: std::sync::OnceLock<pz_llm::FaultPlan> = std::sync::OnceLock::new();

/// Intra-operator parallelism (`--parallelism N`, default 1): thread
/// fan-out per LLM operator in materializing runs, modelled per-stage
/// overlap in streaming runs.
static PARALLELISM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

/// Incremental execution (`--incremental`): arm a memo snapshot on the E1
/// context and the trace-export chat session, and raise the config flag in
/// every experiment's executor. E19 scripts its own incremental-vs-scratch
/// comparison regardless.
static INCREMENTAL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();

fn exec_mode() -> ExecMode {
    EXEC_MODE.get().copied().unwrap_or(ExecMode::Materializing)
}

fn parallelism() -> usize {
    PARALLELISM.get().copied().unwrap_or(1).max(1)
}

fn scripted_faults(ctx: &PzContext) {
    if let Some(plan) = FAULT_PLAN.get() {
        ctx.faults.set(plan.clone());
    }
}

fn incremental() -> bool {
    INCREMENTAL.get().copied().unwrap_or(false)
}

/// Destination for the E21 scaling-curve JSON (`--scaling-out <path>`);
/// the scaling-gate CI job archives it as an artifact.
static SCALING_OUT: std::sync::OnceLock<String> = std::sync::OnceLock::new();

/// Arm a fresh memo snapshot on `ctx` when `--incremental` is set; the
/// config flag from `cfg_seq`/`cfg_par` activates it.
fn scripted_incremental(ctx: &mut PzContext) {
    if incremental() {
        ctx.incremental = Some(pz_core::exec::ExecutionSnapshot::new());
    }
}

fn cfg_seq() -> ExecutionConfig {
    cfg_par(parallelism())
}

fn cfg_par(workers: usize) -> ExecutionConfig {
    let cfg = ExecutionConfig::sequential()
        .with_mode(exec_mode())
        .with_parallelism(workers.max(1));
    if incremental() {
        cfg.with_incremental()
    } else {
        cfg
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden cell runner for the E21 scaling curve: each corpus size runs
    // in its own subprocess so `VmHWM` is a clean per-cell peak-RSS
    // reading, and prints one JSON object on stdout for the parent.
    if args.first().map(String::as_str) == Some("scaling-cell") {
        let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let doc = scaling_cell(n);
        println!("{}", serde_json::to_string(&doc).expect("cell json"));
        return;
    }
    let take_path = |args: &mut Vec<String>, flag: &str| -> Option<String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => {
                if i + 1 >= args.len() {
                    eprintln!("{flag} requires a path argument");
                    std::process::exit(2);
                }
                let path = args.remove(i + 1);
                args.remove(i);
                Some(path)
            }
            None => None,
        }
    };
    let trace_out = take_path(&mut args, "--trace-out");
    if let Some(path) = take_path(&mut args, "--scaling-out") {
        let _ = SCALING_OUT.set(path);
    }
    let chrome_out = take_path(&mut args, "--chrome-trace-out");
    let prom_out = take_path(&mut args, "--prom-out");
    let drift_out = take_path(&mut args, "--drift-out");
    let profile_flag = match args.iter().position(|a| a == "--profile") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let profile_requested =
        profile_flag || chrome_out.is_some() || prom_out.is_some() || drift_out.is_some();
    if let Some(i) = args.iter().position(|a| a == "--exec-mode") {
        if i + 1 >= args.len() {
            eprintln!("--exec-mode requires streaming | materializing");
            std::process::exit(2);
        }
        let mode = args.remove(i + 1);
        args.remove(i);
        let mode = match mode.as_str() {
            "streaming" => ExecMode::streaming(),
            "materializing" => ExecMode::Materializing,
            other => {
                eprintln!("unknown --exec-mode {other:?} (try streaming | materializing)");
                std::process::exit(2);
            }
        };
        let _ = EXEC_MODE.set(mode);
        println!("exec mode: {mode:?}");
    }
    if let Some(i) = args.iter().position(|a| a == "--parallelism") {
        if i + 1 >= args.len() {
            eprintln!("--parallelism requires a worker count (or 0 for one per core)");
            std::process::exit(2);
        }
        let n = args.remove(i + 1);
        args.remove(i);
        match n.parse::<usize>() {
            Ok(0) => {
                let cores = pz_core::exec::available_cores();
                let _ = PARALLELISM.set(cores);
                println!("parallelism: {cores} workers/operator (one per core)");
            }
            Ok(w) => {
                let _ = PARALLELISM.set(w);
                println!("parallelism: {w} workers/operator");
            }
            Err(_) => {
                eprintln!("bad --parallelism value {n:?} (want an integer)");
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--incremental") {
        args.remove(i);
        let _ = INCREMENTAL.set(true);
        println!("incremental execution: on (memoized operator verdicts replay for free)");
    }
    if let Some(i) = args.iter().position(|a| a == "--fault-plan") {
        if i + 1 >= args.len() {
            eprintln!("--fault-plan requires a spec, e.g. gpt-4o:outage@0..120");
            std::process::exit(2);
        }
        let spec = args.remove(i + 1);
        args.remove(i);
        match pz_llm::FaultPlan::parse(&spec, 42) {
            Ok(plan) => {
                println!("fault plan: {}", plan.describe());
                let _ = FAULT_PLAN.set(plan);
            }
            Err(e) => {
                eprintln!("bad --fault-plan spec: {e}");
                std::process::exit(2);
            }
        }
    }
    // `repro bench-json [--out PATH]`: machine-readable perf-gate numbers.
    if args.iter().any(|a| a == "bench-json") {
        let out = match args.iter().position(|a| a == "--out") {
            Some(i) => {
                if i + 1 >= args.len() {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                }
                args[i + 1].clone()
            }
            None => "BENCH_5.json".to_string(),
        };
        bench_json(&out);
        return;
    }
    // A bare `--profile` (or export flag) runs only the profiled E17 pass;
    // experiment ids can still be combined with it explicitly.
    let run = |id: &str| {
        (args.is_empty() && !profile_requested) || args.iter().any(|a| a.eq_ignore_ascii_case(id))
    };
    if run("e1") {
        e1_headline();
    }
    if run("e2") {
        e2_stats_breakdown();
    }
    if run("e3") {
        e3_policy_sweep();
    }
    if run("e4") {
        e4_plan_space();
    }
    if run("e5") {
        e5_agent_decomposition();
    }
    if run("e6") {
        e6_three_scenarios();
    }
    if run("e7") {
        e7_generated_code();
    }
    if run("e8") {
        e8_scaling();
    }
    if run("e9") {
        e9_sentinel();
    }
    if run("e11") {
        e11_cache_ablation();
    }
    if run("e12") {
        e12_filter_strategy_ablation();
    }
    if run("e13") {
        e13_convert_strategy_ablation();
    }
    if run("e15") {
        e15_resilience();
    }
    if run("e16") {
        e16_parallelism();
    }
    if run("e17") || profile_requested {
        e17_profiling(
            chrome_out.as_deref(),
            prom_out.as_deref(),
            drift_out.as_deref(),
        );
    }
    if run("e18") {
        e18_adaptive();
    }
    if run("e19") {
        e19_incremental();
    }
    if run("e20") {
        e20_serving();
    }
    if run("e21") {
        e21_scaling();
    }
    if let Some(path) = trace_out {
        export_trace(&path);
    }
}

/// Run the §3 demo dialogue and export its unified pz-obs trace as JSONL
/// (one span/event/counter/histogram per line — the CI smoke artifact).
fn export_trace(path: &str) {
    banner("TRACE", "unified observability trace of the §3 dialogue");
    let mut chat = PalimpChat::new();
    {
        let mut session = chat.session().lock();
        session.exec = session.exec.with_mode(exec_mode());
        scripted_incremental(&mut session.ctx);
    }
    scripted_faults(&chat.session().lock().ctx);
    for turn in [
        "Please load the dataset of scientific papers from my folder",
        "I'm interested in papers that are about colorectal cancer, and for these papers, \
         extract whatever public dataset is used by the study",
        "run the pipeline with maximum quality",
    ] {
        chat.handle(turn).expect("chat turn");
    }
    let snap = chat.tracer().snapshot();
    std::fs::write(path, snap.to_jsonl()).expect("write trace");
    println!(
        "{} spans, {} events, {} counters -> {path}",
        snap.spans.len(),
        snap.events.len(),
        snap.counters.len()
    );
    print!("{}", pz_obs::render_tree(&snap));
}

fn banner(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// E1 — §3 headline numbers: 11 papers → 6 datasets, ≈240 s, ≈$0.35.
fn e1_headline() {
    banner("E1", "scientific discovery headline (paper §3)");
    let (mut ctx, truth) = demo_context();
    scripted_faults(&ctx);
    scripted_incremental(&mut ctx);
    let outcome =
        execute(&ctx, &demo_plan(), &Policy::MaxQuality, cfg_seq()).expect("demo pipeline runs");
    let filter_out = outcome.operators_out(1);
    let score = score_extractions(&outcome.records, &truth);
    println!("{:<38} {:>12} {:>12}", "metric", "paper", "measured");
    println!("{:<38} {:>12} {:>12}", "input papers", 11, 11);
    println!(
        "{:<38} {:>12} {:>12}",
        "papers passing the filter", "-", filter_out
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "datasets extracted",
        6,
        outcome.records.len()
    );
    println!(
        "{:<38} {:>12} {:>12}",
        "verified (name+URL match truth)", "6 (manual)", score.true_positives
    );
    println!(
        "{:<38} {:>12} {:>12.1}",
        "pipeline runtime (s, virtual)", "~240", outcome.stats.total_time_secs
    );
    println!(
        "{:<38} {:>12} {:>12.3}",
        "pipeline cost (USD)", "~0.35", outcome.stats.total_cost_usd
    );
    println!("chosen plan: {}", outcome.chosen_plan.describe());
    println!(
        "extraction P/R/F1 vs ground truth: {:.2}/{:.2}/{:.2}",
        score.precision, score.recall, score.f1
    );
}

trait OperatorsOut {
    fn operators_out(&self, idx: usize) -> usize;
}

impl OperatorsOut for ExecutionOutcome {
    fn operators_out(&self, idx: usize) -> usize {
        self.stats
            .operators
            .get(idx)
            .map_or(0, |o| o.output_records)
    }
}

/// E2 — Figure 5: per-operator execution statistics.
fn e2_stats_breakdown() {
    banner("E2", "per-operator execution statistics (Figure 5)");
    let (ctx, _) = demo_context();
    let outcome =
        execute(&ctx, &demo_plan(), &Policy::MaxQuality, cfg_seq()).expect("demo pipeline runs");
    print!("{}", outcome.stats.render_table());
    println!("\nsample output records:");
    for r in outcome.records.iter().take(3) {
        println!(
            "  {}",
            serde_json::to_string(&r.to_json()).unwrap_or_default()
        );
    }
}

/// E3 — §2.1 policies: quality / cost / runtime tradeoff.
fn e3_policy_sweep() {
    banner("E3", "optimization-policy sweep (paper §2.1)");
    println!(
        "{:<28} {:>9} {:>9} {:>7} {:>7} | chosen plan",
        "policy", "cost($)", "time(s)", "out", "F1"
    );
    let policies = [
        Policy::MaxQuality,
        Policy::MinCost,
        Policy::MinTime,
        Policy::MaxQualityAtCost(0.05),
        Policy::MaxQualityAtTime(60.0),
        Policy::MinCostAtQuality(0.85),
    ];
    for policy in policies {
        let (ctx, truth) = demo_context();
        let outcome = execute(&ctx, &demo_plan(), &policy, cfg_seq()).expect("demo pipeline runs");
        let score = score_extractions(&outcome.records, &truth);
        println!(
            "{:<28} {:>9.4} {:>9.1} {:>7} {:>7.2} | {}",
            policy.name(),
            outcome.stats.total_cost_usd,
            outcome.stats.total_time_secs,
            outcome.records.len(),
            score.f1,
            shorten(&outcome.chosen_plan.describe(), 60),
        );
    }
    println!("\nexpected shape: MaxQuality best F1; MinCost cheapest; MinTime fastest;");
    println!("constrained policies stay within budget while maximizing their objective.");
}

fn shorten(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}

/// E4 — plan-space growth and Pareto pruning.
fn e4_plan_space() {
    banner("E4", "physical plan space vs Pareto frontier (paper §2.1)");
    println!(
        "{:<14} {:>14} {:>10} {:>14} {:>14}",
        "semantic ops", "plan space", "frontier", "enum time", "pruned time"
    );
    for n in 1..=6 {
        let plan = chain_plan(n);
        let catalog = pz_llm::Catalog::builtin();
        let space = enumerate::plan_space_size(&plan, &catalog);
        let cost_ctx = CostContext {
            catalog: catalog.clone(),
            input_cardinality: 100.0,
            avg_record_tokens: 3000.0,
            build_cardinality: Default::default(),
            calibration: None,
            workers: 1,
        };
        let t0 = Instant::now();
        let frontier = pareto::enumerate_pareto(&plan, &catalog, &cost_ctx);
        let pruned_time = t0.elapsed();
        let enum_time = if space <= 50_000 {
            let t1 = Instant::now();
            let plans = enumerate::enumerate_plans(&plan, &catalog, 50_000);
            let _ests: Vec<_> = plans
                .iter()
                .map(|p| pz_core::optimizer::cost::estimate_plan(p, &cost_ctx))
                .collect();
            format!("{:>11.1?}", t1.elapsed())
        } else {
            format!("{:>11}", "(skipped)")
        };
        println!(
            "{:<14} {:>14} {:>10} {:>14} {:>11.1?}",
            n,
            space,
            frontier.len(),
            enum_time,
            pruned_time
        );
    }
    println!("\nexpected shape: space grows 14x per semantic op (6 models x 2 efforts + embedding + ensemble); the frontier stays small.");
}

/// E5 — Figure 4: agent decomposition of chat turns.
fn e5_agent_decomposition() {
    banner("E5", "chat-turn decomposition (Figure 4)");
    let mut chat = PalimpChat::new();
    let turns = [
        "Please load the dataset of scientific papers from my folder",
        "I'm interested in papers that are about colorectal cancer, and for these papers, \
         extract whatever public dataset is used by the study",
        "run the pipeline with maximum quality",
        "how much did the run cost and how long did it take?",
        "download the notebook with the generated code",
    ];
    println!("{:<6} {:>7}  tools invoked", "turn", "steps");
    for (i, turn) in turns.iter().enumerate() {
        let resp = chat.handle(turn).expect("chat turn");
        println!(
            "{:<6} {:>7}  {}",
            i + 1,
            resp.trace.action_count(),
            resp.trace.tools_used().join(" -> ")
        );
    }
    println!("\nfull trace of turn 2 (the multi-step decomposition):");
    let mut chat2 = PalimpChat::new();
    chat2.handle(turns[0]).unwrap();
    let resp = chat2.handle(turns[1]).unwrap();
    print!("{}", resp.trace.render());
}

/// E6 — the three demo scenarios end to end through chat.
fn e6_three_scenarios() {
    banner(
        "E6",
        "three demo scenarios (scientific, legal, real estate)",
    );
    let scenarios: [(&str, &[&str]); 3] = [
        (
            "scientific discovery",
            &[
                "load the dataset of scientific papers",
                "I'm interested in papers that are about colorectal cancer, and for these \
                 papers, extract whatever public dataset is used by the study",
                "run the pipeline with maximum quality",
            ],
        ),
        (
            "legal discovery",
            &[
                "load the legal discovery emails",
                "categorize the emails into acme initech merger deal and office social staff",
                "run the pipeline with minimum cost",
            ],
        ),
        (
            "real estate search",
            &[
                "load the real estate listings",
                "keep only the listings that describe modern homes with a garden",
                "run the pipeline as quick as possible",
            ],
        ),
    ];
    for (name, turns) in scenarios {
        let mut chat = PalimpChat::new();
        let mut last = String::new();
        for t in turns {
            last = chat.handle(t).expect("turn").reply;
        }
        println!("\n--- {name} ---");
        println!("{last}");
    }
}

/// E7 — Figure 6: the generated pipeline code.
fn e7_generated_code() {
    banner("E7", "generated pipeline code (Figure 6)");
    let mut chat = PalimpChat::new();
    chat.handle("load the dataset of scientific papers")
        .unwrap();
    chat.handle(
        "I'm interested in papers that are about colorectal cancer, and for these papers, \
         extract whatever public dataset is used by the study",
    )
    .unwrap();
    chat.handle("run the pipeline with maximum quality")
        .unwrap();
    let resp = chat.handle("export the notebook").unwrap();
    println!("{}", resp.reply);
}

/// E8 — corpus-size and worker scaling.
fn e8_scaling() {
    banner("E8", "corpus-size and parallelism scaling");
    println!(
        "{:<9} {:>9} {:>11} {:>11} {:>9} {:>10}",
        "papers", "workers", "time(s)", "cost($)", "out", "rec/s"
    );
    for &n in &[11usize, 50, 200] {
        for &workers in &[1usize, 4, 8] {
            let (ctx, _) = science_context(n, 17);
            let outcome = execute(&ctx, &demo_plan(), &Policy::MinCost, cfg_par(workers))
                .expect("pipeline runs");
            println!(
                "{:<9} {:>9} {:>11.1} {:>11.4} {:>9} {:>10.2}",
                n,
                workers,
                outcome.stats.total_time_secs,
                outcome.stats.total_cost_usd,
                outcome.records.len(),
                n as f64 / outcome.stats.total_time_secs.max(1e-9),
            );
        }
    }
    println!("\nexpected shape: cost linear in corpus size and independent of workers;");
    println!("runtime divided by ~workers for the LLM-bound operators.");
}

/// E9 — sentinel calibration: estimate error before/after.
fn e9_sentinel() {
    banner("E9", "sentinel calibration of optimizer estimates");
    // A corpus where the cost-model defaults are badly wrong: only ~12% of
    // the papers are relevant, so the default filter selectivity of 0.5
    // grossly over-estimates the work downstream of the filter.
    let (ctx, _) = science_context_with(pz_datagen::science::ScienceConfig {
        n_papers: 60,
        relevant_fraction: 0.12,
        seed: 29,
        ..Default::default()
    });
    let plan = demo_plan();
    // Uncalibrated estimate.
    let default_ctx = CostContext::from_context(&ctx, &plan).expect("costing");
    // Calibrated estimate (sentinel runs charge cost — measure it).
    let sentinel_cost_before = ctx.ledger.total_cost_usd();
    let calib = sentinel::calibrate(&ctx, &plan, 10).expect("calibration");
    let sentinel_cost = ctx.ledger.total_cost_usd() - sentinel_cost_before;
    let mut calibrated_ctx = default_ctx.clone();
    calibrated_ctx.calibration = Some(calib);

    // The plan MaxQuality picks; estimate with and without calibration.
    let optimizer = Optimizer::default();
    let (chosen, default_est, _) = optimizer
        .optimize(&ctx, &plan, &Policy::MaxQuality)
        .expect("optimize");
    let calibrated_est = pz_core::optimizer::cost::estimate_plan(&chosen, &calibrated_ctx);

    // Ground truth: actually run it.
    ctx.reset_accounting();
    let (_, stats) = pz_core::exec::execute_plan(&ctx, &chosen, cfg_seq()).expect("execution");

    let err = |est: f64, act: f64| (est - act).abs() / act.max(1e-9) * 100.0;
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "quantity", "default", "calibrated", "actual"
    );
    println!(
        "{:<26} {:>12.4} {:>12.4} {:>12.4}",
        "cost (USD)", default_est.cost_usd, calibrated_est.cost_usd, stats.total_cost_usd
    );
    println!(
        "{:<26} {:>12.1} {:>12.1} {:>12.1}",
        "runtime (s)", default_est.time_secs, calibrated_est.time_secs, stats.total_time_secs
    );
    println!(
        "{:<26} {:>11.1}% {:>11.1}%",
        "cost estimate error",
        err(default_est.cost_usd, stats.total_cost_usd),
        err(calibrated_est.cost_usd, stats.total_cost_usd)
    );
    println!(
        "{:<26} {:>11.1}% {:>11.1}%",
        "runtime estimate error",
        err(default_est.time_secs, stats.total_time_secs),
        err(calibrated_est.time_secs, stats.total_time_secs)
    );
    println!("sentinel overhead: ${sentinel_cost:.4}");
    println!("\nexpected shape: calibrated errors are smaller than default errors.");
}

/// E11 — response-cache ablation: what re-runs and sentinel+execution cost
/// with and without the exact-match cache.
fn e11_cache_ablation() {
    banner("E11", "response-cache ablation");
    println!(
        "{:<44} {:>12} {:>12}",
        "configuration", "run1 ($)", "run2 ($)"
    );
    for cached in [false, true] {
        let (mut_ctx, _) = demo_context();
        let ctx = if cached {
            mut_ctx.with_cache()
        } else {
            mut_ctx
        };
        let plan = demo_plan();
        execute(&ctx, &plan, &Policy::MaxQuality, cfg_seq()).expect("first run");
        let run1 = ctx.ledger.total_cost_usd();
        execute(&ctx, &plan, &Policy::MaxQuality, cfg_seq()).expect("second run");
        let run2 = ctx.ledger.total_cost_usd() - run1;
        println!(
            "{:<44} {:>12.4} {:>12.4}",
            if cached {
                "with exact-match cache"
            } else {
                "no cache"
            },
            run1,
            run2
        );
        if let Some(cache) = &ctx.cache {
            let stats = cache.stats();
            println!(
                "    cache: {} hits / {} misses ({:.0}% hit rate on re-run)",
                stats.completion_hits,
                stats.completion_misses,
                stats.completion_hit_rate() * 100.0
            );
        }
    }
    println!("\nexpected shape: the cached re-run is free; the uncached one pays full price.");
}

/// E12 — filter-strategy ablation: one logical filter, every physical
/// strategy, measured against ground truth on a 60-paper corpus.
fn e12_filter_strategy_ablation() {
    banner("E12", "filter physical-strategy ablation (60 papers)");
    use pz_llm::protocol::Effort;
    let strategies: Vec<(&str, PhysicalOp)> = vec![
        (
            "llama-3-8b (weak, std)",
            PhysicalOp::LlmFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                model: "llama-3-8b".into(),
                effort: Effort::Standard,
            },
        ),
        (
            "gpt-4o (champion, std)",
            PhysicalOp::LlmFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
        ),
        (
            "gpt-4o (champion, high)",
            PhysicalOp::LlmFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Effort::High,
            },
        ),
        (
            "ensemble top-3 (vote)",
            PhysicalOp::EnsembleFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                models: vec!["gpt-4o".into(), "llama-3-70b".into(), "gpt-4o-mini".into()],
                effort: Effort::Standard,
            },
        ),
        (
            "embedding similarity",
            PhysicalOp::EmbeddingFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                model: "text-embedding-3-small".into(),
                threshold: 0.30,
            },
        ),
    ];
    println!(
        "{:<26} {:>9} {:>9} {:>6} {:>6} {:>6}",
        "strategy", "cost($)", "time(s)", "prec", "rec", "F1"
    );
    for (name, op) in strategies {
        let (ctx, truth) = science_context(60, 41);
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: DEMO_DATASET.into(),
                },
                op,
            ],
        };
        let (records, stats) = pz_core::exec::execute_plan(&ctx, &plan, cfg_seq()).expect("runs");
        // Score kept-vs-truth per paper id.
        let kept: std::collections::BTreeSet<String> = records
            .iter()
            .filter_map(|r| r.get("filename").map(|v| v.as_display()))
            .collect();
        let mut tp = 0usize;
        let mut expected = 0usize;
        for (i, p) in truth.papers.iter().enumerate() {
            let fname = format!("paper-{i:04}.pdf");
            if p.relevant {
                expected += 1;
                if kept.contains(&fname) {
                    tp += 1;
                }
            }
        }
        let m = pz_datagen::truth::PrF1::from_counts(tp, kept.len(), expected);
        println!(
            "{:<26} {:>9.4} {:>9.1} {:>6.2} {:>6.2} {:>6.2}",
            name, stats.total_cost_usd, stats.total_time_secs, m.precision, m.recall, m.f1
        );
    }
    println!("\nexpected shape: the weak model clearly trails; high effort doubles the");
    println!("champion's cost for a small error-rate reduction (often invisible on a");
    println!("60-paper draw); the ensemble pays ~2.4x the champion for a comparable");
    println!("error rate (errors correlate across models). The embedding heuristic is");
    println!("~100x cheaper and performs well here because this corpus is lexically");
    println!("separable — exactly what sentinel calibration (E9) discovers, letting the");
    println!("optimizer route such filters to the cheap strategy with confidence.");
}

/// E13 — convert-strategy ablation: "bonded" (all fields in one prompt)
/// vs "conventional" field-wise extraction, the design choice the
/// Palimpzest paper's optimizer weighs.
fn e13_convert_strategy_ablation() {
    banner("E13", "convert strategy ablation: bonded vs field-wise");
    use pz_llm::protocol::Effort;
    println!(
        "{:<34} {:>9} {:>9} {:>6} {:>6} {:>6}",
        "strategy", "cost($)", "time(s)", "prec", "rec", "F1"
    );
    for (name, fieldwise) in [
        ("bonded (one prompt, all fields)", false),
        ("field-wise (one prompt per field)", true),
    ] {
        let (ctx, truth) = demo_context();
        let convert = if fieldwise {
            PhysicalOp::FieldwiseConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract datasets".into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            }
        } else {
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract datasets".into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            }
        };
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: DEMO_DATASET.into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                convert,
            ],
        };
        let (records, stats) = pz_core::exec::execute_plan(&ctx, &plan, cfg_seq()).expect("runs");
        let m = score_extractions(&records, &truth);
        println!(
            "{:<34} {:>9.4} {:>9.1} {:>6.2} {:>6.2} {:>6.2}",
            name, stats.total_cost_usd, stats.total_time_secs, m.precision, m.recall, m.f1
        );
    }
    println!("\nexpected shape: bonded extracts all fields for one input-token payment;");
    println!("field-wise pays the document once per field (~3x here) and loses alignment");
    println!("on one-to-many outputs — the finding that makes bonded Palimpzest's default.");
}

/// E15 — resilience: a scripted full outage of the headline model must be
/// absorbed by circuit breakers + mid-plan failover in both executors,
/// and an empty fault plan must leave no trace of either.
fn e15_resilience() {
    banner(
        "E15",
        "provider outage -> circuit breaker -> mid-plan failover",
    );
    println!(
        "{:<16} {:<14} {:>8} {:>9} {:>9} {:>9} {:>6} {:>6}",
        "scenario", "mode", "records", "cost($)", "time(s)", "f1", "swaps", "trips"
    );
    let mut last_degraded = Vec::new();
    for (mode_name, config) in [
        ("materializing", ExecutionConfig::sequential()),
        ("streaming", ExecutionConfig::streaming()),
    ] {
        for (scenario, plan) in [
            ("healthy", pz_llm::FaultPlan::none()),
            (
                "gpt-4o outage",
                pz_llm::FaultPlan::none().outage("gpt-4o", 0.0, 1e9),
            ),
        ] {
            let (ctx, truth) = demo_context();
            ctx.faults.set(plan);
            let outcome = execute(&ctx, &demo_plan(), &Policy::MaxQuality, config)
                .expect("pipeline survives the outage via failover");
            let score = score_extractions(&outcome.records, &truth);
            println!(
                "{:<16} {:<14} {:>8} {:>9.3} {:>9.1} {:>9.2} {:>6} {:>6}",
                scenario,
                mode_name,
                outcome.records.len(),
                outcome.stats.total_cost_usd,
                outcome.stats.total_time_secs,
                score.f1,
                outcome.stats.degraded.len(),
                ctx.tracer.counter("llm.breaker_opened"),
            );
            if scenario != "healthy" && !outcome.stats.degraded.is_empty() {
                last_degraded = outcome.stats.degraded.clone();
            }
        }
    }
    println!("\nfailover decisions (last outage run):");
    for d in &last_degraded {
        println!(
            "  op[{}] {}: {} -> {} ({}, {} record(s), est. quality {:+.2})",
            d.operator_index,
            d.operator,
            d.from_model,
            d.to_model,
            d.reason,
            d.records_affected,
            d.est_quality_delta
        );
    }
    println!("\nexpected shape: outage runs finish with the same record multiset on the");
    println!("substitute model at slightly lower quality; healthy runs show zero swaps");
    println!("and zero trips.");
}

/// Field-content multiset key for cross-mode output comparison (record ids
/// are allocator-dependent, so they are excluded via `to_json`).
fn record_multiset(records: &[pz_core::record::DataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(&r.to_json()).expect("record serializes"))
        .collect();
    keys.sort();
    keys
}

/// Streaming config for the parallelism experiments: batch size 1 so every
/// record is its own unit of overlap (`effective_workers =
/// min(parallelism, records)` instead of `min(parallelism, ceil(records /
/// 4))`).
fn streaming_cfg(parallelism: usize) -> ExecutionConfig {
    ExecutionConfig::streaming_with(1).with_parallelism(parallelism.max(1))
}

/// E16 — modelled intra-stage parallelism: parallelism sweep over the §3
/// demo plan (Scan → LLMFilter → LLMConvert) under the streaming
/// executor. Output multiset and ledger cost must be bit-identical at
/// every level — parallelism changes how much of a stage's calls overlap
/// on the virtual clock, never what is called — and attributed time must
/// drop at least 2x by parallelism 8.
fn e16_parallelism() {
    banner("E16", "streaming intra-stage parallelism (modelled): sweep");
    println!(
        "{:<12} {:>8} {:>9} {:>9} {:>9} {:>7}",
        "parallelism", "records", "cost($)", "time(s)", "speedup", "calls"
    );
    let mut baseline: Option<(Vec<String>, f64, f64)> = None;
    for p in [1usize, 2, 4, 8] {
        let (ctx, _truth) = demo_context();
        let outcome = execute(&ctx, &demo_plan(), &Policy::MaxQuality, streaming_cfg(p))
            .expect("parallelism sweep runs");
        let keys = record_multiset(&outcome.records);
        let cost = ctx.ledger.total_cost_usd();
        let time = outcome.stats.total_time_secs;
        let speedup = match &baseline {
            None => {
                baseline = Some((keys.clone(), cost, time));
                1.0
            }
            Some((base_keys, base_cost, base_time)) => {
                assert_eq!(
                    &keys, base_keys,
                    "parallelism {p} changed the output multiset"
                );
                assert!(
                    (cost - base_cost).abs() < 1e-9,
                    "parallelism {p} changed ledger cost: {base_cost} -> {cost}"
                );
                base_time / time
            }
        };
        println!(
            "{:<12} {:>8} {:>9.3} {:>9.1} {:>8.2}x {:>7}",
            p,
            outcome.records.len(),
            cost,
            time,
            speedup,
            outcome.stats.total_llm_calls
        );
        if p == 8 {
            assert!(
                speedup >= 2.0,
                "parallelism 8 must give >= 2x virtual-clock speedup, got {speedup:.2}x"
            );
        }
    }
    println!("\nexpected shape: identical records and dollars at every level; time");
    println!("divides by min(workers, records-per-stage) clamped by each model's");
    println!("published rate limit (gpt-4o caps at 8 concurrent requests).");
}

/// E17 — pipeline profiler on the E16 demo plan: per-stage attribution
/// (compute / queue-wait / provider-wait / backpressure / retry), critical
/// path, bottleneck agreement with the `finalize_pipelined` fill model,
/// and estimate-vs-observed drift against the optimizer's predictions.
/// Optional paths export the profiled trace as a Chrome trace-event file,
/// Prometheus text exposition, and drift-report text (the CI artifacts).
fn e17_profiling(chrome_out: Option<&str>, prom_out: Option<&str>, drift_out: Option<&str>) {
    banner(
        "E17",
        "pipeline profiler: attribution, critical path, drift",
    );
    let (ctx, _truth) = demo_context();
    ctx.tracer.set_profiling(true);
    scripted_faults(&ctx);
    let outcome =
        execute(&ctx, &demo_plan(), &Policy::MaxQuality, streaming_cfg(8)).expect("profiled run");
    let snap = ctx.tracer.snapshot();
    let profile = pz_obs::profile_plan(&snap).expect("plan profile from the trace");
    print!("{}", profile.render());

    // Attribution buckets must account for each stage's whole window.
    for s in &profile.stages {
        let sum = s.buckets.total_us();
        let tolerance = (s.window_us as f64 * 0.01).max(1.0);
        assert!(
            (sum as f64 - s.window_us as f64).abs() <= tolerance,
            "stage {} buckets sum to {}us but its window is {}us",
            s.index,
            sum,
            s.window_us
        );
    }
    println!("attribution: every stage's buckets sum to its window (<= 1% tolerance)");

    // The trace-derived bottleneck must be the same stage the executor's
    // fill model picks.
    let startups: Vec<f64> = profile.stages.iter().map(|s| s.startup_secs).collect();
    let stats_bottleneck = outcome.stats.pipelined_bottleneck(&startups);
    assert_eq!(
        profile.bottleneck(),
        stats_bottleneck,
        "profiler bottleneck disagrees with finalize_pipelined"
    );
    println!(
        "bottleneck agreement: profiler and finalize_pipelined both pick stage {}",
        stats_bottleneck.map_or("-".to_string(), |i| i.to_string())
    );

    // Drift: the optimizer's per-stage predictions vs what actually ran.
    let drift = outcome
        .drift_report()
        .expect("drift report for the chosen plan");
    let llm_stages: Vec<&StageDrift> = drift.stages.iter().filter(|s| s.is_llm()).collect();
    assert!(
        !llm_stages.is_empty(),
        "the demo plan has LLM stages; drift must cover them"
    );
    for s in &llm_stages {
        assert!(
            s.obs_llm_calls > 0.0,
            "LLM stage {} recorded no observed calls",
            s.index
        );
    }
    print!("{}", drift.render_table());
    println!(
        "drift coverage: {} of {} stages touched a model; all have drift rows",
        llm_stages.len(),
        drift.stages.len()
    );

    if let Some(path) = chrome_out {
        std::fs::write(path, pz_obs::to_chrome_trace(&snap)).expect("write chrome trace");
        println!("chrome trace -> {path}");
    }
    if let Some(path) = prom_out {
        std::fs::write(path, pz_obs::to_prometheus(&snap)).expect("write prometheus text");
        println!("prometheus text -> {path}");
    }
    if let Some(path) = drift_out {
        std::fs::write(path, drift.render_table()).expect("write drift report");
        println!("drift report -> {path}");
    }
    println!("\nexpected shape: the LLM convert stage dominates its window with provider");
    println!("wait; upstream stages show backpressure against it; the critical path runs");
    println!("through the bottleneck stage; observed time/cost sit near the estimates");
    println!("(the simulator is the cost model's own ground truth).");
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

/// One brownout run for E18: the demo plan with the filter pinned on
/// gpt-4o (browning out: 25 s stalls on ~35% of calls — under the
/// breaker's trip rate) and the convert on healthy llama-3-70b. The
/// static run's context offers no substitute for gpt-4o, so it pays every
/// stall. Returns (virtual time, ledger cost, output multiset, replan
/// reports).
fn e18_brownout_run(adaptive: bool) -> (f64, f64, Vec<String>, Vec<AdaptiveReport>) {
    use pz_llm::protocol::Effort;
    let (ctx, _truth) = demo_context();
    let ctx = if adaptive {
        ctx
    } else {
        offering_no_substitute(ctx, "gpt-4o")
    };
    ctx.faults.set(
        pz_llm::FaultPlan::parse("gpt-4o:timeout@0..1e9:p=0.35:stall=25", 11).expect("fault spec"),
    );
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: DEMO_DATASET.into(),
            },
            PhysicalOp::LlmFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract datasets".into(),
                model: "llama-3-70b".into(),
                effort: Effort::Standard,
            },
        ],
    };
    let (records, stats) = pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::streaming())
        .expect("brownout run");
    (
        ctx.clock.now_secs(),
        ctx.ledger.total_cost_usd(),
        record_multiset(&records),
        stats.adaptive,
    )
}

/// E18 — runtime model substitution under a brownout: with no substitute
/// on offer the plan keeps paying 25-second stalls on the degraded
/// champion; otherwise the executor sees the filter's stall ratio cross
/// its threshold and sticky-swaps it onto a healthy model mid-stream. Same
/// output multiset, near-healthy runtime.
fn e18_adaptive() {
    banner("E18", "adaptive replanning under a model brownout");
    let (healthy_time, healthy_cost, _, _) = {
        use pz_llm::protocol::Effort;
        let (ctx, _truth) = demo_context();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: DEMO_DATASET.into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::LlmConvert {
                    target: clinical_schema(),
                    cardinality: Cardinality::OneToMany,
                    description: "extract datasets".into(),
                    model: "llama-3-70b".into(),
                    effort: Effort::Standard,
                },
            ],
        };
        let (records, _) =
            pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::streaming()).expect("runs");
        (
            ctx.clock.now_secs(),
            ctx.ledger.total_cost_usd(),
            record_multiset(&records),
            Vec::<AdaptiveReport>::new(),
        )
    };
    let (static_time, static_cost, static_keys, _) = e18_brownout_run(false);
    let (adaptive_time, adaptive_cost, adaptive_keys, reports) = e18_brownout_run(true);
    println!(
        "{:<22} {:>9} {:>9} {:>8} {:>8}",
        "configuration", "time(s)", "cost($)", "records", "replans"
    );
    for (name, time, cost, n, replans) in [
        (
            "healthy baseline",
            healthy_time,
            healthy_cost,
            static_keys.len(),
            0,
        ),
        (
            "brownout, static",
            static_time,
            static_cost,
            static_keys.len(),
            0,
        ),
        (
            "brownout, adaptive",
            adaptive_time,
            adaptive_cost,
            adaptive_keys.len(),
            reports.len(),
        ),
    ] {
        println!(
            "{:<22} {:>9.1} {:>9.3} {:>8} {:>8}",
            name, time, cost, n, replans
        );
    }
    assert_eq!(
        static_keys, adaptive_keys,
        "adaptive run changed the output multiset"
    );
    assert!(
        adaptive_time < static_time,
        "adaptive ({adaptive_time:.1}s) not faster than static ({static_time:.1}s)"
    );
    println!("\nreplan decisions:");
    for r in &reports {
        println!(
            "  op[{}] {}: {} -> {} ({}: {:.2} >= {:.2}, {} record(s) remaining, t={:.1}s)",
            r.operator_index,
            r.operator,
            r.from_model,
            r.to_model,
            r.trigger,
            r.observed_ratio,
            r.threshold,
            r.records_remaining,
            r.at_secs
        );
    }
    println!(
        "\nspeedup vs static brownout: {:.2}x; overhead vs healthy: {:.2}x",
        static_time / adaptive_time,
        adaptive_time / healthy_time
    );
    println!("expected shape: identical output multiset; the static run pays every stall");
    println!("while the breaker never trips (35% < its 75% trip rate); the adaptive run");
    println!("swaps the browning-out filter after a few records and lands near the");
    println!("healthy frontier at equal output.");
}

/// Shared E19 measurement, used by the experiment printout and the
/// bench-json gate. A 40-paper corpus runs cold through the demo-shaped
/// plan with the memo armed, one document is appended, and the re-run is
/// compared against a from-scratch run over the 41-paper corpus.
struct E19Numbers {
    cold_time: f64,
    cold_calls: usize,
    rerun_time: f64,
    rerun_calls: usize,
    scratch_time: f64,
    scratch_calls: usize,
    memo_hits: usize,
    keys_match: bool,
    prefix_free: bool,
}

fn e19_measure() -> E19Numbers {
    use pz_llm::protocol::Effort;
    let (docs, _) = pz_datagen::science::generate(pz_datagen::science::ScienceConfig {
        n_papers: 40,
        ..Default::default()
    });
    let mut items: Vec<(String, String)> =
        docs.into_iter().map(|d| (d.filename, d.content)).collect();
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "sci-inc".into(),
            },
            PhysicalOp::LlmFilter {
                predicate: pz_datagen::science::FILTER_PREDICATE.into(),
                model: "gpt-4o".into(),
                effort: Effort::Standard,
            },
            PhysicalOp::LlmConvert {
                target: clinical_schema(),
                cardinality: Cardinality::OneToMany,
                description: "extract datasets".into(),
                model: "llama-3-70b".into(),
                effort: Effort::Standard,
            },
        ],
    };
    let config = cfg_seq().with_incremental();

    let ctx = PzContext::simulated().with_incremental();
    scripted_faults(&ctx);
    let src = std::sync::Arc::new(VersionedSource::new(
        "sci-inc",
        Schema::pdf_file(),
        items.clone(),
    ));
    ctx.registry.register(src.clone());
    let (_, _) = pz_core::exec::execute_plan(&ctx, &plan, config).expect("cold run");
    let cold_time = ctx.clock.now_secs();
    let cold_calls = ctx.ledger.total_requests();

    // One appended paper, from the shared seeded edit-script generator.
    for op in &pz_datagen::edits::append_script(7, 1, 1).batches[0] {
        if let pz_datagen::edits::EditOp::Append(d) = op {
            src.append(&d.filename, &d.content);
            items.push((d.filename.clone(), d.content.clone()));
        }
    }
    ctx.reset_accounting();
    let (rec_i, stats_i) = pz_core::exec::execute_plan(&ctx, &plan, config).expect("append re-run");
    let rerun_time = ctx.clock.now_secs();
    let rerun_calls = ctx.ledger.total_requests();

    let scratch = PzContext::simulated();
    scripted_faults(&scratch);
    scratch
        .registry
        .register(std::sync::Arc::new(MemorySource::new(
            "sci-inc",
            Schema::pdf_file(),
            items,
        )));
    let (rec_f, _) =
        pz_core::exec::execute_plan(&scratch, &plan, cfg_seq()).expect("from-scratch run");
    E19Numbers {
        cold_time,
        cold_calls,
        rerun_time,
        rerun_calls,
        scratch_time: scratch.clock.now_secs(),
        scratch_calls: scratch.ledger.total_requests(),
        memo_hits: stats_i.memo_hits,
        keys_match: record_multiset(&rec_i) == record_multiset(&rec_f),
        prefix_free: cold_calls + rerun_calls == scratch.ledger.total_requests(),
    }
}

/// E19 — incremental append latency: after one document lands in a
/// 40-paper corpus, the delta-driven re-run bills O(1) LLM calls (the new
/// record through filter + convert) and finishes orders of magnitude
/// faster than re-running the pipeline from scratch.
fn e19_incremental() {
    banner(
        "E19",
        "incremental append latency: delta re-run vs from-scratch",
    );
    let n = e19_measure();
    println!(
        "{:<28} {:>10} {:>10} {:>10}",
        "configuration", "time(s)", "llm calls", "replays"
    );
    for (name, time, calls, hits) in [
        ("cold run (40 papers)", n.cold_time, n.cold_calls, 0usize),
        (
            "append re-run (+1 paper)",
            n.rerun_time,
            n.rerun_calls,
            n.memo_hits,
        ),
        (
            "from-scratch (41 papers)",
            n.scratch_time,
            n.scratch_calls,
            0,
        ),
    ] {
        println!("{name:<28} {time:>10.1} {calls:>10} {hits:>10}");
    }
    // The strict invariants (identical output multiset, exact prefix
    // arithmetic: cold + delta == scratch calls) only hold fault-free.
    // Scripted faults re-draw per request: retries bill a different number
    // of attempts in each run, and an exhausted retry budget fails the call
    // over to a backup model whose answer may differ — so the incremental
    // re-run and the independently-faulted scratch run legitimately
    // diverge. (Fixed-seed fault equivalence is pinned down by the
    // integration suite's brownout test.) Under a fault plan the invariant
    // that survives is the weaker one: verdicts replayed and the delta
    // stayed cheaper than the cold run.
    if FAULT_PLAN.get().is_some() {
        assert!(n.memo_hits > 0, "faulted re-run replayed no memo entries");
        assert!(
            n.rerun_calls < n.cold_calls,
            "faulted re-run ({} calls) not cheaper than cold ({} calls)",
            n.rerun_calls,
            n.cold_calls
        );
        println!("\n(fault plan armed: strict equivalence waived; faults re-draw per run)");
    } else {
        assert!(
            n.keys_match,
            "incremental re-run changed the output multiset"
        );
        assert!(
            n.prefix_free,
            "memoized prefix was re-billed: {} cold + {} delta != {} scratch",
            n.cold_calls, n.rerun_calls, n.scratch_calls
        );
    }
    println!(
        "\nappend speedup vs from-scratch: {:.1}x; delta billed {} call(s) for 1 new record",
        n.scratch_time / n.rerun_time.max(1e-9),
        n.rerun_calls
    );
    println!("expected shape: identical output multiset; the re-run bills only the new");
    println!("record through filter + convert, every memoized verdict replays for free.");
}

/// Shared plumbing for E20 and the bench-json serving gate. A corpus per
/// session, content-salted with the dataset name: template corpora can
/// collide byte-for-byte across seeds, and a collision would make
/// shared-cache hit counts depend on session interleaving instead of
/// being deterministic.
fn serve_corpus(ctx: &PzContext, dataset: &str, seed: u64, n_docs: usize) {
    let (docs, _) = pz_datagen::science::generate(pz_datagen::science::ScienceConfig {
        n_papers: n_docs,
        seed,
        ..Default::default()
    });
    let items: Vec<(String, String)> = docs
        .into_iter()
        .map(|d| (d.filename, format!("{}\n[workspace {dataset}]", d.content)))
        .collect();
    ctx.registry.register(std::sync::Arc::new(MemorySource::new(
        dataset,
        Schema::pdf_file(),
        items,
    )));
}

fn serve_session_plan(dataset: &str) -> LogicalPlan {
    Dataset::source(dataset)
        .filter(pz_datagen::science::FILTER_PREDICATE)
        .build()
        .expect("static plan is valid")
}

/// Sim seed for a serving tenant: a stable function of its id so solo and
/// concurrent hosts agree.
fn serve_tenant_seed(id: &str) -> u64 {
    3000 + id.bytes().map(u64::from).sum::<u64>()
}

fn serve_admission(slots: usize, queue: usize) -> pz_serve::ServeConfig {
    pz_serve::ServeConfig {
        admission: pz_serve::AdmissionConfig {
            max_concurrent_runs: slots,
            max_queued: queue,
            expected_run_secs: 30.0,
        },
        shared_cache: true,
    }
}

/// Provision a host with every tenant in `plan` and build the session
/// jobs (no deadlines: E20's parity leg compares solo vs concurrent
/// bills, and deadline hits would be load-dependent on the shared clock).
fn serve_provision(
    host: &mut pz_serve::ServeHost,
    tenants: &[pz_datagen::traffic::TenantTraffic],
) -> Vec<pz_serve::SessionJob> {
    let mut jobs = Vec::new();
    for t in tenants {
        host.add_tenant(
            pz_serve::TenantSpec::new(&t.id)
                .with_weight(t.weight)
                .with_seed(serve_tenant_seed(&t.id)),
        );
        let ctx = host.session_ctx(&t.id).unwrap();
        for s in &t.sessions {
            serve_corpus(&ctx, &s.session, s.corpus_seed, s.n_docs);
            let mut job =
                pz_serve::SessionJob::new(&t.id, &s.session, serve_session_plan(&s.session));
            if !t.interactive {
                job = job.batch();
            }
            jobs.push(job);
        }
    }
    jobs
}

/// Everything the E20 printout and the bench-json serving gate need, from
/// one measurement pass: a 4-tenant concurrent serve vs per-tenant solo
/// baselines (cost-bleed check), then the same traffic through a host
/// with a third of the capacity (overload shedding check).
/// (requests, tokens, cost) billed to one tenant's ledger.
type TenantUsage = (usize, usize, f64);

struct E20Numbers {
    metrics: pz_serve::ServeMetrics,
    scheduler_granted: u64,
    /// Per tenant: (id, concurrent usage, solo-baseline usage).
    bleed: Vec<(String, TenantUsage, TenantUsage)>,
    overload: pz_serve::ServeMetrics,
    /// Failures that were neither success nor a structured shed.
    overload_unstructured: usize,
    /// Every shed carried a reason and a positive retry-after hint.
    overload_sheds_structured: bool,
}

fn e20_measure() -> E20Numbers {
    let traffic = pz_datagen::traffic::generate(pz_datagen::traffic::TrafficConfig {
        tenants: 4,
        sessions_per_tenant: 3,
        interactive_fraction: 0.5,
        docs_per_session: 4,
        interactive_deadline_secs: 600.0,
        seed: 20,
    });
    let n_jobs = traffic.total_sessions();

    // Concurrent serve, capacity roomy enough that nothing sheds.
    let mut host = pz_serve::ServeHost::new(serve_admission(n_jobs, n_jobs));
    let jobs = serve_provision(&mut host, &traffic.tenants);
    let report = host.serve(jobs);

    // Per-tenant solo baselines over identical corpora and seeds.
    let mut bleed = Vec::new();
    for t in &traffic.tenants {
        let mut solo = pz_serve::ServeHost::new(serve_admission(n_jobs, n_jobs));
        let solo_jobs = serve_provision(&mut solo, std::slice::from_ref(t));
        solo.serve(solo_jobs);
        let ledger = |h: &pz_serve::ServeHost| {
            let l = &h.tenant(&t.id).unwrap().ctx.ledger;
            (
                l.total_requests(),
                l.total_usage().total_tokens(),
                l.total_cost_usd(),
            )
        };
        bleed.push((t.id.clone(), ledger(&host), ledger(&solo)));
    }

    // Overload: the same traffic against a third of the capacity — far
    // more simultaneous arrivals than slots + queue, so the host must
    // shed, and every shed must be a structured Overloaded error.
    let mut tight = pz_serve::ServeHost::new(serve_admission(2, 2));
    let tight_jobs = serve_provision(&mut tight, &traffic.tenants);
    let overload_report = tight.serve(tight_jobs);
    let mut unstructured = 0usize;
    let mut sheds_structured = true;
    for o in &overload_report.outcomes {
        match &o.result {
            Ok(_) => {}
            Err(PzError::Overloaded {
                reason,
                retry_after_secs,
            }) => {
                if reason.is_empty() || *retry_after_secs <= 0.0 {
                    sheds_structured = false;
                }
            }
            Err(_) => unstructured += 1,
        }
    }

    E20Numbers {
        metrics: report.metrics,
        scheduler_granted: report.scheduler.granted,
        bleed,
        overload: overload_report.metrics,
        overload_unstructured: unstructured,
        overload_sheds_structured: sheds_structured,
    }
}

/// E20 — multi-tenant serving: 4 tenants (2 interactive, 2 batch) serve
/// 12 concurrent sessions over the shared substrate. Isolation is
/// differential: every tenant's bill under concurrency matches its solo
/// bill. Then the same traffic hits a host with a third of the capacity
/// and must shed with structured errors instead of hanging.
fn e20_serving() {
    banner(
        "E20",
        "multi-tenant serving: fairness, cost isolation, overload shedding",
    );
    let n = e20_measure();
    println!(
        "{:<12} {:>9} {:>6} {:>11} {:>11} {:>10}",
        "tenant", "completed", "shed", "cost($)", "solo($)", "llm calls"
    );
    for tm in &n.metrics.per_tenant {
        let (_, con, solo) = n
            .bleed
            .iter()
            .find(|(id, _, _)| id == &tm.tenant)
            .expect("bleed row per tenant");
        println!(
            "{:<12} {:>9} {:>6} {:>11.4} {:>11.4} {:>10}",
            tm.tenant, tm.sessions_completed, tm.sessions_shed, con.2, solo.2, tm.llm_calls
        );
        assert_eq!(con.0, solo.0, "tenant {} request count shifted", tm.tenant);
        assert_eq!(con.1, solo.1, "tenant {} token count shifted", tm.tenant);
        assert!(
            (con.2 - solo.2).abs() < 1e-9,
            "tenant {} cost bled: {} concurrent vs {} solo",
            tm.tenant,
            con.2,
            solo.2
        );
    }
    println!(
        "\nnormal load: {}/{} completed, p50 {:.1}s p99 {:.1}s, {:.3} sessions/s, \
         Jain fairness {:.3}, {} scheduler grants",
        n.metrics.sessions_completed,
        n.metrics.sessions_submitted,
        n.metrics.p50_latency_secs,
        n.metrics.p99_latency_secs,
        n.metrics.throughput_per_sec,
        n.metrics.fairness_jain,
        n.scheduler_granted,
    );
    println!(
        "overload (1/3 capacity): {}/{} completed, {} shed ({:.0}%), p99 {:.1}s, \
         structured sheds: {}",
        n.overload.sessions_completed,
        n.overload.sessions_submitted,
        n.overload.sessions_shed,
        n.overload.shed_rate * 100.0,
        n.overload.p99_latency_secs,
        n.overload_sheds_structured && n.overload_unstructured == 0,
    );
    assert!(n.overload.sessions_shed > 0, "overloaded host shed nothing");
    println!("\nexpected shape: per-tenant bills identical solo vs concurrent (no cost");
    println!("bleed); under 3x overload the host sheds with structured Overloaded");
    println!("errors (reason + retry-after) while admitted sessions still complete.");
}

/// Peak resident set size of this process in KiB, from Linux's `VmHWM`
/// high-water mark. `0` where /proc is unavailable (the scaling gate then
/// falls back to the deterministic resident-records gauge).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// E21 cell: chunked out-of-core scan + sparse UDF filter over a streamed
/// corpus of `n` documents. Runs in a subprocess (see `scaling-cell` in
/// `main`) so peak RSS is attributable to this cell.
fn scaling_cell(n: usize) -> serde_json::Value {
    let ctx = PzContext::simulated();
    let cfg = pz_datagen::stream::StreamConfig::sized(n, 11);
    ctx.registry
        .register(std::sync::Arc::new(GeneratedSource::new(
            "stream-corpus",
            Schema::text_file(),
            n,
            move |i| {
                let d = pz_datagen::stream::doc_at(&cfg, i);
                (d.filename, d.content)
            },
        )));
    // Keep every 10,000th document, so survivors stay O(1) at every corpus
    // size and resident records measure the chunk, not the output.
    ctx.udfs.register_filter("sparse", |r: &DataRecord| {
        r.get("filename")
            .map(|v| v.as_display().ends_with("0000.txt"))
            .unwrap_or(false)
    });
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "stream-corpus".into(),
            },
            PhysicalOp::UdfFilter {
                udf: "sparse".into(),
            },
        ],
    };
    let t = Instant::now();
    let (records, stats) =
        pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::sequential()).expect("scan cell");
    serde_json::json!({
        "n": n,
        "elapsed_secs": t.elapsed().as_secs_f64(),
        "outputs": records.len(),
        "peak_resident_records": stats.peak_resident_records,
        "peak_rss_kb": peak_rss_kb(),
    })
}

/// Spawn one E21 cell in a subprocess and parse its JSON line. Subprocess
/// isolation gives each cell a fresh address space, so `VmHWM` is the
/// cell's own high-water mark, not the max over every cell run so far.
fn run_scaling_cell(n: usize) -> serde_json::Value {
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .args(["scaling-cell", &n.to_string()])
        .output()
        .expect("spawn scaling cell");
    assert!(
        out.status.success(),
        "scaling cell {n} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .expect("scaling cell emitted no JSON");
    serde_json::from_str(line).expect("parse scaling cell JSON")
}

/// One point of the E21 curve: (n, elapsed secs, peak RSS KiB, peak
/// resident records, outputs).
type ScanCell = (usize, f64, u64, u64, u64);

/// E21's records-vs-time/memory curve, one subprocess per corpus size.
fn e21_measure(sizes: &[usize]) -> Vec<ScanCell> {
    sizes
        .iter()
        .map(|&n| {
            let v = run_scaling_cell(n);
            (
                n,
                v.get("elapsed_secs")
                    .and_then(|x| x.as_f64())
                    .unwrap_or(0.0),
                v.get("peak_rss_kb").and_then(|x| x.as_u64()).unwrap_or(0),
                v.get("peak_resident_records")
                    .and_then(|x| x.as_u64())
                    .unwrap_or(0),
                v.get("outputs").and_then(|x| x.as_u64()).unwrap_or(0),
            )
        })
        .collect()
}

/// The E21 scaling gate, computed once and enforced by both the `e21`
/// experiment (scaling-gate CI job) and `bench-json` (BENCH_5.json).
struct E21Gate {
    scan_memory_growth: f64,
    scan_memory_flat: bool,
    failures: Vec<String>,
}

const SCAN_MEMORY_GROWTH_CEILING: f64 = 1.5;

fn e21_gate(curve: &[ScanCell]) -> E21Gate {
    let (small, big) = (curve[0], curve[curve.len() - 1]);
    // Prefer real RSS; where /proc is unavailable both cells report 0 and
    // we fall back to the executor's deterministic resident-records gauge.
    let scan_memory_growth = if small.2 > 0 && big.2 > 0 {
        big.2 as f64 / small.2 as f64
    } else {
        big.3 as f64 / small.3.max(1) as f64
    };
    let scan_memory_flat = scan_memory_growth <= SCAN_MEMORY_GROWTH_CEILING;
    let mut failures = Vec::new();
    if !scan_memory_flat {
        failures.push(format!(
            "peak scan memory grew {scan_memory_growth:.2}x from {} to {} records \
             (ceiling {SCAN_MEMORY_GROWTH_CEILING}x)",
            small.0, big.0
        ));
    }
    E21Gate {
        scan_memory_growth,
        scan_memory_flat,
        failures,
    }
}

/// The curve as JSON rows, for `--scaling-out` and BENCH_5.json.
fn e21_curve_json(curve: &[ScanCell]) -> Vec<serde_json::Value> {
    curve
        .iter()
        .map(|(n, secs, rss_kb, resident, outputs)| {
            serde_json::json!({
                "records": n,
                "wall_secs": secs,
                "peak_rss_kb": rss_kb,
                "peak_resident_records": resident,
                "outputs": outputs,
            })
        })
        .collect()
}

/// Render the E21 curve + gate verdict as a standalone JSON document
/// (`--scaling-out`; the scaling-gate CI job archives it).
fn e21_json(curve: &[ScanCell], gate: &E21Gate) -> serde_json::Value {
    serde_json::json!({
        "experiment": "E21 scaling curve (chunked scan, 10k/100k/1M)",
        "scan_memory_flat": gate.scan_memory_flat,
        "scan_memory_growth": gate.scan_memory_growth,
        "scan_memory_growth_ceiling": SCAN_MEMORY_GROWTH_CEILING,
        "pass": gate.failures.is_empty(),
        "failures": gate.failures,
        "scan": e21_curve_json(curve),
    })
}

/// E21: the out-of-core data plane at 10k / 100k / 1M records.
fn e21_scaling() {
    banner("E21", "scaling curve: chunked scan memory stays flat");
    let curve = e21_measure(&[10_000, 100_000, 1_000_000]);
    println!("default materializing scan (sparse UDF filter):");
    for (n, secs, rss, resident, outputs) in &curve {
        println!(
            "  n={n:>9}  wall={secs:>7.2}s  peak_rss={:>7.1}MiB  resident_records={resident:>5}  out={outputs}",
            *rss as f64 / 1024.0
        );
    }
    let gate = e21_gate(&curve);
    println!(
        "scan peak-memory growth 10k -> 1M: {:.2}x (ceiling {SCAN_MEMORY_GROWTH_CEILING}x)",
        gate.scan_memory_growth
    );
    if let Some(out) = SCALING_OUT.get() {
        std::fs::write(
            out,
            serde_json::to_string_pretty(&e21_json(&curve, &gate)).expect("render scaling json"),
        )
        .expect("write scaling json");
        println!("wrote {out}");
    }
    if !gate.failures.is_empty() {
        for f in &gate.failures {
            eprintln!("SCALING GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("scaling gate: PASS");
}

/// `repro bench-json [--out PATH]` — the CI perf gate. Re-measures the
/// E1/E14 headline comparison plus the parallelism sweep and writes the
/// numbers as machine-readable JSON. Floors are enforced *here* (nonzero
/// exit) so the workflow needs no JSON parsing: streaming must beat
/// materializing by >= 1.3x on virtual-clock time, and ledger cost must be
/// identical across every mode and parallelism level.
fn bench_json(out: &str) {
    banner("BENCH", "perf gate: E1/E14 times and ledger cost (JSON)");
    const SPEEDUP_FLOOR: f64 = 1.3;
    let mut runs: Vec<(String, usize, f64, f64, usize, Vec<String>)> = Vec::new();
    for (name, parallelism, config) in [
        ("materializing", 1usize, ExecutionConfig::sequential()),
        ("streaming", 1, streaming_cfg(1)),
        ("streaming", 4, streaming_cfg(4)),
        ("streaming", 8, streaming_cfg(8)),
    ] {
        let (ctx, _truth) = demo_context();
        let outcome = execute(&ctx, &demo_plan(), &Policy::MaxQuality, config).expect("bench run");
        runs.push((
            name.to_string(),
            parallelism,
            outcome.stats.total_time_secs,
            ctx.ledger.total_cost_usd(),
            outcome.records.len(),
            record_multiset(&outcome.records),
        ));
        println!(
            "{:<16} p={:<2} time={:>7.1}s cost=${:.3} records={}",
            name,
            parallelism,
            outcome.stats.total_time_secs,
            ctx.ledger.total_cost_usd(),
            outcome.records.len(),
        );
    }
    let mut failures: Vec<String> = Vec::new();
    let (base_cost, base_keys) = (runs[0].3, runs[0].5.clone());
    for (name, p, _, cost, _, keys) in &runs[1..] {
        if (cost - base_cost).abs() > 1e-9 {
            failures.push(format!(
                "ledger cost differs across modes: materializing ${base_cost} vs {name} p={p} ${cost}"
            ));
        }
        if keys != &base_keys {
            failures.push(format!(
                "output multiset differs: materializing vs {name} p={p}"
            ));
        }
    }
    let speedup = runs[0].2 / runs[1].2;
    if speedup < SPEEDUP_FLOOR {
        failures.push(format!(
            "streaming-vs-materializing speedup {speedup:.2}x is below the {SPEEDUP_FLOOR}x floor"
        ));
    }
    // Observability overhead: arming the profiler must stay ~free. Real
    // (wall-clock) time of the same streaming run with the profiler off vs
    // on, min-of-5 to shed scheduler noise.
    const OBS_OVERHEAD_CEILING_PCT: f64 = 5.0;
    let measure = |profiling: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let (ctx, _truth) = demo_context();
            ctx.tracer.set_profiling(profiling);
            let t = Instant::now();
            execute(&ctx, &demo_plan(), &Policy::MaxQuality, streaming_cfg(8))
                .expect("overhead run");
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };
    measure(false); // warm-up
    let off = measure(false);
    let on = measure(true);
    let obs_overhead_pct = ((on - off) / off.max(1e-9) * 100.0).max(0.0);
    println!(
        "profiler overhead: {off:.4}s off / {on:.4}s on -> {obs_overhead_pct:.2}% (ceiling {OBS_OVERHEAD_CEILING_PCT}%)"
    );
    if obs_overhead_pct >= OBS_OVERHEAD_CEILING_PCT {
        failures.push(format!(
            "profiler overhead {obs_overhead_pct:.2}% is at or above the {OBS_OVERHEAD_CEILING_PCT}% ceiling"
        ));
    }
    // Adaptive brownout gate (E18): under the scripted brownout the
    // adaptive run must beat the static one on virtual-clock time while
    // producing the identical output multiset.
    const ADAPTIVE_SPEEDUP_FLOOR: f64 = 1.2;
    let (static_time, _, static_keys, _) = e18_brownout_run(false);
    let (adaptive_time, _, adaptive_keys, replans) = e18_brownout_run(true);
    let adaptive_brownout_speedup = static_time / adaptive_time.max(1e-9);
    println!(
        "adaptive brownout: static {static_time:.1}s / adaptive {adaptive_time:.1}s -> \
         {adaptive_brownout_speedup:.2}x ({} replan(s), floor {ADAPTIVE_SPEEDUP_FLOOR}x)",
        replans.len()
    );
    if static_keys != adaptive_keys {
        failures.push("adaptive brownout run changed the output multiset".to_string());
    }
    if replans.is_empty() {
        failures.push("adaptive brownout run recorded no replan".to_string());
    }
    if adaptive_brownout_speedup < ADAPTIVE_SPEEDUP_FLOOR {
        failures.push(format!(
            "adaptive brownout speedup {adaptive_brownout_speedup:.2}x is below the \
             {ADAPTIVE_SPEEDUP_FLOOR}x floor"
        ));
    }
    // Incremental append gate (E19): after a 1-document append the
    // delta-driven re-run must replay the memoized prefix for free (zero
    // re-billed calls, O(1) calls for the new record) and beat the
    // from-scratch run by >= 10x on virtual-clock time.
    const INCREMENTAL_SPEEDUP_FLOOR: f64 = 10.0;
    let inc = e19_measure();
    let incremental_append_speedup = inc.scratch_time / inc.rerun_time.max(1e-9);
    println!(
        "incremental append: scratch {:.1}s / re-run {:.1}s -> {incremental_append_speedup:.1}x \
         ({} delta call(s), {} replay(s), floor {INCREMENTAL_SPEEDUP_FLOOR}x)",
        inc.scratch_time, inc.rerun_time, inc.rerun_calls, inc.memo_hits
    );
    if !inc.keys_match {
        failures.push("incremental re-run changed the output multiset".to_string());
    }
    if !inc.prefix_free {
        failures.push(format!(
            "incremental re-run re-billed the memoized prefix: {} cold + {} delta != {} scratch",
            inc.cold_calls, inc.rerun_calls, inc.scratch_calls
        ));
    }
    if inc.rerun_calls > 2 {
        failures.push(format!(
            "incremental re-run billed {} calls for a 1-record append (want <= 2)",
            inc.rerun_calls
        ));
    }
    if incremental_append_speedup < INCREMENTAL_SPEEDUP_FLOOR {
        failures.push(format!(
            "incremental append speedup {incremental_append_speedup:.1}x is below the \
             {INCREMENTAL_SPEEDUP_FLOOR}x floor"
        ));
    }
    // Serving gate (E20): under concurrent multi-tenant load, completed
    // sessions split fairly (Jain >= floor), no tenant's bill moves a cent
    // relative to its solo run, and a 3x-overloaded host sheds with
    // structured errors while keeping p99 bounded.
    const SERVE_FAIRNESS_FLOOR: f64 = 0.8;
    const SERVE_P99_CEILING_SECS: f64 = 100_000.0;
    let serve = e20_measure();
    let cost_bleed_max = serve
        .bleed
        .iter()
        .map(|(_, con, solo)| (con.2 - solo.2).abs())
        .fold(0.0f64, f64::max);
    println!(
        "serving: Jain {:.3} (floor {SERVE_FAIRNESS_FLOOR}), max cost bleed ${:.2e}, \
         overload shed {}/{} p99 {:.1}s",
        serve.metrics.fairness_jain,
        cost_bleed_max,
        serve.overload.sessions_shed,
        serve.overload.sessions_submitted,
        serve.overload.p99_latency_secs,
    );
    if serve.metrics.fairness_jain < SERVE_FAIRNESS_FLOOR {
        failures.push(format!(
            "serving fairness (Jain) {:.3} is below the {SERVE_FAIRNESS_FLOOR} floor",
            serve.metrics.fairness_jain
        ));
    }
    for (id, con, solo) in &serve.bleed {
        if con.0 != solo.0 || con.1 != solo.1 {
            failures.push(format!(
                "serving cost bleed: tenant {id} billed {}/{} requests/tokens concurrent \
                 vs {}/{} solo",
                con.0, con.1, solo.0, solo.1
            ));
        }
        if (con.2 - solo.2).abs() > 1e-9 {
            failures.push(format!(
                "serving cost bleed: tenant {id} cost ${} concurrent vs ${} solo",
                con.2, solo.2
            ));
        }
    }
    if serve.overload.sessions_shed == 0 {
        failures.push("overloaded serving host shed no sessions".to_string());
    }
    if serve.overload_unstructured > 0 || !serve.overload_sheds_structured {
        failures.push(format!(
            "overload sheds were not all structured Overloaded errors \
             ({} unstructured failures)",
            serve.overload_unstructured
        ));
    }
    if serve.overload.p99_latency_secs >= SERVE_P99_CEILING_SECS {
        failures.push(format!(
            "overload p99 latency {:.1}s is at or above the {SERVE_P99_CEILING_SECS}s ceiling",
            serve.overload.p99_latency_secs
        ));
    }
    // Scaling gate (E21): the data plane must hold at 1M records. Peak scan
    // memory stays flat as the corpus grows 100x (chunked out-of-core scan).
    // Each cell runs in a subprocess so its VmHWM high-water mark is its own.
    let curve = e21_measure(&[10_000, 100_000, 1_000_000]);
    let gate = e21_gate(&curve);
    println!(
        "scaling: scan peak-memory growth {:.2}x (ceiling {SCAN_MEMORY_GROWTH_CEILING}x)",
        gate.scan_memory_growth
    );
    failures.extend(gate.failures.iter().cloned());
    let doc = serde_json::json!({
        "experiment": "E1/E14 demo plan (Scan -> LLMFilter -> LLMConvert, MaxQuality)",
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_streaming_vs_materializing": speedup,
        "adaptive_brownout_speedup": adaptive_brownout_speedup,
        "adaptive_brownout_speedup_floor": ADAPTIVE_SPEEDUP_FLOOR,
        "adaptive_brownout_replans": replans.len(),
        "incremental_append_speedup": incremental_append_speedup,
        "incremental_append_speedup_floor": INCREMENTAL_SPEEDUP_FLOOR,
        "incremental_rerun_llm_calls": inc.rerun_calls,
        "incremental_memo_replays": inc.memo_hits,
        "obs_overhead_pct": obs_overhead_pct,
        "obs_overhead_ceiling_pct": OBS_OVERHEAD_CEILING_PCT,
        "serve_fairness_jain": serve.metrics.fairness_jain,
        "serve_fairness_floor": SERVE_FAIRNESS_FLOOR,
        "serve_cost_bleed_max_usd": cost_bleed_max,
        "serve_p50_latency_secs": serve.metrics.p50_latency_secs,
        "serve_p99_latency_secs": serve.metrics.p99_latency_secs,
        "serve_throughput_per_sec": serve.metrics.throughput_per_sec,
        "serve_overload_shed_rate": serve.overload.shed_rate,
        "serve_overload_p99_secs": serve.overload.p99_latency_secs,
        "serve_overload_p99_ceiling_secs": SERVE_P99_CEILING_SECS,
        "serve_sheds_structured": serve.overload_sheds_structured && serve.overload_unstructured == 0,
        "scan_memory_flat": gate.scan_memory_flat,
        "scan_memory_growth": gate.scan_memory_growth,
        "scan_memory_growth_ceiling": SCAN_MEMORY_GROWTH_CEILING,
        "scaling_curve": serde_json::json!({ "scan": e21_curve_json(&curve) }),
        "pass": failures.is_empty(),
        "failures": failures,
        "runs": runs.iter().map(|(name, p, time, cost, records, _)| serde_json::json!({
            "mode": name,
            "parallelism": p,
            "virtual_time_secs": time,
            "ledger_cost_usd": cost,
            "records": records,
        })).collect::<Vec<_>>(),
    });
    std::fs::write(
        out,
        serde_json::to_string_pretty(&doc).expect("render json"),
    )
    .expect("write bench json");
    println!("speedup (streaming p=1 vs materializing): {speedup:.2}x (floor {SPEEDUP_FLOOR}x)");
    println!("wrote {out}");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("PERF GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("perf gate: PASS");
}
