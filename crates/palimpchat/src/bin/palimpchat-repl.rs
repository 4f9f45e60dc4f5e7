//! Interactive PalimpChat REPL.
//!
//! ```text
//! $ cargo run -p palimpchat --bin palimpchat-repl
//! you> load the dataset of scientific papers
//! ...
//! ```
//!
//! Type `:trace` to toggle the ReAct trace display, `:spans` to print the
//! session's observability trace tree, `:export <path>` to write the trace
//! as JSONL, `:parallelism <n>` to set intra-operator parallelism (n ≥ 1;
//! modelled: it divides attributed time, never what runs),
//! `:faults <spec>|off` to script provider faults into the simulator (an
//! outage or a brownout moves the afflicted operators onto substitute
//! models mid-run), `:watch <dataset>` to make a dataset editable (the
//! session's response cache then bills a re-run only for the records an
//! edit touched), `:append <dataset> <filename> <content...>` to stream a
//! new record into a watched dataset,
//! `:serve [tenants] [sessions]` to run a seeded multi-tenant serving demo
//! (fair scheduling, per-tenant ledgers, admission control — see pz-serve),
//! `:breaker` to inspect per-model circuit breakers, `:profile on|off` to
//! arm the pipeline profiler (`:profile` alone prints the attribution
//! table for the last profiled run), `:export-chrome <path>` /
//! `:export-prom <path>` to write the trace as a Chrome trace-event file
//! or Prometheus text exposition, `:quit` to exit.

use palimpchat::PalimpChat;
use pz_core::prelude::VersionedSource;
use std::io::{self, BufRead, Write};

fn main() {
    let mut chat = PalimpChat::new();
    let mut show_trace = false;
    let stdin = io::stdin();
    println!(
        "PalimpChat (reproduction) — declarative AI analytics through chat.\n\
         Try: \"load the dataset of scientific papers\", then\n\
         \"I'm interested in papers about colorectal cancer, and for these papers, \
         extract whatever public dataset is used by the study\",\n\
         then \"run the pipeline with maximum quality\".\n\
         (:trace toggles traces, :spans shows the span tree, :export <path> writes JSONL, \
         :parallelism <n> sets intra-operator parallelism, \
         :faults <spec>|off scripts provider faults, \
         :watch <dataset> makes a dataset editable, \
         :append <dataset> <file> <text> streams in a record, \
         :serve [tenants] [sessions] runs a multi-tenant serving demo, \
         :breaker shows model health, \
         :profile [on|off] arms/prints the pipeline profiler, \
         :export-chrome <path> writes a Chrome trace, \
         :export-prom <path> writes Prometheus metrics, :quit exits)\n"
    );
    loop {
        print!("you> ");
        let _ = io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ":quit" | ":q" | "exit" => break,
            ":trace" => {
                show_trace = !show_trace;
                println!("trace display: {}", if show_trace { "on" } else { "off" });
                continue;
            }
            ":spans" => {
                print!("{}", pz_obs::render_tree(&chat.tracer().snapshot()));
                continue;
            }
            ":breaker" | ":breakers" => {
                let snaps = chat.session().lock().ctx.health.snapshot();
                if snaps.is_empty() {
                    println!("no model health recorded yet — run a pipeline first");
                } else {
                    for s in snaps {
                        println!(
                            "{:<26} {:<9} ok={} fail={} trips={} window_failure_rate={:.2}",
                            s.model.to_string(),
                            s.state.name(),
                            s.successes_total,
                            s.failures_total,
                            s.trips,
                            s.window_failure_rate
                        );
                    }
                }
                continue;
            }
            ":faults" => {
                let plan = chat.session().lock().ctx.faults.plan();
                if plan.is_empty() {
                    println!("no fault plan active (try :faults gpt-4o:outage@0..120)");
                } else {
                    println!("fault plan: {}", plan.describe());
                }
                continue;
            }
            ":profile" => {
                match pz_obs::profile_plan(&chat.tracer().snapshot()) {
                    Some(profile) => print!("{}", profile.render()),
                    None => println!(
                        "no profiled plan in the trace — arm with :profile on, then run a pipeline"
                    ),
                }
                continue;
            }
            ":watch" => {
                println!(
                    "usage: :watch <dataset> makes it editable; re-runs bill only the \
                     records an edit touched"
                );
                continue;
            }
            ":profile on" => {
                chat.tracer().set_profiling(true);
                println!("pipeline profiler: on (per-stage gauges recorded on the next run)");
                continue;
            }
            ":profile off" => {
                chat.tracer().set_profiling(false);
                println!("pipeline profiler: off");
                continue;
            }
            ":serve" => {
                serve_demo(4, 2);
                continue;
            }
            _ => {}
        }
        if let Some(rest) = line.strip_prefix(":serve ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            match parts.as_slice() {
                [t] => match t.parse::<usize>() {
                    Ok(t) if t >= 1 => serve_demo(t, 2),
                    _ => println!("usage: :serve [tenants>=1] [sessions>=1]"),
                },
                [t, s] => match (t.parse::<usize>(), s.parse::<usize>()) {
                    (Ok(t), Ok(s)) if t >= 1 && s >= 1 => serve_demo(t, s),
                    _ => println!("usage: :serve [tenants>=1] [sessions>=1]"),
                },
                _ => println!("usage: :serve [tenants>=1] [sessions>=1]"),
            }
            continue;
        }
        if let Some(n) = line.strip_prefix(":parallelism ") {
            match n.trim().parse::<usize>() {
                Ok(1) => {
                    chat.session().lock().exec.parallelism = 1;
                    println!("parallelism: serial (1 worker/operator)");
                }
                Ok(w) if w > 1 => {
                    chat.session().lock().exec.parallelism = w;
                    println!(
                        "parallelism: {w} modelled workers/operator — divides attributed \
                         time only, clamped by each model's rate limit"
                    );
                }
                _ => println!("usage: :parallelism <n>, n >= 1"),
            }
            continue;
        }
        if let Some(ds) = line.strip_prefix(":watch ") {
            let ds = ds.trim().to_string();
            let s = chat.session().lock();
            match s.ctx.registry.get(&ds) {
                Err(e) => println!("cannot watch: {e}"),
                Ok(src) => {
                    // A watched dataset must accept live edits. Re-wrap a
                    // plain source's current records into a VersionedSource
                    // under the same name so `:append` has somewhere to go;
                    // already-versioned sources are kept as-is.
                    if src.as_versioned().is_none() {
                        match src.records(0) {
                            Ok(recs) => {
                                let items = recs
                                    .iter()
                                    .map(|r| {
                                        (
                                            r.get("filename")
                                                .map(|v| v.as_display())
                                                .unwrap_or_default(),
                                            r.get("contents")
                                                .map(|v| v.as_display())
                                                .unwrap_or_default(),
                                        )
                                    })
                                    .collect();
                                s.ctx
                                    .registry
                                    .register(std::sync::Arc::new(VersionedSource::new(
                                        &ds,
                                        src.schema(),
                                        items,
                                    )));
                            }
                            Err(e) => {
                                println!("cannot watch {ds}: {e}");
                                continue;
                            }
                        }
                    }
                    println!(
                        "watching {ds} — editable: re-runs bill only the records an edit \
                         touched (:append {ds} <file> <text> to add one)"
                    );
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix(":append ") {
            let mut parts = rest.trim().splitn(3, char::is_whitespace);
            match (parts.next(), parts.next(), parts.next()) {
                (Some(ds), Some(filename), Some(content)) => {
                    let s = chat.session().lock();
                    match s.ctx.registry.get(ds) {
                        Err(e) => println!("cannot append: {e}"),
                        Ok(src) => match src.as_versioned() {
                            None => println!(
                                "{ds} is not watched — :watch {ds} first to make it editable"
                            ),
                            Some(v) => {
                                let stamp = v.append(filename, content);
                                println!(
                                    "{ds} v{}: {} record(s) — re-run the pipeline; only \
                                     the new record will be billed",
                                    stamp.version, stamp.records
                                );
                            }
                        },
                    }
                }
                _ => println!("usage: :append <dataset> <filename> <content...>"),
            }
            continue;
        }
        if let Some(spec) = line.strip_prefix(":faults ") {
            let spec = spec.trim();
            if spec == "off" || spec == "none" {
                chat.session().lock().ctx.faults.clear();
                println!("fault plan cleared");
            } else {
                // Same default seed as the simulator: brownout draws stay
                // deterministic across REPL sessions.
                match pz_llm::FaultPlan::parse(spec, 42) {
                    Ok(plan) => {
                        println!("fault plan: {}", plan.describe());
                        chat.session().lock().ctx.faults.set(plan);
                    }
                    Err(e) => println!(
                        "bad fault spec: {e}\n(clauses look like \
                         model:outage@10..60, model:brownout@0..30:p=0.5, \
                         model:ratelimit@5..25:retry=15, model:timeout@0..40:stall=30, \
                         model:malformed@0..20 — join with ';')"
                    ),
                }
            }
            continue;
        }
        if let Some(path) = line.strip_prefix(":export-chrome ") {
            let path = path.trim();
            match std::fs::write(path, pz_obs::to_chrome_trace(&chat.tracer().snapshot())) {
                Ok(()) => println!(
                    "Chrome trace exported to {path} (open in chrome://tracing or Perfetto)"
                ),
                Err(e) => println!("export failed: {e}"),
            }
            continue;
        }
        if let Some(path) = line.strip_prefix(":export-prom ") {
            let path = path.trim();
            match std::fs::write(path, pz_obs::to_prometheus(&chat.tracer().snapshot())) {
                Ok(()) => println!("Prometheus metrics exported to {path}"),
                Err(e) => println!("export failed: {e}"),
            }
            continue;
        }
        if let Some(path) = line.strip_prefix(":export ") {
            let path = path.trim();
            match std::fs::write(path, chat.tracer().snapshot().to_jsonl()) {
                Ok(()) => println!("trace exported to {path}"),
                Err(e) => println!("export failed: {e}"),
            }
            continue;
        }
        if line.starts_with(':') {
            println!("unknown command {line:?} — see the banner for the command list");
            continue;
        }
        match chat.handle(line) {
            Ok(resp) => {
                if show_trace {
                    println!("{}", resp.trace.render());
                }
                println!("palimpchat> {}\n", resp.reply);
            }
            Err(e) => println!("palimpchat> error: {e}\n"),
        }
    }
    println!("bye.");
}

/// `:serve [tenants] [sessions]` — a self-contained multi-tenant serving
/// demo on a fresh `pz-serve` host: seeded traffic (half interactive chat
/// tenants at weight 4, half batch at weight 1), every session a private
/// corpus and pipeline, all submitted at one instant through admission
/// control, then run one at a time in weighted-fair order across tenants.
/// Prints per-tenant completions, bills, and the aggregate
/// fairness/latency numbers, the same on every run.
fn serve_demo(tenants: usize, sessions: usize) {
    use pz_core::prelude::{Dataset, MemorySource, Schema};
    use pz_serve::{AdmissionConfig, ServeConfig, ServeHost, SessionJob, TenantSpec};

    let traffic = pz_datagen::traffic::generate(pz_datagen::traffic::TrafficConfig {
        tenants,
        sessions_per_tenant: sessions,
        docs_per_session: 3,
        ..Default::default()
    });
    let n_jobs = traffic.total_sessions();
    let mut host = ServeHost::new(ServeConfig {
        admission: AdmissionConfig {
            max_concurrent_runs: n_jobs.max(1),
            max_queued: n_jobs.max(1),
            expected_run_secs: 30.0,
        },
        shared_cache: true,
    });
    let mut jobs = Vec::new();
    for t in &traffic.tenants {
        host.add_tenant(
            TenantSpec::new(&t.id)
                .with_weight(t.weight)
                .with_seed(3000 + t.id.bytes().map(u64::from).sum::<u64>()),
        );
        let ctx = host.session_ctx(&t.id).expect("tenant just provisioned");
        for s in &t.sessions {
            let (docs, _) = pz_datagen::science::generate(pz_datagen::science::ScienceConfig {
                n_papers: s.n_docs,
                seed: s.corpus_seed,
                ..Default::default()
            });
            // Salt content per session so the shared cache never dedups
            // across sessions and bills stay deterministic.
            let items: Vec<(String, String)> = docs
                .into_iter()
                .map(|d| {
                    (
                        d.filename,
                        format!("{}\n[workspace {}]", d.content, s.session),
                    )
                })
                .collect();
            ctx.registry.register(std::sync::Arc::new(MemorySource::new(
                &s.session,
                Schema::pdf_file(),
                items,
            )));
            let plan = Dataset::source(&s.session)
                .filter(pz_datagen::science::FILTER_PREDICATE)
                .build()
                .expect("static plan is valid");
            let mut job = SessionJob::new(&t.id, &s.session, plan);
            if !t.interactive {
                job = job.batch();
            }
            jobs.push(job);
        }
    }
    println!(
        "serving {n_jobs} session(s) across {tenants} tenant(s) \
         ({} interactive, {} batch)...",
        traffic.tenants.iter().filter(|t| t.interactive).count(),
        traffic.tenants.iter().filter(|t| !t.interactive).count(),
    );
    let report = host.serve(jobs);
    println!(
        "{:<12} {:>6} {:>9} {:>6} {:>11} {:>10}",
        "tenant", "weight", "completed", "shed", "cost($)", "llm calls"
    );
    for tm in &report.metrics.per_tenant {
        let weight = traffic
            .tenants
            .iter()
            .find(|t| t.id == tm.tenant)
            .map(|t| t.weight)
            .unwrap_or(1.0);
        println!(
            "{:<12} {:>6.1} {:>9} {:>6} {:>11.4} {:>10}",
            tm.tenant, weight, tm.sessions_completed, tm.sessions_shed, tm.cost_usd, tm.llm_calls
        );
    }
    println!(
        "{}/{} completed, {} shed — p50 {:.1}s p99 {:.1}s (virtual), \
         {:.3} sessions/s, Jain fairness {:.3}, {} scheduler grant(s)",
        report.metrics.sessions_completed,
        report.metrics.sessions_submitted,
        report.metrics.sessions_shed,
        report.metrics.p50_latency_secs,
        report.metrics.p99_latency_secs,
        report.metrics.throughput_per_sec,
        report.metrics.fairness_jain,
        report.scheduler.granted,
    );
}
