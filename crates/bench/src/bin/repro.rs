//! Regenerate the experiments of EXPERIMENTS.md and enforce their gates.
//!
//! ```text
//! cargo run -p bench --bin repro --release            # every experiment
//! cargo run -p bench --bin repro --release -- e1 e3   # a subset
//! cargo run -p bench --bin repro --release -- e1 --trace-out trace.jsonl
//! ```
//!
//! Each experiment prints its tables as Markdown, then one line per gate;
//! the process exits 1 when any gate fails and 2 on a bad command line.
//!
//! - `--parallelism N` sets modelled workers per operator (N ≥ 1).
//! - `--fault-plan <spec>` scripts provider faults (e.g.
//!   `gpt-4o:outage@0..120`) into E1, E17, E19 and the trace export.
//! - `--trace-out <path>` also runs the §3 chat dialogue and writes its
//!   pz-obs trace as JSONL.
//! - `--profile` runs E17, the profiled demo plan; `--chrome-trace-out`,
//!   `--prom-out` and `--drift-out <path>` export that run and imply it.
//! - `--scaling-out <path>` writes E21's curve as JSON.

use bench::experiments::{run_all, scaling_cell, trace_dialogue, Setup, EXPERIMENTS};
use std::process::exit;

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    exit(2)
}

/// Remove `flag` and its value from `args`; `what` names the value in the
/// error when it is missing.
fn take_value(args: &mut Vec<String>, flag: &str, what: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        usage_error(&format!("{flag} requires {what}"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let found = args.iter().position(|a| a == flag);
    found.map(|i| args.remove(i)).is_some()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden: one E21 cell, in a process of its own so its peak RSS is
    // clean; prints one JSON object for the parent.
    if args.first().map(String::as_str) == Some("scaling-cell") {
        let n = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        println!(
            "{}",
            serde_json::to_string(&scaling_cell(n)).expect("cell json")
        );
        return;
    }
    let path = "a path argument";
    let trace_out = take_value(&mut args, "--trace-out", path);
    let mut setup = Setup {
        scaling_out: take_value(&mut args, "--scaling-out", path),
        chrome_out: take_value(&mut args, "--chrome-trace-out", path),
        prom_out: take_value(&mut args, "--prom-out", path),
        drift_out: take_value(&mut args, "--drift-out", path),
        ..Setup::default()
    };
    let profile = take_flag(&mut args, "--profile")
        || setup.chrome_out.is_some()
        || setup.prom_out.is_some()
        || setup.drift_out.is_some();
    if let Some(n) = take_value(&mut args, "--parallelism", "a worker count") {
        setup.parallelism = match n.parse::<usize>() {
            Ok(w) if w >= 1 => w,
            _ => usage_error(&format!(
                "bad --parallelism value {n:?} (want an integer >= 1)"
            )),
        };
        println!("parallelism: {} workers/operator", setup.parallelism);
    }
    let spec = "a spec, e.g. gpt-4o:outage@0..120";
    if let Some(spec) = take_value(&mut args, "--fault-plan", spec) {
        match pz_llm::FaultPlan::parse(&spec, 42) {
            Ok(plan) => {
                println!("fault plan: {}", plan.describe());
                setup.faults = Some(plan);
            }
            Err(e) => usage_error(&format!("bad --fault-plan spec: {e}")),
        }
    }
    // What is left names experiments; none (and no --profile) means all.
    let named = |id: &str| args.iter().any(|a| a.eq_ignore_ascii_case(id));
    let known = |a: &&String| EXPERIMENTS.iter().any(|e| a.eq_ignore_ascii_case(e.id));
    if let Some(unknown) = args.iter().find(|a| !known(a)) {
        usage_error(&format!("unknown experiment or flag {unknown:?}"));
    }
    let all = args.is_empty() && !profile;
    let selected = EXPERIMENTS
        .iter()
        .filter(|e| all || named(e.id) || (profile && e.id == "e17"));
    let failed = run_all(selected, &setup, &mut std::io::stdout().lock()).expect("write stdout");

    if let Some(path) = trace_out {
        let snap = trace_dialogue(&setup);
        std::fs::write(&path, snap.to_jsonl()).expect("write trace");
        println!(
            "\n{} spans, {} events, {} counters -> {path}",
            snap.spans.len(),
            snap.events.len(),
            snap.counters.len()
        );
        print!("{}", pz_obs::render_tree(&snap));
    }
    if !failed.is_empty() {
        eprintln!("gates failed: {}", failed.join(", "));
        exit(1);
    }
}
