//! `pzbench` — the repo's wall-clock benchmark.
//!
//! ```text
//! pzbench run [--seed N] [--seconds S] [--repeat R] [--traced] [--quick]
//!     every workload, each in a subprocess of its own (clean peak RSS), R
//!     times over; writes results/<commit>-<seed>-<n>.json (out/… with
//!     --quick)
//! pzbench run --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one workload in this process; the last line of output is the JSON
//!     object the driver reads (BENCHMARK.json describes it)
//! pzbench compare A.json B.json
//! ```
//!
//! The simulator never sleeps — it advances a virtual clock — so wall time
//! here *is* engine time. `repro bench-json` / `BENCH_5.json` stay what
//! they are: virtual-clock checks of the latency model.

mod adapter;
mod harness;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::Workload;
use report::{Measured, ResultFile, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const DETAIL: &str = "#detail ";
const USAGE: &str = "usage: pzbench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--repeat R] [--traced] [--quick] | pzbench compare A.json B.json";

/// Where `out/` and `results/` live: beside this package's manifest.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `--trace 1`: this worker does the traced run.
    trace: bool,
    /// `--traced`: the orchestrator adds a traced run per workload.
    traced: bool,
    /// `--repeat N`: the orchestrator runs each workload N times and
    /// reports medians over the runs.
    repeat: usize,
    quick: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 11,
        seconds: 8.0,
        trace: false,
        traced: false,
        repeat: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => out.traced = true,
            "--repeat" => {
                out.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=50).contains(&out.repeat) {
                    return Err("--repeat must be in 1..=50".into());
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.quick {
        // All six workloads, both passes, in well under 15 s.
        out.seconds = out.seconds.min(0.3);
    }
    Ok(out)
}

/// One workload in this process.
fn worker<W: Workload>(args: &RunArgs) -> WorkloadResult {
    if !args.trace {
        return harness::run_end_to_end::<W>(args.seed, args.seconds, args.quick);
    }
    let (mut result, spans) = harness::run_traced::<W>(args.seed, args.seconds, args.quick);
    // Cells and the workload's own counts never share a name (see
    // `report::LAYERS`).
    for (name, value) in layers::measure(args.seed, args.quick) {
        result
            .layers
            .insert(name.to_string(), Measured::new(name, value, 0.0));
    }
    let dir = package_dir().join("out");
    let file = dir.join(format!("trace-{}.json", W::NAME));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, trace::to_chrome_json(W::NAME, &spans)))
    {
        Ok(()) => println!("wrote {} ({} spans)", file.display(), spans.len()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
    result
}

fn run_worker(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    use workloads::*;
    let result = match name {
        "extract" => worker::<extract::Extract>(args),
        "relational" => worker::<relational::Relational>(args),
        "retrieve" => worker::<retrieve::Retrieve>(args),
        "rerun" => worker::<rerun::Rerun>(args),
        "chat" => worker::<chat::Chat>(args),
        "serve" => worker::<serve::Serve>(args),
        other => {
            return Err(format!(
                "unknown workload {other}; one of {:?}",
                report::WORKLOADS
            ))
        }
    };
    report::print_workload(name, &result);
    if args.quick {
        println!("   (--quick: ~1/50 sizes, numbers are not comparable)");
    }
    println!(
        "{DETAIL}{}",
        serde_json::to_string(&result).expect("results serialize")
    );
    println!("{}", report::driver_line(&result, args.trace));
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one workload in a subprocess of this binary and read its detail line.
fn spawn_worker(name: &str, args: &RunArgs, trace: bool) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL))
        .ok_or_else(|| {
            format!(
                "{name} printed no result (exit {:?}):\n{stdout}{}",
                output.status.code(),
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    serde_json::from_str(detail).map_err(|e| format!("{name}: bad detail line: {e}"))
}

fn short_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(package_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "nogit".into())
}

/// Lines of Rust under `../crates`.
fn workspace_loc() -> u64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .map(|p| {
                if p.is_dir() {
                    walk(&p)
                } else if p.extension().is_some_and(|x| x == "rs") {
                    std::fs::read_to_string(&p).map_or(0, |s| s.lines().count() as u64)
                } else {
                    0
                }
            })
            .sum()
    }
    walk(&package_dir().join("../crates"))
}

/// First `results/<commit>-<seed>-<n>.json` that does not exist yet. Quick
/// runs compare with nothing, so they go to `out/` and stay out of the
/// trajectory.
fn fresh_result_path(commit: &str, seed: u64, quick: bool) -> PathBuf {
    let dir = package_dir().join(if quick { "out" } else { "results" });
    (0..)
        .map(|n| dir.join(format!("{commit}-{seed}-{n}.json")))
        .find(|p| !p.exists())
        .expect("some index is free")
}

fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let mut file = ResultFile {
        schema: 1,
        commit: short_commit(),
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        workspace_loc: workspace_loc(),
        ..Default::default()
    };
    for name in report::WORKLOADS {
        let runs: Result<Vec<_>, _> = (0..args.repeat)
            .map(|_| spawn_worker(name, args, false))
            .collect();
        let mut result = WorkloadResult::merge(runs?);
        if args.traced {
            let traced = spawn_worker(name, args, true)?;
            result.layers = traced.layers;
            result.spans = traced.spans;
            result.attempted += traced.attempted;
            result.failed += traced.failed;
            result.failures.extend(traced.failures);
        }
        report::print_workload(name, &result);
        file.workloads.insert(name.to_string(), result);
    }
    let path = fresh_result_path(&file.commit, file.seed, file.quick);
    std::fs::create_dir_all(path.parent().expect("results/ has a parent"))
        .and_then(|()| std::fs::write(&path, file.to_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {}{}",
        path.display(),
        if args.quick {
            " (--quick: not comparable)"
        } else {
            ""
        }
    );
    let failed: u64 = file.workloads.values().map(|w| w.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    ResultFile::from_json(&text)
}

fn main_inner() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run(&args[1..])?;
            match &run.workload {
                Some(name) => run_worker(name, &run),
                None => run_all(&run),
            }
        }
        Some("compare") if args.len() == 3 => {
            let clean = report::compare(&load(&args[1])?, &load(&args[2])?);
            Ok(if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("pzbench: {e}");
        ExitCode::from(2)
    })
}
