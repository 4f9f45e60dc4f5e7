//! What the benchmark reports: the metric catalogue (which `BENCHMARK.json`
//! mirrors), the result-file schema, the printed report and `compare`.

use crate::stats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 6] = [
    "extract",
    "relational",
    "retrieve",
    "rerun",
    "chat",
    "serve",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric every workload reports, with the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The driver wants one set of end-to-end metrics for all workloads, so the
/// three headline values are *slots*; `alias` says what a slot measures on
/// a given workload. The issue asked for 10% (5% on memory). Every bound is
/// instead the 25% the driver allows at most: on the 2-core box this was
/// built on, ten-run quartile spreads reach 17% on timings and 7% on
/// `relational`'s peak RSS, and whole processes run a quarter faster or
/// slower than their neighbours. README "Bounds" has the measurements.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rate_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wait_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wait_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// What a slot measures on a workload, under the name the issue gave it.
pub fn alias(workload: &str, slot: &str) -> &'static str {
    match (workload, slot) {
        ("extract" | "relational" | "retrieve", "rate_per_s") => "mat_records_per_s",
        ("extract" | "relational" | "retrieve", "wait_p50_ms" | "wait_p90_ms") => "mat_run_ms",
        ("rerun", "rate_per_s") => "cold_records_per_s",
        ("rerun", "wait_p50_ms") => "rerun_p50_ms",
        ("rerun", "wait_p90_ms") => "rerun_p90_ms",
        ("chat", "rate_per_s") => "dialogues_per_s",
        ("chat", "wait_p50_ms") => "dialogue_p50_ms",
        ("chat", "wait_p90_ms") => "dialogue_p90_ms",
        ("serve", "rate_per_s") => "sessions_per_s",
        ("serve", "wait_p50_ms") => "session_p50_ms",
        ("serve", "wait_p90_ms") => "session_p90_ms",
        _ => "",
    }
}

/// Further end-to-end values some workloads print under their own name.
/// They are not driver metrics (not every workload has them); `compare`
/// treats the bounded ones like the slots.
pub const NAMED: [(&str, &str, Better, Option<f64>); 3] = [
    ("stream_records_per_s", "1/s", Better::Higher, Some(0.25)),
    ("recall", "ratio", Better::Higher, None),
    ("strict_recall", "ratio", Better::Higher, None),
];

/// Per-layer metrics every traced run reports: (name, unit, better).
/// Counts read 0 on a workload that never reaches the layer; every timing
/// comes from the layer cells (`layers.rs`), which run in every traced run.
pub const LAYERS: &[(&str, &str, Better)] = &[
    // counts and ratios of the traced workload pass
    ("llm.calls", "count", Better::Lower),
    ("llm.retries", "count", Better::Lower),
    ("llm.cache.hit_ratio", "ratio", Better::Higher),
    ("obs.spans", "count", Better::Lower),
    ("vector.index_builds", "count", Better::Lower),
    ("exec.memo.hits", "count", Better::Higher),
    ("exec.memo.delta_calls", "count", Better::Lower),
    ("exec.peak_resident_records", "count", Better::Lower),
    ("exec.mat.allocs_per_rec", "count", Better::Lower),
    ("exec.mat.alloc_bytes_per_rec", "B", Better::Lower),
    ("exec.stream.allocs_per_rec", "count", Better::Lower),
    ("serve.scheduler_granted", "count", Better::Lower),
    ("serve.shed", "count", Better::Lower),
    ("serve.truncated", "count", Better::Lower),
    ("archytas.steps_per_dialogue", "count", Better::Lower),
    ("trace_overhead_pct", "%", Better::Lower),
    // pz-llm
    ("llm.tokenizer.mb_per_s", "MB/s", Better::Higher),
    ("llm.sim.complete_us", "us", Better::Lower),
    ("llm.traced.overhead_us", "us", Better::Lower),
    ("llm.cache.hit_us", "us", Better::Lower),
    ("llm.cache.miss_overhead_us", "us", Better::Lower),
    ("llm.embed.us_per_doc", "us", Better::Lower),
    // pz-obs
    ("obs.span_us", "us", Better::Lower),
    ("obs.snapshot_jsonl_ms", "ms", Better::Lower),
    ("obs.profiling_overhead_pct", "%", Better::Lower),
    ("obs.rss_per_kspan_kib", "KiB", Better::Lower),
    // pz-vector, through VectorStore only
    ("vector.add_flat_us", "us", Better::Lower),
    ("vector.add_ivf_window_us", "us", Better::Lower),
    ("vector.search_flat_us", "us", Better::Lower),
    ("vector.search_ivf_window_us", "us", Better::Lower),
    ("vector.recall_at_10", "ratio", Better::Higher),
    // pz-core::record / datasource
    ("core.record.clone_ns", "ns", Better::Lower),
    ("core.record.derive_ns", "ns", Better::Lower),
    ("core.record.json_roundtrip_us", "us", Better::Lower),
    ("core.source.scan_records_per_s", "1/s", Better::Higher),
    ("core.memo.identity_ns", "ns", Better::Lower),
    // pz-core::ops, by prefix differencing
    ("ops.llm_filter.us_per_rec", "us", Better::Lower),
    ("ops.llm_convert.us_per_rec", "us", Better::Lower),
    ("ops.udf_filter.ns_per_rec", "ns", Better::Lower),
    ("ops.udf_map.ns_per_rec", "ns", Better::Lower),
    ("ops.sort.ns_per_rec", "ns", Better::Lower),
    ("ops.aggregate.ns_per_rec", "ns", Better::Lower),
    ("ops.retrieve.us_per_rec", "us", Better::Lower),
    // pz-core::optimizer
    ("optimizer.optimize_ms", "ms", Better::Lower),
    ("optimizer.plans_considered", "count", Better::Lower),
    ("optimizer.chain4_ms", "ms", Better::Lower),
    // pz-core::exec
    ("exec.mat.passthrough_records_per_s", "1/s", Better::Higher),
    (
        "exec.stream.passthrough_records_per_s",
        "1/s",
        Better::Higher,
    ),
    ("exec.stream.per_batch_overhead_us", "us", Better::Lower),
    ("exec.stream.batches", "count", Better::Lower),
    ("exec.memo.replay_us_per_hit", "us", Better::Lower),
    ("exec.stream_p2.speedup", "ratio", Better::Higher),
    // pz-serve
    ("serve.session_overhead_us", "us", Better::Lower),
    // archytas / palimpchat
    ("chat.turn.load_us", "us", Better::Lower),
    ("chat.turn.define_us", "us", Better::Lower),
    ("chat.turn.run_us", "us", Better::Lower),
    ("chat.turn.stats_us", "us", Better::Lower),
    ("chat.turn.export_us", "us", Better::Lower),
    ("chat.new_session_us", "us", Better::Lower),
    ("archytas.template.render_us", "us", Better::Lower),
    // reconciliation: Σ(cell cost × call count) ÷ measured wall
    ("recon.extract_mat.coverage", "ratio", Better::Higher),
    ("recon.relational_mat.coverage", "ratio", Better::Higher),
];

/// Unit of any metric this benchmark prints.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(NAMED.iter().map(|m| (m.0, m.1)))
        .chain(LAYERS.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    /// Quartile spread as a share of the median: over the passes of the
    /// run, or over the runs when the result merges several.
    pub spread: f64,
    pub unit: String,
}

impl Measured {
    pub fn new(name: &str, value: f64, spread: f64) -> Self {
        Measured {
            value,
            spread,
            unit: unit_of(name).to_string(),
        }
    }
}

#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// One workload's results: what a worker process hands back.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Worker processes merged into this result (`run --repeat`).
    pub runs: u64,
    pub passes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub sizes: BTreeMap<String, u64>,
    pub end_to_end: BTreeMap<String, Measured>,
    /// Filled by the traced run only.
    pub layers: BTreeMap<String, Measured>,
    pub spans: BTreeMap<String, SpanSummary>,
}

impl WorkloadResult {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Merge repeated runs of one workload: every end-to-end metric becomes
    /// the median over the runs, and its spread the quartile spread *between
    /// runs* — on this box a whole process can run a quarter faster or
    /// slower than the next one, which no statistic inside one run can see.
    pub fn merge(runs: Vec<WorkloadResult>) -> WorkloadResult {
        let mut out = runs[0].clone();
        if runs.len() == 1 {
            return out;
        }
        for r in &runs[1..] {
            out.runs += r.runs;
            out.passes += r.passes;
            out.attempted += r.attempted;
            out.failed += r.failed;
            out.failures.extend(r.failures.iter().cloned());
        }
        for (name, m) in &mut out.end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.end_to_end.get(name).map(|m| m.value))
                .collect();
            m.value = stats::median(&values);
            m.spread = stats::quartile_spread(&values);
        }
        out
    }
}

/// One `pzbench run`: a file under `results/`, never overwritten.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: u64,
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    /// Quick runs use ~1/50 sizes: their numbers compare with nothing.
    pub quick: bool,
    pub nproc: u64,
    /// Lines of Rust under `crates/`, so the trajectory shows size too.
    pub workspace_loc: u64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("result files serialize")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("not a pzbench result file: {e}"))
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric untraced, every per-layer one traced.
pub fn driver_line(r: &WorkloadResult, traced: bool) -> String {
    let mut metrics = serde_json::Map::new();
    let mut put = |name: &str, m: Option<&Measured>| {
        let value = m.map_or(0.0, |m| m.value);
        metrics.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit_of(name) }),
        );
    };
    if traced {
        LAYERS.iter().for_each(|(n, _, _)| put(n, r.layers.get(*n)));
    } else {
        END_TO_END
            .iter()
            .for_each(|m| put(m.name, r.end_to_end.get(m.name)));
    }
    serde_json::to_string(&serde_json::json!({
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }))
    .expect("a JSON value always serializes")
}

fn fmt(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.1}"),
        _ => format!("{v:.3}"),
    }
}

/// Print one workload's numbers, every metric by name with its unit.
pub fn print_workload(name: &str, r: &WorkloadResult) {
    println!(
        "== {name}: {} run(s), {} passes, sizes {:?}, failed_frac {} ({} of {})",
        r.runs,
        r.passes,
        r.sizes,
        r.failed_frac(),
        r.failed,
        r.attempted
    );
    for f in r.failures.iter().take(5) {
        println!("   FAILED {f}");
    }
    let slots = END_TO_END.iter().map(|m| m.name);
    let named = NAMED.iter().map(|m| m.0);
    for metric in slots.chain(named) {
        if let Some(m) = r.end_to_end.get(metric) {
            let a = alias(name, metric);
            println!(
                "   {:<22} {:<20} {:>12} {:<5} spread {:.1}%",
                metric,
                if a.is_empty() {
                    String::new()
                } else {
                    format!("[{a}]")
                },
                fmt(m.value),
                m.unit,
                m.spread * 100.0
            );
        }
    }
    for (layer, m) in &r.layers {
        let warn = layer.starts_with("recon.") && !(0.85..=1.15).contains(&m.value);
        println!(
            "   {:<44} {:>12} {}{}",
            layer,
            fmt(m.value),
            m.unit,
            if warn {
                "   WARNING: outside 0.85–1.15, a layer is missing"
            } else {
                ""
            }
        );
    }
    for (span, s) in &r.spans {
        println!(
            "   span {:<28} x{:<6} total {:>10.2} ms  self {:>10.2} ms",
            span, s.count, s.total_ms, s.self_ms
        );
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread of either side (between its runs, or between the passes
    /// of its one run) is wider than the bound, so the two medians cannot
    /// be told apart at that resolution.
    Unresolved,
}

/// By what share of `a` is `b` worse (negative: better)?
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(a: &Measured, b: &Measured, better: Better, bound: f64) -> Verdict {
    if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worse_by(a.value, b.value, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print, per end-to-end metric × workload, both medians, the change, the
/// bound and the verdict; then the exact counts that differ. Returns true
/// when nothing regressed or was unresolved.
pub fn compare(a: &ResultFile, b: &ResultFile) -> bool {
    if a.quick || b.quick {
        println!("WARNING: a --quick result is in the comparison; its numbers are not comparable");
    }
    println!(
        "A: commit {} seed {}   B: commit {} seed {}",
        a.commit, a.seed, b.commit, b.seed
    );
    println!(
        "{:<11} {:<22} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "alias", "A", "B", "worse", "bound"
    );
    let bounded = END_TO_END
        .iter()
        .map(|m| (m.name, m.better, m.bound))
        .chain(NAMED.iter().filter_map(|m| m.3.map(|b| (m.0, m.2, b))));
    let mut clean = true;
    for (metric, better, bound) in bounded {
        for w in WORKLOADS {
            let (Some(ra), Some(rb)) = (a.workloads.get(w), b.workloads.get(w)) else {
                continue;
            };
            let (Some(ma), Some(mb)) = (ra.end_to_end.get(metric), rb.end_to_end.get(metric))
            else {
                continue;
            };
            let v = verdict(ma, mb, better, bound);
            clean &= v == Verdict::Ok;
            println!(
                "{:<11} {:<22} {:<20} {:>12} {:>12} {:>7.1}% {:>5.0}%  {}",
                w,
                metric,
                alias(w, metric),
                fmt(ma.value),
                fmt(mb.value),
                worse_by(ma.value, mb.value, better) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    for w in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.workloads.get(w), b.workloads.get(w)) else {
            continue;
        };
        if ra.failed + rb.failed > 0 {
            clean = false;
            println!(
                "{w:<11} failed_frac A {} B {} (bound 0)",
                ra.failed_frac(),
                rb.failed_frac()
            );
        }
        for (layer, ma) in ra.layers.iter().filter(|(_, m)| m.unit == "count") {
            if let Some(mb) = rb.layers.get(layer).filter(|mb| mb.value != ma.value) {
                println!("{w:<11} count {layer}: A {} B {}", ma.value, mb.value);
            }
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultFile {
        let mut w = WorkloadResult {
            runs: 1,
            passes: 12,
            attempted: 24,
            failed: 0,
            failures: vec![],
            ..Default::default()
        };
        w.sizes.insert("docs".into(), 3000);
        w.end_to_end.insert(
            "rate_per_s".into(),
            Measured::new("rate_per_s", 11873.25, 0.031),
        );
        w.layers
            .insert("llm.calls".into(), Measured::new("llm.calls", 4210.0, 0.0));
        w.spans.insert(
            "exec.execute_plan".into(),
            SpanSummary {
                count: 2,
                total_ms: 512.5,
                self_ms: 512.5,
            },
        );
        let mut f = ResultFile {
            schema: 1,
            commit: "28253f3".into(),
            seed: 11,
            seconds: 8.0,
            quick: false,
            nproc: 2,
            workspace_loc: 34535,
            ..Default::default()
        };
        f.workloads.insert("extract".into(), w);
        f
    }

    #[test]
    fn result_file_round_trips() {
        let f = sample();
        assert_eq!(ResultFile::from_json(&f.to_json()).unwrap(), f);
        assert!(ResultFile::from_json("{\"schema\": \"x\"}").is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_catalogue() {
        let r = &sample().workloads["extract"];
        let v: serde_json::Value = serde_json::from_str(&driver_line(r, false)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = v["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["rate_per_s"]["value"].as_f64(), Some(11873.25));
        assert_eq!(metrics["rate_per_s"]["unit"], "1/s");
        let t: serde_json::Value = serde_json::from_str(&driver_line(r, true)).unwrap();
        assert_eq!(t["metrics"].as_object().unwrap().len(), LAYERS.len());
        assert_eq!(t["metrics"]["llm.calls"]["value"].as_f64(), Some(4210.0));
    }

    #[test]
    fn catalogue_names_are_unique_and_have_units() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(NAMED.iter().map(|m| m.0))
            .chain(LAYERS.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| !unit_of(n).is_empty()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for w in WORKLOADS {
            for slot in ["rate_per_s", "wait_p50_ms", "wait_p90_ms"] {
                assert!(!alias(w, slot).is_empty(), "{w} {slot}");
            }
        }
    }

    /// `BENCHMARK.json` is this catalogue, written down for the driver.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let better = |b: Better| {
            if b == Better::Higher {
                "higher"
            } else {
                "lower"
            }
        };
        let workloads: Vec<&str> = v["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = v["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j["name"], m.name);
            assert_eq!(j["unit"], m.unit);
            assert_eq!(j["better"], better(m.better));
            assert_eq!(j["bound"].as_f64(), Some(m.bound));
        }
        let layers = v["per_layer"].as_array().unwrap();
        assert_eq!(layers.len(), LAYERS.len());
        for (j, m) in layers.iter().zip(LAYERS) {
            assert_eq!(j["name"], m.0);
            assert_eq!(j["unit"], m.1);
            assert_eq!(j["better"], better(m.2));
        }
    }

    #[test]
    fn merge_takes_medians_and_run_to_run_spread() {
        let run = |rate: f64, failed: u64| {
            let mut w = WorkloadResult {
                runs: 1,
                passes: 10,
                attempted: 20,
                failed,
                ..Default::default()
            };
            w.end_to_end
                .insert("rate_per_s".into(), Measured::new("rate_per_s", rate, 0.5));
            w
        };
        let one = WorkloadResult::merge(vec![run(100.0, 0)]);
        assert_eq!(
            one.end_to_end["rate_per_s"].spread, 0.5,
            "one run keeps its pass spread"
        );
        let m = WorkloadResult::merge(vec![run(100.0, 0), run(130.0, 1), run(110.0, 0)]);
        assert_eq!((m.runs, m.passes, m.attempted, m.failed), (3, 30, 60, 1));
        let rate = &m.end_to_end["rate_per_s"];
        assert_eq!(rate.value, 110.0);
        assert!((rate.spread - 30.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let m = |value, spread| Measured {
            value,
            spread,
            unit: "ms".into(),
        };
        let lower = Better::Lower;
        assert_eq!(
            verdict(&m(10.0, 0.02), &m(10.9, 0.02), lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&m(10.0, 0.02), &m(11.5, 0.02), lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&m(10.0, 0.02), &m(5.0, 0.02), lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&m(10.0, 0.3), &m(10.0, 0.02), lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(worse_by(100.0, 80.0, Better::Higher), 0.2);
        assert_eq!(
            verdict(&m(100.0, 0.0), &m(80.0, 0.0), Better::Higher, 0.1),
            Verdict::Regressed
        );
    }
}
