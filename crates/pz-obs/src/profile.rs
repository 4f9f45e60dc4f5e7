//! Post-processing a [`TraceSnapshot`] into a per-stage latency
//! attribution and a critical path — the "where did the time go, and how
//! wrong was the optimizer?" layer the re-optimization loop consumes.
//!
//! The executor records wait gauges (profiling mode only) as `prof_*`
//! attributes on its per-operator spans; this module turns them into
//! attribution buckets:
//!
//! - **compute** — virtual time the stage was busy itself (residual);
//! - **queue-wait** — a stage upstream was working, so no input came;
//! - **provider-wait** — the modelled provider latency of its own calls;
//! - **backpressure** — a stage downstream was working, so output had
//!   nowhere to go;
//! - **retry/backoff** — exponential-backoff sleeps between attempts.
//!
//! The executor runs one stage at a time and derives the two waits from
//! that schedule, so the buckets of its traces partition each window
//! exactly. Buckets are normalized all the same, so they sum to the
//! window for any trace: if a raw wait sum exceeds it, waits are scaled
//! down proportionally and compute is 0. All quantities are *virtual-clock*
//! microseconds: real compute takes zero virtual time, so a simulated
//! run attributes nearly everything to waits by design.

use crate::sink::TraceSnapshot;
use crate::span::{Layer, SpanId, SpanRecord};
use std::fmt::Write as _;

/// Attribution buckets for one pipeline stage, in virtual microseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageBuckets {
    pub compute_us: u64,
    pub queue_wait_us: u64,
    pub provider_wait_us: u64,
    pub backpressure_us: u64,
    pub retry_backoff_us: u64,
}

impl StageBuckets {
    /// Sum of all buckets; by construction equals the stage window.
    pub fn total_us(&self) -> u64 {
        self.compute_us
            + self.queue_wait_us
            + self.provider_wait_us
            + self.backpressure_us
            + self.retry_backoff_us
    }
}

/// One stage of the profiled plan.
#[derive(Clone, Debug, PartialEq)]
pub struct StageProfile {
    /// Position in the physical plan (creation order of the op spans).
    pub index: usize,
    /// Span name without the `op:` prefix.
    pub name: String,
    pub span_id: SpanId,
    /// Virtual time from plan start to the stage finishing.
    pub window_us: u64,
    pub buckets: StageBuckets,
    /// Utilization (attributed busy time / window), if recorded.
    pub utilization: Option<f64>,
    /// Attributed busy seconds (matches `OperatorStats::time_secs`).
    pub time_secs: f64,
    /// Busy seconds before the first emitted batch (pipeline-fill delay).
    pub startup_secs: f64,
    pub llm_calls: u64,
    pub cost_usd: f64,
}

/// A profiled plan execution: per-stage attribution plus the critical
/// path through the span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanProfile {
    /// Wall (virtual) duration of the plan span, µs.
    pub wall_us: u64,
    pub stages: Vec<StageProfile>,
    /// Span ids from the plan root down to the last-finishing leaf.
    pub critical_path: Vec<SpanId>,
}

fn attr_f64(span: &SpanRecord, key: &str) -> Option<f64> {
    span.attrs.get(key).and_then(|v| v.parse().ok())
}

fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    span.attrs.get(key).and_then(|v| v.parse().ok())
}

/// Walk from `root` to the leaf that finishes last, always descending
/// into the child with the greatest end timestamp (open spans sort last;
/// ties break toward the later-starting, later-created child). The
/// returned path includes `root` itself.
pub fn critical_path(snap: &TraceSnapshot, root: &SpanId) -> Vec<SpanId> {
    let mut path = vec![root.clone()];
    let mut cur = root.clone();
    loop {
        let children = snap.children(&cur);
        let mut best: Option<&SpanRecord> = None;
        for child in children {
            let better = match best {
                None => true,
                Some(b) => {
                    let (ce, be) = (
                        child.end_us.unwrap_or(u64::MAX),
                        b.end_us.unwrap_or(u64::MAX),
                    );
                    ce > be || (ce == be && child.start_us >= b.start_us)
                }
            };
            if better {
                best = Some(child);
            }
        }
        match best {
            Some(child) => {
                path.push(child.id.clone());
                cur = child.id.clone();
            }
            None => return path,
        }
    }
}

fn build_stage(index: usize, span: &SpanRecord) -> StageProfile {
    let window_us = attr_u64(span, "prof_window_us").unwrap_or_else(|| span.duration_us());
    let mut queue = attr_u64(span, "prof_queue_wait_us").unwrap_or(0);
    let mut provider = attr_u64(span, "prof_provider_wait_us").unwrap_or(0);
    let mut backpressure = attr_u64(span, "prof_backpressure_us").unwrap_or(0);
    let mut retry = attr_u64(span, "prof_retry_backoff_us").unwrap_or(0);

    // Normalize: a raw wait sum can exceed the window. Scale
    // proportionally so buckets fit it (flooring keeps the scaled sum ≤
    // window; the remainder is compute).
    let wait_sum = queue + provider + backpressure + retry;
    if wait_sum > window_us && wait_sum > 0 {
        let scale = window_us as f64 / wait_sum as f64;
        queue = (queue as f64 * scale) as u64;
        provider = (provider as f64 * scale) as u64;
        backpressure = (backpressure as f64 * scale) as u64;
        retry = (retry as f64 * scale) as u64;
    }
    let compute = window_us.saturating_sub(queue + provider + backpressure + retry);

    StageProfile {
        index,
        name: span
            .name
            .strip_prefix("op:")
            .unwrap_or(&span.name)
            .to_string(),
        span_id: span.id.clone(),
        window_us,
        buckets: StageBuckets {
            compute_us: compute,
            queue_wait_us: queue,
            provider_wait_us: provider,
            backpressure_us: backpressure,
            retry_backoff_us: retry,
        },
        utilization: attr_f64(span, "prof_utilization"),
        time_secs: attr_f64(span, "time_secs").unwrap_or(0.0),
        startup_secs: attr_f64(span, "prof_startup_secs").unwrap_or(0.0),
        llm_calls: attr_u64(span, "llm_calls").unwrap_or(0),
        cost_usd: attr_f64(span, "cost_usd").unwrap_or(0.0),
    }
}

/// Profile the most recent `execute_plan` span in the snapshot. Returns
/// `None` when no executor plan span exists.
pub fn profile_plan(snap: &TraceSnapshot) -> Option<PlanProfile> {
    let plan_span = snap
        .spans
        .iter()
        .rfind(|s| s.layer == Layer::Executor && s.name == "execute_plan")?;
    let stages = snap
        .children(&plan_span.id)
        .into_iter()
        .filter(|s| s.name.starts_with("op:"))
        .enumerate()
        .map(|(i, s)| build_stage(i, s))
        .collect();
    Some(PlanProfile {
        wall_us: plan_span.duration_us(),
        stages,
        critical_path: critical_path(snap, &plan_span.id),
    })
}

impl PlanProfile {
    /// Index of the bottleneck stage under the same bottleneck+fill model
    /// as `ExecutionStats::finalize_pipelined`: the stage maximizing
    /// `fill_i + time_secs_i`, where `fill_i` is the accumulated startup
    /// of upstream stages. Returns `None` for an empty profile.
    pub fn bottleneck(&self) -> Option<usize> {
        let mut fill = 0.0f64;
        let mut best: Option<(usize, f64)> = None;
        for stage in &self.stages {
            let end = fill + stage.time_secs;
            if best.is_none_or(|(_, b)| end > b) {
                best = Some((stage.index, end));
            }
            fill += stage.startup_secs;
        }
        best.map(|(i, _)| i)
    }

    /// The modelled pipelined wall time, `max_i(fill_i + time_secs_i)` —
    /// reconciles with `ExecutionStats::pipelined_secs`.
    pub fn modelled_total_secs(&self) -> f64 {
        let mut fill = 0.0f64;
        let mut total = 0.0f64;
        for stage in &self.stages {
            total = total.max(fill + stage.time_secs);
            fill += stage.startup_secs;
        }
        total
    }

    /// Render the attribution table. Bucket columns show seconds and the
    /// share of the stage's own window.
    pub fn render(&self) -> String {
        fn cell(us: u64, window: u64) -> String {
            let pct = if window == 0 {
                0.0
            } else {
                100.0 * us as f64 / window as f64
            };
            format!("{:.2}s {:>3.0}%", us as f64 / 1e6, pct)
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall (virtual): {:.2}s  stages: {}",
            self.wall_us as f64 / 1e6,
            self.stages.len()
        );
        let _ = writeln!(
            out,
            "{:<30} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>5}",
            "stage", "window", "compute", "queue", "provider", "backpr", "retry", "util"
        );
        let bottleneck = self.bottleneck();
        for s in &self.stages {
            let marker = if bottleneck == Some(s.index) { "*" } else { "" };
            let _ = writeln!(
                out,
                "{:<30} {:>9.2}s {:>12} {:>12} {:>12} {:>12} {:>12} {:>5}",
                format!("{}{}{}", s.index, marker, truncate(&s.name, 27)),
                s.window_us as f64 / 1e6,
                cell(s.buckets.compute_us, s.window_us),
                cell(s.buckets.queue_wait_us, s.window_us),
                cell(s.buckets.provider_wait_us, s.window_us),
                cell(s.buckets.backpressure_us, s.window_us),
                cell(s.buckets.retry_backoff_us, s.window_us),
                s.utilization
                    .map(|u| format!("{:.0}%", u * 100.0))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
        if let Some(b) = bottleneck {
            let _ = writeln!(
                out,
                "bottleneck: stage {} ({}) — modelled total {:.2}s",
                b,
                self.stages[b].name,
                self.modelled_total_secs()
            );
        }
        let path: Vec<String> = self.critical_path.iter().map(|id| id.to_string()).collect();
        let _ = writeln!(out, "critical path: {}", path.join(" -> "));
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        format!(" {s}")
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!(" {cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Event;
    use std::collections::BTreeMap;

    fn span(
        id: &[u32],
        parent: Option<&[u32]>,
        name: &str,
        start: u64,
        end: u64,
        attrs: &[(&str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            id: SpanId(id.to_vec()),
            parent: parent.map(|p| SpanId(p.to_vec())),
            layer: Layer::Executor,
            name: name.to_string(),
            start_us: start,
            end_us: Some(end),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    fn snapshot(spans: Vec<SpanRecord>) -> TraceSnapshot {
        TraceSnapshot {
            spans,
            events: Vec::<Event>::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn critical_path_follows_latest_ending_child() {
        let snap = snapshot(vec![
            span(&[1], None, "execute_plan", 0, 100, &[]),
            span(&[1, 1], Some(&[1]), "op:fast", 0, 40, &[]),
            span(&[1, 2], Some(&[1]), "op:slow", 0, 90, &[]),
            span(&[1, 2, 1], Some(&[1, 2]), "llm", 10, 80, &[]),
            span(&[1, 2, 2], Some(&[1, 2]), "llm", 10, 85, &[]),
        ]);
        let path = critical_path(&snap, &SpanId(vec![1]));
        let rendered: Vec<String> = path.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, vec!["1", "1.2", "1.2.2"]);
    }

    #[test]
    fn critical_path_prefers_open_spans() {
        let mut open = span(&[1, 1], Some(&[1]), "op:open", 0, 0, &[]);
        open.end_us = None;
        let snap = snapshot(vec![
            span(&[1], None, "execute_plan", 0, 100, &[]),
            open,
            span(&[1, 2], Some(&[1]), "op:closed", 0, 99, &[]),
        ]);
        let path = critical_path(&snap, &SpanId(vec![1]));
        assert_eq!(path[1], SpanId(vec![1, 1]));
    }

    #[test]
    fn attribution_buckets_sum_to_window() {
        let snap = snapshot(vec![
            span(&[1], None, "execute_plan", 0, 1_000_000, &[]),
            span(
                &[1, 1],
                Some(&[1]),
                "op:LLMFilter[gpt-4o]",
                0,
                1_000_000,
                &[
                    ("prof_window_us", "1000000"),
                    ("prof_queue_wait_us", "100000"),
                    ("prof_provider_wait_us", "600000"),
                    ("prof_backpressure_us", "50000"),
                    ("prof_retry_backoff_us", "25000"),
                    ("time_secs", "0.9"),
                    ("llm_calls", "10"),
                    ("cost_usd", "0.5"),
                ],
            ),
        ]);
        let profile = profile_plan(&snap).expect("profile");
        assert_eq!(profile.wall_us, 1_000_000);
        let s = &profile.stages[0];
        assert_eq!(s.name, "LLMFilter[gpt-4o]");
        assert_eq!(s.buckets.total_us(), s.window_us);
        assert_eq!(s.buckets.compute_us, 225_000);
        assert_eq!(s.llm_calls, 10);
    }

    #[test]
    fn oversubscribed_waits_scale_down_to_window() {
        // Raw waits 4x the window: buckets must still sum to the window
        // exactly.
        let snap = snapshot(vec![
            span(&[1], None, "execute_plan", 0, 500_000, &[]),
            span(
                &[1, 1],
                Some(&[1]),
                "op:x",
                0,
                500_000,
                &[
                    ("prof_window_us", "500000"),
                    ("prof_queue_wait_us", "1000000"),
                    ("prof_provider_wait_us", "1000000"),
                ],
            ),
        ]);
        let s = &profile_plan(&snap).unwrap().stages[0];
        assert_eq!(s.buckets.total_us(), 500_000);
        assert_eq!(s.buckets.compute_us, 0);
        assert_eq!(s.buckets.queue_wait_us, 250_000);
    }

    #[test]
    fn bottleneck_matches_fill_model() {
        // Mirror stats.rs's finalize_pipelined test: fills [0, 2, 8],
        // times [0, 10, 8] → stage 1 bottleneck, total 10s.
        let mk = |idx: u32, time: &str, startup: &str| {
            span(
                &[1, idx],
                Some(&[1]),
                "op:x",
                0,
                100,
                &[("time_secs", time), ("prof_startup_secs", startup)],
            )
        };
        let snap = snapshot(vec![
            span(&[1], None, "execute_plan", 0, 100, &[]),
            mk(1, "0.0", "0.0"),
            mk(2, "10.0", "2.0"),
            mk(3, "8.0", "8.0"),
        ]);
        let profile = profile_plan(&snap).unwrap();
        assert_eq!(profile.bottleneck(), Some(1));
        assert!((profile.modelled_total_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn profiles_latest_plan_and_renders() {
        let snap = snapshot(vec![
            span(&[1], None, "execute_plan", 0, 10, &[]),
            span(&[1, 1], Some(&[1]), "op:old", 0, 10, &[]),
            span(&[2], None, "execute_plan", 0, 2_000_000, &[]),
            span(
                &[2, 1],
                Some(&[2]),
                "op:LLMConvert[mixtral]",
                0,
                2_000_000,
                &[
                    ("prof_window_us", "2000000"),
                    ("prof_provider_wait_us", "1500000"),
                    ("time_secs", "1.5"),
                ],
            ),
        ]);
        let profile = profile_plan(&snap).unwrap();
        assert_eq!(profile.wall_us, 2_000_000);
        assert_eq!(profile.stages.len(), 1);
        let text = profile.render();
        assert!(text.contains("LLMConvert[mixtral]"), "{text}");
        assert!(text.contains("bottleneck: stage 0"), "{text}");
        assert!(text.contains("critical path: 2 -> 2.1"), "{text}");
    }

    #[test]
    fn no_plan_span_yields_none() {
        assert!(profile_plan(&snapshot(vec![])).is_none());
    }
}
