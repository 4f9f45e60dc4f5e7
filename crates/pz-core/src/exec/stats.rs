//! Execution statistics — the data behind Figure 5's output panel:
//! "Users can visualize both output records, as well as summary information
//! about the plan execution such as the operators chosen and the total
//! pipeline cost and runtime."

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Per-operator measurements.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OperatorStats {
    /// Logical kind, e.g. `filter`.
    pub logical: String,
    /// Physical description, e.g. `LLMFilter[gpt-4o]`.
    pub physical: String,
    /// Model used, if any.
    pub model: Option<String>,
    pub input_records: usize,
    pub output_records: usize,
    /// Model requests issued by this operator.
    pub llm_calls: usize,
    pub input_tokens: usize,
    pub output_tokens: usize,
    pub cost_usd: f64,
    /// Virtual seconds attributed to this operator (already divided by the
    /// operator's parallelism).
    pub time_secs: f64,
}

impl OperatorStats {
    /// Add one application's counts onto this row.
    pub(crate) fn accrue(&mut self, applied: &OperatorStats) {
        self.input_records += applied.input_records;
        self.output_records += applied.output_records;
        self.llm_calls += applied.llm_calls;
        self.input_tokens += applied.input_tokens;
        self.output_tokens += applied.output_tokens;
        self.cost_usd += applied.cost_usd;
        self.time_secs += applied.time_secs;
    }

    /// Observed selectivity (output/input); 1.0 for empty input.
    pub fn selectivity(&self) -> f64 {
        if self.input_records == 0 {
            1.0
        } else {
            self.output_records as f64 / self.input_records as f64
        }
    }
}

/// One mid-plan failover decision: an operator's model was swapped for the
/// next-best healthy candidate after its fault domain went unhealthy.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradedExecution {
    /// Index of the afflicted operator in the physical plan.
    pub operator_index: usize,
    /// Physical description of the operator as planned, e.g.
    /// `LLMFilter[gpt-4o]`.
    pub operator: String,
    pub from_model: String,
    pub to_model: String,
    /// Records processed by the substitute model instead of the planned
    /// one (includes any re-run after a mid-operator failure).
    pub records_affected: usize,
    /// Estimated quality change from the model cards (negative =
    /// degradation).
    pub est_quality_delta: f64,
    /// Virtual-clock time of the swap decision.
    pub at_secs: f64,
    /// Why the swap happened (`breaker open`, `provider fault`, ...).
    pub reason: String,
}

/// One replan: a browning-out model's operator moved onto a substitute
/// before a step, recorded in `ExecutionStats::adaptive` and mirrored by an
/// `exec.replan` event.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveReport {
    /// Index of the replanned operator in the physical plan.
    pub operator_index: usize,
    pub operator: String,
    pub from_model: String,
    pub to_model: String,
    /// Which threshold fired: `stall ratio` or `provider health`.
    pub trigger: String,
    /// The observed ratio or failure rate that reached it (capped finite).
    pub observed_ratio: f64,
    /// The threshold it reached.
    pub threshold: f64,
    /// Estimated seconds for the records in hand had the degraded model
    /// kept them, its stalls priced in.
    pub est_suffix_secs_before: f64,
    /// Estimated seconds for the same records on the substitute.
    pub est_suffix_secs_after: f64,
    /// Records in the batch the swap was decided before: the least it
    /// still applies to.
    pub records_remaining: usize,
    /// Virtual-clock time of the decision.
    pub at_secs: f64,
}

/// Whole-pipeline measurements.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionStats {
    /// Physical plan description.
    pub plan: String,
    /// Policy used to choose the plan (if optimizer-driven).
    pub policy: String,
    pub operators: Vec<OperatorStats>,
    pub total_cost_usd: f64,
    pub total_time_secs: f64,
    pub total_llm_calls: usize,
    pub output_records: usize,
    /// Mid-plan failover decisions, in the order they were made. Empty on
    /// healthy runs.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub degraded: Vec<DegradedExecution>,
    /// Replans (brownout swaps), in the order they were made. Empty on
    /// healthy runs.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub adaptive: Vec<AdaptiveReport>,
    /// The execution deadline elapsed and the run returned partial results.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub deadline_exceeded: bool,
    /// The tenant's budget refused further model calls mid-run and the run
    /// returned flagged partial results (never silently billed past the
    /// quota). Absent on healthy runs so serialized stats stay
    /// byte-identical.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub quota_exhausted: bool,
    /// Largest effective parallelism any streaming stage's time was
    /// divided by. `0`/`1` (serial, and every materializing run) omits the
    /// field.
    #[serde(default, skip_serializing_if = "serial_workers")]
    pub parallelism: usize,
    /// Responses the run was served from the context's response cache
    /// instead of billing a call (the ledger's cache-hit delta). `0`
    /// (including every run without a cache) omits the field.
    #[serde(default, skip_serializing_if = "zero_hits")]
    pub memo_hits: usize,
    /// High-water mark of records resident in the executor at once: what
    /// the stages and the output hold plus the batch in flight. Chunked
    /// pulls keep this at O(batch + output) however large the corpus (a
    /// barrier holds its whole input by definition); the scaling gate
    /// asserts exactly that. `0` (a run that applied nothing) omits the
    /// field.
    #[serde(default, skip_serializing_if = "zero_hits")]
    pub peak_resident_records: usize,
}

/// Serialization predicate: a run without cache hits carries no field.
fn zero_hits(n: &usize) -> bool {
    *n == 0
}

/// Serialization predicate: a serial run carries no parallelism field.
fn serial_workers(n: &usize) -> bool {
    *n <= 1
}

impl ExecutionStats {
    /// Recompute totals from the operator rows.
    pub fn finalize(&mut self) {
        self.total_cost_usd = self.operators.iter().map(|o| o.cost_usd).sum();
        self.total_time_secs = self.operators.iter().map(|o| o.time_secs).sum();
        self.total_llm_calls = self.operators.iter().map(|o| o.llm_calls).sum();
        self.output_records = self.operators.last().map_or(0, |o| o.output_records);
    }

    /// Recompute totals for a *pipelined* run: stages overlap, so total
    /// time is not the sum of stage times but the bottleneck stage plus
    /// the delay before it first received work. `startup[i]` is operator
    /// `i`'s busy time before it emitted its first output batch (its
    /// contribution to downstream pipeline-fill delay). Cost and call
    /// totals are unaffected — only time models the overlap.
    pub fn finalize_pipelined(&mut self, startup: &[f64]) {
        self.finalize();
        let mut fill = 0.0f64;
        let mut total = 0.0f64;
        for (i, op) in self.operators.iter().enumerate() {
            total = total.max(fill + op.time_secs);
            fill += startup.get(i).copied().unwrap_or(0.0);
        }
        self.total_time_secs = total;
    }

    /// Index of the bottleneck operator under the pipelined model of
    /// [`Self::finalize_pipelined`]: the operator maximizing
    /// `fill_i + time_secs_i` with `fill` accumulating `startup`. The
    /// profiler (`pz_obs::profile::PlanProfile::bottleneck`) replays the
    /// same fold from span attributes; the two must agree.
    pub fn pipelined_bottleneck(&self, startup: &[f64]) -> Option<usize> {
        let mut fill = 0.0f64;
        let mut best: Option<(usize, f64)> = None;
        for (i, op) in self.operators.iter().enumerate() {
            let end = fill + op.time_secs;
            if best.is_none_or(|(_, b)| end > b) {
                best = Some((i, end));
            }
            fill += startup.get(i).copied().unwrap_or(0.0);
        }
        best.map(|(i, _)| i)
    }

    /// Render the Figure-5-style summary table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "plan: {}", self.plan);
        if !self.policy.is_empty() {
            let _ = writeln!(s, "policy: {}", self.policy);
        }
        let _ = writeln!(
            s,
            "{:<34} {:>6} {:>6} {:>6} {:>7} {:>9} {:>10} {:>10}",
            "operator", "in", "out", "sel", "calls", "tokens", "cost($)", "time(s)"
        );
        for op in &self.operators {
            let _ = writeln!(
                s,
                "{:<34} {:>6} {:>6} {:>6.2} {:>7} {:>9} {:>10.4} {:>10.2}",
                truncate(&op.physical, 34),
                op.input_records,
                op.output_records,
                op.selectivity(),
                op.llm_calls,
                op.input_tokens + op.output_tokens,
                op.cost_usd,
                op.time_secs
            );
        }
        let _ = writeln!(
            s,
            "TOTAL: {} output records, {} LLM calls, ${:.4}, {:.1}s (virtual)",
            self.output_records, self.total_llm_calls, self.total_cost_usd, self.total_time_secs
        );
        if self.parallelism > 1 {
            let _ = writeln!(s, "parallelism: {} workers/stage", self.parallelism);
        }
        // Resilience annotations appear only on degraded runs, so healthy
        // output stays byte-identical.
        for d in &self.degraded {
            let _ = writeln!(
                s,
                "DEGRADED: op#{} {} failed over {} -> {} ({} records, est. quality {:+.2}, {})",
                d.operator_index,
                d.operator,
                d.from_model,
                d.to_model,
                d.records_affected,
                d.est_quality_delta,
                d.reason
            );
        }
        for r in &self.adaptive {
            let _ = writeln!(
                s,
                "REPLANNED: op#{} {} switched {} -> {} ({}: {:.2} >= {:.2}, est suffix {:.1}s -> {:.1}s, {} records left)",
                r.operator_index,
                r.operator,
                r.from_model,
                r.to_model,
                r.trigger,
                r.observed_ratio,
                r.threshold,
                r.est_suffix_secs_before,
                r.est_suffix_secs_after,
                r.records_remaining
            );
        }
        if self.memo_hits > 0 {
            let _ = writeln!(
                s,
                "CACHE: {} response(s) served from the cache; only the calls it missed were billed",
                self.memo_hits
            );
        }
        if self.deadline_exceeded {
            let _ = writeln!(s, "DEADLINE EXCEEDED: results are partial");
        }
        if self.quota_exhausted {
            let _ = writeln!(
                s,
                "QUOTA EXHAUSTED: results are partial; the tenant budget refused further calls"
            );
        }
        s
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(physical: &str, input: usize, output: usize, cost: f64, time: f64) -> OperatorStats {
        OperatorStats {
            logical: "x".into(),
            physical: physical.into(),
            model: None,
            input_records: input,
            output_records: output,
            llm_calls: input,
            input_tokens: 0,
            output_tokens: 0,
            cost_usd: cost,
            time_secs: time,
        }
    }

    #[test]
    fn selectivity() {
        assert_eq!(op("f", 10, 5, 0.0, 0.0).selectivity(), 0.5);
        assert_eq!(op("f", 0, 0, 0.0, 0.0).selectivity(), 1.0);
    }

    #[test]
    fn finalize_totals() {
        let mut stats = ExecutionStats {
            plan: "p".into(),
            policy: "MaxQuality".into(),
            operators: vec![op("a", 10, 5, 0.1, 1.0), op("b", 5, 5, 0.2, 2.0)],
            ..Default::default()
        };
        stats.finalize();
        assert!((stats.total_cost_usd - 0.3).abs() < 1e-12);
        assert!((stats.total_time_secs - 3.0).abs() < 1e-12);
        assert_eq!(stats.total_llm_calls, 15);
        assert_eq!(stats.output_records, 5);
    }

    #[test]
    fn finalize_pipelined_takes_bottleneck_plus_fill_not_sum() {
        let mut stats = ExecutionStats {
            plan: "p".into(),
            // scan (free) -> filter (10s busy, 2s to first batch) ->
            // convert (8s busy).
            operators: vec![
                op("Scan", 0, 10, 0.0, 0.0),
                op("f", 10, 5, 0.1, 10.0),
                op("c", 5, 5, 0.2, 8.0),
            ],
            ..Default::default()
        };
        stats.finalize_pipelined(&[0.0, 2.0, 8.0]);
        // convert starts after 0+2s of fill and runs 8s => ends at 10s;
        // filter itself runs 10s => bottleneck is 10s, not 18s.
        assert!((stats.total_time_secs - 10.0).abs() < 1e-12);
        // Cost and call totals are still plain sums.
        assert!((stats.total_cost_usd - 0.3).abs() < 1e-12);
        assert_eq!(stats.total_llm_calls, 15);
        // The filter (index 1) is the limiting stage.
        assert_eq!(stats.pipelined_bottleneck(&[0.0, 2.0, 8.0]), Some(1));
    }

    #[test]
    fn pipelined_bottleneck_moves_with_fill() {
        let mut stats = ExecutionStats {
            plan: "p".into(),
            operators: vec![op("a", 0, 10, 0.0, 5.0), op("b", 10, 10, 0.0, 4.0)],
            ..Default::default()
        };
        // Without fill, a (5s) dominates b (4s)...
        assert_eq!(stats.pipelined_bottleneck(&[0.0, 0.0]), Some(0));
        // ...but 3s of fill before b makes b finish last (3+4 > 5).
        assert_eq!(stats.pipelined_bottleneck(&[3.0, 0.0]), Some(1));
        stats.operators.clear();
        assert_eq!(stats.pipelined_bottleneck(&[]), None);
    }

    #[test]
    fn render_contains_rows_and_totals() {
        let mut stats = ExecutionStats {
            plan: "scan -> filter".into(),
            policy: "MinCost".into(),
            operators: vec![op("LLMFilter[gpt-4o]", 11, 5, 0.35, 240.0)],
            ..Default::default()
        };
        stats.finalize();
        let t = stats.render_table();
        assert!(t.contains("LLMFilter[gpt-4o]"));
        assert!(t.contains("policy: MinCost"));
        assert!(t.contains("TOTAL"));
        assert!(t.contains("0.3500"));
    }

    #[test]
    fn truncate_long_names() {
        let long = "X".repeat(60);
        let t = truncate(&long, 10);
        assert!(t.chars().count() <= 10);
        assert!(t.ends_with('…'));
    }

    #[test]
    fn truncate_keeps_exact_fit_strings_intact() {
        // A string of exactly n chars must NOT be ellipsized.
        let exact = "Y".repeat(10);
        assert_eq!(truncate(&exact, 10), exact);
        // Multi-byte chars count as chars, not bytes.
        let unicode = "é".repeat(10);
        assert_eq!(truncate(&unicode, 10), unicode);
        assert_eq!(truncate("short", 10), "short");
    }

    #[test]
    fn render_includes_selectivity_and_tokens() {
        let mut o = op("LLMFilter[gpt-4o]", 10, 5, 0.1, 1.0);
        o.input_tokens = 1200;
        o.output_tokens = 34;
        let mut stats = ExecutionStats {
            plan: "p".into(),
            operators: vec![o],
            ..Default::default()
        };
        stats.finalize();
        let t = stats.render_table();
        assert!(t.contains("sel"), "{t}");
        assert!(t.contains("tokens"), "{t}");
        assert!(t.contains("0.50"), "selectivity column: {t}");
        assert!(t.contains("1234"), "token column: {t}");
    }

    #[test]
    fn stats_serialize_to_json() {
        let stats = ExecutionStats::default();
        let j = serde_json::to_string(&stats).unwrap();
        assert!(j.contains("operators"));
        // Healthy runs serialize without resilience fields...
        assert!(!j.contains("degraded"));
        assert!(!j.contains("deadline_exceeded"));
        assert!(!j.contains("quota_exhausted"));
        assert!(!j.contains("adaptive"));
        // ...and old serialized stats still deserialize.
        let old: ExecutionStats = serde_json::from_str(&j).unwrap();
        assert!(old.degraded.is_empty());
        assert!(!old.deadline_exceeded);
        assert!(!old.quota_exhausted);
        assert!(old.adaptive.is_empty());
    }

    #[test]
    fn render_annotates_replans_only_when_present() {
        let mut stats = ExecutionStats {
            plan: "p".into(),
            operators: vec![op("LLMFilter[gpt-4o]", 11, 5, 0.1, 1.0)],
            ..Default::default()
        };
        stats.finalize();
        assert!(!stats.render_table().contains("REPLANNED"));
        stats.adaptive.push(AdaptiveReport {
            operator_index: 1,
            operator: "LLMFilter[gpt-4o]".into(),
            from_model: "gpt-4o".into(),
            to_model: "llama-3-70b".into(),
            trigger: "stall ratio".into(),
            observed_ratio: 4.21,
            threshold: 3.0,
            est_suffix_secs_before: 120.0,
            est_suffix_secs_after: 25.0,
            records_remaining: 9,
            at_secs: 31.5,
        });
        let t = stats.render_table();
        assert!(
            t.contains("REPLANNED: op#1 LLMFilter[gpt-4o] switched gpt-4o -> llama-3-70b"),
            "{t}"
        );
        assert!(t.contains("stall ratio"), "{t}");
        assert!(t.contains("4.21"), "{t}");
    }

    #[test]
    fn render_annotates_degraded_and_deadline_only_when_present() {
        let mut stats = ExecutionStats {
            plan: "p".into(),
            operators: vec![op("LLMFilter[gpt-4o]", 11, 5, 0.1, 1.0)],
            ..Default::default()
        };
        stats.finalize();
        let healthy = stats.render_table();
        assert!(!healthy.contains("DEGRADED"), "{healthy}");
        assert!(!healthy.contains("DEADLINE"), "{healthy}");

        stats.degraded.push(DegradedExecution {
            operator_index: 1,
            operator: "LLMFilter[gpt-4o]".into(),
            from_model: "gpt-4o".into(),
            to_model: "llama-3-70b".into(),
            records_affected: 11,
            est_quality_delta: -0.04,
            at_secs: 30.0,
            reason: "breaker open".into(),
        });
        stats.deadline_exceeded = true;
        let degraded = stats.render_table();
        assert!(
            degraded.contains("DEGRADED: op#1 LLMFilter[gpt-4o] failed over gpt-4o -> llama-3-70b"),
            "{degraded}"
        );
        assert!(degraded.contains("-0.04"), "{degraded}");
        assert!(degraded.contains("DEADLINE EXCEEDED"), "{degraded}");
    }
}
