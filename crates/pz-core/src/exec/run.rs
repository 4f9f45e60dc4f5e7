//! Plan executor.
//!
//! `execute_plan` is the entry point for both drives. The materializing
//! drive below is **one loop**: the leading `Scan` is always pulled in
//! chunks of [`SCAN_CHUNK`] records, each chunk is pushed through the
//! *prefix* — the longest run of operators that commute with chunking —
//! and the remaining *suffix* runs operator-at-a-time over the accumulated
//! records. A corpus that fits one chunk is therefore driven exactly
//! operator-at-a-time; a larger one keeps O(chunk + output) leaf records
//! resident. Every operator application, in either part, goes through one
//! [`Drive::step`] (ledger snapshot, `op:` span, profiling attributes,
//! stats row) around one [`OpRunner`] (memo, failover).
//!
//! `parallelism > 1` fans each LLM-bound operator's records out over that
//! many threads: calls still accrue full cost on the ledger, but
//! attributed *time* is divided by the fan-out — on the virtual clock,
//! parallel calls overlap.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::exec::failover::FailoverRank;
use crate::exec::runner::OpRunner;
use crate::exec::stats::{ExecutionStats, OperatorStats};
use crate::exec::streaming::{stage_kind, StageKind};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::optimizer::adaptive::{AdaptiveConfig, AdaptiveController};
use crate::record::DataRecord;
use std::sync::Arc;

/// Records per pull of the leading `Scan` in the materializing drive — the
/// size the E21 flat-memory curve was measured at.
const SCAN_CHUNK: usize = 4096;

/// How a physical plan is driven.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Operator-at-a-time over scan chunks: see the module docs.
    #[default]
    Materializing,
    /// Stage-per-operator pipeline over bounded channels: stages overlap
    /// on the virtual clock; downstream early termination cancels
    /// upstream work.
    Streaming {
        /// In-flight batches each channel may hold (backpressure knob).
        channel_capacity: usize,
        /// Records per batch flowing between stages.
        batch_size: usize,
    },
}

impl ExecMode {
    /// Streaming with the default knobs (capacity 2, batch 4).
    pub fn streaming() -> Self {
        ExecMode::Streaming {
            channel_capacity: 2,
            batch_size: 4,
        }
    }
}

/// Worker count for "auto" parallelism: the cores the OS reports.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionConfig {
    /// Materializing or streaming execution.
    pub mode: ExecMode,
    /// Intra-operator parallelism; `1` is serial. Materializing mode fans
    /// each LLM-bound operator's records out over this many threads.
    /// Streaming mode runs every stage serially and *models* the overlap:
    /// a stage's attributed busy time is divided by this many workers
    /// (clamped by the model's provider rate limit and by the batches the
    /// stage saw). Records, ledger, and trace are identical at every
    /// value; only attributed time changes.
    pub parallelism: usize,
    /// Mid-plan model failover: when an operator's model goes unhealthy
    /// (circuit breaker open, or a provider fault survives retries), swap
    /// the operator to the next-best healthy model instead of aborting.
    /// On by default; a no-op while all models stay healthy.
    pub failover: bool,
    /// How failover ranks substitute models — the active policy's primary
    /// dimension ([`crate::execute`] sets this from the policy).
    pub rank: FailoverRank,
    /// Execution deadline in virtual seconds, relative to plan start.
    /// Retries, backoff, and failover all respect it; exceeding it yields
    /// partial results flagged `deadline_exceeded`, never a hang.
    pub deadline_secs: Option<f64>,
    /// Runtime adaptive re-optimization: re-cost the remaining plan suffix
    /// during execution and swap degraded models out before they fail
    /// outright. Requires `failover` (it reuses the same substitution
    /// machinery); disabled by default and byte-invisible while off.
    pub adaptive: AdaptiveConfig,
    /// Incremental re-execution: replay memoized operator verdicts for
    /// unchanged records from the context's `ExecutionSnapshot` and
    /// re-bill only the dirty delta. Requires a snapshot installed via
    /// `PzContext::with_incremental`; off by default and byte-invisible
    /// while off (or while no snapshot is installed).
    pub incremental: bool,
    /// Memory budget (in records) for blocking operators, plumbed to
    /// `PzContext::spill_budget_records` on the executor's cloned context.
    /// Past it, `Sort` spills sorted runs to temp files and `HashJoin`
    /// streams its build side in budget-sized batches. `None` (the
    /// default) never spills.
    pub spill_budget_records: Option<usize>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            mode: ExecMode::default(),
            parallelism: 1,
            failover: true,
            rank: FailoverRank::default(),
            deadline_secs: None,
            adaptive: AdaptiveConfig::default(),
            incremental: false,
            spill_budget_records: None,
        }
    }
}

impl ExecutionConfig {
    /// Materializing, serial — the default.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Streaming pipeline with default knobs.
    pub fn streaming() -> Self {
        Self::default().with_mode(ExecMode::streaming())
    }

    /// Streaming pipeline with explicit backpressure knobs.
    pub fn streaming_with(channel_capacity: usize, batch_size: usize) -> Self {
        Self::default().with_mode(ExecMode::Streaming {
            channel_capacity: channel_capacity.max(1),
            batch_size: batch_size.max(1),
        })
    }

    /// Replace the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the execution deadline (virtual seconds from plan start).
    pub fn with_deadline(mut self, secs: f64) -> Self {
        self.deadline_secs = Some(secs);
        self
    }

    /// Set the failover ranking dimension.
    pub fn with_rank(mut self, rank: FailoverRank) -> Self {
        self.rank = rank;
        self
    }

    /// Disable mid-plan model failover (provider faults abort the plan).
    pub fn without_failover(mut self) -> Self {
        self.failover = false;
        self
    }

    /// Set the intra-operator parallelism. `0` means auto (one worker per
    /// available core).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = if workers == 0 {
            available_cores()
        } else {
            workers
        };
        self
    }

    /// Set the adaptive re-optimization configuration.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Enable incremental re-execution against the context's memo
    /// snapshot (`PzContext::with_incremental`): unchanged records replay
    /// memoized operator verdicts, only the delta is executed and billed.
    pub fn with_incremental(mut self) -> Self {
        self.incremental = true;
        self
    }

    /// Set the blocking-operator memory budget: past `records`, `Sort`
    /// spills runs to temp files and `HashJoin` streams its build side.
    pub fn with_spill_budget(mut self, records: usize) -> Self {
        self.spill_budget_records = Some(records.max(1));
        self
    }
}

/// Holds an admission slot for the duration of one run; `end` fires on
/// every exit path (success, pipeline error, panic unwind).
struct AdmissionGuard {
    gate: std::sync::Arc<dyn crate::context::AdmissionGate>,
    clock: pz_llm::VirtualClock,
    ticket: u64,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.gate.end(self.ticket, self.clock.now_secs());
    }
}

/// True when `e` is the tenant's own budget refusing further calls — the
/// signal for quota truncation (flagged partial results) rather than a
/// pipeline failure.
fn is_quota_exhausted(e: &PzError) -> bool {
    matches!(e, PzError::Llm(pz_llm::LlmError::QuotaExhausted { .. }))
}

/// Attach operator context to a failure.
pub(super) fn op_error(op: &PhysicalOp, cause: impl std::fmt::Display) -> PzError {
    PzError::Execution(format!("operator {}: {cause}", op.describe()))
}

/// Execute a physical plan, returning output records and statistics.
pub fn execute_plan(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    config: ExecutionConfig,
) -> PzResult<(Vec<DataRecord>, ExecutionStats)> {
    // The deadline is absolute on the virtual clock; retries see it via
    // the cloned context so backoff never sleeps past it.
    let deadline_at = config.deadline_secs.map(|d| ctx.clock.now_secs() + d);
    // Admission: a serving host gates the run here (capacity, queueing,
    // deadline-aware shedding). The deadline is anchored at *submission*,
    // so queue wait eats into it. The RAII guard releases the slot on
    // every exit path, including errors.
    let _admission = match &ctx.admission {
        Some(gate) => {
            let ticket = gate.begin(ctx.clock.now_secs(), deadline_at)?;
            Some(AdmissionGuard {
                gate: gate.clone(),
                clock: ctx.clock.clone(),
                ticket,
            })
        }
        None => None,
    };
    let profiling = ctx.tracer.profiling_enabled();
    let ctx = &{
        let mut c = ctx.clone();
        c.deadline_at_secs = deadline_at;
        // Blocking operators consult the budget straight off the context,
        // so it rides the same clone the deadline does (streaming stage
        // contexts derive from this clone too).
        c.spill_budget_records = config.spill_budget_records;
        if profiling {
            // Collect retry-backoff time; per-op deltas are attributed on
            // the op spans below. Off by default (no sink, no overhead).
            c.retry_wait_us = Some(std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)));
        } else {
            // A caller's context may still carry the sink a previous run
            // installed (e.g. a deadline-aborted profiled run): clear it
            // so this run's retries never leak into stale attribution.
            c.retry_wait_us = None;
        }
        c
    };
    // Adaptive re-optimization rides on the failover machinery; the
    // controller is only constructed when both are on, so disabled runs
    // stay byte-identical.
    let adaptive = if config.adaptive.enabled && config.failover {
        AdaptiveController::from_plan(ctx, plan, config.adaptive, config.rank).map(Arc::new)
    } else {
        None
    };
    // Incremental re-execution is armed only when both the config flag and
    // a context snapshot are present; the per-run replay count is the
    // delta on the (shared, cumulative) snapshot counter.
    let memo = if config.incremental {
        ctx.incremental.clone()
    } else {
        None
    };
    let memo_hits_before = memo.as_ref().map_or(0, |s| s.hits());
    let (records, mut stats) = match config.mode {
        ExecMode::Streaming {
            channel_capacity,
            batch_size,
        } => crate::exec::streaming::execute_streaming(
            ctx,
            plan,
            channel_capacity,
            batch_size,
            &config,
            adaptive,
        )?,
        ExecMode::Materializing => execute_materializing(ctx, plan, &config, adaptive)?,
    };
    if let Some(s) = &memo {
        stats.memo_hits = s.hits() - memo_hits_before;
    }
    Ok((records, stats))
}

/// True when `op` commutes with input chunking: `op(a ++ b)` equals
/// `op(a) ++ op(b)` bytewise, including ledger charges and derived-id
/// assignment order — the streaming executor's plain per-batch stages.
/// Joins are per-batch there too but would re-materialize their build side
/// per chunk, and `Limit` stays a barrier so a materializing run bills the
/// whole input (early-stop economies are streaming mode's contract).
fn chunk_safe(op: &PhysicalOp) -> bool {
    matches!(stage_kind(op), StageKind::PerBatch)
}

/// The materializing drive: scan chunks through the chunk-safe prefix,
/// then the suffix over the accumulated records (see the module docs).
fn execute_materializing(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    config: &ExecutionConfig,
    adaptive: Option<Arc<AdaptiveController>>,
) -> PzResult<(Vec<DataRecord>, ExecutionStats)> {
    let plan_span = ctx.tracer.span(pz_obs::Layer::Executor, "execute_plan");
    plan_span.set_attr("plan", plan.describe());
    plan_span.set_attr("workers", config.parallelism.to_string());

    // A working copy, so the adaptive controller can rewrite
    // not-yet-executed operators between steps.
    let mut ops: Vec<PhysicalOp> = plan.ops.clone();
    // Quota truncation is armed only when the tenant ledger carries a
    // budget: unbudgeted runs skip the per-op input clone entirely.
    let quota_armed = ctx.ledger.quota().is_limited();
    // Control flow that depends on whole-input state — adaptive repair
    // between operators, quota restore points — lives in the suffix, so
    // those runs get a scan-only prefix.
    let prefix_len = match ops.first() {
        Some(PhysicalOp::Scan { .. }) if quota_armed || adaptive.is_some() => 1,
        Some(PhysicalOp::Scan { .. }) => {
            1 + ops[1..].iter().take_while(|op| chunk_safe(op)).count()
        }
        _ => 0,
    };
    let mut drive = Drive {
        ctx,
        config,
        adaptive: adaptive.as_deref(),
        quota_armed,
        profiling: ctx.tracer.profiling_enabled(),
        stats: ExecutionStats {
            plan: plan.describe(),
            ..Default::default()
        },
    };
    let mut records: Vec<DataRecord> = Vec::new();

    if let Some(PhysicalOp::Scan { dataset }) = ops[..prefix_len].first() {
        // One runner per prefix operator for the whole scan: a failover is
        // sticky across chunks.
        let mut runners: Vec<OpRunner> = (1..prefix_len)
            .map(|i| OpRunner::new(ops[i].clone(), i, config, None))
            .collect();
        // An unopenable source fails inside the first scan step, under its
        // `op:` span like any other operator failure.
        let batches = ctx
            .open_scan(dataset, SCAN_CHUNK)
            .unwrap_or_else(|e| Box::new(std::iter::once(Err(e))));
        'scan: for batch in batches {
            if drive.past_deadline(&ops[0]) {
                break;
            }
            let mut chunk = drive
                .step(0, &ops[0], Vec::new(), records.len(), |_, _| batch)
                .map_err(|e| op_error(&ops[0], e))?;
            for (runner, i) in runners.iter_mut().zip(1..) {
                if drive.past_deadline(&ops[i]) {
                    // Partial results carry one schema: the records that
                    // cleared the whole prefix, or — when none have — the
                    // chunk as far as it got.
                    if records.is_empty() {
                        records = chunk;
                    }
                    break 'scan;
                }
                chunk = drive
                    .step(i, &ops[i], chunk, records.len(), |input, fanout| {
                        runner.execute(ctx, input, fanout, &|| 0.0)
                    })
                    .map_err(|e| op_error(&ops[i], e))?;
            }
            if records.is_empty() {
                records = chunk;
            } else {
                records.extend(chunk);
            }
        }
        for runner in runners {
            drive.stats.degraded.extend(runner.degraded);
        }
    }
    if let Some(ctrl) = &adaptive {
        ctrl.repair_suffix(ctx, &mut ops, prefix_len, records.len());
    }

    for i in prefix_len..ops.len() {
        let op = ops[i].clone();
        if drive.past_deadline(&op) {
            break;
        }
        // Under a budget, keep the op's input so a mid-op quota refusal can
        // return results through the last *completed* operator.
        let saved = quota_armed.then(|| records.clone());
        let mut runner = OpRunner::new(op.clone(), i, config, None);
        let input = std::mem::take(&mut records);
        let result = drive.step(i, &op, input, 0, |input, fanout| {
            runner.execute(ctx, input, fanout, &|| 0.0)
        });
        drive.stats.degraded.extend(runner.degraded);
        records = match result {
            Ok(out) => out,
            // The tenant's own budget refused the next call (the step
            // flagged it). Calls made before the refusal are billed — they
            // ran; nothing past the budget ever was. Truncate: restore the
            // input of the aborted operator and stop here.
            Err(_) if drive.stats.quota_exhausted => {
                records = saved.unwrap_or_default();
                break;
            }
            Err(e) => return Err(op_error(&op, e)),
        };
        // The step fed the controller this operator's observation; let it
        // repair the unexecuted suffix if a model drifted.
        if let Some(ctrl) = &adaptive {
            ctrl.repair_suffix(ctx, &mut ops, i + 1, records.len());
        }
    }

    let mut stats = drive.stats;
    if let Some(ctrl) = &adaptive {
        stats.adaptive = ctrl.take_reports();
    }
    stats.finalize();
    plan_span.set_attr("output_records", stats.output_records.to_string());
    plan_span.set_attr("llm_calls", stats.total_llm_calls.to_string());
    plan_span.set_attr("cost_usd", format!("{:.6}", stats.total_cost_usd));
    Ok((records, stats))
}

/// The state of one materializing run.
struct Drive<'a> {
    ctx: &'a PzContext,
    config: &'a ExecutionConfig,
    adaptive: Option<&'a AdaptiveController>,
    quota_armed: bool,
    profiling: bool,
    stats: ExecutionStats,
}

impl Drive<'_> {
    /// The deadline check made before every operator application; flags
    /// the run as partial (once) when it fires.
    fn past_deadline(&mut self, at: &PhysicalOp) -> bool {
        let now = self.ctx.clock.now_secs();
        if !self.stats.deadline_exceeded && self.ctx.deadline_at_secs.is_some_and(|d| now >= d) {
            self.stats.deadline_exceeded = true;
            self.ctx.tracer.event(
                pz_obs::Layer::Executor,
                "deadline_exceeded",
                &[("at_op", at.describe()), ("at_secs", format!("{now:.3}"))],
            );
        }
        self.stats.deadline_exceeded
    }

    /// One application of operator `i` to one batch — the only place this
    /// executor snapshots the ledger, opens an `op:` span, and writes
    /// `prof_*` attributes. `run` does the work, given the input and the
    /// thread fan-out; its deltas accrue onto the
    /// operator's stats row (created on first application, so rows cover
    /// exactly the operators that ran). `carried` counts records resident
    /// besides this batch. Errors come back unwrapped.
    fn step(
        &mut self,
        i: usize,
        op: &PhysicalOp,
        input: Vec<DataRecord>,
        carried: usize,
        run: impl FnOnce(Vec<DataRecord>, usize) -> PzResult<Vec<DataRecord>>,
    ) -> PzResult<Vec<DataRecord>> {
        let ctx = self.ctx;
        // A Scan ignores whatever it is handed.
        let in_len = if matches!(op, PhysicalOp::Scan { .. }) {
            0
        } else {
            input.len()
        };
        let fanout = self.config.parallelism.min(input.len().max(1));
        let retry_wait_us = || {
            ctx.retry_wait_us
                .as_ref()
                .map_or(0, |s| s.load(std::sync::atomic::Ordering::Relaxed))
        };
        let ledger_before = snapshot(ctx);
        let clock_before = ctx.clock.now_secs();
        let latency_before = ctx.ledger.total_latency_secs();
        let retry_before = retry_wait_us();
        // Structural span: LLM leaf spans made by this operator (from any
        // worker thread) nest under it.
        let span = ctx
            .tracer
            .span(pz_obs::Layer::Executor, &format!("op:{}", op.describe()));

        let out = match run(input, fanout) {
            Ok(out) => out,
            Err(e) => {
                if self.quota_armed && is_quota_exhausted(&e) {
                    self.stats.quota_exhausted = true;
                    ctx.tracer.event(
                        pz_obs::Layer::Executor,
                        "quota_exhausted",
                        &[
                            ("at_op", op.describe()),
                            ("at_secs", format!("{:.3}", ctx.clock.now_secs())),
                        ],
                    );
                }
                return Err(e);
            }
        };

        let ledger_after = snapshot(ctx);
        let raw_elapsed = ctx.clock.now_secs() - clock_before;
        let time_secs = if fanout > 1 && op.is_parallelizable() {
            raw_elapsed / fanout as f64
        } else {
            raw_elapsed
        };
        let llm_calls = ledger_after.0 - ledger_before.0;
        let cost_usd = ledger_after.3 - ledger_before.3;
        let stats = &mut self.stats;
        stats.peak_resident_records = stats.peak_resident_records.max(carried + out.len());
        if stats.operators.len() == i {
            stats.operators.push(OperatorStats {
                logical: op.logical_kind().to_string(),
                physical: op.describe(),
                model: op.model().map(|m| m.to_string()),
                ..Default::default()
            });
        }
        let row = &mut stats.operators[i];
        row.input_records += in_len;
        row.output_records += out.len();
        row.llm_calls += llm_calls;
        row.input_tokens += ledger_after.1 - ledger_before.1;
        row.output_tokens += ledger_after.2 - ledger_before.2;
        row.cost_usd += cost_usd;
        row.time_secs += time_secs;

        span.set_attr("in", in_len.to_string());
        span.set_attr("out", out.len().to_string());
        span.set_attr("llm_calls", llm_calls.to_string());
        span.set_attr("cost_usd", format!("{cost_usd:.6}"));
        span.set_attr("time_secs", format!("{time_secs:.6}"));
        if self.profiling {
            // Applications run one after another, so each one's window is
            // its raw clock elapsed; provider-wait is the ledger's modelled
            // latency delta, retry is the sink delta, queue/backpressure do
            // not exist in this mode.
            let window_us = (raw_elapsed * 1e6).round() as u64;
            let provider_us =
                ((ctx.ledger.total_latency_secs() - latency_before) * 1e6).round() as u64;
            span.set_attr("prof_window_us", window_us.to_string());
            span.set_attr("prof_provider_wait_us", provider_us.to_string());
            span.set_attr(
                "prof_retry_backoff_us",
                retry_wait_us().saturating_sub(retry_before).to_string(),
            );
            if window_us > 0 {
                let util = (time_secs * 1e6) / window_us as f64;
                span.set_attr("prof_utilization", format!("{:.4}", util.clamp(0.0, 1.0)));
            }
        }
        span.finish();
        if let Some(ctrl) = self.adaptive {
            ctrl.observe(i, op.model(), in_len, raw_elapsed, cost_usd);
        }
        Ok(out)
    }
}

fn snapshot(ctx: &PzContext) -> (usize, usize, usize, f64) {
    let usage = ctx.ledger.total_usage();
    (
        ctx.ledger.total_requests(),
        usage.input_tokens,
        usage.output_tokens,
        ctx.ledger.total_cost_usd(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::MemorySource;
    use crate::field::FieldDef;
    use crate::ops::logical::Cardinality;
    use crate::schema::Schema;
    use pz_llm::protocol::Effort;
    use std::sync::Arc;

    fn science_ctx() -> PzContext {
        let ctx = PzContext::simulated();
        let (docs, _) = pz_datagen::science::demo_corpus();
        let items: Vec<(String, String)> =
            docs.into_iter().map(|d| (d.filename, d.content)).collect();
        ctx.registry.register(Arc::new(MemorySource::new(
            "sigmod-demo",
            Schema::pdf_file(),
            items,
        )));
        ctx
    }

    fn clinical() -> Schema {
        Schema::new(
            "ClinicalData",
            "datasets in papers",
            vec![
                FieldDef::text("name", "The name of the clinical data dataset"),
                FieldDef::text("description", "A short description of the dataset"),
                FieldDef::text("url", "The public URL where the dataset can be accessed"),
            ],
        )
        .unwrap()
    }

    fn demo_plan() -> PhysicalPlan {
        PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "The papers are about colorectal cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::LlmConvert {
                    target: clinical(),
                    cardinality: Cardinality::OneToMany,
                    description: "extract datasets".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        }
    }

    #[test]
    fn end_to_end_scientific_pipeline() {
        let ctx = science_ctx();
        let (records, stats) =
            execute_plan(&ctx, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        // The demo: 11 papers in, ~5 pass the filter, ~6 datasets out.
        assert_eq!(stats.operators[0].output_records, 11);
        assert!(
            (4..=6).contains(&stats.operators[1].output_records),
            "filter kept {}",
            stats.operators[1].output_records
        );
        assert!(
            (4..=8).contains(&records.len()),
            "extracted {}",
            records.len()
        );
        assert!(stats.total_cost_usd > 0.0);
        assert!(stats.total_time_secs > 0.0);
        assert_eq!(stats.operators.len(), 3);
        // URLs present on most outputs.
        let with_url = records
            .iter()
            .filter(|r| r.get("url").is_some_and(|v| !v.is_null()))
            .count();
        assert!(with_url >= records.len() / 2);
    }

    #[test]
    fn per_operator_accounting_sums_to_total() {
        let ctx = science_ctx();
        let (_, stats) = execute_plan(&ctx, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        let op_cost: f64 = stats.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - stats.total_cost_usd).abs() < 1e-9);
        assert!((ctx.ledger.total_cost_usd() - stats.total_cost_usd).abs() < 1e-9);
        // Scan is free; filter and convert each made LLM calls.
        assert_eq!(stats.operators[0].llm_calls, 0);
        assert_eq!(stats.operators[1].llm_calls, 11);
        assert!(stats.operators[2].llm_calls >= 4);
    }

    #[test]
    fn parallel_execution_same_records_less_time() {
        let ctx1 = science_ctx();
        let (rec_seq, stats_seq) =
            execute_plan(&ctx1, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        let ctx2 = science_ctx();
        let (rec_par, stats_par) = execute_plan(
            &ctx2,
            &demo_plan(),
            ExecutionConfig::sequential().with_parallelism(4),
        )
        .unwrap();
        // Same outputs (determinism is per record content, not thread order
        // within chunks — chunk order preserves input order).
        assert_eq!(rec_seq.len(), rec_par.len());
        let mut names_seq: Vec<String> = rec_seq
            .iter()
            .map(|r| r.get("name").unwrap().as_display())
            .collect();
        let mut names_par: Vec<String> = rec_par
            .iter()
            .map(|r| r.get("name").unwrap().as_display())
            .collect();
        names_seq.sort();
        names_par.sort();
        assert_eq!(names_seq, names_par);
        // Cost identical, attributed time smaller.
        assert!((stats_seq.total_cost_usd - stats_par.total_cost_usd).abs() < 1e-9);
        assert!(
            stats_par.total_time_secs < stats_seq.total_time_secs,
            "par {} vs seq {}",
            stats_par.total_time_secs,
            stats_seq.total_time_secs
        );
    }

    #[test]
    fn conventional_ops_in_pipeline() {
        let ctx = science_ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::Sort {
                    field: "filename".into(),
                    descending: true,
                },
                PhysicalOp::Limit { n: 3 },
                PhysicalOp::Project {
                    fields: vec!["filename".into()],
                },
            ],
        };
        let (records, stats) = execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();
        assert_eq!(records.len(), 3);
        assert!(records[0].get("contents").is_none());
        assert_eq!(stats.total_llm_calls, 0);
        assert_eq!(stats.total_cost_usd, 0.0);
    }

    #[test]
    fn streaming_same_records_and_cost_less_virtual_time() {
        let ctx_m = science_ctx();
        let (rec_m, stats_m) =
            execute_plan(&ctx_m, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        let ctx_s = science_ctx();
        let (rec_s, stats_s) =
            execute_plan(&ctx_s, &demo_plan(), ExecutionConfig::streaming()).unwrap();

        // Identical outputs: the simulator keys responses on record
        // content, and stages preserve batch order.
        assert_eq!(rec_m.len(), rec_s.len());
        let names = |recs: &[DataRecord]| {
            let mut v: Vec<String> = recs
                .iter()
                .map(|r| r.get("name").unwrap().as_display())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&rec_m), names(&rec_s));

        // Identical cost and calls on the ledger and in the stats.
        assert!((stats_m.total_cost_usd - stats_s.total_cost_usd).abs() < 1e-9);
        assert_eq!(stats_m.total_llm_calls, stats_s.total_llm_calls);
        assert!((ctx_m.ledger.total_cost_usd() - ctx_s.ledger.total_cost_usd()).abs() < 1e-9);

        // Overlapping stages: strictly less attributed virtual time.
        assert!(
            stats_s.total_time_secs < stats_m.total_time_secs,
            "streaming {} vs materializing {}",
            stats_s.total_time_secs,
            stats_m.total_time_secs
        );
        assert!(stats_s.total_time_secs > 0.0);
    }

    #[test]
    fn streaming_per_operator_accounting_sums_to_ledger() {
        let ctx = science_ctx();
        let (_, stats) = execute_plan(&ctx, &demo_plan(), ExecutionConfig::streaming()).unwrap();
        assert_eq!(stats.operators.len(), 3);
        assert_eq!(stats.operators[0].llm_calls, 0);
        assert_eq!(stats.operators[1].llm_calls, 11);
        assert!(stats.operators[2].llm_calls >= 4);
        let op_cost: f64 = stats.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - ctx.ledger.total_cost_usd()).abs() < 1e-9);
        let op_calls: usize = stats.operators.iter().map(|o| o.llm_calls).sum();
        assert_eq!(op_calls, ctx.ledger.total_requests());
    }

    #[test]
    fn parallel_streaming_same_records_cost_less_attributed_time() {
        let base = ExecutionConfig::streaming_with(2, 1);
        let ctx_1 = science_ctx();
        let (rec_1, stats_1) = execute_plan(&ctx_1, &demo_plan(), base).unwrap();
        let ctx_8 = science_ctx();
        let (rec_8, stats_8) =
            execute_plan(&ctx_8, &demo_plan(), base.with_parallelism(8)).unwrap();

        // The worker pool is attribution-only: identical records…
        let names = |recs: &[DataRecord]| {
            let mut v: Vec<String> = recs
                .iter()
                .map(|r| r.get("name").unwrap().as_display())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&rec_1), names(&rec_8));
        // …identical ledger (same calls, same dollars, same clock order)…
        assert!((ctx_1.ledger.total_cost_usd() - ctx_8.ledger.total_cost_usd()).abs() < 1e-9);
        assert_eq!(ctx_1.ledger.total_requests(), ctx_8.ledger.total_requests());
        assert!((stats_1.total_cost_usd - stats_8.total_cost_usd).abs() < 1e-9);
        // …but at least 2x less attributed plan time, and the pool size is
        // recorded on the stats.
        assert!(
            stats_8.total_time_secs * 2.0 < stats_1.total_time_secs,
            "parallel 8 {} vs serial {}",
            stats_8.total_time_secs,
            stats_1.total_time_secs
        );
        assert_eq!(stats_1.parallelism, 1);
        assert_eq!(stats_8.parallelism, 8);
        // Per-operator accounting still reconciles against the ledger.
        let op_cost: f64 = stats_8.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - ctx_8.ledger.total_cost_usd()).abs() < 1e-9);
    }

    #[test]
    fn parallel_streaming_pool_clamped_by_model_rate_limit() {
        // gpt-4o publishes max_concurrency 8: a 32-worker request clamps to
        // the same effective pool, so attribution is identical.
        let base = ExecutionConfig::streaming_with(2, 1);
        let ctx_8 = science_ctx();
        let (_, stats_8) = execute_plan(&ctx_8, &demo_plan(), base.with_parallelism(8)).unwrap();
        let ctx_32 = science_ctx();
        let (_, stats_32) = execute_plan(&ctx_32, &demo_plan(), base.with_parallelism(32)).unwrap();
        assert!((stats_8.total_time_secs - stats_32.total_time_secs).abs() < 1e-9);
        assert_eq!(stats_8.parallelism, stats_32.parallelism);
    }

    #[test]
    fn parallel_streaming_failover_matches_serial_decisions() {
        // PR 4 semantics must hold per worker: one worker tripping the
        // breaker fails the whole stage over exactly once, and the pooled
        // run lands on the same substitute model as the serial run.
        let outage = pz_llm::FaultPlan::none().outage("gpt-4o", 0.0, 1e9);
        let base = ExecutionConfig::streaming_with(2, 1);
        let ctx_1 = science_ctx();
        ctx_1.faults.set(outage.clone());
        let (rec_1, stats_1) = execute_plan(&ctx_1, &demo_plan(), base).unwrap();
        let ctx_4 = science_ctx();
        ctx_4.faults.set(outage);
        let (rec_4, stats_4) =
            execute_plan(&ctx_4, &demo_plan(), base.with_parallelism(4)).unwrap();

        assert!(!rec_4.is_empty());
        assert!(
            !stats_4.degraded.is_empty(),
            "outage must record a failover"
        );
        assert_eq!(rec_1.len(), rec_4.len());
        let decisions = |stats: &ExecutionStats| {
            stats
                .degraded
                .iter()
                .map(|d| {
                    (
                        d.operator_index,
                        d.from_model.clone(),
                        d.to_model.clone(),
                        d.records_affected,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(decisions(&stats_1), decisions(&stats_4));
        assert!((ctx_1.ledger.total_cost_usd() - ctx_4.ledger.total_cost_usd()).abs() < 1e-9);
    }

    #[test]
    fn streaming_limit_cancels_upstream_llm_calls() {
        // scan -> filter -> limit 2: streaming stops filtering once the
        // limit is satisfied; materializing filters all 11 papers.
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "The papers are about colorectal cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::Limit { n: 2 },
            ],
        };
        let ctx_m = science_ctx();
        let (rec_m, _) = execute_plan(&ctx_m, &plan, ExecutionConfig::sequential()).unwrap();
        let ctx_s = science_ctx();
        // batch 1 so cancellation lands at record granularity.
        let (rec_s, _) =
            execute_plan(&ctx_s, &plan, ExecutionConfig::streaming_with(1, 1)).unwrap();
        assert_eq!(rec_m.len(), 2);
        assert_eq!(rec_s.len(), 2);
        assert_eq!(ctx_m.ledger.total_requests(), 11);
        assert!(
            ctx_s.ledger.total_requests() < ctx_m.ledger.total_requests(),
            "streaming made {} calls, materializing {}",
            ctx_s.ledger.total_requests(),
            ctx_m.ledger.total_requests()
        );
    }

    #[test]
    fn streaming_conventional_ops_match_materializing() {
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::Sort {
                    field: "filename".into(),
                    descending: true,
                },
                PhysicalOp::Limit { n: 3 },
                PhysicalOp::Project {
                    fields: vec!["filename".into()],
                },
            ],
        };
        let ctx_m = science_ctx();
        let (rec_m, _) = execute_plan(&ctx_m, &plan, ExecutionConfig::sequential()).unwrap();
        let ctx_s = science_ctx();
        let (rec_s, stats_s) = execute_plan(&ctx_s, &plan, ExecutionConfig::streaming()).unwrap();
        let files = |recs: &[DataRecord]| -> Vec<String> {
            recs.iter()
                .map(|r| r.get("filename").unwrap().as_display())
                .collect()
        };
        assert_eq!(files(&rec_m), files(&rec_s));
        assert_eq!(stats_s.total_llm_calls, 0);
        assert_eq!(stats_s.total_cost_usd, 0.0);
    }

    #[test]
    fn streaming_failing_op_surfaces_first_error_with_context() {
        let ctx = science_ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::UdfFilter {
                    udf: "not-registered".into(),
                },
                PhysicalOp::Limit { n: 3 },
            ],
        };
        let err = execute_plan(&ctx, &plan, ExecutionConfig::streaming_with(1, 2)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("UDFFilter[not-registered]"), "{msg}");
        assert!(msg.contains("unknown UDF"), "{msg}");
    }

    #[test]
    fn streaming_empty_plan_and_unknown_dataset() {
        let ctx = PzContext::simulated();
        let empty = PhysicalPlan { ops: vec![] };
        let (recs, stats) = execute_plan(&ctx, &empty, ExecutionConfig::streaming()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(stats.operators.len(), 0);
        let ghost = PhysicalPlan {
            ops: vec![PhysicalOp::Scan {
                dataset: "ghost".into(),
            }],
        };
        assert!(execute_plan(&ctx, &ghost, ExecutionConfig::streaming()).is_err());
    }

    #[test]
    fn failing_op_propagates_error_with_operator_context() {
        let ctx = science_ctx();
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::UdfFilter {
                    udf: "not-registered".into(),
                },
            ],
        };
        let err = execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("UDFFilter[not-registered]"), "{msg}");
        assert!(msg.contains("unknown UDF"), "{msg}");
    }

    #[test]
    fn unknown_dataset_errors() {
        let ctx = PzContext::simulated();
        let plan = PhysicalPlan {
            ops: vec![PhysicalOp::Scan {
                dataset: "ghost".into(),
            }],
        };
        assert!(execute_plan(&ctx, &plan, ExecutionConfig::sequential()).is_err());
    }

    // -- multi-chunk drive: corpora larger than SCAN_CHUNK ----------------

    const BIG: &str = "generated";

    fn big_source(n: usize) -> crate::datasource::GeneratedSource {
        crate::datasource::GeneratedSource::new(BIG, Schema::text_file(), n, |i| {
            let topic = if i % 32 == 0 {
                "colorectal cancer cohort"
            } else {
                "modern home"
            };
            (format!("doc-{i:05}.txt"), format!("Document {i}: {topic}."))
        })
    }

    /// Context over an `n`-record generated corpus. A UDF pre-filter keeps
    /// every 16th document (half of them about cancer), so the LLM work
    /// stays small while every scan chunk still contributes survivors.
    fn big_ctx(n: usize) -> PzContext {
        let ctx = PzContext::simulated();
        ctx.registry.register(Arc::new(big_source(n)));
        ctx.udfs.register_filter("sixteenth", |r: &DataRecord| {
            r.get("filename")
                .and_then(|v| v.as_display()[4..9].parse::<usize>().ok())
                .is_some_and(|i| i % 16 == 0)
        });
        ctx
    }

    fn big_plan() -> PhysicalPlan {
        PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: BIG.into(),
                },
                PhysicalOp::UdfFilter {
                    udf: "sixteenth".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "The document is about colorectal cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::LlmClassify {
                    labels: vec!["cancer".into(), "other".into()],
                    output_field: "label".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        }
    }

    /// Per operator: (input records, output records, LLM calls, dollars).
    type ReferenceRows = Vec<(usize, usize, usize, f64)>;

    /// The reference every chunked run is held to: the plan's operators
    /// applied one after another to the whole corpus at once, with the
    /// ledger delta each one caused.
    fn whole_corpus_reference(
        ctx: &PzContext,
        plan: &PhysicalPlan,
    ) -> (Vec<DataRecord>, ReferenceRows) {
        let mut records = Vec::new();
        let mut rows = Vec::new();
        for op in &plan.ops {
            let (in_len, before) = (records.len(), snapshot(ctx));
            records = op.execute(ctx, records).unwrap();
            let after = snapshot(ctx);
            rows.push((
                in_len,
                records.len(),
                after.0 - before.0,
                after.3 - before.3,
            ));
        }
        (records, rows)
    }

    /// Records bytewise (ids included) and every counted stats field
    /// exactly; money accumulates per chunk, so it may differ by f64
    /// summation order only.
    fn assert_matches_reference(
        (records, stats): &(Vec<DataRecord>, ExecutionStats),
        (ref_records, ref_rows): &(Vec<DataRecord>, ReferenceRows),
        label: &str,
    ) {
        assert_eq!(records, ref_records, "{label}: records diverge");
        assert_eq!(stats.operators.len(), ref_rows.len(), "{label}: row count");
        for (row, (in_len, out_len, calls, cost)) in stats.operators.iter().zip(ref_rows) {
            assert_eq!(row.input_records, *in_len, "{label}: {}: in", row.physical);
            assert_eq!(
                row.output_records, *out_len,
                "{label}: {}: out",
                row.physical
            );
            assert_eq!(row.llm_calls, *calls, "{label}: {}: calls", row.physical);
            assert!(
                (row.cost_usd - cost).abs() < 1e-9,
                "{label}: {}: cost {} vs {cost}",
                row.physical,
                row.cost_usd
            );
        }
        assert_eq!(stats.output_records, ref_records.len(), "{label}: outputs");
    }

    /// Corpus sizes around the chunk boundary and well past it.
    const BOUNDARY_SIZES: [usize; 4] = [
        SCAN_CHUNK - 1,
        SCAN_CHUNK,
        SCAN_CHUNK + 1,
        SCAN_CHUNK * 5 / 2,
    ];

    #[test]
    fn chunked_scan_identical_at_every_chunk_size() {
        // Fresh contexts per run so id counters, ledgers, and clocks all
        // start from the same state; the simulator keys responses on
        // request content, so equal inputs mean equal outputs.
        for n in BOUNDARY_SIZES {
            let reference = whole_corpus_reference(&big_ctx(n), &big_plan());
            let ctx = big_ctx(n);
            let run = execute_plan(&ctx, &big_plan(), ExecutionConfig::sequential()).unwrap();
            assert_matches_reference(&run, &reference, &format!("n={n}"));
            assert!((ctx.ledger.total_cost_usd() - run.1.total_cost_usd).abs() < 1e-9);
            let scans = ctx
                .tracer
                .snapshot()
                .spans
                .iter()
                .filter(|s| s.name == format!("op:Scan[{BIG}]"))
                .count();
            assert_eq!(
                scans,
                n.div_ceil(SCAN_CHUNK),
                "n={n}: one scan span per chunk"
            );
        }
    }

    #[test]
    fn chunked_scan_bounds_resident_records() {
        // A corpus that fits one chunk is resident whole...
        let (_, small) =
            execute_plan(&science_ctx(), &demo_plan(), ExecutionConfig::sequential()).unwrap();
        assert_eq!(small.peak_resident_records, 11);
        // ...a larger one holds one chunk plus the filtered survivors.
        let n = SCAN_CHUNK * 5 / 2;
        let (records, big) =
            execute_plan(&big_ctx(n), &big_plan(), ExecutionConfig::sequential()).unwrap();
        assert!(
            big.peak_resident_records <= SCAN_CHUNK + records.len(),
            "peak {} for chunk {SCAN_CHUNK} + output {}",
            big.peak_resident_records,
            records.len()
        );
        assert!(big.peak_resident_records < n);
    }

    #[test]
    fn chunked_scan_blocking_suffix_runs_on_accumulated_records() {
        // Sort is not chunk-safe: the prefix must stop at it and hand the
        // accumulated records of every chunk to the suffix.
        let mut plan = big_plan();
        plan.ops.push(PhysicalOp::Sort {
            field: "filename".into(),
            descending: true,
        });
        plan.ops.push(PhysicalOp::Limit { n: 3 });
        for n in [SCAN_CHUNK + 1, SCAN_CHUNK * 5 / 2] {
            let reference = whole_corpus_reference(&big_ctx(n), &plan);
            let run = execute_plan(&big_ctx(n), &plan, ExecutionConfig::sequential()).unwrap();
            assert_matches_reference(&run, &reference, &format!("suffix n={n}"));
        }
    }

    #[test]
    fn chunked_scan_parallel_same_multiset_and_cost() {
        // With thread fan-out the interleaving may reassign derived ids, so
        // compare the field multiset plus the accounted totals.
        let multiset = |records: &[DataRecord]| {
            let mut keys: Vec<String> = records.iter().map(|r| format!("{:?}", r.fields)).collect();
            keys.sort();
            keys
        };
        let n = SCAN_CHUNK * 5 / 2;
        let (ref_records, ref_rows) = whole_corpus_reference(&big_ctx(n), &big_plan());
        let (records, stats) = execute_plan(
            &big_ctx(n),
            &big_plan(),
            ExecutionConfig::sequential().with_parallelism(4),
        )
        .unwrap();
        let (_, serial) =
            execute_plan(&big_ctx(n), &big_plan(), ExecutionConfig::sequential()).unwrap();
        assert_eq!(multiset(&records), multiset(&ref_records));
        assert_eq!(
            stats.total_llm_calls,
            ref_rows.iter().map(|r| r.2).sum::<usize>()
        );
        let ref_cost: f64 = ref_rows.iter().map(|r| r.3).sum();
        assert!((stats.total_cost_usd - ref_cost).abs() < 1e-9);
        // Every chunk hands the LLM operators >= 4 records, so the whole
        // run's attributed time divides by the fan-out.
        assert!((stats.total_time_secs * 4.0 - serial.total_time_secs).abs() < 1e-6);
    }

    #[test]
    fn multi_chunk_outage_fails_over_once_per_operator() {
        // gpt-4o is down for the whole run. The runner is sticky across
        // scan chunks: one failover entry per LLM operator, accruing every
        // record the planned model did not handle — the same entries the
        // streaming executor records.
        let outage = pz_llm::FaultPlan::none().outage("gpt-4o", 0.0, 1e9);
        let n = SCAN_CHUNK * 5 / 2;
        let decisions = |stats: &ExecutionStats| {
            stats
                .degraded
                .iter()
                .map(|d| {
                    (
                        d.operator_index,
                        d.operator.clone(),
                        d.from_model.clone(),
                        d.to_model.clone(),
                        d.records_affected,
                    )
                })
                .collect::<Vec<_>>()
        };
        let ctx_m = big_ctx(n);
        ctx_m.faults.set(outage.clone());
        let (rec_m, stats_m) =
            execute_plan(&ctx_m, &big_plan(), ExecutionConfig::sequential()).unwrap();
        let ctx_s = big_ctx(n);
        ctx_s.faults.set(outage);
        let (rec_s, stats_s) =
            execute_plan(&ctx_s, &big_plan(), ExecutionConfig::streaming()).unwrap();

        assert_eq!(stats_m.degraded.len(), 2, "{:?}", stats_m.degraded);
        for (d, row) in stats_m.degraded.iter().zip(&stats_m.operators[2..]) {
            assert_eq!(d.from_model, "gpt-4o");
            assert_eq!(d.records_affected, row.input_records, "{d:?}");
        }
        assert_eq!(decisions(&stats_m), decisions(&stats_s));
        assert_eq!(rec_m.len(), rec_s.len());
        assert!((ctx_m.ledger.total_cost_usd() - ctx_s.ledger.total_cost_usd()).abs() < 1e-9);
    }

    /// A source that ignores the requested chunk size and reports its
    /// whole corpus as a single chunk.
    struct OneChunk(crate::datasource::GeneratedSource);

    impl crate::datasource::DataSource for OneChunk {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn schema(&self) -> Schema {
            self.0.schema()
        }
        fn records(&self, base_id: u64) -> PzResult<Vec<DataRecord>> {
            self.0.records(base_id)
        }
        fn batches(
            &self,
            base_id: u64,
            _chunk_size: usize,
        ) -> PzResult<crate::datasource::RecordBatchIter> {
            self.0.batches(base_id, 0)
        }
        fn cardinality_hint(&self) -> Option<usize> {
            self.0.cardinality_hint()
        }
    }

    #[test]
    fn quota_and_adaptive_runs_are_chunk_invariant() {
        // Quota-armed and adaptive runs take a scan-only prefix, so a
        // corpus pulled in several chunks must behave exactly like the
        // same corpus reported as one chunk.
        let n = SCAN_CHUNK * 5 / 2;
        // Runs the plan over the chunked and the single-chunk source after
        // `arm` prepared each context; returns the (shared) stats.
        let differential = |label: &str, arm: &dyn Fn(&PzContext), config: ExecutionConfig| {
            let ctx_multi = big_ctx(n);
            let ctx_one = big_ctx(n);
            ctx_one.registry.register(Arc::new(OneChunk(big_source(n))));
            arm(&ctx_multi);
            arm(&ctx_one);
            let (rec_multi, stats_multi) = execute_plan(&ctx_multi, &big_plan(), config).unwrap();
            let (rec_one, mut stats_one) = execute_plan(&ctx_one, &big_plan(), config).unwrap();
            assert_eq!(rec_multi, rec_one, "{label}: records");
            // Residency is the one thing chunking is allowed to change.
            stats_one.peak_resident_records = stats_multi.peak_resident_records;
            assert_eq!(
                serde_json::to_string(&stats_multi).unwrap(),
                serde_json::to_string(&stats_one).unwrap(),
                "{label}: stats"
            );
            assert_eq!(
                ctx_multi.ledger.total_requests(),
                ctx_one.ledger.total_requests(),
                "{label}: ledger"
            );
            stats_multi
        };

        let stats = differential(
            "quota",
            &|ctx| ctx.ledger.set_quota(pz_llm::Quota::request_limit(300)),
            ExecutionConfig::sequential(),
        );
        assert!(stats.quota_exhausted);

        let brownout =
            pz_llm::FaultPlan::parse("gpt-4o:timeout@0..1000000:p=0.35:stall=25", 42).unwrap();
        let stats = differential(
            "adaptive",
            &|ctx| ctx.faults.set(brownout.clone()),
            ExecutionConfig::sequential().with_adaptive(AdaptiveConfig::on()),
        );
        assert!(!stats.adaptive.is_empty(), "no adaptive repair fired");
    }

    #[test]
    fn multi_chunk_deadline_returns_one_schema_and_reconciles() {
        // The deadline trips somewhere inside the second chunk: the partial
        // output is the records that cleared the whole prefix — labelled,
        // every one — and every billed call is on a stats row.
        let n = SCAN_CHUNK * 5 / 2;
        let ctx = big_ctx(n);
        let (_, full) = execute_plan(&ctx, &big_plan(), ExecutionConfig::sequential()).unwrap();
        let ctx = big_ctx(n);
        let (records, stats) = execute_plan(
            &ctx,
            &big_plan(),
            ExecutionConfig::sequential().with_deadline(full.total_time_secs * 0.6),
        )
        .unwrap();
        assert!(stats.deadline_exceeded);
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.get("label").is_some()));
        let op_calls: usize = stats.operators.iter().map(|o| o.llm_calls).sum();
        assert_eq!(op_calls, ctx.ledger.total_requests());
        let op_cost: f64 = stats.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - ctx.ledger.total_cost_usd()).abs() < 1e-9);
    }

    // -- streaming: modelled intra-stage parallelism ------------------------

    #[test]
    fn streaming_parallelism_changes_time_attribution_only() {
        let run = |p: usize| {
            let ctx = science_ctx();
            let config = ExecutionConfig::streaming_with(2, 1).with_parallelism(p);
            let (records, stats) = execute_plan(&ctx, &demo_plan(), config).unwrap();
            (ctx, records, stats)
        };
        let (ctx_1, rec_1, stats_1) = run(1);
        for p in [2usize, 8] {
            let (ctx_p, rec_p, stats_p) = run(p);
            assert_eq!(rec_1, rec_p, "p={p}: records (ids included)");
            assert_eq!(ctx_1.ledger.total_requests(), ctx_p.ledger.total_requests());
            assert_eq!(ctx_1.ledger.total_cost_usd(), ctx_p.ledger.total_cost_usd());
            assert_eq!(ctx_1.clock.now_secs(), ctx_p.clock.now_secs());
            assert_eq!(stats_p.parallelism, p);
            let snap = ctx_p.tracer.snapshot();
            for (serial, row) in stats_1.operators.iter().zip(&stats_p.operators) {
                // The scan has no input channel and stays serial; an LLM
                // stage's busy time divides by `p`, capped by the
                // single-record batches it saw.
                let workers = if row.model.is_some() {
                    p.min(row.input_records)
                } else {
                    1
                };
                // Stage threads interleave, so a stage's dollars are summed
                // from ledger deltas taken at different totals: equal to
                // the last bit or two, not bitwise.
                let mut expect = serial.clone();
                expect.time_secs = serial.time_secs / workers as f64;
                expect.cost_usd = row.cost_usd;
                assert_eq!(&expect, row, "p={p}");
                assert!((serial.cost_usd - row.cost_usd).abs() < 1e-12, "p={p}");
                let span = snap
                    .spans
                    .iter()
                    .find(|s| s.name == format!("op:{}", row.physical))
                    .unwrap();
                assert_eq!(
                    span.attrs.get("workers").cloned(),
                    (workers > 1).then(|| workers.to_string()),
                    "p={p}: {} workers attribute",
                    row.physical
                );
            }
        }
    }

    // -- panics and odd plan shapes ------------------------------------------

    #[test]
    fn panicking_udf_is_an_execution_error_in_both_modes() {
        for config in [
            ExecutionConfig::streaming(),
            ExecutionConfig::sequential().with_parallelism(2),
        ] {
            let ctx = science_ctx();
            ctx.udfs
                .register_filter("boom", |_: &DataRecord| panic!("tenant bug"));
            let plan = PhysicalPlan {
                ops: vec![
                    PhysicalOp::Scan {
                        dataset: "sigmod-demo".into(),
                    },
                    PhysicalOp::UdfFilter { udf: "boom".into() },
                    PhysicalOp::Limit { n: 3 },
                ],
            };
            let err = execute_plan(&ctx, &plan, config).unwrap_err();
            let msg = err.to_string();
            assert!(
                matches!(err, PzError::Execution(_)),
                "{:?}: {msg}",
                config.mode
            );
            assert!(msg.contains("operator UDFFilter[boom]"), "{msg}");
            assert!(msg.contains("panicked: tenant bug"), "{msg}");
        }
    }

    #[test]
    fn plan_without_leading_scan_runs_identically_in_both_modes() {
        // UnionAll over no input yields the other dataset; with no Scan in
        // front there is no source stage and no chunked prefix.
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::UnionAll {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::Project {
                    fields: vec!["filename".into()],
                },
            ],
        };
        let (rec_m, stats_m) =
            execute_plan(&science_ctx(), &plan, ExecutionConfig::sequential()).unwrap();
        let (rec_s, stats_s) =
            execute_plan(&science_ctx(), &plan, ExecutionConfig::streaming()).unwrap();
        assert_eq!(rec_m.len(), 11);
        assert_eq!(rec_m, rec_s);
        assert_eq!(stats_m.operators.len(), 2);
        assert_eq!(stats_s.output_records, 11);
    }
}
