//! Streaming pipelined execution.
//!
//! Each physical operator runs as a *stage* on its own scoped thread,
//! linked to its neighbours by bounded channels
//! ([`crate::exec::channel`]): record batches flow downstream as soon as
//! they are produced, so LLM-bound stages overlap on the virtual clock
//! instead of serializing. Backpressure comes from channel capacity;
//! early termination (a satisfied `Limit`, a closed tail) propagates
//! upstream as a failed `send`, cancelling in-flight work at batch
//! granularity.
//!
//! ## Accounting under concurrency
//!
//! The materializing executor attributes per-operator cost by snapshotting
//! the shared ledger around each operator — invalid when stages run
//! concurrently. Here every stage gets its own [`StageMeter`]: a thin
//! `LlmClient` wrapper that serializes provider calls through one global
//! gate and attributes each call's ledger delta (requests, tokens,
//! dollars, modelled latency) to its stage. Cache hits never touch the
//! ledger and therefore bill nothing, exactly as in materializing mode;
//! retry backoff advances the clock *between* attempts (outside the gate)
//! and is attributed to no stage.
//!
//! Plan time is *modelled*, not measured: the virtual clock advances by
//! the full latency of every call regardless of mode, so overlap shows up
//! as `ExecutionStats::finalize_pipelined` — plan time is the bottleneck
//! stage plus upstream pipeline-fill delay, not the sum of stages.
//!
//! ## Intra-stage parallelism is modelled, not run
//!
//! Every stage processes its batches serially, in arrival order, on its
//! one thread — that is what keeps the clock, the ledger, fault windows,
//! and failover decisions deterministic. [`ExecutionConfig::parallelism`]
//! changes *time attribution only*: a per-batch stage's busy time is
//! divided by its effective worker count (the configured parallelism,
//! clamped by the model's provider rate limit and by the batches the stage
//! saw), mirroring the materializing executor's `elapsed / fan-out` rule,
//! and `finalize_pipelined` turns that into the plan-level speedup. An
//! earlier thread pool per stage took strict turns at the provider to stay
//! deterministic and so never bought wall-clock time (measured at
//! 0.80–1.08x of serial across the benchmark's workloads); it was removed
//! in favour of this arithmetic, which is all it reduced to.
//!
//! ## Spans
//!
//! The plan span is structural; per-operator spans are *leaf* spans
//! opened up-front in plan order (all siblings under the plan span), so
//! concurrent stage threads never push onto the tracer's shared scope
//! stack. LLM leaf spans made mid-stream therefore parent under the plan
//! span; per-operator totals live as attributes on the `op:` spans and
//! reconcile exactly with `ExecutionStats` and the ledger.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::exec::channel::{bounded, Receiver, Sender};
use crate::exec::run::ExecutionConfig;
use crate::exec::runner::{panicked, OpRunner};
use crate::exec::stats::{DegradedExecution, ExecutionStats, OperatorStats};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::optimizer::adaptive::AdaptiveController;
use crate::record::DataRecord;
use parking_lot::Mutex;
use pz_llm::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient,
    LlmError, Usage, UsageLedger,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Per-stage accounting accumulated by [`StageMeter`].
#[derive(Clone, Copy, Debug, Default)]
struct MeterTotals {
    llm_calls: usize,
    input_tokens: usize,
    output_tokens: usize,
    cost_usd: f64,
    /// Modelled latency attributed to this stage (sum of its calls'
    /// ledger latency — excludes retry backoff, which no stage owns).
    busy_secs: f64,
}

/// Per-stage profiling gauges, present only when the tracer's profiling
/// flag is on ([`pz_obs::Tracer::set_profiling`]). All quantities are
/// *virtual-clock* microseconds measured around the stage's blocking
/// regions; with profiling off no gauge exists and the executor's trace
/// output is byte-identical to a pre-profiler build.
struct StageProf {
    tracer: pz_obs::Tracer,
    /// Queue-depth histogram name for this stage's input channel
    /// (`stage.{idx}.queue_depth` — the channel feeding stage `idx`).
    in_depth: String,
    /// Same, for the output channel (`stage.{idx+1}.queue_depth`).
    out_depth: String,
    /// Blocked on an empty input channel.
    queue_wait_us: AtomicU64,
    /// Blocked on a full output channel (downstream too slow).
    backpressure_us: AtomicU64,
    /// Waiting for the provider gate plus the modelled latency
    /// of the stage's own provider calls.
    provider_wait_us: AtomicU64,
    /// Retry-backoff sleeps, accumulated by the retry layer through the
    /// stage context's `retry_wait_us` sink (shared `Arc` so the clone
    /// handed to `RetryContext` lands here).
    retry_backoff_us: Arc<AtomicU64>,
}

impl StageProf {
    fn now(&self) -> u64 {
        self.tracer.now_micros()
    }
}

/// `LlmClient` wrapper attributing ledger deltas to one stage.
///
/// All stages share one `gate`, so ledger snapshots taken around a call
/// see exactly that call's contribution even though stages run on
/// concurrent threads. Failed (transient) attempts bill nothing — the
/// simulator errors before recording — so retries stay cost-neutral, as
/// in materializing mode.
struct StageMeter {
    inner: Arc<dyn LlmClient>,
    gate: Arc<Mutex<()>>,
    ledger: UsageLedger,
    totals: Mutex<MeterTotals>,
    /// Profiling gauges; `None` unless the tracer's profiling flag was on
    /// when the plan launched.
    prof: Option<StageProf>,
}

impl StageMeter {
    fn new(
        inner: Arc<dyn LlmClient>,
        gate: Arc<Mutex<()>>,
        ledger: UsageLedger,
        prof: Option<StageProf>,
    ) -> Self {
        Self {
            inner,
            gate,
            ledger,
            totals: Mutex::new(MeterTotals::default()),
            prof,
        }
    }

    fn snap(&self) -> (usize, Usage, f64, f64) {
        (
            self.ledger.total_requests(),
            self.ledger.total_usage(),
            self.ledger.total_cost_usd(),
            self.ledger.total_latency_secs(),
        )
    }

    fn metered<R>(&self, call: impl FnOnce(&dyn LlmClient) -> R) -> R {
        // Provider-wait covers gate contention (stages serialize provider
        // access) plus the call's own modelled latency.
        let prof_t0 = self.prof.as_ref().map(|p| p.now());
        let _serialized = self.gate.lock();
        let before = self.snap();
        let out = call(self.inner.as_ref());
        let after = self.snap();
        let mut t = self.totals.lock();
        t.llm_calls += after.0 - before.0;
        t.input_tokens += after.1.input_tokens - before.1.input_tokens;
        t.output_tokens += after.1.output_tokens - before.1.output_tokens;
        t.cost_usd += after.2 - before.2;
        t.busy_secs += after.3 - before.3;
        drop(t);
        if let (Some(p), Some(t0)) = (self.prof.as_ref(), prof_t0) {
            p.provider_wait_us
                .fetch_add(p.now().saturating_sub(t0), Ordering::Relaxed);
        }
        out
    }

    fn totals(&self) -> MeterTotals {
        *self.totals.lock()
    }

    fn busy_secs(&self) -> f64 {
        self.totals.lock().busy_secs
    }
}

impl LlmClient for StageMeter {
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        self.metered(|c| c.complete(req))
    }

    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        self.metered(|c| c.embed(req))
    }
}

/// What one stage thread reports back after joining.
#[derive(Default)]
struct StageReport {
    input_records: usize,
    output_records: usize,
    /// Final-stage only: the plan's output records.
    collected: Vec<DataRecord>,
    /// Busy time accumulated before the first output batch was emitted —
    /// the stage's contribution to downstream pipeline-fill delay.
    startup_secs: f64,
    /// Failover decisions made by this stage, in order.
    degraded: Vec<DegradedExecution>,
    /// Modelled workers: `min(rate-capped parallelism, batches seen)`.
    /// `0`/`1` means serial; divides the stage's attributed busy time.
    effective_workers: usize,
    /// Profiling only: virtual µs from stage launch to the stage thread
    /// finishing — the window its attribution buckets must fill.
    window_us: u64,
}

/// How a stage consumes its input stream. Classifying a `PhysicalOp` is an
/// exhaustive match: a new operator does not compile until it is placed.
pub(super) enum StageKind {
    /// Batch-at-a-time: `op.execute` per incoming batch, and nothing else
    /// — these operators commute with any re-chunking of their input.
    PerBatch,
    /// Batch-at-a-time probe against a build side that each `op.execute`
    /// materializes anew (the joins).
    Probe,
    /// Must see the whole input before producing anything.
    Blocking,
    /// Stateful pass-through that cancels upstream once satisfied.
    Limit(usize),
    /// Pass-through, then flush the other dataset at end-of-stream.
    Union,
}

pub(super) fn stage_kind(op: &PhysicalOp) -> StageKind {
    match op {
        PhysicalOp::LlmFilter { .. }
        | PhysicalOp::EmbeddingFilter { .. }
        | PhysicalOp::EnsembleFilter { .. }
        | PhysicalOp::UdfFilter { .. }
        | PhysicalOp::LlmConvert { .. }
        | PhysicalOp::FieldwiseConvert { .. }
        | PhysicalOp::Map { .. }
        | PhysicalOp::Project { .. }
        | PhysicalOp::LlmClassify { .. } => StageKind::PerBatch,
        PhysicalOp::HashJoin { .. } | PhysicalOp::LlmJoin { .. } => StageKind::Probe,
        PhysicalOp::Limit { n } => StageKind::Limit(*n),
        // Sort/Distinct/Aggregate need the full input; Retrieve builds a
        // temporary vector collection over it, so per-batch top-k would
        // be wrong. A mid-plan Scan ignores its input entirely — running
        // it once over the collected stream matches materializing mode.
        PhysicalOp::Sort { .. }
        | PhysicalOp::Distinct { .. }
        | PhysicalOp::Aggregate { .. }
        | PhysicalOp::Retrieve { .. }
        | PhysicalOp::Scan { .. } => StageKind::Blocking,
        PhysicalOp::UnionAll { .. } => StageKind::Union,
    }
}

/// Where a stage's output goes: the next stage's channel, or (for the
/// final stage) an in-memory collection.
struct Emitter {
    output: Option<Sender<Vec<DataRecord>>>,
    collected: Vec<DataRecord>,
    first_emit_busy: Option<f64>,
}

impl Emitter {
    /// Deliver a batch downstream. `false` means downstream disconnected
    /// (early termination) and the stage should stop producing.
    fn emit(&mut self, meter: &StageMeter, batch: Vec<DataRecord>) -> bool {
        if self.first_emit_busy.is_none() {
            self.first_emit_busy = Some(meter.busy_secs());
        }
        match &self.output {
            Some(tx) => match meter.prof.as_ref() {
                None => tx.send(batch).is_ok(),
                Some(p) => {
                    // A blocked send is backpressure: downstream (or the
                    // provider it waits on) is the slow party.
                    let t0 = p.now();
                    let ok = tx.send(batch).is_ok();
                    p.backpressure_us
                        .fetch_add(p.now().saturating_sub(t0), Ordering::Relaxed);
                    if ok {
                        p.tracer.observe(&p.out_depth, tx.len() as f64);
                    }
                    ok
                }
            },
            None => {
                self.collected.extend(batch);
                true
            }
        }
    }
}

/// `rx.recv()` with the wait charged to the stage's queue-wait gauge and
/// the post-receive queue depth sampled (profiling only).
fn recv_timed(rx: &Receiver<Vec<DataRecord>>, meter: &StageMeter) -> Option<Vec<DataRecord>> {
    match meter.prof.as_ref() {
        None => rx.recv(),
        Some(p) => {
            let t0 = p.now();
            let out = rx.recv();
            p.queue_wait_us
                .fetch_add(p.now().saturating_sub(t0), Ordering::Relaxed);
            if out.is_some() {
                p.tracer.observe(&p.in_depth, rx.len() as f64);
            }
            out
        }
    }
}

struct StageShared {
    abort: AtomicBool,
    first_error: Mutex<Option<PzError>>,
    /// Absolute deadline on the virtual clock, if any.
    deadline_at: Option<f64>,
    deadline_exceeded: AtomicBool,
}

impl StageShared {
    fn fail(&self, op: &PhysicalOp, e: PzError) {
        self.abort.store(true, Ordering::SeqCst);
        self.first_error
            .lock()
            .get_or_insert_with(|| crate::exec::run::op_error(op, e));
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Deadline check, flagging the run as partial when it fires. Stages
    /// stop *cleanly* (dropping their receiver cancels upstream), so the
    /// pipeline drains to partial results rather than an error.
    fn past_deadline(&self, now: f64) -> bool {
        match self.deadline_at {
            Some(d) if now >= d => {
                self.deadline_exceeded.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }
}

/// Execute `plan` as a stage-per-operator pipeline.
pub(crate) fn execute_streaming(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    channel_capacity: usize,
    batch_size: usize,
    config: &ExecutionConfig,
    adaptive: Option<Arc<AdaptiveController>>,
) -> PzResult<(Vec<DataRecord>, ExecutionStats)> {
    let mut stats = ExecutionStats {
        plan: plan.describe(),
        ..Default::default()
    };
    if plan.ops.is_empty() {
        return Ok((Vec::new(), stats));
    }
    let channel_capacity = channel_capacity.max(1);
    let batch_size = batch_size.max(1);

    let plan_span = ctx.tracer.span(pz_obs::Layer::Executor, "execute_plan");
    plan_span.set_attr("plan", plan.describe());
    plan_span.set_attr("mode", "streaming");
    plan_span.set_attr("channel_capacity", channel_capacity.to_string());
    plan_span.set_attr("batch_size", batch_size.to_string());

    // Leaf spans do not push the tracer's scope stack, so opening them
    // up-front keeps parenting correct while stages run concurrently.
    let op_spans: Vec<pz_obs::SpanGuard> = plan
        .ops
        .iter()
        .map(|op| {
            ctx.tracer
                .leaf_span(pz_obs::Layer::Executor, &format!("op:{}", op.describe()))
        })
        .collect();

    let gate = Arc::new(Mutex::new(()));
    let shared = Arc::new(StageShared {
        abort: AtomicBool::new(false),
        first_error: Mutex::new(None),
        deadline_at: ctx.deadline_at_secs,
        deadline_exceeded: AtomicBool::new(false),
    });
    // Profiling gauges exist only when the tracer's flag is on, so the
    // default run records nothing new and its trace stays byte-identical.
    let profiling = ctx.tracer.profiling_enabled();
    let meters: Vec<Arc<StageMeter>> = plan
        .ops
        .iter()
        .enumerate()
        .map(|(idx, _)| {
            Arc::new(StageMeter::new(
                ctx.llm.clone(),
                gate.clone(),
                ctx.ledger.clone(),
                profiling.then(|| StageProf {
                    tracer: ctx.tracer.clone(),
                    in_depth: format!("stage.{idx}.queue_depth"),
                    out_depth: format!("stage.{}.queue_depth", idx + 1),
                    queue_wait_us: AtomicU64::new(0),
                    backpressure_us: AtomicU64::new(0),
                    provider_wait_us: AtomicU64::new(0),
                    retry_backoff_us: Arc::new(AtomicU64::new(0)),
                }),
            ))
        })
        .collect();

    let mut reports: Vec<StageReport> = Vec::with_capacity(plan.ops.len());
    crossbeam::thread::scope(|s| {
        let mut handles = Vec::with_capacity(plan.ops.len());
        let mut upstream: Option<Receiver<Vec<DataRecord>>> = None;
        for (idx, op) in plan.ops.iter().enumerate() {
            let (tx, next_rx) = if idx + 1 < plan.ops.len() {
                let (tx, rx) = bounded(channel_capacity);
                (Some(tx), Some(rx))
            } else {
                (None, None)
            };
            let input = upstream.take();
            upstream = next_rx;

            let meter = meters[idx].clone();
            let mut stage_ctx = ctx.clone();
            stage_ctx.llm = meter.clone();
            // Point the retry layer's backoff sink at this stage's gauge.
            stage_ctx.retry_wait_us = meter.prof.as_ref().map(|p| p.retry_backoff_us.clone());
            let op = op.clone();
            let shared = shared.clone();
            let config = *config;
            let adaptive = adaptive.clone();
            handles.push(s.spawn(move |_| {
                run_stage(
                    &stage_ctx, &op, idx, input, tx, batch_size, &shared, &meter, &config, adaptive,
                )
            }));
        }
        for (h, op) in handles.into_iter().zip(&plan.ops) {
            // A stage that died dropped its channel ends, so its neighbours
            // drained; its failure is recorded like any other stage's.
            reports.push(h.join().unwrap_or_else(|payload| {
                shared.fail(op, panicked(payload));
                StageReport::default()
            }));
        }
    })
    .expect("crossbeam scope");

    // A fatal stage error wins over any partial output: the pipeline has
    // drained (all threads joined above), now surface the first error.
    if let Some(e) = shared.first_error.lock().take() {
        return Err(e);
    }

    // Merge per-stage failover decisions in plan order.
    for report in &mut reports {
        stats.degraded.append(&mut report.degraded);
    }
    if let Some(ctrl) = &adaptive {
        stats.adaptive = ctrl.take_reports();
    }
    if shared.deadline_exceeded.load(Ordering::SeqCst) {
        stats.deadline_exceeded = true;
        ctx.tracer.event(
            pz_obs::Layer::Executor,
            "deadline_exceeded",
            &[("at_secs", format!("{:.3}", ctx.clock.now_secs()))],
        );
    }

    let mut startup = Vec::with_capacity(plan.ops.len());
    for ((op, report), (meter, span)) in plan
        .ops
        .iter()
        .zip(&reports)
        .zip(meters.iter().zip(op_spans))
    {
        let m = meter.totals();
        // Intra-stage parallelism overlaps a stage's calls on the modelled
        // timeline: attributed time divides by the stage's effective
        // workers (mirrors the materializing `elapsed / fan-out`).
        // Cost, calls, and tokens never divide — billing is identical.
        let workers = report.effective_workers.max(1);
        let op_stats = OperatorStats {
            logical: op.logical_kind().to_string(),
            physical: op.describe(),
            model: op.model().map(|m| m.to_string()),
            input_records: report.input_records,
            output_records: report.output_records,
            llm_calls: m.llm_calls,
            input_tokens: m.input_tokens,
            output_tokens: m.output_tokens,
            cost_usd: m.cost_usd,
            time_secs: m.busy_secs / workers as f64,
        };
        if workers > 1 {
            // Serial runs skip the attribute so their traces stay
            // byte-identical to pre-parallelism output.
            span.set_attr("workers", workers.to_string());
        }
        span.set_attr("in", op_stats.input_records.to_string());
        span.set_attr("out", op_stats.output_records.to_string());
        span.set_attr("llm_calls", op_stats.llm_calls.to_string());
        span.set_attr("cost_usd", format!("{:.6}", op_stats.cost_usd));
        span.set_attr("time_secs", format!("{:.6}", op_stats.time_secs));
        if let Some(p) = &meter.prof {
            // Raw gauge sums; `pz_obs::profile` fits them to the window.
            span.set_attr("prof_window_us", report.window_us.to_string());
            span.set_attr(
                "prof_queue_wait_us",
                p.queue_wait_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr(
                "prof_backpressure_us",
                p.backpressure_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr(
                "prof_provider_wait_us",
                p.provider_wait_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr(
                "prof_retry_backoff_us",
                p.retry_backoff_us.load(Ordering::Relaxed).to_string(),
            );
            span.set_attr("prof_startup_secs", format!("{:.6}", report.startup_secs));
            if report.window_us > 0 {
                let util = (op_stats.time_secs * 1e6) / report.window_us as f64;
                span.set_attr("prof_utilization", format!("{:.4}", util.clamp(0.0, 1.0)));
            }
        }
        span.finish();
        startup.push(report.startup_secs);
        stats.operators.push(op_stats);
    }
    stats.parallelism = reports
        .iter()
        .map(|r| r.effective_workers.max(1))
        .max()
        .unwrap_or(1);
    stats.finalize_pipelined(&startup);

    let records = reports.pop().map(|r| r.collected).unwrap_or_default();
    stats.output_records = records.len();
    plan_span.set_attr("output_records", stats.output_records.to_string());
    plan_span.set_attr("llm_calls", stats.total_llm_calls.to_string());
    plan_span.set_attr("cost_usd", format!("{:.6}", stats.total_cost_usd));
    Ok((records, stats))
}

#[allow(clippy::too_many_arguments)]
fn run_stage(
    ctx: &PzContext,
    op: &PhysicalOp,
    idx: usize,
    input: Option<Receiver<Vec<DataRecord>>>,
    output: Option<Sender<Vec<DataRecord>>>,
    batch_size: usize,
    shared: &StageShared,
    meter: &StageMeter,
    config: &ExecutionConfig,
    adaptive: Option<Arc<AdaptiveController>>,
) -> StageReport {
    let mut report = StageReport::default();
    let mut emitter = Emitter {
        output,
        collected: Vec::new(),
        first_emit_busy: None,
    };
    let mut fo = OpRunner::new(op.clone(), idx, config, adaptive);
    let busy = || meter.busy_secs();
    let prof_t0 = meter.prof.as_ref().map(|p| p.now());

    match (input, op) {
        // Source stage: a leading Scan pulls its source chunk-at-a-time, so
        // at most one batch of leaf records is resident here however large
        // the corpus. A failed emit means downstream cancelled — stop early.
        (None, PhysicalOp::Scan { dataset }) => match ctx.open_scan(dataset, batch_size) {
            Ok(batches) => {
                for batch in batches {
                    if shared.aborted() || shared.past_deadline(ctx.clock.now_secs()) {
                        break;
                    }
                    match batch {
                        // An empty corpus emits nothing.
                        Ok(b) if b.is_empty() => continue,
                        Ok(b) => {
                            report.output_records += b.len();
                            if !emitter.emit(meter, b) {
                                break;
                            }
                        }
                        Err(e) => {
                            shared.fail(op, e);
                            break;
                        }
                    }
                }
            }
            Err(e) => shared.fail(op, e),
        },
        // Any other operator without an upstream (a plan that does not
        // open with a Scan) reads an empty, already-closed input.
        (input, _) => {
            let rx = input.unwrap_or_else(|| bounded(1).1);
            match stage_kind(op) {
                StageKind::PerBatch | StageKind::Probe => {
                    let mut batches = 0usize;
                    while let Some(batch) = recv_timed(&rx, meter) {
                        batches += 1;
                        if shared.aborted() || shared.past_deadline(ctx.clock.now_secs()) {
                            break;
                        }
                        report.input_records += batch.len();
                        match fo.execute(ctx, batch, 1, &busy) {
                            Ok(out) => {
                                if out.is_empty() {
                                    continue;
                                }
                                report.output_records += out.len();
                                if !emitter.emit(meter, out) {
                                    break;
                                }
                            }
                            Err(e) => {
                                shared.fail(op, e);
                                break;
                            }
                        }
                    }
                    // Modelled overlap: no more workers than batches seen.
                    report.effective_workers =
                        rate_capped_parallelism(ctx, op, config).min(batches);
                }
                StageKind::Blocking => {
                    let mut buf = Vec::new();
                    while let Some(batch) = recv_timed(&rx, meter) {
                        if shared.aborted() {
                            break;
                        }
                        report.input_records += batch.len();
                        buf.extend(batch);
                    }
                    // A blocking op whose input was cut short by the deadline
                    // still runs — partial input, partial output.
                    if !shared.aborted() && !shared.past_deadline(ctx.clock.now_secs()) {
                        match fo.execute(ctx, buf, 1, &busy) {
                            Ok(out) => {
                                for chunk in out.chunks(batch_size) {
                                    report.output_records += chunk.len();
                                    if !emitter.emit(meter, chunk.to_vec()) {
                                        break;
                                    }
                                }
                            }
                            Err(e) => shared.fail(op, e),
                        }
                    }
                }
                StageKind::Limit(n) => {
                    let mut remaining = n;
                    while remaining > 0 {
                        let Some(mut batch) = recv_timed(&rx, meter) else {
                            break;
                        };
                        if shared.aborted() {
                            break;
                        }
                        report.input_records += batch.len();
                        batch.truncate(remaining);
                        remaining -= batch.len();
                        report.output_records += batch.len();
                        if !emitter.emit(meter, batch) {
                            break;
                        }
                    }
                    // Falling out drops `rx`: upstream sends start failing and
                    // the cancellation cascades to the source.
                }
                StageKind::Union => {
                    let mut cancelled = false;
                    while let Some(batch) = recv_timed(&rx, meter) {
                        if shared.aborted() || shared.past_deadline(ctx.clock.now_secs()) {
                            cancelled = true;
                            break;
                        }
                        report.input_records += batch.len();
                        report.output_records += batch.len();
                        if !emitter.emit(meter, batch) {
                            cancelled = true;
                            break;
                        }
                    }
                    if !cancelled && !shared.aborted() {
                        // UnionAll over empty input yields the other dataset.
                        match op.execute(ctx, Vec::new()) {
                            Ok(other) => {
                                for chunk in other.chunks(batch_size) {
                                    report.output_records += chunk.len();
                                    if !emitter.emit(meter, chunk.to_vec()) {
                                        break;
                                    }
                                }
                            }
                            Err(e) => shared.fail(op, e),
                        }
                    }
                }
            }
        }
    }
    report.degraded = fo.degraded;
    report.startup_secs = emitter.first_emit_busy.unwrap_or_else(|| meter.busy_secs());
    report.collected = emitter.collected;
    if let (Some(p), Some(t0)) = (meter.prof.as_ref(), prof_t0) {
        report.window_us = p.now().saturating_sub(t0);
    }
    report
}

/// Workers a stage's busy time may be divided by: the configured
/// parallelism clamped by the operator model's provider rate limit
/// (`ModelCard::max_concurrency`). Stages without a model get the raw
/// configured size (no provider to rate-limit).
fn rate_capped_parallelism(ctx: &PzContext, op: &PhysicalOp, config: &ExecutionConfig) -> usize {
    let rate_cap = op
        .model()
        .and_then(|m| ctx.catalog.get(m))
        .map(|card| card.concurrency_cap())
        .unwrap_or(usize::MAX);
    config.parallelism.min(rate_cap).max(1)
}
