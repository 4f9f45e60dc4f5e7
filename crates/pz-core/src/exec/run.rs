//! Plan executor: one single-threaded loop over the plan's stages.
//!
//! A *stage* is one physical operator plus the state its [`StageKind`]
//! needs — a barrier's input buffer, a `Limit`'s remaining
//! count. The loop schedules **downstream-first**: a batch a stage emits is
//! carried through every following stage (until one buffers it or it
//! reaches the output) before anything upstream moves, so nothing queues
//! between stages. Only when nothing is in flight is the source pulled
//! again, and only when the source is dry do the stages see end-of-stream,
//! in plan order — which is when a barrier applies its operator.
//!
//! Every operator application, whatever asked for it, is one
//! [`Drive::step`]: deadline check by the caller, the substitution
//! controller's consult (`exec/failover.rs`), ledger snapshot, `op:` span,
//! the operator (`exec/runner.rs`: failover loop, `catch_unwind`), stats
//! row, `prof_*` gauges, and the clock and ledger deltas — plus what the
//! cache's hits would have cost — handed back to the controller. Those
//! are all it observes, and all it needs: a healthy model's clock time
//! equals its billed latency, so a stall shows as the difference, with no
//! estimate to judge it against. No operator ever runs on a second
//! thread, so a run is a pure function of its inputs: same seed, same
//! records, ids, stats, ledger, clock and trace, at every parallelism and
//! in either mode.
//!
//! ## Two policies
//!
//! [`ExecMode`] picks a [`Policy`] — data the loop consults, not a second
//! drive:
//!
//! - **Materializing** pulls [`SCAN_CHUNK`]-record batches. Operators that
//!   commute with chunking run per batch; every other operator is a
//!   barrier that sees its whole input at once and passes its whole output
//!   on, so a corpus of any size keeps O(chunk + output) leaf records
//!   resident. Empty batches still flow (an operator over nothing is still
//!   an application), each application gets its own `op:` span, a `Limit`
//!   bills its whole input, and plan time is the sum of the stages. Under a
//!   tenant quota every operator is a barrier, so a refusal can restore
//!   the input of the operator the budget refused. Model swaps need no
//!   barrier: the controller acts at the top of any step, which here is a
//!   chunk boundary.
//! - **Streaming** pulls `batch_size`-record batches and classifies stages
//!   by [`stage_kind`]: joins probe per batch, `UnionAll` passes through
//!   and appends the other dataset at end-of-stream, a satisfied `Limit`
//!   stops the source and everything upstream of it on the spot. A
//!   barrier's output is re-chunked to `batch_size`; empty batches are
//!   dropped. Each stage keeps one `op:` span for the run, and plan time is
//!   *pipelined*: the bottleneck stage plus the fill delay before it
//!   (`ExecutionStats::finalize_pipelined`) — arithmetic over per-stage
//!   busy seconds, since the virtual clock advances by every call's full
//!   latency in either mode.
//!
//! ## Parallelism is modelled
//!
//! `parallelism` divides *attributed time* and nothing else — calls, cost,
//! records and ids are identical at every value. Materializing divides an
//! LLM-bound application's elapsed time by `min(parallelism, records)`;
//! streaming divides a per-batch stage's busy time by `min(parallelism
//! capped at the model's rate limit, batches seen)`. Running the fan-out
//! on threads measures 1.0–1.5× wall-clock against a simulated provider
//! that never blocks, and costs rerun determinism; the arithmetic is the
//! part of it worth having.
//!
//! ## Profiling gauges
//!
//! With the tracer's profiling flag on, `prof_provider_wait_us` and
//! `prof_retry_backoff_us` are the ledger-latency and retry-sink deltas
//! around a step. A streaming stage's other two gauges follow from the
//! schedule: while one stage's step advances the clock by *d*, every live
//! stage upstream of it accrues *d* of backpressure and every live stage
//! downstream *d* of queue wait, so each stage's buckets partition its
//! window exactly.

use crate::context::PzContext;
use crate::datasource::RecordBatchIter;
use crate::error::{PzError, PzResult};
use crate::exec::failover::{Rank, Substitution};
use crate::exec::observed::Observed;
use crate::exec::runner;
use crate::exec::stats::{ExecutionStats, OperatorStats};
use crate::ops::physical::{PhysicalOp, PhysicalPlan};
use crate::record::DataRecord;
use std::sync::Arc;

/// Records per pull of the leading `Scan` in a materializing run — the
/// size the E21 flat-memory curve was measured at.
const SCAN_CHUNK: usize = 4096;

/// How a physical plan is driven: the scheduling policy of the one loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Operator-at-a-time over scan chunks: see the module docs.
    #[default]
    Materializing,
    /// Pipelined: stages overlap on the virtual clock, residency is
    /// bounded by the batch size, and a satisfied `Limit` cancels upstream
    /// work.
    Streaming {
        /// Records per batch flowing between stages.
        batch_size: usize,
    },
}

impl ExecMode {
    /// Streaming with the default batch size (4).
    pub fn streaming() -> Self {
        ExecMode::Streaming { batch_size: 4 }
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
    /// Intra-operator parallelism; `1` is serial. Modelled in both modes:
    /// an LLM-bound operator's attributed time is divided by this many
    /// workers (clamped by the records or batches it saw and, when
    /// streaming, by the model's provider rate limit). Records, ledger and
    /// trace are identical at every value; only attributed time changes.
    pub parallelism: usize,
    /// Execution deadline in virtual seconds, relative to plan start.
    /// Retries, backoff, and model substitution all respect it; exceeding
    /// it yields partial results flagged `deadline_exceeded`, never a hang.
    pub deadline_secs: Option<f64>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            mode: ExecMode::default(),
            parallelism: 1,
            deadline_secs: None,
        }
    }
}

impl ExecutionConfig {
    /// Materializing, serial — the default.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// Streaming with the default batch size.
    pub fn streaming() -> Self {
        Self::default().with_mode(ExecMode::streaming())
    }

    /// Streaming with an explicit batch size.
    pub fn streaming_with(batch_size: usize) -> Self {
        Self::default().with_mode(ExecMode::Streaming {
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

    /// No-op kept for the benchmark harness: re-runs are served by the
    /// context's response cache (`PzContext::with_cache`).
    pub fn with_incremental(self) -> Self {
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

/// Execute a physical plan, returning output records and statistics.
/// Substitute models, should one be needed, are ranked by quality.
pub fn execute_plan(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    config: ExecutionConfig,
) -> PzResult<(Vec<DataRecord>, ExecutionStats)> {
    execute_ranked(ctx, plan, config, Rank::Quality)
}

/// [`execute_plan`], ranking substitute models along `rank` — the primary
/// dimension of the policy that chose the plan.
pub(crate) fn execute_ranked(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    config: ExecutionConfig,
    rank: Rank,
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
    let ctx = &{
        let mut c = ctx.clone();
        c.deadline_at_secs = deadline_at;
        // The run's own sink for the time its calls lose to failures and
        // the shares its cache hits hand on, which steps read
        // (`Observed`): no other run, and no sink a previous run left on
        // the caller's context, ever mixes in.
        c.run_sink = Some(Arc::default());
        c
    };
    // Responses the cache served this run: the ledger's cache-hit delta.
    let cache_hits = || {
        ctx.cache
            .as_ref()
            .map_or(0, |_| ctx.ledger.total_cache_hits())
    };
    let hits_before = cache_hits();
    let (records, mut stats) = Drive::new(ctx, plan, &config, rank).run()?;
    stats.memo_hits = cache_hits() - hits_before;
    Ok((records, stats))
}

/// What tells the two execution modes apart, as data the loop consults
/// (module docs, "Two policies").
#[derive(Clone, Copy)]
struct Policy {
    /// Records per pull of the source.
    batch: usize,
    /// Streaming. Off, every stage that does not commute with chunking is
    /// a barrier whose output is passed on whole.
    pipelined: bool,
}

/// How a stage consumes its input. Classifying a `PhysicalOp` is an
/// exhaustive match: a new operator does not compile until it is placed.
enum StageKind {
    /// The leading `Scan`: the loop pulls the data source on its behalf.
    Source,
    /// Batch-at-a-time: the operator applied to each incoming batch, and
    /// nothing else — these operators commute with any re-chunking of
    /// their input.
    PerBatch,
    /// Batch-at-a-time probe against a build side that each application
    /// materializes anew (the joins).
    Probe,
    /// A barrier: must see the whole input before producing anything.
    Blocking,
    /// Passes records through until this many are left to pass, then
    /// cancels everything upstream.
    Limit(usize),
    /// Pass-through, then the other dataset at end-of-stream.
    Union,
}

fn stage_kind(op: &PhysicalOp) -> StageKind {
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
        // Sort/Distinct/Aggregate need the full input, and so does
        // Retrieve: its top-k ranks the whole input, so a per-batch top-k
        // would be wrong. A mid-plan Scan ignores its input entirely —
        // running it once at end-of-stream is all it can mean.
        PhysicalOp::Sort { .. }
        | PhysicalOp::Distinct { .. }
        | PhysicalOp::Aggregate { .. }
        | PhysicalOp::Retrieve { .. }
        | PhysicalOp::Scan { .. } => StageKind::Blocking,
        PhysicalOp::UnionAll { .. } => StageKind::Union,
    }
}

/// Profiling gauges of one application or one stage, in virtual µs.
#[derive(Clone, Copy, Default)]
struct Prof {
    /// Clock time the gauges below (plus compute) must fill.
    window_us: u64,
    queue_wait_us: u64,
    backpressure_us: u64,
    provider_wait_us: u64,
    retry_backoff_us: u64,
}

/// One operator of the plan in the loop.
struct Stage {
    kind: StageKind,
    /// Input a `Blocking` stage has collected so far.
    buf: Vec<DataRecord>,
    /// Streaming: flushed output the loop has yet to hand on, re-chunked.
    out: std::vec::IntoIter<DataRecord>,
    /// The stats row; `time_secs` is not yet divided by streaming workers.
    row: OperatorStats,
    applications: usize,
    /// `row.time_secs` when the stage first emitted a record — its share
    /// of the downstream pipeline-fill delay.
    startup_secs: Option<f64>,
    /// Streaming: the stage's one `op:` span. A leaf, opened up front in
    /// plan order, so per-call spans parent under the plan span.
    span: Option<pz_obs::SpanGuard>,
    prof: Prof,
}

/// An empty stats row labelled for `op`.
fn row_for(op: &PhysicalOp) -> OperatorStats {
    OperatorStats {
        logical: op.logical_kind().to_string(),
        physical: op.describe(),
        model: op.model().map(|m| m.to_string()),
        ..Default::default()
    }
}

/// `Some(records)`: the run stops here with these partial results.
type Halt = Option<Vec<DataRecord>>;

/// The state of one run.
struct Drive<'a> {
    ctx: &'a PzContext,
    config: &'a ExecutionConfig,
    policy: Policy,
    /// The plan's operators. A swappable one's re-planned form is the
    /// controller's (`Substitution::planned`).
    ops: Vec<PhysicalOp>,
    stages: Vec<Stage>,
    /// `None` once exhausted or cancelled.
    source: Option<RecordBatchIter>,
    /// Stages below this index have seen end-of-stream.
    closed: usize,
    /// What the last stage emitted.
    sink: Vec<DataRecord>,
    /// Which model each swappable operator runs on (`exec/failover.rs`).
    subst: Substitution,
    quota_armed: bool,
    profiling: bool,
    plan_span: pz_obs::SpanGuard,
    stats: ExecutionStats,
}

impl<'a> Drive<'a> {
    fn new(
        ctx: &'a PzContext,
        plan: &PhysicalPlan,
        config: &'a ExecutionConfig,
        rank: Rank,
    ) -> Self {
        let policy = match config.mode {
            ExecMode::Materializing => Policy {
                batch: SCAN_CHUNK,
                pipelined: false,
            },
            ExecMode::Streaming { batch_size } => Policy {
                batch: batch_size.max(1),
                pipelined: true,
            },
        };
        let plan_span = ctx.tracer.span(pz_obs::Layer::Executor, "execute_plan");
        plan_span.set_attr("plan", plan.describe());
        if policy.pipelined {
            plan_span.set_attr("mode", "streaming");
            plan_span.set_attr("batch_size", policy.batch.to_string());
        } else {
            plan_span.set_attr("workers", config.parallelism.to_string());
        }
        // Quota truncation is a materializing contract (a streaming run
        // surfaces the refusal), armed only when the tenant ledger carries
        // a budget.
        let quota_armed = !policy.pipelined && ctx.ledger.quota().is_limited();
        let barriers_only = !policy.pipelined && quota_armed;
        let source = plan.ops.first().map(|first| match first {
            // An unopenable source fails inside the first scan step, under
            // its `op:` span like any other operator failure.
            PhysicalOp::Scan { dataset } => ctx
                .open_scan(dataset, policy.batch)
                .unwrap_or_else(|e| Box::new(std::iter::once(Err(e)))),
            // A plan that does not open with a Scan is fed one empty batch.
            _ => Box::new(std::iter::once(Ok(Vec::new()))) as RecordBatchIter,
        });
        let stages = plan
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let kind = match stage_kind(op) {
                    _ if i == 0 && matches!(op, PhysicalOp::Scan { .. }) => StageKind::Source,
                    kind if policy.pipelined => kind,
                    StageKind::PerBatch if !barriers_only => StageKind::PerBatch,
                    _ => StageKind::Blocking,
                };
                Stage {
                    kind,
                    buf: Vec::new(),
                    out: Default::default(),
                    row: row_for(op),
                    applications: 0,
                    startup_secs: None,
                    span: policy.pipelined.then(|| {
                        ctx.tracer
                            .leaf_span(pz_obs::Layer::Executor, &format!("op:{}", op.describe()))
                    }),
                    prof: Prof::default(),
                }
            })
            .collect();
        Self {
            ctx,
            config,
            policy,
            ops: plan.ops.clone(),
            stages,
            source,
            closed: 0,
            sink: Vec::new(),
            subst: Substitution::new(plan, rank, &ctx.health),
            quota_armed,
            profiling: ctx.tracer.profiling_enabled(),
            plan_span,
            stats: ExecutionStats {
                plan: plan.describe(),
                ..Default::default()
            },
        }
    }

    /// The loop (module docs): hand on what is in flight, else pull the
    /// source, else close the next stage.
    fn run(mut self) -> PzResult<(Vec<DataRecord>, ExecutionStats)> {
        let records = loop {
            let in_flight = (0..self.stages.len())
                .rev()
                .find(|&i| self.stages[i].out.len() > 0);
            let halt = if let Some(i) = in_flight {
                let out = &mut self.stages[i].out;
                let batch = if out.len() <= self.policy.batch {
                    std::mem::take(out).collect()
                } else {
                    out.by_ref().take(self.policy.batch).collect()
                };
                self.push(i + 1, batch)?
            } else if let Some(pulled) = self.source.as_mut().and_then(|s| s.next()) {
                if self.past_deadline(0) {
                    Some(self.partial(0, Vec::new()))
                } else if matches!(self.stages[0].kind, StageKind::Source) {
                    let chunk = self.step(0, Vec::new(), |_, _, _| pulled)?;
                    self.push(1, chunk)?
                } else {
                    self.push(0, pulled?)?
                }
            } else if self.closed < self.stages.len() {
                self.source = None;
                let next = self.closed;
                self.closed += 1;
                self.close(next)?
            } else {
                break std::mem::take(&mut self.sink);
            };
            if let Some(partial) = halt {
                break partial;
            }
        };
        Ok(self.finish(records))
    }

    /// Carry `batch` from stage `i` downstream as far as it goes: through
    /// every per-batch stage, into the first barrier's buffer or the sink.
    fn push(&mut self, mut i: usize, mut batch: Vec<DataRecord>) -> PzResult<Halt> {
        loop {
            if batch.is_empty() && self.policy.pipelined {
                return Ok(None);
            }
            let Some(stage) = self.stages.get_mut(i) else {
                self.sink.append(&mut batch);
                return Ok(None);
            };
            if let StageKind::Blocking = stage.kind {
                stage.buf.append(&mut batch);
                return Ok(None);
            }
            if self.past_deadline(i) {
                return Ok(Some(self.partial(i, batch)));
            }
            batch = match self.stages[i].kind {
                StageKind::Limit(remaining) => {
                    let kept = self.step(i, batch, |_, _, mut b| {
                        b.truncate(remaining);
                        Ok(b)
                    })?;
                    self.stages[i].kind = StageKind::Limit(remaining - kept.len());
                    if remaining == kept.len() {
                        self.cancel_upstream(i);
                    }
                    kept
                }
                StageKind::Union => self.step(i, batch, |_, _, b| Ok(b))?,
                _ => self.apply(i, batch)?,
            };
            i += 1;
        }
    }

    /// End-of-stream reaches stage `i`: a barrier applies its operator to
    /// everything it collected, a union appends the other dataset.
    fn close(&mut self, i: usize) -> PzResult<Halt> {
        let input = match self.stages[i].kind {
            StageKind::Blocking => std::mem::take(&mut self.stages[i].buf),
            StageKind::Union => Vec::new(),
            _ => return Ok(None),
        };
        if self.past_deadline(i) {
            return Ok(Some(self.partial(i, input)));
        }
        // Under a budget, keep the input so a mid-operator quota refusal
        // can return results through the last *completed* operator.
        let saved = self.quota_armed.then(|| input.clone());
        let out = match self.apply(i, input) {
            Ok(out) => out,
            // The tenant's own budget refused the next call (the step
            // flagged it). Calls made before the refusal are billed — they
            // ran; nothing past the budget ever was. Truncate: the run ends
            // with the input of the aborted operator.
            Err(_) if self.stats.quota_exhausted => return Ok(saved),
            Err(e) => return Err(e),
        };
        if self.policy.pipelined {
            self.stages[i].out = out.into_iter();
            Ok(None)
        } else {
            self.push(i + 1, out)
        }
    }

    /// A `Limit` at stage `i` is satisfied: nothing at or above it runs
    /// again, and nothing they still hold is wanted.
    fn cancel_upstream(&mut self, i: usize) {
        self.source = None;
        self.closed = self.closed.max(i + 1);
        for stage in &mut self.stages[..=i] {
            stage.buf = Vec::new();
            stage.out = Default::default();
        }
    }

    /// The deadline check made before every step; flags the run as partial
    /// (once) when it fires.
    fn past_deadline(&mut self, i: usize) -> bool {
        let now = self.ctx.clock.now_secs();
        if !self.stats.deadline_exceeded && self.ctx.deadline_at_secs.is_some_and(|d| now >= d) {
            self.stats.deadline_exceeded = true;
            self.ctx.tracer.event(
                pz_obs::Layer::Executor,
                "deadline_exceeded",
                &[
                    ("at_op", self.planned(i).describe()),
                    ("at_secs", format!("{now:.3}")),
                ],
            );
        }
        self.stats.deadline_exceeded
    }

    /// What a run cut short before a step of stage `i` returns: the nearest
    /// records collected downstream of it — they cleared every operator up
    /// to there — or, when nothing has got that far, the input the step was
    /// about to consume.
    fn partial(&mut self, i: usize, interrupted: Vec<DataRecord>) -> Vec<DataRecord> {
        self.stages[i + 1..]
            .iter_mut()
            .map(|s| &mut s.buf)
            .chain([&mut self.sink])
            .find(|held| !held.is_empty())
            .map_or(interrupted, std::mem::take)
    }

    /// Stage `i`'s operator as (re-)planned: what its row and spans name.
    fn planned(&self, i: usize) -> &PhysicalOp {
        self.subst.planned(i).unwrap_or(&self.ops[i])
    }

    /// A step of stage `i` that applies its operator through the runner.
    fn apply(&mut self, i: usize, input: Vec<DataRecord>) -> PzResult<Vec<DataRecord>> {
        let ctx = self.ctx;
        self.step(i, input, |subst, op, b| {
            runner::execute(ctx, subst, i, op, b)
        })
    }

    /// One application of stage `i`'s operator to one batch — the only
    /// place the executor consults the substitution controller, snapshots
    /// the ledger, opens an `op:` span, writes `prof_*` attributes and
    /// accrues a stats row. `run` does the work (the runner, or the loop's
    /// own pull / truncate / pass-through).
    fn step(
        &mut self,
        i: usize,
        input: Vec<DataRecord>,
        run: impl FnOnce(&mut Substitution, &PhysicalOp, Vec<DataRecord>) -> PzResult<Vec<DataRecord>>,
    ) -> PzResult<Vec<DataRecord>> {
        let ctx = self.ctx;
        // The controller decides the model before anything is measured. A
        // replan before the stage's first application relabels its row;
        // spans always name the operator as (re-)planned.
        let consulted = self.subst.consult(ctx, i, input.len());
        let planned = self.subst.planned(i).unwrap_or(&self.ops[i]);
        if matches!(consulted, Ok(true)) && self.stages[i].applications == 0 {
            self.stages[i].row = row_for(planned);
        }
        // A Scan ignores whatever it is handed.
        let in_len = if matches!(planned, PhysicalOp::Scan { .. }) {
            0
        } else {
            input.len()
        };
        let parallelizable = planned.is_parallelizable();
        let fanout = self.config.parallelism.min(input.len().max(1));
        // Records resident besides this batch.
        let held = self.sink.len()
            + (self.stages.iter())
                .map(|s| s.buf.len() + s.out.len())
                .sum::<usize>();
        let before = Observed::meter(ctx);
        let replayed_before = Observed::replayed(ctx);
        let clock_before = ctx.clock.now_secs();
        // Materializing: a structural span per application, so the LLM leaf
        // spans it makes nest under it.
        let span = (!self.policy.pipelined).then(|| {
            ctx.tracer.span(
                pz_obs::Layer::Executor,
                &format!("op:{}", planned.describe()),
            )
        });

        let out = match consulted.and_then(|_| run(&mut self.subst, &self.ops[i], input)) {
            Ok(out) => out,
            Err(e) => {
                let op = self.planned(i).describe();
                if self.quota_armed && is_quota_exhausted(&e) {
                    self.stats.quota_exhausted = true;
                    ctx.tracer.event(
                        pz_obs::Layer::Executor,
                        "quota_exhausted",
                        &[
                            ("at_op", op.clone()),
                            ("at_secs", format!("{:.3}", ctx.clock.now_secs())),
                        ],
                    );
                }
                return Err(PzError::Execution(format!("operator {op}: {e}")));
            }
        };

        let mut seen = Observed::meter(ctx).since(before);
        seen.records = in_len as f64;
        let elapsed = ctx.clock.now_secs() - clock_before;
        let billed = &seen.share;
        let applied = OperatorStats {
            input_records: in_len,
            output_records: out.len(),
            llm_calls: billed.calls as usize,
            input_tokens: billed.input_tokens as usize,
            output_tokens: billed.output_tokens as usize,
            cost_usd: billed.cost_usd,
            // Streaming bills a stage its calls' modelled latency and
            // divides by the stage's workers once they are known (`finish`);
            // materializing bills the clock, overlapped across the fan-out.
            time_secs: if self.policy.pipelined {
                billed.latency_secs
            } else if fanout > 1 && parallelizable {
                elapsed / fanout as f64
            } else {
                elapsed
            },
            ..Default::default()
        };
        let gauges = Prof {
            window_us: (elapsed * 1e6).round() as u64,
            provider_wait_us: (billed.latency_secs * 1e6).round() as u64,
            retry_backoff_us: (billed.stalled_secs * 1e6).round() as u64,
            ..Default::default()
        };
        self.stats.peak_resident_records = self.stats.peak_resident_records.max(held + out.len());
        if let Some(span) = span {
            report(&span, &applied, self.profiling.then_some(&gauges));
            span.finish();
        }
        if self.policy.pipelined && self.profiling {
            // No stage works while this one does: the ones upstream are
            // held back by it, the ones downstream wait on it.
            let closed = self.closed;
            for (j, other) in self.stages.iter_mut().enumerate() {
                // Live: yet to see end-of-stream, or still handing on.
                if j == i || (j < closed && other.out.len() == 0) {
                    continue;
                }
                other.prof.window_us += gauges.window_us;
                if j < i {
                    other.prof.backpressure_us += gauges.window_us;
                } else {
                    other.prof.queue_wait_us += gauges.window_us;
                }
            }
        }
        let stage = &mut self.stages[i];
        stage.applications += 1;
        stage.row.accrue(&applied);
        stage.prof.window_us += gauges.window_us;
        stage.prof.provider_wait_us += gauges.provider_wait_us;
        stage.prof.retry_backoff_us += gauges.retry_backoff_us;
        if !out.is_empty() && stage.startup_secs.is_none() {
            stage.startup_secs = Some(stage.row.time_secs);
        }
        // The controller also sees what the cache hits would have cost.
        seen.add(&Observed::replayed(ctx).since(replayed_before));
        self.subst.observe(i, &seen);
        Ok(out)
    }

    /// Close the books: stats rows, plan totals under the policy's time
    /// model, and (streaming) each stage's span.
    fn finish(mut self, records: Vec<DataRecord>) -> (Vec<DataRecord>, ExecutionStats) {
        let mut stats = self.stats;
        let mut startup = Vec::with_capacity(self.stages.len());
        for (i, (stage, op)) in self.stages.iter_mut().zip(&self.ops).enumerate() {
            // Failover decisions, in plan order.
            stats.degraded.append(&mut self.subst.take_degraded(i));
            let mut row = std::mem::take(&mut stage.row);
            if !self.policy.pipelined {
                // Rows cover exactly the operators that ran.
                if stage.applications > 0 {
                    stats.operators.push(row);
                }
                continue;
            }
            let startup_secs = stage.startup_secs.unwrap_or(row.time_secs);
            startup.push(startup_secs);
            // Modelled overlap: a per-batch stage's calls spread over no
            // more workers than the batches it saw, nor than its model's
            // provider admits at once. Cost, calls and tokens never divide.
            let workers = match stage.kind {
                StageKind::PerBatch | StageKind::Probe => {
                    let planned = self.subst.planned(i).unwrap_or(op);
                    let rate_cap = (planned.model())
                        .and_then(|m| self.ctx.catalog.get(m))
                        .map_or(usize::MAX, |card| card.concurrency_cap());
                    self.config
                        .parallelism
                        .min(rate_cap)
                        .min(stage.applications)
                        .max(1)
                }
                _ => 1,
            };
            row.time_secs /= workers as f64;
            stats.parallelism = stats.parallelism.max(workers);
            if let Some(span) = stage.span.take() {
                if workers > 1 {
                    span.set_attr("workers", workers.to_string());
                }
                report(&span, &row, self.profiling.then_some(&stage.prof));
                if self.profiling {
                    let p = &stage.prof;
                    span.set_attr("prof_queue_wait_us", p.queue_wait_us.to_string());
                    span.set_attr("prof_backpressure_us", p.backpressure_us.to_string());
                    span.set_attr("prof_startup_secs", format!("{startup_secs:.6}"));
                }
                span.finish();
            }
            stats.operators.push(row);
        }
        stats.adaptive = self.subst.take_reports();
        if self.policy.pipelined {
            stats.finalize_pipelined(&startup);
        } else {
            stats.finalize();
        }
        stats.output_records = records.len();
        let plan_span = self.plan_span;
        plan_span.set_attr("output_records", stats.output_records.to_string());
        plan_span.set_attr("llm_calls", stats.total_llm_calls.to_string());
        plan_span.set_attr("cost_usd", format!("{:.6}", stats.total_cost_usd));
        (records, stats)
    }
}

/// Write what one application (materializing) or one whole stage
/// (streaming) did onto its `op:` span.
fn report(span: &pz_obs::SpanGuard, row: &OperatorStats, gauges: Option<&Prof>) {
    span.set_attr("in", row.input_records.to_string());
    span.set_attr("out", row.output_records.to_string());
    span.set_attr("llm_calls", row.llm_calls.to_string());
    span.set_attr("cost_usd", format!("{:.6}", row.cost_usd));
    span.set_attr("time_secs", format!("{:.6}", row.time_secs));
    let Some(p) = gauges else { return };
    span.set_attr("prof_window_us", p.window_us.to_string());
    span.set_attr("prof_provider_wait_us", p.provider_wait_us.to_string());
    span.set_attr("prof_retry_backoff_us", p.retry_backoff_us.to_string());
    if p.window_us > 0 {
        let util = (row.time_secs * 1e6) / p.window_us as f64;
        span.set_attr("prof_utilization", format!("{:.4}", util.clamp(0.0, 1.0)));
    }
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
        // Parallelism is modelled: the same records, ids included.
        assert_eq!(rec_seq, rec_par);
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
        let base = ExecutionConfig::streaming_with(1);
        let ctx_1 = science_ctx();
        let (rec_1, stats_1) = execute_plan(&ctx_1, &demo_plan(), base).unwrap();
        let ctx_8 = science_ctx();
        let (rec_8, stats_8) =
            execute_plan(&ctx_8, &demo_plan(), base.with_parallelism(8)).unwrap();

        // Parallelism is attribution-only: identical records…
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
        // …but at least 2x less attributed plan time, and the worker count
        // is recorded on the stats.
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
        // the same effective worker count, so attribution is identical.
        let base = ExecutionConfig::streaming_with(1);
        let ctx_8 = science_ctx();
        let (_, stats_8) = execute_plan(&ctx_8, &demo_plan(), base.with_parallelism(8)).unwrap();
        let ctx_32 = science_ctx();
        let (_, stats_32) = execute_plan(&ctx_32, &demo_plan(), base.with_parallelism(32)).unwrap();
        assert!((stats_8.total_time_secs - stats_32.total_time_secs).abs() < 1e-9);
        assert_eq!(stats_8.parallelism, stats_32.parallelism);
    }

    #[test]
    fn parallel_streaming_failover_matches_serial_decisions() {
        // Failover is sticky per stage whatever the modelled parallelism:
        // the breaker trips once, the stage fails over exactly once, and
        // the run lands on the same substitute model as the serial run.
        let outage = pz_llm::FaultPlan::none().outage("gpt-4o", 0.0, 1e9);
        let base = ExecutionConfig::streaming_with(1);
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
        let (rec_s, _) = execute_plan(&ctx_s, &plan, ExecutionConfig::streaming_with(1)).unwrap();
        assert_eq!(rec_m.len(), 2);
        assert_eq!(rec_s.len(), 2);
        assert_eq!(ctx_m.ledger.total_requests(), 11);
        // The first two papers both pass: the source stops right there.
        assert_eq!(ctx_s.ledger.total_requests(), 2);
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
        let err = execute_plan(&ctx, &plan, ExecutionConfig::streaming_with(2)).unwrap_err();
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
            let (in_len, before) = (records.len(), Observed::meter(ctx));
            records = op.execute(ctx, records).unwrap();
            let ran = Observed::meter(ctx).since(before);
            rows.push((
                in_len,
                records.len(),
                ran.share.calls as usize,
                ran.share.cost_usd,
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
        // Parallelism is modelled, so "same multiset" is the same bytes:
        // ids, order and every counted stats field match the reference.
        let n = SCAN_CHUNK * 5 / 2;
        let reference = whole_corpus_reference(&big_ctx(n), &big_plan());
        let run = execute_plan(
            &big_ctx(n),
            &big_plan(),
            ExecutionConfig::sequential().with_parallelism(4),
        )
        .unwrap();
        let (_, serial) =
            execute_plan(&big_ctx(n), &big_plan(), ExecutionConfig::sequential()).unwrap();
        assert_matches_reference(&run, &reference, "parallelism 4");
        // Every chunk hands the LLM operators >= 4 records, so the whole
        // run's attributed time divides by the fan-out.
        assert!((run.1.total_time_secs * 4.0 - serial.total_time_secs).abs() < 1e-6);
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
        // A quota-armed run makes every operator a barrier, so a corpus
        // pulled in several chunks must behave exactly like the same corpus
        // reported as one chunk.
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

        // A brownout needs no barrier: the filter browns out over the first
        // chunk and is replanned at the top of its step over the second —
        // a chunk boundary — and stays replanned for the third.
        // Every 256th document reaches the LLM operators, and only the
        // filter's model browns out.
        let mut plan = big_plan();
        plan.ops[1] = PhysicalOp::UdfFilter {
            udf: "sparse".into(),
        };
        if let PhysicalOp::LlmClassify { model, .. } = &mut plan.ops[3] {
            *model = "llama-3-70b".into();
        }
        let run = || {
            let ctx = big_ctx(n);
            ctx.udfs.register_filter("sparse", |r: &DataRecord| {
                r.get("filename")
                    .and_then(|v| v.as_display()[4..9].parse::<usize>().ok())
                    .is_some_and(|i| i % 256 == 0)
            });
            ctx.faults.set(
                pz_llm::FaultPlan::parse("gpt-4o:timeout@0..1000000:p=0.2:stall=25", 42).unwrap(),
            );
            let (records, stats) =
                execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();
            (ctx, records, stats)
        };
        let (ctx, records, stats) = run();
        let chunk_survivors = SCAN_CHUNK / 256;
        assert_eq!(stats.adaptive.len(), 1, "one report per demoted model");
        let r = &stats.adaptive[0];
        assert_eq!((r.operator_index, r.from_model.as_str()), (2, "gpt-4o"));
        assert_eq!(
            r.records_remaining, chunk_survivors,
            "not at a chunk boundary"
        );
        // Sticky: gpt-4o served the first chunk and nothing after it.
        let gpt4o_calls = ctx
            .ledger
            .by_model()
            .into_iter()
            .find(|(m, _)| m.as_str() == "gpt-4o")
            .map(|(_, u)| u.requests);
        assert_eq!(gpt4o_calls, Some(chunk_survivors));
        assert!(stats.degraded.is_empty());
        // Ledger == stats, and the run replays byte for byte.
        let op_calls: usize = stats.operators.iter().map(|o| o.llm_calls).sum();
        assert_eq!(op_calls, ctx.ledger.total_requests());
        let op_cost: f64 = stats.operators.iter().map(|o| o.cost_usd).sum();
        assert!((op_cost - ctx.ledger.total_cost_usd()).abs() < 1e-9);
        let (ctx_again, records_again, stats_again) = run();
        assert_eq!(records, records_again);
        assert_eq!(
            serde_json::to_string(&stats).unwrap(),
            serde_json::to_string(&stats_again).unwrap()
        );
        assert_eq!(
            ctx.tracer.snapshot().to_jsonl(),
            ctx_again.tracer.snapshot().to_jsonl()
        );
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
            let config = ExecutionConfig::streaming_with(1).with_parallelism(p);
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
                // The scan stays serial; an LLM stage's busy time divides
                // by `p`, capped by the single-record batches it saw.
                let workers = if row.model.is_some() {
                    p.min(row.input_records)
                } else {
                    1
                };
                let mut expect = serial.clone();
                expect.time_secs = serial.time_secs / workers as f64;
                assert_eq!(&expect, row, "p={p}");
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

    #[test]
    fn materializing_parallelism_changes_time_attribution_only() {
        let run = |p: usize| {
            let ctx = science_ctx();
            let config = ExecutionConfig::sequential().with_parallelism(p);
            let (records, stats) = execute_plan(&ctx, &demo_plan(), config).unwrap();
            (ctx, records, stats)
        };
        // The trace with attributed time and the `workers` attribute masked.
        let masked_trace = |ctx: &PzContext| {
            let mut snap = ctx.tracer.snapshot();
            for span in &mut snap.spans {
                span.attrs.remove("time_secs");
                span.attrs.remove("workers");
            }
            snap.to_jsonl()
        };
        let (ctx_1, rec_1, stats_1) = run(1);
        for p in [2usize, 8] {
            let (ctx_p, rec_p, stats_p) = run(p);
            assert_eq!(rec_1, rec_p, "p={p}: records (ids included)");
            assert_eq!(ctx_1.ledger.total_requests(), ctx_p.ledger.total_requests());
            assert_eq!(ctx_1.ledger.total_cost_usd(), ctx_p.ledger.total_cost_usd());
            assert_eq!(ctx_1.clock.now_secs(), ctx_p.clock.now_secs());
            assert_eq!(masked_trace(&ctx_1), masked_trace(&ctx_p), "p={p}: trace");
            for (serial, row) in stats_1.operators.iter().zip(&stats_p.operators) {
                // An LLM operator's elapsed time divides by the fan-out,
                // capped by the records it was handed.
                let fanout = if row.model.is_some() {
                    p.min(row.input_records)
                } else {
                    1
                };
                let mut expect = serial.clone();
                expect.time_secs = serial.time_secs / fanout as f64;
                assert_eq!(&expect, row, "p={p}");
            }
        }
    }

    // -- residency ---------------------------------------------------------

    #[test]
    fn streaming_residency_is_bounded_by_batches_not_corpus() {
        // Streaming reports the peak too, and it does not grow with the
        // corpus: at most one batch per stage plus the output so far.
        let mut plan = big_plan();
        let stages = plan.ops.len();
        let batch = 4;
        let mut peaks = Vec::new();
        for n in [2_000usize, 6_000] {
            let (records, stats) =
                execute_plan(&big_ctx(n), &plan, ExecutionConfig::streaming_with(batch)).unwrap();
            assert!(stats.peak_resident_records > 0);
            assert!(
                stats.peak_resident_records <= stages * batch + records.len(),
                "n={n}: peak {} for {stages} stages x batch {batch} + output {}",
                stats.peak_resident_records,
                records.len()
            );
            peaks.push(stats.peak_resident_records - records.len());
        }
        assert_eq!(peaks[0], peaks[1], "residency beyond the output grew");
        // A barrier holds its whole input by definition.
        plan.ops.push(PhysicalOp::Sort {
            field: "filename".into(),
            descending: false,
        });
        let (records, stats) = execute_plan(
            &big_ctx(2_000),
            &plan,
            ExecutionConfig::streaming_with(batch),
        )
        .unwrap();
        assert!(stats.peak_resident_records <= stages * batch + 2 * records.len());
    }

    // -- panics and odd plan shapes ------------------------------------------

    #[test]
    fn panicking_udf_is_an_execution_error_in_both_modes() {
        // Before a Limit, and after a UnionAll — so the panic also fires on
        // the records the union appends at end-of-stream.
        let plans = [
            vec![
                PhysicalOp::UdfFilter { udf: "boom".into() },
                PhysicalOp::Limit { n: 3 },
            ],
            vec![
                PhysicalOp::UdfFilter { udf: "calm".into() },
                PhysicalOp::UnionAll {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::UdfFilter { udf: "boom".into() },
            ],
        ];
        for (tail, config) in plans.iter().flat_map(|tail| {
            [
                ExecutionConfig::streaming(),
                ExecutionConfig::sequential().with_parallelism(2),
            ]
            .map(|config| (tail, config))
        }) {
            let ctx = science_ctx();
            ctx.udfs
                .register_filter("boom", |_: &DataRecord| panic!("tenant bug"));
            // Drops everything: only the union's own records reach `boom`.
            ctx.udfs.register_filter("calm", |_: &DataRecord| false);
            let mut ops = vec![PhysicalOp::Scan {
                dataset: "sigmod-demo".into(),
            }];
            ops.extend(tail.iter().cloned());
            let err = execute_plan(&ctx, &PhysicalPlan { ops }, config).unwrap_err();
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
    fn deadline_is_checked_before_every_step_limit_included() {
        // scan -> sort -> limit -> filter, one record per batch: the sort
        // hands its output on a record at a time, the deadline passes while
        // the filter works on the third, and it is the Limit's own check,
        // on the fourth, that stops the run.
        let plan = PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::Sort {
                    field: "filename".into(),
                    descending: false,
                },
                PhysicalOp::Limit { n: 8 },
                PhysicalOp::LlmFilter {
                    predicate: "The papers are about colorectal cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        };
        let ctx = science_ctx();
        let (_, full) = execute_plan(&ctx, &plan, ExecutionConfig::streaming_with(1)).unwrap();
        assert_eq!(ctx.ledger.total_requests(), 8);
        let ctx = science_ctx();
        let config = ExecutionConfig::streaming_with(1).with_deadline(full.total_time_secs * 0.3);
        let (_, stats) = execute_plan(&ctx, &plan, config).unwrap();
        assert!(stats.deadline_exceeded);
        assert_eq!(ctx.ledger.total_requests(), 3);
        // The Limit passed exactly the records the filter was billed for.
        assert_eq!(stats.operators[2].output_records, 3);
        let events = ctx.tracer.snapshot().events;
        let at_op = &events
            .iter()
            .find(|e| e.name == "deadline_exceeded")
            .unwrap()
            .attrs["at_op"];
        assert_eq!(at_op, "Limit[8]");
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

    /// Every read of a folder numbers its files apart: a scan, a
    /// `UnionAll` and a join build side each reserve one id per file, so
    /// no two records, and no record and a lineage entry, share an id.
    #[test]
    fn folder_reads_number_every_file_once() {
        let dir = std::env::temp_dir().join(format!("pz-ids-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["a.txt", "b.txt", "c.txt"] {
            std::fs::write(dir.join(name), name).unwrap();
        }
        let ctx = PzContext::simulated();
        ctx.registry
            .register(Arc::new(crate::datasource::DirectorySource::new(
                "folder",
                Schema::text_file(),
                &dir,
            )));
        ctx.registry.register(Arc::new(MemorySource::from_texts(
            "one",
            Schema::text_file(),
            vec!["x".into()],
        )));
        let scan = || PhysicalOp::Scan {
            dataset: "folder".into(),
        };
        let union = |d: &str| PhysicalOp::UnionAll { dataset: d.into() };
        let join = PhysicalOp::HashJoin {
            dataset: "folder".into(),
            left_field: "filename".into(),
            right_field: "filename".into(),
        };
        for config in [ExecutionConfig::sequential(), ExecutionConfig::streaming()] {
            let plan = PhysicalPlan {
                ops: vec![scan(), union("folder"), union("one")],
            };
            let (records, _) = execute_plan(&ctx, &plan, config).unwrap();
            let ids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.id).collect();
            assert_eq!((records.len(), ids.len()), (7, 7), "{config:?}");

            let plan = PhysicalPlan {
                ops: vec![scan(), join.clone()],
            };
            let (records, _) = execute_plan(&ctx, &plan, config).unwrap();
            let ids: std::collections::BTreeSet<u64> = records
                .iter()
                .flat_map(|r| std::iter::once(r.id).chain(r.lineage.iter().copied()))
                .collect();
            assert_eq!((records.len(), ids.len()), (3, 9), "{config:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
