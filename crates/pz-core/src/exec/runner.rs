//! The operator runner: the one place a physical operator is applied to a
//! batch of records, on the calling thread.
//!
//! Layers, outermost first: **memo split** (incremental re-execution —
//! memoized records replay, only the dirty subset goes further) →
//! **adaptive challenge** (champion/challenger swap off a degraded model)
//! → **sticky failover loop** (swap models on provider faults / open
//! breakers and stay swapped) → `PhysicalOp::execute` under a
//! `catch_unwind`.
//!
//! A runner lives as long as its stage does in the executor's loop, across
//! every batch the stage sees. A swap is therefore *sticky* — later
//! batches stay on the substitute — and only the in-flight batch is re-run
//! on a swap. Fed an operator's whole input as one batch (a barrier stage)
//! that is exactly "re-run the whole input on the substitute".

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::exec::failover::{self, FailoverRank};
use crate::exec::run::ExecutionConfig;
use crate::exec::stats::DegradedExecution;
use crate::ops::physical::PhysicalOp;
use crate::optimizer::adaptive::AdaptiveController;
use crate::record::DataRecord;
use pz_llm::ModelId;
use std::sync::Arc;

/// One operator's runner: its active (possibly swapped) form plus the
/// failover decisions made for it so far.
pub(crate) struct OpRunner {
    active: PhysicalOp,
    planned_model: Option<ModelId>,
    planned_desc: String,
    op_index: usize,
    enabled: bool,
    rank: FailoverRank,
    /// Adaptive controller shared by all stages of a streaming run; `None`
    /// unless enabled (a materializing run repairs *between* operators
    /// instead and never attaches one).
    adaptive: Option<Arc<AdaptiveController>>,
    /// Incremental re-execution armed (`ExecutionConfig::with_incremental`
    /// plus a context snapshot).
    incremental: bool,
    /// Failover decisions made for this operator, in order. Successful
    /// batches processed by a substitute accrue onto the latest entry, so
    /// `records_affected` sums to exactly the records the planned model
    /// did not handle.
    pub(crate) degraded: Vec<DegradedExecution>,
}

impl OpRunner {
    pub(crate) fn new(
        op: PhysicalOp,
        op_index: usize,
        config: &ExecutionConfig,
        adaptive: Option<Arc<AdaptiveController>>,
    ) -> Self {
        let enabled = config.failover && failover::swappable(&op);
        Self {
            planned_model: op.model().cloned(),
            planned_desc: op.describe(),
            active: op,
            op_index,
            enabled,
            rank: config.rank,
            adaptive: if enabled { adaptive } else { None },
            incremental: config.incremental,
            degraded: Vec::new(),
        }
    }

    /// Put the runner on `op` as if it had been planned that way: later
    /// failover entries and `records_affected` accrual are relative to it.
    pub(crate) fn replan(&mut self, op: PhysicalOp) {
        self.planned_model = op.model().cloned();
        self.planned_desc = op.describe();
        self.active = op;
    }

    /// Run one batch through the active operator. Errors come back
    /// unwrapped — the caller adds operator context.
    pub(crate) fn execute(
        &mut self,
        ctx: &PzContext,
        input: Vec<DataRecord>,
    ) -> PzResult<Vec<DataRecord>> {
        // The memo fingerprint follows the *active* operator: a sticky
        // model swap changes the memo namespace along with the outputs.
        if self.incremental {
            if let Some(snap) = ctx.incremental.clone() {
                let op = self.active.clone();
                return crate::exec::incremental::execute_memoized(
                    ctx,
                    &snap,
                    &op,
                    input,
                    &mut |dirty| self.execute_direct(ctx, dirty),
                );
            }
        }
        self.execute_direct(ctx, input)
    }

    /// With an adaptive controller attached, each batch is preceded by a
    /// champion/challenger check and followed by an observation: the
    /// batch's clock delta — nothing else runs meanwhile, and it is the
    /// only attribution that sees fault stalls and retry backoff, which
    /// never reach the ledger.
    fn execute_direct(
        &mut self,
        ctx: &PzContext,
        input: Vec<DataRecord>,
    ) -> PzResult<Vec<DataRecord>> {
        if !self.enabled {
            return apply(ctx, &self.active, input);
        }
        let Some(ctrl) = self.adaptive.clone() else {
            return self.execute_with_failover(ctx, input);
        };
        if let Some(to) = ctrl.challenge(ctx, &self.active, self.op_index) {
            // The substitution is sticky, and the adaptively chosen model
            // is the planned one from here on.
            self.replan(failover::with_model(&self.active, to).expect("swappable operator"));
        }
        let (batch_len, model) = (input.len(), self.active.model().cloned());
        let clock_before = ctx.clock.now_secs();
        let out = self.execute_with_failover(ctx, input)?;
        let elapsed = ctx.clock.now_secs() - clock_before;
        ctrl.observe(self.op_index, model.as_ref(), batch_len, elapsed, 0.0);
        Ok(out)
    }

    fn execute_with_failover(
        &mut self,
        ctx: &PzContext,
        input: Vec<DataRecord>,
    ) -> PzResult<Vec<DataRecord>> {
        let mut tried: Vec<ModelId> = self.active.model().cloned().into_iter().collect();
        let mut first_err: Option<PzError> = None;
        loop {
            let model = self
                .active
                .model()
                .cloned()
                .expect("swappable operator carries a model");
            let now = ctx.clock.now_secs();
            // Proactive: skip a model whose breaker is already open (tripped
            // elsewhere) instead of burning a doomed attempt.
            let (reason, err) = if ctx.health.is_open(&model, now) {
                ("breaker open", None)
            } else {
                match apply(ctx, &self.active, input.clone()) {
                    Ok(out) => {
                        if self.active.model() != self.planned_model.as_ref() {
                            if let Some(entry) = self.degraded.last_mut() {
                                entry.records_affected += input.len();
                            }
                        }
                        return Ok(out);
                    }
                    Err(e) if is_provider_fault(&e) => ("provider fault", Some(e)),
                    Err(e) => return Err(e),
                }
            };
            if first_err.is_none() {
                first_err = err;
            }
            let next =
                failover::candidates(&ctx.catalog, &ctx.health, &self.active, self.rank, now)
                    .into_iter()
                    .find(|m| !tried.contains(m));
            let Some(to) = next else {
                // No healthy substitute left: surface the first provider
                // error exactly as a failover-less executor would have.
                return Err(first_err.unwrap_or_else(|| {
                    PzError::Execution(format!(
                        "circuit breaker open for {model} and no healthy substitute model"
                    ))
                }));
            };
            let entry = DegradedExecution {
                operator_index: self.op_index,
                operator: self.planned_desc.clone(),
                from_model: model.to_string(),
                to_model: to.to_string(),
                // Accrued per successfully processed batch, above.
                records_affected: 0,
                est_quality_delta: failover::quality_delta(&ctx.catalog, &model, &to),
                at_secs: ctx.clock.now_secs(),
                reason: reason.to_string(),
            };
            failover::emit_event(&ctx.tracer, &entry, input.len());
            self.degraded.push(entry);
            self.active =
                failover::with_model(&self.active, to.clone()).expect("swappable operator");
            tried.push(to);
        }
    }
}

/// Is this the kind of error failover can route around — a fault of the
/// model's provider rather than of the plan or the data?
fn is_provider_fault(e: &PzError) -> bool {
    matches!(e, PzError::Llm(inner) if inner.is_provider_fault())
}

/// Apply `op` to `input`. A panic inside the operator (a tenant's UDF, a
/// custom client) becomes an execution error instead of unwinding through
/// the executor and killing its host.
fn apply(ctx: &PzContext, op: &PhysicalOp, input: Vec<DataRecord>) -> PzResult<Vec<DataRecord>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.execute(ctx, input)))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(PzError::Execution(format!("panicked: {msg}")))
        })
}
