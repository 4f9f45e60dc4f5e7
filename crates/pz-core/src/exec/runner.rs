//! The operator runner: the one place a physical operator is applied to a
//! batch of records, on the calling thread.
//!
//! Layers, outermost first: **failover loop** (a provider fault that
//! survives retries hands the operator to the substitution controller, and
//! the batch re-runs on whatever stands in) → `PhysicalOp::execute` under
//! a `catch_unwind`.
//!
//! The runner decides nothing. Which model an operator runs on is the
//! controller's call (`exec/failover.rs`), made at the top of every step
//! from what steps cost in the run's own books: a healthy model loses no
//! time to failures, so its stall ratio is exactly 1 with no estimate to
//! judge against, and nothing here reads the clock. Swaps are sticky, so
//! only the batch in flight re-runs — for a barrier stage, its whole input.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::exec::failover::Substitution;
use crate::ops::physical::PhysicalOp;
use crate::record::DataRecord;

/// Run one batch through stage `i`: `subst`'s active form of its operator
/// if it is swappable, else `op`. A swappable one fails over on a provider
/// fault and re-runs the batch until it succeeds, or surfaces the first
/// fault once nothing can stand in. Errors come back unwrapped — the
/// caller adds operator context.
pub(crate) fn execute(
    ctx: &PzContext,
    subst: &mut Substitution,
    i: usize,
    op: &PhysicalOp,
    input: Vec<DataRecord>,
) -> PzResult<Vec<DataRecord>> {
    let mut first_fault = None;
    while let Some(active) = subst.active(i) {
        match apply(ctx, active, input.clone()) {
            Ok(out) => return Ok(out),
            Err(e) if is_provider_fault(&e) => {
                first_fault.get_or_insert(e);
                if !subst.fail_over(ctx, i, "provider fault", input.len()) {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    match first_fault {
        Some(fault) => Err(fault),
        None => apply(ctx, op, input),
    }
}

/// Is this the kind of error a substitute can route around — a fault of
/// the model's provider rather than of the plan or the data?
fn is_provider_fault(e: &PzError) -> bool {
    matches!(e, PzError::Llm(inner) if inner.is_provider_fault())
}

/// Apply `op` to `input`. A panic inside the operator (a tenant's UDF, a
/// custom client) becomes an execution error instead of unwinding through
/// the executor and killing its host.
fn apply(ctx: &PzContext, op: &PhysicalOp, input: Vec<DataRecord>) -> PzResult<Vec<DataRecord>> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op.execute(ctx, input))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                s.to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(PzError::Execution(format!("panicked: {msg}")))
        }
    }
}
