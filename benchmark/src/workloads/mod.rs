//! The six workloads. Names are fixed; sizes are tuned so a pass takes well
//! under a second (retrieve excepted: crossing the vector store's 8k
//! threshold costs what it costs) and a run fits the driver's budget.

pub mod chat;
pub mod extract;
pub mod relational;
pub mod rerun;
pub mod retrieve;
pub mod serve;

use crate::adapter::{self, Drive};
use crate::harness::{timed, Cell};

/// A fresh context over `source`, with the LLM-free UDFs registered.
pub fn fresh_ctx(source: &adapter::Source) -> adapter::PzContext {
    let ctx = adapter::new_ctx();
    adapter::register(&ctx, source.clone());
    adapter::register_udfs(&ctx);
    ctx
}

/// One timed plan run and what it left behind.
pub struct PlanRun {
    pub ctx: adapter::PzContext,
    pub records: Vec<adapter::DataRecord>,
    pub stats: adapter::ExecutionStats,
    pub cell: Cell,
}

/// Run `plan` over a fresh context; only the execution is timed.
pub fn run_plan(source: &adapter::Source, plan: &adapter::PhysicalPlan, drive: Drive) -> PlanRun {
    let ctx = fresh_ctx(source);
    let ((records, stats), cell) = timed(|| adapter::execute_plan(&ctx, plan, drive));
    PlanRun {
        ctx,
        records,
        stats,
        cell,
    }
}

/// `n`, or about 1/50 of it in `--quick` mode (never below `floor`).
pub fn scaled(n: usize, quick: bool, floor: usize) -> usize {
    if quick {
        (n / 50).max(floor)
    } else {
        n
    }
}
