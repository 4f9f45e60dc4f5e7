//! Execution engine: one single-threaded stage loop over a physical plan,
//! with per-operator statistics (Figure 5).

pub(crate) mod failover;
pub mod incremental;
mod observed;
pub mod run;
mod runner;
pub mod stats;

#[doc(hidden)]
pub use run::ExecMode; // pzbench alias
pub use run::{execute_plan, ExecutionConfig, STEP};
pub use stats::{AdaptiveReport, DegradedExecution, ExecutionStats, OperatorStats};
