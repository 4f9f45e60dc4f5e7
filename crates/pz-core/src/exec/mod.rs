//! Execution engine: one single-threaded stage loop over a physical plan,
//! driven by a materializing or a streaming policy, with per-operator
//! statistics (Figure 5).

pub(crate) mod failover;
pub mod incremental;
mod observed;
pub mod run;
mod runner;
pub mod stats;

pub use incremental::ExecutionSnapshot;
pub use run::{available_cores, execute_plan, ExecMode, ExecutionConfig};
pub use stats::{AdaptiveReport, DegradedExecution, ExecutionStats, OperatorStats};
