//! Execution engine: one single-threaded stage loop over a physical plan,
//! driven by a materializing or a streaming policy, with per-operator
//! statistics (Figure 5).

pub mod failover;
pub mod incremental;
pub mod run;
mod runner;
pub mod stats;

pub use crate::optimizer::adaptive::{AdaptiveConfig, AdaptiveReport};
pub use failover::FailoverRank;
pub use incremental::ExecutionSnapshot;
pub use run::{available_cores, execute_plan, ExecMode, ExecutionConfig};
pub use stats::{DegradedExecution, ExecutionStats, OperatorStats};
