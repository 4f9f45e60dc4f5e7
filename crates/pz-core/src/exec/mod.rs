//! Execution engine: materializing and streaming-pipelined executors over
//! physical plans, with per-operator statistics (Figure 5).

pub mod channel;
pub mod failover;
pub mod incremental;
pub mod run;
mod runner;
pub mod stats;
mod streaming;

pub use crate::optimizer::adaptive::{AdaptiveConfig, AdaptiveReport};
pub use failover::FailoverRank;
pub use incremental::ExecutionSnapshot;
pub use run::{available_cores, execute_plan, ExecMode, ExecutionConfig};
pub use stats::{DegradedExecution, ExecutionStats, OperatorStats};
