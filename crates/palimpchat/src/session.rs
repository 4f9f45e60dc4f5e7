//! Session state shared by every chat tool.

use crate::notebook::Notebook;
use parking_lot::Mutex;
use pz_core::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Mutable state of one PalimpChat session.
pub struct SessionState {
    /// The Palimpzest runtime.
    pub ctx: PzContext,
    /// The currently selected input dataset (registry name).
    pub dataset: Option<String>,
    /// Schemas created during the session (`create_schema` results).
    pub schemas: BTreeMap<String, Schema>,
    /// Pipeline operators appended so far (after the scan).
    pub pending_ops: Vec<LogicalOp>,
    /// Optimization preference for the next execution.
    pub policy: Policy,
    /// How `execute_pipeline` drives the plan: executor mode and
    /// parallelism (the REPL's `:exec` / `:parallelism` switches edit
    /// this).
    pub exec: ExecutionConfig,
    /// Outcome of the most recent execution.
    pub last_outcome: Option<ExecutionOutcome>,
    /// The Beaker-style notebook accumulating generated snippets.
    pub notebook: Notebook,
}

impl SessionState {
    pub fn new(ctx: PzContext) -> Self {
        Self {
            ctx,
            dataset: None,
            schemas: BTreeMap::new(),
            pending_ops: Vec::new(),
            policy: Policy::MaxQuality,
            exec: ExecutionConfig::sequential(),
            last_outcome: None,
            notebook: Notebook::new(),
        }
    }

    /// Build the current logical plan (scan + pending ops).
    pub fn current_plan(&self) -> PzResult<LogicalPlan> {
        let dataset = self
            .dataset
            .clone()
            .ok_or_else(|| PzError::Plan("no dataset registered yet".into()))?;
        let mut ops = vec![LogicalOp::Scan { dataset }];
        ops.extend(self.pending_ops.iter().cloned());
        LogicalPlan::new(ops)
    }

    /// Drop the pipeline under construction (keeps dataset + schemas).
    pub fn reset_pipeline(&mut self) {
        self.pending_ops.clear();
        self.last_outcome = None;
    }
}

/// Shared handle passed to tools.
pub type SessionHandle = Arc<Mutex<SessionState>>;

/// Create a fresh simulated session. Its context carries the response
/// cache, so a re-run after an edit bills only the records it touched.
pub fn new_session() -> SessionHandle {
    let ctx = PzContext::simulated().with_cache();
    Arc::new(Mutex::new(SessionState::new(ctx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_requires_dataset() {
        let s = SessionState::new(PzContext::simulated());
        assert!(s.current_plan().is_err());
    }

    #[test]
    fn plan_includes_pending_ops() {
        let mut s = SessionState::new(PzContext::simulated());
        s.dataset = Some("demo".into());
        s.pending_ops.push(LogicalOp::Filter {
            predicate: FilterPredicate::NaturalLanguage("x".into()),
        });
        let plan = s.current_plan().unwrap();
        assert_eq!(plan.ops.len(), 2);
        assert_eq!(plan.dataset(), "demo");
    }

    #[test]
    fn reset_clears_ops_but_keeps_dataset() {
        let mut s = SessionState::new(PzContext::simulated());
        s.dataset = Some("demo".into());
        s.pending_ops.push(LogicalOp::Limit { n: 1 });
        s.reset_pipeline();
        assert!(s.pending_ops.is_empty());
        assert_eq!(s.dataset.as_deref(), Some("demo"));
    }
}
