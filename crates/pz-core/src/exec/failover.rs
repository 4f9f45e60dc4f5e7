//! Mid-plan model failover.
//!
//! The optimizer enumerates logically equivalent physical implementations
//! of every semantic operator — the same operator backed by different
//! models is exactly the redundancy graceful degradation needs. When a
//! model's fault domain goes unhealthy mid-run (its circuit breaker opens,
//! or a call fails with a provider fault after exhausting retries), the
//! executor swaps the afflicted operator for the same operator on the
//! next-best healthy model *under the active policy's primary dimension*,
//! records a [`crate::exec::stats::DegradedExecution`] entry, and keeps
//! going. If no healthy candidate remains, the first provider error
//! surfaces exactly as before this layer existed.
//!
//! Candidates are drawn from the catalog rather than a saved Pareto
//! frontier: for a single-operator swap the frontier's per-operator slice
//! *is* "same strategy, every other model, ranked by the policy's primary
//! dimension", which the catalog answers directly.

use crate::exec::stats::DegradedExecution;
use crate::ops::physical::PhysicalOp;
use crate::optimizer::policy::Policy;
use pz_llm::{Catalog, HealthTracker, ModelId, ModelKind};

/// The dimension failover ranks substitute models by — the active
/// [`Policy`]'s primary axis, collapsed to something `Copy` so it can ride
/// on [`crate::exec::ExecutionConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailoverRank {
    /// Highest quality first (MaxQuality and the quality-seeking
    /// constrained policies).
    #[default]
    Quality,
    /// Cheapest first (MinCost, MinCostAtQuality).
    Cost,
    /// Fastest first (MinTime).
    Time,
}

impl From<&Policy> for FailoverRank {
    fn from(policy: &Policy) -> Self {
        match policy {
            Policy::MaxQuality | Policy::MaxQualityAtCost(_) | Policy::MaxQualityAtTime(_) => {
                FailoverRank::Quality
            }
            Policy::MinCost | Policy::MinCostAtQuality(_) => FailoverRank::Cost,
            Policy::MinTime => FailoverRank::Time,
        }
    }
}

/// Whether failover can rewrite this operator: it must carry exactly one
/// swappable model. Ensemble filters are excluded — their resilience *is*
/// the ensemble (majority vote already tolerates a sick member), and
/// swapping one member would silently change voting semantics.
pub fn swappable(op: &PhysicalOp) -> bool {
    matches!(
        op,
        PhysicalOp::LlmFilter { .. }
            | PhysicalOp::EmbeddingFilter { .. }
            | PhysicalOp::LlmConvert { .. }
            | PhysicalOp::FieldwiseConvert { .. }
            | PhysicalOp::Retrieve { .. }
            | PhysicalOp::LlmJoin { .. }
            | PhysicalOp::LlmClassify { .. }
    )
}

/// Clone `op` with its model replaced. `None` for non-swappable operators.
pub fn with_model(op: &PhysicalOp, to: ModelId) -> Option<PhysicalOp> {
    let mut swapped = op.clone();
    let ok = match &mut swapped {
        PhysicalOp::LlmFilter { model, .. }
        | PhysicalOp::EmbeddingFilter { model, .. }
        | PhysicalOp::LlmConvert { model, .. }
        | PhysicalOp::FieldwiseConvert { model, .. }
        | PhysicalOp::Retrieve { model, .. }
        | PhysicalOp::LlmJoin { model, .. }
        | PhysicalOp::LlmClassify { model, .. } => {
            *model = to;
            true
        }
        _ => false,
    };
    ok.then_some(swapped)
}

/// Which model kind `op` needs from a substitute.
fn kind_needed(op: &PhysicalOp) -> ModelKind {
    match op {
        PhysicalOp::EmbeddingFilter { .. } | PhysicalOp::Retrieve { .. } => ModelKind::Embedding,
        _ => ModelKind::Chat,
    }
}

/// Healthy substitute models for `op`, best-first under `rank`. The
/// operator's current model is excluded, as is any model whose breaker is
/// open at `now_secs`.
pub fn candidates(
    catalog: &Catalog,
    health: &HealthTracker,
    op: &PhysicalOp,
    rank: FailoverRank,
    now_secs: f64,
) -> Vec<ModelId> {
    let Some(current) = op.model() else {
        return Vec::new();
    };
    if !swappable(op) {
        return Vec::new();
    }
    let mut cards: Vec<_> = catalog
        .of_kind(kind_needed(op))
        .filter(|card| &card.id != current && !health.is_open(&card.id, now_secs))
        .collect();
    // Representative request shape for cost/latency ranking; absolute
    // numbers don't matter, only the ordering.
    let key = |card: &pz_llm::ModelCard| match rank {
        FailoverRank::Quality => -card.quality,
        FailoverRank::Cost => card.cost_usd(1000, 100),
        FailoverRank::Time => card.latency_secs(1000, 100),
    };
    cards.sort_by(|a, b| {
        key(a)
            .total_cmp(&key(b))
            .then(b.quality.total_cmp(&a.quality))
            .then(a.id.cmp(&b.id))
    });
    cards.into_iter().map(|c| c.id.clone()).collect()
}

/// Emit the observability record of one failover decision: a structured
/// executor-layer event plus the `exec.failover` counter. `in_flight` is
/// the size of the batch being re-run on the substitute (the entry's own
/// `records_affected` only accrues as batches succeed).
pub(crate) fn emit_event(tracer: &pz_obs::Tracer, entry: &DegradedExecution, in_flight: usize) {
    tracer.event(
        pz_obs::Layer::Executor,
        "failover",
        &[
            ("operator", entry.operator.clone()),
            ("from", entry.from_model.clone()),
            ("to", entry.to_model.clone()),
            ("reason", entry.reason.clone()),
            ("records", in_flight.to_string()),
            ("at_secs", format!("{:.3}", entry.at_secs)),
        ],
    );
    tracer.incr("exec.failover", 1);
}

/// Estimated quality change of swapping `from` for `to` (negative =
/// degradation), straight from the model cards.
pub fn quality_delta(catalog: &Catalog, from: &ModelId, to: &ModelId) -> f64 {
    let q = |m: &ModelId| catalog.get(m).map_or(0.0, |c| c.quality);
    q(to) - q(from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pz_llm::protocol::Effort;

    fn filter_op(model: &str) -> PhysicalOp {
        PhysicalOp::LlmFilter {
            predicate: "about cancer".into(),
            model: model.into(),
            effort: Effort::Standard,
        }
    }

    #[test]
    fn rank_follows_policy_primary_dimension() {
        assert_eq!(
            FailoverRank::from(&Policy::MaxQuality),
            FailoverRank::Quality
        );
        assert_eq!(
            FailoverRank::from(&Policy::MaxQualityAtCost(1.0)),
            FailoverRank::Quality
        );
        assert_eq!(FailoverRank::from(&Policy::MinCost), FailoverRank::Cost);
        assert_eq!(
            FailoverRank::from(&Policy::MinCostAtQuality(0.8)),
            FailoverRank::Cost
        );
        assert_eq!(FailoverRank::from(&Policy::MinTime), FailoverRank::Time);
    }

    #[test]
    fn quality_rank_prefers_next_best_model() {
        let catalog = Catalog::builtin();
        let health = HealthTracker::default();
        let c = candidates(
            &catalog,
            &health,
            &filter_op("gpt-4o"),
            FailoverRank::Quality,
            0.0,
        );
        // gpt-4o (0.96) excluded; llama-3-70b (0.92) is next best.
        assert_eq!(c.first().map(|m| m.as_str()), Some("llama-3-70b"));
        assert!(!c.iter().any(|m| m.as_str() == "gpt-4o"));
        // Only chat models qualify for a chat op.
        assert!(!c.iter().any(|m| m.as_str() == "text-embedding-3-small"));
    }

    #[test]
    fn cost_rank_prefers_cheapest_model() {
        let catalog = Catalog::builtin();
        let health = HealthTracker::default();
        let c = candidates(
            &catalog,
            &health,
            &filter_op("gpt-4o"),
            FailoverRank::Cost,
            0.0,
        );
        // Every ranked candidate must resolve in the catalog (candidates
        // are drawn from it, never fabricated) — resolve without unwrap so
        // a ranking bug reads as an assertion, not a panic.
        let cost = |m: &pz_llm::ModelId| {
            catalog
                .get(m)
                .map(|card| card.cost_usd(1000, 100))
                .unwrap_or_else(|| panic!("candidate {m} missing from catalog"))
        };
        let first = cost(&c[0]);
        for m in &c[1..] {
            assert!(first <= cost(m));
        }
    }

    #[test]
    fn missing_model_degrades_instead_of_panicking() {
        // An operator whose planned model is absent from the catalog (a
        // retired alias, a typo in a hand-written plan) must still rank
        // substitutes: `candidates` draws from the catalog rather than
        // resolving the current model, so nothing can unwrap-panic the
        // executor.
        let catalog = Catalog::builtin();
        let health = HealthTracker::default();
        let op = filter_op("retired-model-v0");
        let c = candidates(&catalog, &health, &op, FailoverRank::Quality, 0.0);
        assert!(!c.is_empty(), "healthy substitutes must still be offered");
        assert_eq!(c.first().map(|m| m.as_str()), Some("gpt-4o"));
        // Ranking by cost and time exercises the card-derived sort keys.
        for rank in [FailoverRank::Cost, FailoverRank::Time] {
            assert!(!candidates(&catalog, &health, &op, rank, 0.0).is_empty());
        }
        // Quality delta against an unknown model stays finite (treated as
        // quality 0, i.e. the swap reads as an upgrade, never a panic).
        let d = quality_delta(&catalog, &"retired-model-v0".into(), &c[0]);
        assert!(d.is_finite());
        assert!(with_model(&op, c[0].clone()).is_some());
    }

    #[test]
    fn open_breakers_are_excluded() {
        let catalog = Catalog::builtin();
        let health = HealthTracker::default();
        let err = pz_llm::LlmError::Transient {
            attempt: 0,
            reason: "down".into(),
        };
        health.trip(&"llama-3-70b".into(), &err, 0.0);
        let c = candidates(
            &catalog,
            &health,
            &filter_op("gpt-4o"),
            FailoverRank::Quality,
            1.0,
        );
        assert!(!c.iter().any(|m| m.as_str() == "llama-3-70b"));
        assert_eq!(c.first().map(|m| m.as_str()), Some("gpt-4o-mini"));
    }

    #[test]
    fn swap_preserves_everything_but_the_model() {
        let op = filter_op("gpt-4o");
        let swapped = with_model(&op, "gpt-4o-mini".into()).unwrap();
        match swapped {
            PhysicalOp::LlmFilter {
                predicate, model, ..
            } => {
                assert_eq!(predicate, "about cancer");
                assert_eq!(model.as_str(), "gpt-4o-mini");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ensemble_and_conventional_ops_are_not_swappable() {
        let ensemble = PhysicalOp::EnsembleFilter {
            predicate: "x".into(),
            models: vec!["gpt-4o".into(), "gpt-4o-mini".into(), "llama-3-70b".into()],
            effort: Effort::Standard,
        };
        assert!(!swappable(&ensemble));
        assert!(with_model(&ensemble, "llama-3-8b".into()).is_none());
        let limit = PhysicalOp::Limit { n: 3 };
        assert!(!swappable(&limit));
        assert!(candidates(
            &Catalog::builtin(),
            &HealthTracker::default(),
            &limit,
            FailoverRank::Quality,
            0.0
        )
        .is_empty());
    }

    #[test]
    fn embedding_ops_only_get_embedding_models() {
        // The builtin catalog has a single embedding model, so a retrieve
        // op has no substitute — failover must fall through to the error.
        let catalog = Catalog::builtin();
        let health = HealthTracker::default();
        let op = PhysicalOp::Retrieve {
            query: "q".into(),
            k: 3,
            model: "text-embedding-3-small".into(),
        };
        assert!(candidates(&catalog, &health, &op, FailoverRank::Quality, 0.0).is_empty());
    }

    #[test]
    fn quality_delta_is_signed() {
        let catalog = Catalog::builtin();
        let down = quality_delta(&catalog, &"gpt-4o".into(), &"llama-3-70b".into());
        assert!(down < 0.0);
        let up = quality_delta(&catalog, &"llama-3-70b".into(), &"gpt-4o".into());
        assert!(up > 0.0);
    }
}
