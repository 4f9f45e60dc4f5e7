//! Per-tenant state and isolation boundaries.
//!
//! A tenant is the unit of isolation: it owns its usage ledger (with a
//! hard [`Quota`]), its fault plan and injector, its circuit breakers, and
//! its tracer. All of those live on the tenant's own [`PzContext`], so one
//! tenant's outage storm trips only its own breakers and one tenant's
//! spend can never land on another's bill. What tenants *share* — by
//! construction, not by accident — is the virtual clock (one timebase),
//! the model catalog, the admission controller, and (optionally) the
//! exact-match response cache, whose keys are pure content hashes audited
//! in `pz_llm::cache` to be leak-free.

use pz_core::context::PzContext;
use pz_llm::{FaultPlan, Quota, SimConfig};
use serde::{Deserialize, Serialize};

/// Declarative description of one tenant.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Stable identifier (also the key of its place in the run order).
    pub id: String,
    /// Relative share of the host's runs. Interactive tenants typically
    /// get a larger weight than batch tenants.
    pub weight: f64,
    /// Hard budget; `Quota::unlimited()` for none. Enforced atomically at
    /// the billing point — an over-budget call is refused, never billed.
    pub quota: Quota,
    /// Simulator seed for this tenant's deterministic behaviour.
    pub seed: u64,
    /// Scripted faults applied to *this tenant only*.
    pub fault_plan: FaultPlan,
}

impl TenantSpec {
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            weight: 1.0,
            quota: Quota::unlimited(),
            seed: 42,
            fault_plan: FaultPlan::default(),
        }
    }

    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    pub fn with_quota(mut self, quota: Quota) -> Self {
        self.quota = quota;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The simulator configuration this spec implies.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            fault_plan: self.fault_plan.clone(),
            ..SimConfig::default()
        }
    }
}

/// A provisioned tenant: its spec plus its isolated runtime context.
pub struct Tenant {
    pub spec: TenantSpec,
    /// The tenant's execution context. Clones share state, so handing a
    /// clone to each of the tenant's sessions keeps them on one ledger,
    /// one breaker set, one tracer.
    pub ctx: PzContext,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_round_trips() {
        let spec = TenantSpec::new("acme")
            .with_weight(4.0)
            .with_quota(Quota::cost_limit(1.5))
            .with_seed(7)
            .with_fault_plan(FaultPlan::parse("gpt-4o:outage@0..10", 7).unwrap());
        assert_eq!(spec.id, "acme");
        assert_eq!(spec.weight, 4.0);
        assert_eq!(spec.quota.max_cost_usd, Some(1.5));
        let cfg = spec.sim_config();
        assert_eq!(cfg.seed, 7);
        assert!(!cfg.fault_plan.is_empty());
        // Serializable for host configs / traffic files.
        let j = serde_json::to_string(&spec).unwrap();
        let back: TenantSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(back.id, spec.id);
    }
}
