//! # pz-serve — multi-tenant pipeline serving
//!
//! PalimpChat's interactive sessions don't run alone: a deployed host
//! serves many chat/pipeline sessions for many tenants over one shared
//! substrate. This crate is that host, built so that **no tenant can hurt
//! another**, and so that a batch's report is a function of its jobs:
//!
//! - **Budgets** — each tenant's [`pz_llm::UsageLedger`] carries a hard
//!   [`pz_llm::Quota`] enforced atomically at the billing point: an
//!   over-budget run is refused or truncated with a flagged partial
//!   result ([`pz_core::exec::ExecutionStats::quota_exhausted`]), never
//!   silently billed.
//! - **Fair scheduling** — [`ServeHost::serve`] runs a batch on the
//!   calling thread, one whole run at a time, and picks the next admitted
//!   run by start-time-fair tags over tenant weights (`FairQueue`), so
//!   a deep batch backlog cannot starve interactive chat turns.
//! - **Admission control** — [`AdmissionController`], a state machine on
//!   the virtual clock, bounds admitted runs and the wait queue, shedding
//!   overload with structured [`pz_core::error::PzError::Overloaded`]
//!   errors (deadline-aware: a run whose predicted queue wait blows its
//!   deadline is refused immediately).
//! - **Fault isolation** — breakers, fault injectors, and tracers are
//!   per-tenant: one tenant's outage storm trips only its own circuits.
//! - **Shared caching, audited** — the exact-match response cache may be
//!   shared cross-tenant because its keys are pure content hashes
//!   (audited in `pz_llm::cache`); hits can only ever *reduce* a
//!   tenant's cost, never shift it onto another tenant.

pub mod admission;
pub mod host;
pub mod metrics;
pub mod scheduler;
pub mod tenant;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, Decision};
pub use host::{ServeConfig, ServeHost, ServeReport, SessionJob, SessionOutcome};
pub use metrics::{jain_fairness, percentile, ServeMetrics, TenantMetrics};
pub use scheduler::{GlobalScheduler, SchedulerStats};
pub use tenant::{Tenant, TenantSpec};
