//! The session host: many tenants, many concurrent sessions, one
//! substrate.
//!
//! [`ServeHost`] assembles the per-tenant client stack
//! (simulator → tracing → global fair scheduler → shared response cache),
//! installs the admission controller on every tenant context, and drives
//! batches of [`SessionJob`]s on real threads against the shared virtual
//! clock, collecting per-session outcomes and aggregate
//! [`ServeMetrics`].
//!
//! The stack order is deliberate:
//!
//! ```text
//!   shared CachingClient          — hits are free and skip arbitration
//!     └ ScheduledClient           — WFQ slot per provider call
//!         └ TracedClient          — leaf span per provider call
//!             └ SimulatedLlm      — tenant seed, faults, quota ledger
//! ```
//!
//! so a cache hit consumes no model slot (it uses no provider capacity)
//! and a quota refusal never reaches the scheduler at all.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats};
use crate::metrics::{jain_fairness, percentile, ServeMetrics, TenantMetrics};
use crate::scheduler::{GlobalScheduler, ScheduledClient, SchedulerStats};
use crate::tenant::{Tenant, TenantSpec};
use pz_core::context::{AdmissionGate, PzContext};
use pz_core::error::{PzError, PzResult};
use pz_core::exec::ExecutionConfig;
use pz_core::ops::logical::LogicalPlan;
use pz_core::optimizer::policy::Policy;
use pz_core::ExecutionOutcome;
use pz_llm::{CachingClient, Catalog, LlmClient, VirtualClock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Host-level configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub admission: AdmissionConfig,
    /// Share the exact-match response cache across tenants (content-hash
    /// keyed; audited leak-free). Off = per-tenant caches.
    pub shared_cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionConfig::default(),
            shared_cache: true,
        }
    }
}

/// One session's work: a pipeline run on behalf of a tenant.
#[derive(Clone)]
pub struct SessionJob {
    pub tenant: String,
    pub session: String,
    pub plan: LogicalPlan,
    pub policy: Policy,
    pub config: ExecutionConfig,
    /// Interactive sessions are latency-sensitive chat turns; batch
    /// sessions are throughput jobs. Reported per class in the metrics.
    pub interactive: bool,
}

impl SessionJob {
    pub fn new(tenant: impl Into<String>, session: impl Into<String>, plan: LogicalPlan) -> Self {
        Self {
            tenant: tenant.into(),
            session: session.into(),
            plan,
            policy: Policy::MaxQuality,
            config: ExecutionConfig::sequential(),
            interactive: true,
        }
    }

    pub fn with_config(mut self, config: ExecutionConfig) -> Self {
        self.config = config;
        self
    }

    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    pub fn batch(mut self) -> Self {
        self.interactive = false;
        self
    }
}

/// What happened to one submitted session.
pub struct SessionOutcome {
    pub tenant: String,
    pub session: String,
    pub interactive: bool,
    /// The run's result. `Err(PzError::Overloaded)` = shed by admission.
    pub result: PzResult<ExecutionOutcome>,
    /// Submission → completion on the virtual clock (includes queue wait).
    pub latency_secs: f64,
}

impl SessionOutcome {
    /// Was this session shed (structured refusal, not a pipeline failure)?
    pub fn shed(&self) -> bool {
        matches!(&self.result, Err(e) if e.is_overloaded())
    }
}

/// Report for one [`ServeHost::serve`] batch.
pub struct ServeReport {
    pub outcomes: Vec<SessionOutcome>,
    pub metrics: ServeMetrics,
    pub scheduler: SchedulerStats,
    pub admission: AdmissionStats,
}

/// A multi-tenant pipeline serving host over the shared substrate.
pub struct ServeHost {
    clock: VirtualClock,
    catalog: Catalog,
    scheduler: GlobalScheduler,
    admission: AdmissionController,
    config: ServeConfig,
    /// Prototype handle on the shared cache; each tenant gets a
    /// `with_inner` view over its own client stack.
    shared_cache: Option<CachingClient>,
    tenants: BTreeMap<String, Tenant>,
}

impl ServeHost {
    pub fn new(config: ServeConfig) -> Self {
        let clock = VirtualClock::new();
        let catalog = Catalog::builtin();
        Self {
            scheduler: GlobalScheduler::new(&catalog),
            admission: AdmissionController::new(config.admission, clock.clone()),
            clock,
            catalog,
            config,
            shared_cache: None,
            tenants: BTreeMap::new(),
        }
    }

    /// The host's shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The model catalog all tenants share.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cross-tenant scheduler (for inspection).
    pub fn scheduler(&self) -> &GlobalScheduler {
        &self.scheduler
    }

    /// The admission controller (for inspection).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Provision a tenant: build its isolated context and wire it into the
    /// shared scheduler, admission gate, and (optionally) shared cache.
    pub fn add_tenant(&mut self, spec: TenantSpec) -> &Tenant {
        self.scheduler.register_tenant(&spec.id, spec.weight);
        let ledger = pz_llm::UsageLedger::with_quota(spec.quota);
        // Tenant-isolated base: own simulator (seed + faults), own ledger,
        // own tracer/breakers — on the host's shared clock.
        let ctx = PzContext::simulated_shared(spec.sim_config(), self.clock.clone(), ledger);
        // simulated_shared leaves a TracedClient over the simulator on
        // ctx.llm; arbitration goes outside tracing, cache outside both.
        let scheduled: Arc<dyn LlmClient> = Arc::new(ScheduledClient::new(
            ctx.llm.clone(),
            self.scheduler.clone(),
            spec.id.clone(),
        ));
        let cache = if self.config.shared_cache {
            match &self.shared_cache {
                Some(proto) => proto.with_inner(scheduled),
                None => {
                    let first = CachingClient::new(scheduled);
                    self.shared_cache = Some(first.clone());
                    first
                }
            }
        } else {
            CachingClient::new(scheduled)
        }
        .with_tracer(ctx.tracer.clone())
        .with_ledger(ctx.ledger.clone());
        let mut ctx = ctx
            .with_client(Arc::new(cache.clone()))
            .with_admission(Arc::new(self.admission.clone()));
        ctx.cache = Some(cache);
        let id = spec.id.clone();
        self.tenants.insert(id.clone(), Tenant { spec, ctx });
        self.tenants.get(&id).expect("just inserted")
    }

    /// Look up a provisioned tenant.
    pub fn tenant(&self, id: &str) -> Option<&Tenant> {
        self.tenants.get(id)
    }

    /// A context clone for one of `tenant`'s sessions (shares the tenant's
    /// ledger, breakers, registry and tracer).
    pub fn session_ctx(&self, tenant: &str) -> Option<PzContext> {
        self.tenants.get(tenant).map(|t| t.ctx.clone())
    }

    /// Run one session inline (no extra thread), measured on the clock.
    pub fn run_session(&self, job: SessionJob) -> SessionOutcome {
        let ctx = self
            .session_ctx(&job.tenant)
            .expect("unknown tenant in SessionJob");
        Self::run_on(&ctx, job)
    }

    fn run_on(ctx: &PzContext, job: SessionJob) -> SessionOutcome {
        let t0 = ctx.clock.now_secs();
        let result = pz_core::execute(ctx, &job.plan, &job.policy, job.config);
        SessionOutcome {
            tenant: job.tenant,
            session: job.session,
            interactive: job.interactive,
            latency_secs: ctx.clock.now_secs() - t0,
            result,
        }
    }

    /// Drive a batch of sessions concurrently — one thread per job, all
    /// submitting together — and aggregate the outcome into serving
    /// metrics. Admission decides who runs, queues, or is shed; the
    /// scheduler arbitrates model slots among the admitted. "Together" is
    /// enforced at the gate ([`AdmissionController::expect_batch`]): no
    /// admitted run starts before every job has been admitted, queued or
    /// shed, so the split does not depend on how long a run takes.
    pub fn serve(&self, jobs: Vec<SessionJob>) -> ServeReport {
        let t_start = self.clock.now_secs();
        let submitted = jobs.len();
        let barrier = Arc::new(Barrier::new(jobs.len()));
        let outcomes: Arc<Mutex<Vec<SessionOutcome>>> =
            Arc::new(Mutex::new(Vec::with_capacity(jobs.len())));
        self.admission.expect_batch(jobs.len());
        std::thread::scope(|s| {
            for job in jobs {
                let ctx = self
                    .session_ctx(&job.tenant)
                    .expect("unknown tenant in SessionJob")
                    .with_admission(Arc::new(BatchMember {
                        gate: self.admission.clone(),
                        reached_gate: AtomicBool::new(false),
                    }));
                let barrier = barrier.clone();
                let outcomes = outcomes.clone();
                s.spawn(move || {
                    barrier.wait();
                    let outcome = Self::run_on(&ctx, job);
                    outcomes.lock().unwrap().push(outcome);
                });
            }
        });
        let outcomes = Arc::into_inner(outcomes)
            .expect("all session threads joined")
            .into_inner()
            .unwrap();
        let metrics = self.aggregate(&outcomes, submitted, t_start);
        ServeReport {
            outcomes,
            metrics,
            scheduler: self.scheduler.stats(),
            admission: self.admission.stats(),
        }
    }

    fn aggregate(
        &self,
        outcomes: &[SessionOutcome],
        submitted: usize,
        t_start: f64,
    ) -> ServeMetrics {
        let completed: Vec<&SessionOutcome> =
            outcomes.iter().filter(|o| o.result.is_ok()).collect();
        let shed = outcomes.iter().filter(|o| o.shed()).count();
        let latencies: Vec<f64> = completed.iter().map(|o| o.latency_secs).collect();
        let span = self.clock.now_secs() - t_start;
        let mut per_tenant = Vec::new();
        let mut shares = Vec::new();
        for (id, tenant) in &self.tenants {
            let done = completed.iter().filter(|o| &o.tenant == id).count();
            per_tenant.push(TenantMetrics {
                tenant: id.clone(),
                sessions_completed: done,
                sessions_shed: outcomes
                    .iter()
                    .filter(|o| &o.tenant == id && o.shed())
                    .count(),
                cost_usd: tenant.ctx.ledger.total_cost_usd(),
                llm_calls: tenant.ctx.ledger.total_requests(),
            });
            shares.push(done as f64);
        }
        ServeMetrics {
            sessions_submitted: submitted,
            sessions_completed: completed.len(),
            sessions_shed: shed,
            shed_rate: if submitted == 0 {
                0.0
            } else {
                shed as f64 / submitted as f64
            },
            p50_latency_secs: percentile(&latencies, 0.50),
            p99_latency_secs: percentile(&latencies, 0.99),
            throughput_per_sec: if span > 0.0 {
                completed.len() as f64 / span
            } else {
                0.0
            },
            fairness_jain: jain_fairness(&shares),
            per_tenant,
        }
    }
}

/// One job of a [`ServeHost::serve`] batch at the admission gate. The gate
/// holds the batch until every member has reached it; a member that never
/// will — its plan failed to optimize, its thread panicked — is written off
/// when its context drops, so the others are not held for it.
struct BatchMember {
    gate: AdmissionController,
    reached_gate: AtomicBool,
}

impl AdmissionGate for BatchMember {
    fn begin(&self, now_secs: f64, deadline_at_secs: Option<f64>) -> PzResult<u64> {
        self.reached_gate.store(true, Ordering::Relaxed);
        self.gate.begin(now_secs, deadline_at_secs)
    }

    fn end(&self, ticket: u64, now_secs: f64) {
        self.gate.end(ticket, now_secs);
    }
}

impl Drop for BatchMember {
    fn drop(&mut self) {
        if !*self.reached_gate.get_mut() {
            self.gate.batch_member_gone();
        }
    }
}

/// Convenience check used by tests and the bench harness: did `e` shed
/// with the structured overload error (as opposed to failing)?
pub fn is_shed(e: &PzError) -> bool {
    e.is_overloaded()
}
