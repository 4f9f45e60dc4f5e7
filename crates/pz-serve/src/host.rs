//! The session host: many tenants, many sessions, one substrate.
//!
//! [`ServeHost`] assembles the per-tenant client stack
//! (simulator → tracing → shared response cache), installs the admission
//! controller on every tenant context, and serves batches of
//! [`SessionJob`]s on the calling thread against the shared virtual
//! clock, collecting per-session outcomes and aggregate
//! [`ServeMetrics`].
//!
//! The stack order is deliberate:
//!
//! ```text
//!   shared CachingClient          — hits are free and reach no provider
//!     └ TracedClient              — leaf span per provider call
//!         └ SimulatedLlm          — tenant seed, faults, quota ledger
//! ```
//!
//! so a cache hit makes no provider call (it uses no provider capacity)
//! and the traced client's counters number exactly the calls that missed.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionStats, Decision};
use crate::metrics::{jain_fairness, percentile, ServeMetrics, TenantMetrics};
use crate::scheduler::{FairQueue, GlobalScheduler, SchedulerStats};
use crate::tenant::{Tenant, TenantSpec};
use pz_core::context::PzContext;
use pz_core::error::{PzError, PzResult};
use pz_core::exec::ExecutionConfig;
use pz_core::ops::logical::LogicalPlan;
use pz_core::optimizer::policy::Policy;
use pz_core::ExecutionOutcome;
use pz_llm::{CachingClient, VirtualClock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

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
    fn of(job: &SessionJob, result: PzResult<ExecutionOutcome>, latency_secs: f64) -> Self {
        Self {
            tenant: job.tenant.clone(),
            session: job.session.clone(),
            interactive: job.interactive,
            result,
            latency_secs,
        }
    }

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
        Self {
            clock: VirtualClock::new(),
            scheduler: GlobalScheduler::default(),
            admission: AdmissionController::new(config.admission),
            config,
            shared_cache: None,
            tenants: BTreeMap::new(),
        }
    }

    /// Tenant weights and provider-call counts (for inspection).
    pub fn scheduler(&self) -> &GlobalScheduler {
        &self.scheduler
    }

    /// The admission controller (for inspection).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Provision a tenant: build its isolated context and wire it into the
    /// run order, the admission gate, and (optionally) the shared cache.
    pub fn add_tenant(&mut self, spec: TenantSpec) -> &Tenant {
        let ledger = pz_llm::UsageLedger::with_quota(spec.quota);
        // Tenant-isolated base: own simulator (seed + faults), own ledger,
        // own tracer/breakers — on the host's shared clock. It leaves a
        // TracedClient over the simulator on ctx.llm; the cache goes
        // outside it.
        let ctx = PzContext::simulated_shared(spec.sim_config(), self.clock.clone(), ledger);
        (self.scheduler).register_tenant(&spec.id, spec.weight, ctx.tracer.clone());
        let traced = ctx.llm.clone();
        let cache = if self.config.shared_cache {
            let proto =
                (self.shared_cache).get_or_insert_with(|| CachingClient::new(traced.clone()));
            proto.with_inner(traced)
        } else {
            CachingClient::new(traced)
        }
        .with_faults(ctx.faults.clone())
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

    /// Run one session on the calling thread, measured on the clock. The
    /// run passes the admission gate like a [`Self::serve`] job; told
    /// "queued" — slots held by sessions on other threads — it waits until
    /// one of them finishes.
    pub fn run_session(&self, job: SessionJob) -> SessionOutcome {
        let t0 = self.clock.now_secs();
        let result = match self.session_ctx(&job.tenant) {
            Some(ctx) => pz_core::execute(&ctx, &job.plan, &job.policy, job.config),
            None => Err(PzError::UnknownTenant(job.tenant.clone())),
        };
        SessionOutcome::of(&job, result, self.clock.now_secs() - t0)
    }

    /// Serve a batch of sessions on the calling thread and aggregate the
    /// outcome into serving metrics. Every job arrives at the same instant,
    /// in submission order: admission gives the first ones a slot, queues
    /// the next and sheds the rest. Admitted runs then go one whole run at
    /// a time, in weighted-fair order across tenants (`FairQueue`); each
    /// run's end promotes the queue head, or sheds it if its deadline —
    /// counted from submission — has passed. Outcomes come back in
    /// submission order, with latency from submission to completion on the
    /// host clock, so the report is a function of the jobs alone. A job
    /// naming an unknown tenant fails alone.
    pub fn serve(&self, jobs: Vec<SessionJob>) -> ServeReport {
        let t0 = self.clock.now_secs();
        let deadline = |job: &SessionJob| job.config.deadline_secs.map(|d| t0 + d);
        // Each job's result and latency, once it has them.
        let mut ends: Vec<Option<(PzResult<ExecutionOutcome>, f64)>> =
            jobs.iter().map(|_| None).collect();
        let mut tickets = vec![0; jobs.len()];
        let mut ready = FairQueue::default();
        // Queued jobs, as (ticket, job), in queue order.
        let mut queued = VecDeque::new();
        let mut decided = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            match self.tenants.get(&job.tenant) {
                Some(_) => decided.push((i, self.admission.arrive(t0, deadline(job)))),
                None => ends[i] = Some((Err(PzError::UnknownTenant(job.tenant.clone())), 0.0)),
            }
        }
        loop {
            for (i, decision) in decided.drain(..) {
                match decision {
                    Decision::Admitted(ticket) => {
                        tickets[i] = ticket;
                        let tenant = &jobs[i].tenant;
                        ready.push(tenant, self.scheduler.weight(tenant), i);
                    }
                    Decision::Queued(ticket) => queued.push_back((ticket, i)),
                    Decision::Shed(e) => ends[i] = Some((Err(e), self.clock.now_secs() - t0)),
                }
            }
            let Some(i) = ready.pop() else {
                // Nothing admitted is left to run, yet jobs wait: live
                // sessions on other threads hold the slots.
                let Some((ticket, i)) = queued.pop_front() else {
                    break;
                };
                decided.push((i, settled(ticket, self.admission.wait(ticket))));
                continue;
            };
            // Past the gate already, with what is left of its deadline.
            let job = &jobs[i];
            let mut ctx = self.tenants[&job.tenant].ctx.clone();
            ctx.admission = None;
            let mut config = job.config;
            config.deadline_secs = deadline(job).map(|d| d - self.clock.now_secs());
            let result = pz_core::execute(&ctx, &job.plan, &job.policy, config);
            let now = self.clock.now_secs();
            ends[i] = Some((result, now - t0));
            for (ticket, decision) in self.admission.finish(tickets[i], now) {
                // Promotions leave the queue in order; tickets this batch
                // does not hold belong to live callers.
                if let Some(&(ours, j)) = queued.front().filter(|(t, _)| *t == ticket) {
                    queued.pop_front();
                    decided.push((j, settled(ours, decision)));
                }
            }
        }
        let outcomes: Vec<SessionOutcome> = (jobs.iter().zip(ends))
            .filter_map(|(job, end)| {
                end.map(|(result, latency)| SessionOutcome::of(job, result, latency))
            })
            .collect();
        ServeReport {
            metrics: self.aggregate(&outcomes, jobs.len(), t0),
            outcomes,
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

/// A queued ticket's fate as an arrival decision.
fn settled(ticket: u64, admitted: PzResult<()>) -> Decision {
    admitted.map_or_else(Decision::Shed, |()| Decision::Admitted(ticket))
}
