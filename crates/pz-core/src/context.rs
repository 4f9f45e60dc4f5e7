//! Runtime context shared by optimizer and executors.
//!
//! Bundles every service a pipeline touches: the LLM client, the model
//! catalog (for cost estimation), the dataset and UDF registries, the
//! virtual clock and usage ledger, and the record-id allocator. Clones
//! share all state, so one context can be handed to parallel workers.

use crate::datasource::{DataRegistry, DataSource, RecordBatchIter, UdfRegistry};
use crate::error::PzResult;
use pz_llm::{
    CachingClient, Catalog, FaultInjector, HealthTracker, LlmClient, ModelId, RetryContext,
    RetryPolicy, RunSink, SimConfig, SimulatedLlm, TracedClient, UsageLedger, VirtualClock,
};
use pz_obs::Tracer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Admission control consulted by the executor at the top of every run.
///
/// Implemented by serving hosts (`pz-serve`): `begin` either admits the run
/// (possibly after queueing on the virtual clock) and returns a ticket, or
/// refuses with [`crate::PzError::Overloaded`]. The executor calls `end`
/// with the same ticket when the run finishes, success or failure, so the
/// host can release the slot. A context without a gate admits everything.
pub trait AdmissionGate: Send + Sync {
    /// Request admission for a run starting at `now_secs` with an optional
    /// absolute deadline. Returns an opaque ticket on admission.
    fn begin(&self, now_secs: f64, deadline_at_secs: Option<f64>) -> PzResult<u64>;

    /// Release the slot held by `ticket`. Must be infallible: it runs on
    /// every exit path, including failures.
    fn end(&self, ticket: u64, now_secs: f64);
}

/// Shared execution environment.
#[derive(Clone)]
pub struct PzContext {
    /// The model client (the deterministic simulator in this reproduction,
    /// optionally wrapped in a response cache).
    pub llm: Arc<dyn LlmClient>,
    /// Handle onto the response cache, when enabled via [`Self::with_cache`].
    pub cache: Option<CachingClient>,
    /// Model cards for cost estimation and plan enumeration.
    pub catalog: Catalog,
    /// Registered input datasets.
    pub registry: DataRegistry,
    /// Registered user-defined functions.
    pub udfs: UdfRegistry,
    /// Shared virtual clock (latency accounting).
    pub clock: VirtualClock,
    /// Shared usage ledger (token / dollar accounting).
    pub ledger: UsageLedger,
    /// Shared tracer: spans and metrics from every layer, timestamped on
    /// [`Self::clock`] so traces reconcile with the ledger and stats.
    pub tracer: Tracer,
    /// Retry policy for transient model failures.
    pub retry: RetryPolicy,
    /// Per-model health tracker / circuit breakers, consulted by the retry
    /// layer and both executors.
    pub health: HealthTracker,
    /// Handle on the simulator's scripted fault plan (REPL `:faults`,
    /// `repro --fault-plan`). A no-op injector for non-simulated clients.
    pub faults: FaultInjector,
    /// Absolute execution deadline on the virtual clock, if any. Set by the
    /// executor on its cloned context from `ExecutionConfig::deadline_secs`;
    /// retries and backoff refuse to sleep past it.
    pub deadline_at_secs: Option<f64>,
    /// Default embedding model.
    pub embed_model: ModelId,
    /// The books of the time calls lose to failures (fault stalls, retry
    /// backoff) and of what cache hits hand on. The executor gives every
    /// run its own on its cloned context and reads it around each step;
    /// `None` records nothing.
    pub run_sink: Option<Arc<RunSink>>,
    /// Admission gate consulted at the top of every executed plan. `None`
    /// (the default) admits everything; serving hosts install their gate so
    /// per-run capacity and load shedding apply uniformly to REPL, tool and
    /// API traffic running through this context.
    pub admission: Option<Arc<dyn AdmissionGate>>,
    ids: Arc<AtomicU64>,
}

impl PzContext {
    /// Context over the builtin catalog with a fresh simulator (seed 42, no
    /// transient failures).
    pub fn simulated() -> Self {
        Self::simulated_with(SimConfig::default())
    }

    /// Context with explicit simulator configuration.
    pub fn simulated_with(config: SimConfig) -> Self {
        Self::simulated_shared(config, VirtualClock::new(), UsageLedger::new())
    }

    /// Context with explicit simulator configuration over a *caller-owned*
    /// clock and ledger. This is the multi-tenant constructor: a serving
    /// host gives every tenant its own ledger (and fault plan, via
    /// `config.fault_plan`) while all tenants share one virtual clock, so
    /// cross-tenant latency measurements are on a common timebase but
    /// billing and fault state never mix.
    pub fn simulated_shared(config: SimConfig, clock: VirtualClock, ledger: UsageLedger) -> Self {
        let catalog = Catalog::builtin();
        let tracer = Tracer::new(Arc::new(clock.clone()));
        let sim = SimulatedLlm::new(catalog.clone(), config, clock.clone(), ledger.clone());
        // Keep a handle on the injector so faults can be scripted live.
        let faults = sim.faults().clone();
        let sim: Arc<dyn LlmClient> = Arc::new(sim);
        // Every call that reaches the provider gets a leaf span; a cache
        // added later wraps *outside* this, so hits never record LLM spans.
        let llm: Arc<dyn LlmClient> = Arc::new(TracedClient::new(sim, tracer.clone()));
        Self {
            llm,
            cache: None,
            catalog,
            registry: DataRegistry::new(),
            udfs: UdfRegistry::new(),
            clock,
            ledger,
            retry: RetryPolicy::default(),
            health: HealthTracker::default().with_tracer(tracer.clone()),
            faults,
            deadline_at_secs: None,
            tracer,
            embed_model: "text-embedding-3-small".into(),
            run_sink: None,
            admission: None,
            ids: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Replace the model client (e.g. with a serving layer's scheduled +
    /// shared-cache stack). The caller is responsible for any tracing
    /// wrapper it wants; `self.cache` is cleared because the old handle no
    /// longer fronts the installed client.
    pub fn with_client(mut self, llm: Arc<dyn LlmClient>) -> Self {
        self.llm = llm;
        self.cache = None;
        self
    }

    /// Install an admission gate consulted at the top of every executed
    /// plan (see [`AdmissionGate`]).
    pub fn with_admission(mut self, gate: Arc<dyn AdmissionGate>) -> Self {
        self.admission = Some(gate);
        self
    }

    /// Wrap the model client in an exact-match response cache: repeated
    /// prompts (sentinel + execution, retried calls, re-runs over unchanged
    /// data) are served for free, so a re-run after an edit bills only the
    /// records the edit touched. Returns the modified context; cache
    /// statistics are available via `self.cache`. Cache hits and misses
    /// land on the tracer (counters) and the ledger (per-model counts),
    /// and each hit hands the executor what its call cost the run that
    /// made it — the time it lost to failures only while the fault plan
    /// that run saw is still in force.
    pub fn with_cache(mut self) -> Self {
        let cache = CachingClient::new(self.llm.clone())
            .with_faults(self.faults.clone())
            .with_tracer(self.tracer.clone())
            .with_ledger(self.ledger.clone());
        self.cache = Some(cache.clone());
        self.llm = Arc::new(cache);
        self
    }

    /// [`Self::with_cache`], under the name the benchmark harness calls.
    pub fn with_incremental(self) -> Self {
        self.with_cache()
    }

    /// Allocate a fresh record id.
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a contiguous block of `n` ids, returning the first.
    pub fn next_ids(&self, n: u64) -> u64 {
        self.ids.fetch_add(n, Ordering::Relaxed)
    }

    /// Reserve one contiguous block of ids for every record of `src`,
    /// returning the first. The one place a source's records are numbered
    /// (scans, join build sides, `UnionAll`), so two reads never share an
    /// id. The block is sized by the source's cardinality hint; a source
    /// without one is counted by reading it.
    pub fn reserve_ids(&self, src: &dyn DataSource) -> u64 {
        let n = src
            .cardinality_hint()
            .or_else(|| src.records(0).ok().map(|r| r.len()))
            .unwrap_or(0);
        self.next_ids(n.max(1) as u64)
    }

    /// Open dataset `dataset` as a batch stream of at most `chunk_size`
    /// records per batch (0 = one batch holding everything). Its ids are
    /// reserved up front ([`Self::reserve_ids`]), so every drive numbers
    /// the same corpus identically.
    pub fn open_scan(&self, dataset: &str, chunk_size: usize) -> PzResult<RecordBatchIter> {
        let src = self.registry.get(dataset)?;
        src.batches(self.reserve_ids(src.as_ref()), chunk_size)
    }

    /// Reset accounting (clock + ledger + trace + breaker state) between
    /// experiments. Record ids keep increasing — they only need uniqueness.
    pub fn reset_accounting(&self) {
        self.clock.reset();
        self.ledger.reset();
        self.tracer.reset();
        // Breaker cooldowns are timestamps on the clock just reset; stale
        // state would pin models open (or closed) across experiments.
        self.health.reset();
    }

    /// The retry context operators should pass to
    /// [`RetryPolicy::complete_with`] / [`RetryPolicy::embed_with`]: the
    /// shared clock, the breaker tracker, and any active deadline.
    pub fn retry_ctx(&self) -> RetryContext<'_> {
        RetryContext::new(&self.clock)
            .with_health(&self.health)
            .with_deadline(self.deadline_at_secs)
            .with_sink(self.run_sink.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_increasing() {
        let ctx = PzContext::simulated();
        let a = ctx.next_id();
        let b = ctx.next_id();
        assert!(b > a);
        let base = ctx.next_ids(10);
        let after = ctx.next_id();
        assert!(after >= base + 10);
    }

    #[test]
    fn clones_share_ids_and_accounting() {
        let ctx = PzContext::simulated();
        let ctx2 = ctx.clone();
        let a = ctx.next_id();
        let b = ctx2.next_id();
        assert_ne!(a, b);
        ctx.clock.advance_secs(1.0);
        assert!(ctx2.clock.now_secs() >= 1.0);
    }

    #[test]
    fn reset_accounting_clears_clock_and_ledger() {
        let ctx = PzContext::simulated();
        ctx.clock.advance_secs(5.0);
        ctx.ledger
            .record(&"gpt-4o".into(), pz_llm::Usage::new(1, 1), 0.1, 0.1);
        ctx.reset_accounting();
        assert_eq!(ctx.clock.now_secs(), 0.0);
        assert_eq!(ctx.ledger.total_requests(), 0);
    }

    #[test]
    fn tracer_shares_the_virtual_clock() {
        let ctx = PzContext::simulated();
        ctx.clock.advance_secs(2.0);
        let span = ctx.tracer.span(pz_obs::Layer::Executor, "op");
        assert_eq!(ctx.tracer.now_micros(), 2_000_000);
        span.finish();
        let snap = ctx.tracer.snapshot();
        assert_eq!(snap.spans[0].start_us, 2_000_000);
    }

    #[test]
    fn default_embed_model_exists_in_catalog() {
        let ctx = PzContext::simulated();
        assert!(ctx.catalog.get(&ctx.embed_model).is_some());
    }
}
