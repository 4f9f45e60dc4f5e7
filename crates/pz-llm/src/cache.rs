//! Response caching.
//!
//! AI pipelines re-issue identical prompts constantly — sentinel
//! calibration runs the same records the full execution will, retried
//! requests repeat verbatim, and iterative chat sessions re-execute
//! pipelines over unchanged data. [`CachingClient`] wraps any
//! [`LlmClient`] with an exact-match cache keyed by
//! `(model, system, prompt, max_output_tokens)`: hits return the recorded
//! response without charging cost or latency (the ledger and clock only
//! see misses), exactly how a production result cache behaves.
//!
//! Embeddings are cached per input string, so a batch with a mix of seen
//! and unseen inputs only pays for the unseen ones.
//!
//! Each entry keeps the share of the call that filled it: usage, cost and
//! latency, plus the time the call's failed attempts lost first (the retry
//! layer reports it through [`LlmClient::note_stall`]). A hit bills nothing
//! but hands that share on ([`CompletionResponse::replayed`]; the retry
//! layer adds it to the caller's own [`crate::RunSink`]), so an executor
//! reading it sees the same evidence on a re-run as on the cold run. The
//! lost time is evidence only under the fault plan that measured it: a hit
//! hands it on only while the handle's [`FaultInjector::regime`] is the
//! one the entry was filled under.
//!
//! A request that failed past every retry (the retry layer reports it
//! through [`LlmClient::note_failure`]) is kept too, and replayed as
//! [`LlmError::Replayed`] while the regime that saw it lasts: a re-run
//! fails over where the run that filled the cache did, instead of asking
//! the failing model again. Under any other regime it is a miss.
//!
//! The cache holds at most [`CAPACITY`] entries across both maps and every
//! handle onto them, and evicts the oldest insertion first.

use crate::client::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient, LlmError,
};
use crate::fault::FaultInjector;
use crate::usage::{CallShare, Usage, UsageLedger};
use crate::StableHasher;
use parking_lot::Mutex;
use pz_obs::Tracer;
use std::collections::{hash_map, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Entries one cache holds at most, completions and embedding inputs
/// together: above the working set of any experiment or benchmark
/// workload, so only a session that outgrows it evicts.
pub const CAPACITY: usize = 1 << 18;

/// Tracer counter of lookups served from the cache.
pub const HITS: &str = "llm.cache_hits";
/// Tracer counter of lookups that became provider requests.
pub const MISSES: &str = "llm.cache_misses";

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub completion_hits: usize,
    pub completion_misses: usize,
    pub embedding_hits: usize,
    pub embedding_misses: usize,
}

impl CacheStats {
    /// Fraction of completion lookups served from cache.
    pub fn completion_hit_rate(&self) -> f64 {
        let total = self.completion_hits + self.completion_misses;
        if total == 0 {
            0.0
        } else {
            self.completion_hits as f64 / total as f64
        }
    }
}

/// A cached value, the share of the call that filled it, and the fault
/// regime the call ran under.
struct Entry<T> {
    value: T,
    share: CallShare,
    regime: u64,
}

impl<T> Entry<T> {
    /// What a hit under fault regime `regime` hands on: the filler's
    /// share, less the time its failed attempts lost unless it ran under
    /// the same regime — after the plan changes, or through another
    /// tenant's handle, those faults are no evidence.
    fn share_for(&self, regime: u64) -> CallShare {
        let mut share = self.share;
        if regime != self.regime {
            share.stalled_secs = 0.0;
        }
        share
    }
}

/// Which map a key of the insertion order lives in.
#[derive(Clone, Copy)]
enum MapKey {
    Completion(u64),
    Embedding(u64),
}

/// Both maps and their one insertion order. A key is inserted only while
/// absent and leaves only by eviction or [`CachingClient::clear`], so each
/// live entry has exactly one place in `order`.
#[derive(Default)]
struct Store {
    completions: HashMap<u64, Entry<Result<String, LlmError>>>,
    embeddings: HashMap<u64, Entry<Vec<f32>>>,
    order: VecDeque<MapKey>,
}

impl Store {
    /// Keep `entry` for completion `key`: a new key is admitted, a kept
    /// failure is replaced in its place, a kept response stays.
    fn keep_completion(&mut self, key: u64, entry: Entry<Result<String, LlmError>>) {
        match self.completions.entry(key) {
            hash_map::Entry::Vacant(free) => {
                free.insert(entry);
                self.admit(MapKey::Completion(key));
            }
            hash_map::Entry::Occupied(mut kept) if kept.get().value.is_err() => {
                kept.insert(entry);
            }
            hash_map::Entry::Occupied(_) => {}
        }
    }

    /// Record a key just inserted, evicting the oldest past [`CAPACITY`].
    fn admit(&mut self, key: MapKey) {
        self.order.push_back(key);
        while self.order.len() > CAPACITY {
            match self.order.pop_front() {
                Some(MapKey::Completion(k)) => drop(self.completions.remove(&k)),
                Some(MapKey::Embedding(k)) => drop(self.embeddings.remove(&k)),
                None => break,
            }
        }
    }
}

/// An exact-match response cache over any client. Clones share the cache.
#[derive(Clone)]
pub struct CachingClient {
    inner: Arc<dyn LlmClient>,
    store: Arc<Mutex<Store>>,
    completion_hits: Arc<AtomicUsize>,
    completion_misses: Arc<AtomicUsize>,
    embedding_hits: Arc<AtomicUsize>,
    embedding_misses: Arc<AtomicUsize>,
    /// The fault plan this handle's calls run under (see
    /// [`Self::with_faults`]).
    faults: FaultInjector,
    tracer: Option<Tracer>,
    ledger: Option<UsageLedger>,
}

impl CachingClient {
    pub fn new(inner: Arc<dyn LlmClient>) -> Self {
        Self {
            inner,
            store: Arc::default(),
            completion_hits: Arc::default(),
            completion_misses: Arc::default(),
            embedding_hits: Arc::default(),
            embedding_misses: Arc::default(),
            faults: FaultInjector::default(),
            tracer: None,
            ledger: None,
        }
    }

    /// Count every lookup on `tracer`: [`HITS`] / [`MISSES`], one per
    /// completion or embedding input. Counters, not events: a cached
    /// session re-runs whole pipelines, and an event per lookup would grow
    /// its trace by every record of every re-run.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Record per-model cache hit/miss counts on `ledger`.
    pub fn with_ledger(mut self, ledger: UsageLedger) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Stamp the entries this handle fills with `faults`' regime, and hand
    /// on the time their calls lost only to hits under that same regime.
    /// Without it, a handle has a regime of its own that never changes.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// A handle onto the *same* cache (same entries, same bound, same
    /// counters) routed through a different inner client.
    ///
    /// This is how the serving layer shares one cross-tenant result cache
    /// while every tenant keeps its own billing/fault/breaker stack: the
    /// maps are shared, the misses flow to each tenant's own client.
    /// Isolation audit: keys are pure content hashes over
    /// `(model, system, prompt, max_output_tokens)` — see
    /// [`Self::completion_key`] — with no session- or tenant-local state
    /// folded in, so a hit can only ever replay a response to a request
    /// with the *byte-identical* parts. Tenant-scoped attachments are
    /// deliberately not shared: the new handle has a fault regime of its
    /// own — so another handle's entries hand it no lost time — until the
    /// tenant attaches its own injector, tracer and ledger via
    /// [`Self::with_faults`] / [`Self::with_tracer`] / [`Self::with_ledger`].
    pub fn with_inner(&self, inner: Arc<dyn LlmClient>) -> Self {
        Self {
            inner,
            faults: FaultInjector::default(),
            tracer: None,
            ledger: None,
            ..self.clone()
        }
    }

    fn note_completion(&self, model: &crate::ModelId, hit: bool) {
        if let Some(t) = &self.tracer {
            t.incr(if hit { HITS } else { MISSES }, 1);
        }
        if let Some(l) = &self.ledger {
            if hit {
                l.record_cache_hits(model, 1);
            } else {
                l.record_cache_misses(model, 1);
            }
        }
    }

    fn note_embeddings(&self, model: &crate::ModelId, hits: usize, misses: usize) {
        if let Some(t) = &self.tracer {
            for (name, n) in [(HITS, hits), (MISSES, misses)] {
                if n > 0 {
                    t.incr(name, n as u64);
                }
            }
        }
        if let Some(l) = &self.ledger {
            l.record_cache_hits(model, hits);
            l.record_cache_misses(model, misses);
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            completion_hits: self.completion_hits.load(Ordering::Relaxed),
            completion_misses: self.completion_misses.load(Ordering::Relaxed),
            embedding_hits: self.embedding_hits.load(Ordering::Relaxed),
            embedding_misses: self.embedding_misses.load(Ordering::Relaxed),
        }
    }

    /// Drop all cached entries (counters are kept).
    pub fn clear(&self) {
        let mut store = self.store.lock();
        store.completions.clear();
        store.embeddings.clear();
        store.order.clear();
    }

    /// Exact-match cache key for a completion request. Each part's byte
    /// length leads it, so no byte inside a part can stand in for a
    /// boundary, and an absent system preamble differs from an empty one.
    /// Parts are absorbed a word at a time: a miss hashes its whole
    /// prompt, often a full document.
    pub fn completion_key(req: &CompletionRequest) -> u64 {
        let parts = [
            Some(req.model.as_str()),
            req.system.as_deref(),
            Some(&req.prompt),
        ];
        parts
            .into_iter()
            .fold(StableHasher::new(), |h, part| {
                let len = part.map_or(u64::MAX, |p| p.len() as u64);
                h.words(&len.to_le_bytes())
                    .words(part.unwrap_or("").as_bytes())
            })
            .words(&(req.max_output_tokens as u64).to_le_bytes())
            .finish()
    }

    /// Cache key for one embedding input, built like
    /// [`Self::completion_key`].
    fn embedding_key(model: &str, input: &str) -> u64 {
        [model, input]
            .into_iter()
            .fold(StableHasher::new().part("embed"), |h, part| {
                h.words(&(part.len() as u64).to_le_bytes())
                    .words(part.as_bytes())
            })
            .finish()
    }
}

impl LlmClient for CachingClient {
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let key = Self::completion_key(req);
        let regime = self.faults.regime();
        let hit = (self.store.lock().completions.get(&key)).and_then(|e| match &e.value {
            Ok(text) => Some(Ok((text.clone(), e.share_for(regime)))),
            Err(error) if e.regime == regime => Some(Err(LlmError::Replayed {
                error: Box::new(error.clone()),
                stalled_secs: e.share.stalled_secs,
            })),
            Err(_) => None,
        });
        if let Some(hit) = hit {
            self.completion_hits.fetch_add(1, Ordering::Relaxed);
            self.note_completion(&req.model, true);
            let (text, replayed) = hit?;
            // A cache hit is free: no provider cost, negligible latency.
            return Ok(CompletionResponse {
                text,
                usage: Usage::default(),
                latency_secs: 0.0,
                cost_usd: 0.0,
                replayed,
            });
        }
        self.completion_misses.fetch_add(1, Ordering::Relaxed);
        self.note_completion(&req.model, false);
        let resp = self.inner.complete(req)?;
        let entry = Entry {
            value: Ok(resp.text.clone()),
            share: CallShare::of_call(resp.usage, resp.cost_usd, resp.latency_secs, 1),
            regime,
        };
        self.store.lock().keep_completion(key, entry);
        Ok(resp)
    }

    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        // Split the batch into cached and uncached inputs.
        let keys: Vec<u64> = req
            .inputs
            .iter()
            .map(|i| Self::embedding_key(req.model.as_str(), i))
            .collect();
        let regime = self.faults.regime();
        let mut replayed = CallShare::default();
        let mut vectors: Vec<Option<Vec<f32>>> = {
            let store = self.store.lock();
            let mut hit = |e: &Entry<Vec<f32>>| {
                replayed.add(&e.share_for(regime));
                e.value.clone()
            };
            (keys.iter())
                .map(|k| store.embeddings.get(k).map(&mut hit))
                .collect()
        };
        let missing: Vec<usize> = (0..vectors.len())
            .filter(|&i| vectors[i].is_none())
            .collect();
        self.embedding_hits
            .fetch_add(vectors.len() - missing.len(), Ordering::Relaxed);
        self.embedding_misses
            .fetch_add(missing.len(), Ordering::Relaxed);
        self.note_embeddings(&req.model, vectors.len() - missing.len(), missing.len());

        let (usage, latency, cost) = if missing.is_empty() {
            (Usage::default(), 0.0, 0.0)
        } else {
            let sub = EmbeddingRequest {
                model: req.model.clone(),
                inputs: missing.iter().map(|&i| req.inputs[i].clone()).collect(),
            };
            let resp = self.inner.embed(&sub)?;
            // Every input the call filled keeps an even share of it.
            let share =
                CallShare::of_call(resp.usage, resp.cost_usd, resp.latency_secs, missing.len());
            let mut store = self.store.lock();
            for (slot, v) in missing.iter().zip(resp.vectors) {
                let key = keys[*slot];
                if let hash_map::Entry::Vacant(free) = store.embeddings.entry(key) {
                    free.insert(Entry {
                        value: v.clone(),
                        share,
                        regime,
                    });
                    store.admit(MapKey::Embedding(key));
                }
                vectors[*slot] = Some(v);
            }
            (resp.usage, resp.latency_secs, resp.cost_usd)
        };
        Ok(EmbeddingResponse {
            vectors: vectors
                .into_iter()
                .map(|v| v.expect("all slots filled"))
                .collect(),
            usage,
            latency_secs: latency,
            cost_usd: cost,
            replayed,
        })
    }

    /// `req`'s failure is kept, with the time its attempts lost.
    fn note_failure(&self, req: &CompletionRequest, error: &LlmError, stalled_secs: f64) {
        let entry = Entry {
            value: Err(error.clone()),
            share: CallShare {
                stalled_secs,
                ..CallShare::default()
            },
            regime: self.faults.regime(),
        };
        self.store
            .lock()
            .keep_completion(Self::completion_key(req), entry);
    }

    /// The entry `req` filled keeps the time its failed attempts lost.
    fn note_stall(&self, req: &CompletionRequest, stalled_secs: f64) {
        let key = Self::completion_key(req);
        if let Some(e) = self.store.lock().completions.get_mut(&key) {
            e.share.stalled_secs += stalled_secs;
        }
    }

    /// A batch's lost time is spread evenly over its inputs' entries.
    fn note_embed_stall(&self, req: &EmbeddingRequest, stalled_secs: f64) {
        let each = stalled_secs / req.inputs.len().max(1) as f64;
        let mut store = self.store.lock();
        for input in &req.inputs {
            let key = Self::embedding_key(req.model.as_str(), input);
            if let Some(e) = store.embeddings.get_mut(&key) {
                e.share.stalled_secs += each;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::clock::VirtualClock;
    use crate::protocol::filter_prompt;
    use crate::sim::{SimConfig, SimulatedLlm};

    /// Answers every request instantly with its own parts, billing one
    /// call of fixed usage; fails the first `fail_first` completions with
    /// a two-second timeout.
    #[derive(Default)]
    struct Echo {
        fail_first: usize,
        calls: AtomicUsize,
    }

    impl LlmClient for Echo {
        fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.fail_first {
                return Err(LlmError::Timeout {
                    model: req.model.clone(),
                    after_secs: 2.0,
                });
            }
            Ok(CompletionResponse {
                text: format!("{:?}|{:?}", req.system, req.prompt),
                usage: Usage::new(10, 2),
                latency_secs: 0.5,
                cost_usd: 0.01,
                replayed: Default::default(),
            })
        }

        fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
            Ok(EmbeddingResponse {
                vectors: req.inputs.iter().map(|i| vec![i.len() as f32]).collect(),
                usage: Usage::new(4 * req.inputs.len(), 0),
                latency_secs: 0.2,
                cost_usd: 0.004,
                replayed: Default::default(),
            })
        }
    }

    fn caching_sim() -> (CachingClient, Arc<SimulatedLlm>) {
        let sim = Arc::new(SimulatedLlm::with_defaults());
        (CachingClient::new(sim.clone()), sim)
    }

    #[test]
    fn repeat_completion_is_free_and_identical() {
        let (cache, sim) = caching_sim();
        let req = CompletionRequest::new(
            "gpt-4o",
            filter_prompt("about cancer", "a colorectal cancer study"),
        );
        let first = cache.complete(&req).unwrap();
        assert!(first.cost_usd > 0.0);
        let cost_after_first = sim.ledger().total_cost_usd();

        let second = cache.complete(&req).unwrap();
        assert_eq!(second.text, first.text);
        assert_eq!(second.cost_usd, 0.0);
        assert_eq!(second.usage.total_tokens(), 0);
        // Nothing new hit the ledger or the clock.
        assert_eq!(sim.ledger().total_cost_usd(), cost_after_first);
        assert_eq!(
            cache.stats(),
            CacheStats {
                completion_hits: 1,
                completion_misses: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn different_prompts_do_not_collide() {
        let (cache, _) = caching_sim();
        let a = cache
            .complete(&CompletionRequest::new(
                "gpt-4o",
                filter_prompt("cancer", "colorectal cancer"),
            ))
            .unwrap();
        let b = cache
            .complete(&CompletionRequest::new(
                "gpt-4o",
                filter_prompt("cancer", "galaxy survey"),
            ))
            .unwrap();
        assert_ne!(a.text, b.text);
        assert_eq!(cache.stats().completion_misses, 2);
    }

    #[test]
    fn model_is_part_of_the_key() {
        let (cache, _) = caching_sim();
        let prompt = filter_prompt("x", "y");
        cache
            .complete(&CompletionRequest::new("gpt-4o", prompt.clone()))
            .unwrap();
        cache
            .complete(&CompletionRequest::new("gpt-4o-mini", prompt))
            .unwrap();
        assert_eq!(cache.stats().completion_misses, 2);
        assert_eq!(cache.stats().completion_hits, 0);
    }

    #[test]
    fn errors_are_not_cached() {
        let (cache, _) = caching_sim();
        let bad = CompletionRequest::new("no-such-model", "hi");
        assert!(cache.complete(&bad).is_err());
        assert!(cache.complete(&bad).is_err());
        // Both attempts were misses (the error was retried, not replayed).
        assert_eq!(cache.stats().completion_misses, 2);
    }

    #[test]
    fn embedding_batches_split_hit_and_miss() {
        let (cache, sim) = caching_sim();
        let model = "text-embedding-3-small";
        let first = cache
            .embed(&EmbeddingRequest {
                model: model.into(),
                inputs: vec!["alpha beta".into(), "gamma delta".into()],
            })
            .unwrap();
        let cost_after_first = sim.ledger().total_cost_usd();
        // One repeated, one new: only the new one is charged.
        let second = cache
            .embed(&EmbeddingRequest {
                model: model.into(),
                inputs: vec!["alpha beta".into(), "epsilon zeta".into()],
            })
            .unwrap();
        assert_eq!(second.vectors[0], first.vectors[0]);
        assert!(sim.ledger().total_cost_usd() > cost_after_first);
        let stats = cache.stats();
        assert_eq!(stats.embedding_hits, 1);
        assert_eq!(stats.embedding_misses, 3);
    }

    #[test]
    fn clear_forces_recompute() {
        let (cache, _) = caching_sim();
        let req = CompletionRequest::new("gpt-4o", "hello world");
        cache.complete(&req).unwrap();
        cache.clear();
        cache.complete(&req).unwrap();
        assert_eq!(cache.stats().completion_misses, 2);
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            completion_hits: 3,
            completion_misses: 1,
            ..Default::default()
        };
        assert!((s.completion_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().completion_hit_rate(), 0.0);
    }

    #[test]
    fn hits_and_misses_reach_tracer_and_ledger() {
        let sim = Arc::new(SimulatedLlm::with_defaults());
        let tracer = Tracer::new(Arc::new(sim.clock().clone()));
        let ledger = sim.ledger().clone();
        let cache = CachingClient::new(sim)
            .with_tracer(tracer.clone())
            .with_ledger(ledger.clone());
        let req = CompletionRequest::new("gpt-4o", filter_prompt("topic", "content"));
        cache.complete(&req).unwrap();
        cache.complete(&req).unwrap();
        assert_eq!((tracer.counter(HITS), tracer.counter(MISSES)), (1, 1));
        assert!(tracer.snapshot().events.is_empty(), "a lookup is no event");
        let by = ledger.by_model();
        assert_eq!(by[0].1.cache_hits, 1);
        assert_eq!(by[0].1.cache_misses, 1);
    }

    #[test]
    fn clones_share_cache() {
        let (cache, _) = caching_sim();
        let clone = cache.clone();
        let req = CompletionRequest::new("gpt-4o", "shared");
        cache.complete(&req).unwrap();
        clone.complete(&req).unwrap();
        assert_eq!(clone.stats().completion_hits, 1);
    }

    /// Two tenants, each with their own simulator/clock/ledger, sharing one
    /// cache via [`CachingClient::with_inner`]: an identical prompt dedups
    /// (tenant B pays nothing for tenant A's miss), and the hit shifts no
    /// cost between ledgers — A's bill is unchanged by B's hit.
    #[test]
    fn shared_cache_dedups_across_tenants_without_cost_bleed() {
        let clock = VirtualClock::new();
        let sim_a = Arc::new(SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig::default(),
            clock.clone(),
            UsageLedger::new(),
        ));
        let sim_b = Arc::new(SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig::default(),
            clock.clone(),
            UsageLedger::new(),
        ));
        let cache_a = CachingClient::new(sim_a.clone());
        let cache_b = cache_a.with_inner(sim_b.clone());

        let req = CompletionRequest::new("gpt-4o", filter_prompt("topic", "shared document"));
        let first = cache_a.complete(&req).unwrap();
        let a_cost = sim_a.ledger().total_cost_usd();
        assert!(a_cost > 0.0);

        let second = cache_b.complete(&req).unwrap();
        assert_eq!(second.text, first.text);
        assert_eq!(second.cost_usd, 0.0);
        // B billed nothing; A's ledger did not move on B's hit.
        assert_eq!(sim_b.ledger().total_cost_usd(), 0.0);
        assert_eq!(sim_b.ledger().total_requests(), 0);
        assert_eq!(sim_a.ledger().total_cost_usd(), a_cost);
        // One shared pair of counters across both handles.
        assert_eq!(cache_b.stats().completion_hits, 1);
        assert_eq!(cache_b.stats().completion_misses, 1);
    }

    /// Leakage audit: the cache key is a pure content hash, so tenants with
    /// *different* prompt bytes can never observe each other's responses —
    /// and there is no tenant-id dimension that could fragment identical
    /// content into per-tenant entries.
    #[test]
    fn shared_cache_never_leaks_across_distinct_prompts() {
        let clock = VirtualClock::new();
        let sim_a = Arc::new(SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig::default(),
            clock.clone(),
            UsageLedger::new(),
        ));
        let sim_b = Arc::new(SimulatedLlm::new(
            Catalog::builtin(),
            SimConfig::default(),
            clock.clone(),
            UsageLedger::new(),
        ));
        let cache_a = CachingClient::new(sim_a.clone());
        let cache_b = cache_a.with_inner(sim_b.clone());

        // Tenant A warms the cache with its (private) document. Free-form
        // prompts echo content back, so a leak would be visible in the text.
        let private = CompletionRequest::new("gpt-4o", "summarize: tenant A confidential record");
        let a_resp = cache_a.complete(&private).unwrap();

        // Tenant B asks about *its own* document: near-identical task, one
        // byte of content difference. Must miss and be answered from B's own
        // client, never from A's entry.
        let b_req = CompletionRequest::new("gpt-4o", "summarize: tenant B confidential record");
        let b_resp = cache_b.complete(&b_req).unwrap();
        assert_ne!(
            CachingClient::completion_key(&private),
            CachingClient::completion_key(&b_req)
        );
        assert_ne!(b_resp.text, a_resp.text);
        assert!(b_resp.cost_usd > 0.0);
        assert_eq!(cache_b.stats().completion_hits, 0);
        assert_eq!(cache_b.stats().completion_misses, 2);

        // Embeddings share the same discipline: content-hash key, no tenant
        // dimension.
        let embed_req = EmbeddingRequest {
            model: "text-embedding-3-small".into(),
            inputs: vec!["alpha".into()],
        };
        let ea = cache_a.embed(&embed_req).unwrap();
        let eb = cache_b.embed(&embed_req).unwrap();
        assert_eq!(ea.vectors, eb.vectors);
        assert_eq!(sim_b.ledger().total_requests(), 1); // only B's filter call
    }

    /// Parts joined only by a separator byte that prompt text may contain
    /// would give `(None, "\x1fABC")` and `("\x1f", "ABC")` one key, and
    /// the second request the first one's response.
    #[test]
    fn part_boundaries_cannot_be_forged() {
        let cache = CachingClient::new(Arc::new(Echo::default()));
        let a = CompletionRequest::new("gpt-4o", "\u{1f}ABC");
        let b = CompletionRequest::new("gpt-4o", "ABC").with_system("\u{1f}");
        let empty = CompletionRequest::new("gpt-4o", "ABC").with_system("");
        let none = CompletionRequest::new("gpt-4o", "ABC");
        let key = CachingClient::completion_key;
        assert_ne!(key(&a), key(&b));
        assert_ne!(key(&empty), key(&none));
        let first = cache.complete(&a).unwrap();
        let second = cache.complete(&b).unwrap();
        assert_ne!(second.text, first.text);
        assert_eq!(second.text, "Some(\"\\u{1f}\")|\"ABC\"");
        assert_eq!(cache.stats().completion_hits, 0);
    }

    /// One bound over both maps and every handle: the oldest insertion
    /// goes first, whichever map or handle made it.
    #[test]
    fn eviction_is_fifo_across_maps_and_handles() {
        let a = CachingClient::new(Arc::new(Echo::default()));
        let b = a.with_inner(Arc::new(Echo::default()));
        let oldest = CompletionRequest::new("m", "oldest");
        let embed = EmbeddingRequest {
            model: "e".into(),
            inputs: vec!["second oldest".into()],
        };
        a.complete(&oldest).unwrap();
        b.embed(&embed).unwrap();
        for i in 0..CAPACITY - 2 {
            b.complete(&CompletionRequest::new("m", i.to_string()))
                .unwrap();
        }
        assert_eq!(a.store.lock().order.len(), CAPACITY);
        a.complete(&oldest).unwrap();
        assert_eq!(
            a.stats().completion_hits,
            1,
            "full, but nothing evicted yet"
        );

        b.complete(&CompletionRequest::new("m", "one too many"))
            .unwrap();
        assert_eq!(b.store.lock().order.len(), CAPACITY);
        a.complete(&oldest).unwrap();
        assert_eq!(a.stats().completion_hits, 1, "the oldest entry was evicted");
        // Re-admitting it evicted the next oldest, the embedding.
        b.embed(&embed).unwrap();
        assert_eq!(b.stats().embedding_hits, 0);
        assert_eq!(b.stats().embedding_misses, 2);
        assert_eq!(a.store.lock().order.len(), CAPACITY);
    }

    /// A hit bills nothing but hands on the share of the call that filled
    /// it, the time its failed attempts lost included, to the caller's
    /// sink; the ledger sees only the one call that ran.
    #[test]
    fn hit_hands_on_its_fillers_share() {
        let echo = Arc::new(Echo {
            fail_first: 1,
            ..Default::default()
        });
        let ledger = UsageLedger::new();
        let faults = crate::FaultInjector::default();
        let cache = CachingClient::new(echo)
            .with_ledger(ledger.clone())
            .with_faults(faults.clone());
        let clock = VirtualClock::new();
        let retry = crate::RetryPolicy::default();
        let req = CompletionRequest::new("m", "p");
        let sink = crate::RunSink::default();
        let rc = crate::RetryContext::new(&clock).with_sink(Some(&sink));
        retry.complete_with(&cache, &req, &rc).unwrap();
        assert_eq!(sink.replayed(), CallShare::default());
        // The 2 s timeout, then the 0.5 s backoff before the retry.
        assert_eq!(sink.lost_secs(), 2.5);
        let billed = |l: &UsageLedger| (l.total_requests(), l.total_cost_usd(), l.total_usage());
        let before = billed(&ledger);

        let hit = retry.complete_with(&cache, &req, &rc).unwrap();
        assert_eq!(hit.cost_usd, 0.0);
        let share = sink.replayed();
        assert_eq!(hit.replayed, share);
        assert_eq!(share.calls, 1.0);
        assert_eq!((share.input_tokens, share.output_tokens), (10.0, 2.0));
        assert_eq!((share.cost_usd, share.latency_secs), (0.01, 0.5));
        assert_eq!(share.stalled_secs, 2.5);
        assert_eq!(billed(&ledger), before);
        assert_eq!(sink.lost_secs(), 2.5, "a hit loses nothing itself");

        // An embedding input keeps its even share of the batch that filled it.
        let batch = |inputs: &[&str]| EmbeddingRequest {
            model: "e".into(),
            inputs: inputs.iter().map(|i| i.to_string()).collect(),
        };
        retry.embed_with(&cache, &batch(&["x", "y"]), &rc).unwrap();
        let before = sink.replayed();
        let resp = retry.embed_with(&cache, &batch(&["y", "z"]), &rc).unwrap();
        let handed = sink.replayed().since(before).cost_usd;
        assert!((handed - 0.002).abs() < 1e-12, "{handed}");
        assert_eq!(resp.replayed.cost_usd, handed);
        // A handle made by `with_inner` runs under a fault regime of its
        // own: another handle's lost time is no evidence about it.
        let other = cache.with_inner(Arc::new(Echo::default()));
        let share = other.complete(&req).unwrap().replayed;
        assert_eq!((share.calls, share.stalled_secs), (1.0, 0.0));
        // Nor is it evidence once the fault plan changes.
        faults.clear();
        let share = cache.complete(&req).unwrap().replayed;
        assert_eq!((share.calls, share.stalled_secs), (1.0, 0.0));
    }

    /// A request that failed past every retry is replayed while its fault
    /// regime lasts: it fails at once, hands on what its attempts lost and
    /// trips the breaker as they did, without reaching the provider.
    /// Under a new regime it is asked again.
    #[test]
    fn spent_retries_replay_under_their_regime_only() {
        let echo = Arc::new(Echo {
            fail_first: 3,
            ..Default::default()
        });
        let faults = crate::FaultInjector::default();
        let cache = CachingClient::new(echo.clone()).with_faults(faults.clone());
        let clock = VirtualClock::new();
        let health = crate::HealthTracker::default();
        let retry = crate::RetryPolicy::default();
        let req = CompletionRequest::new("m", "p");
        let sink = crate::RunSink::default();
        let rc = crate::RetryContext::new(&clock)
            .with_health(&health)
            .with_sink(Some(&sink));
        let cold = retry.complete_with(&cache, &req, &rc).unwrap_err();
        // Three 2 s timeouts and the 0.5, 1 and 2 s backoffs after them.
        assert_eq!(sink.lost_secs(), 9.5);
        assert_eq!(echo.calls.load(Ordering::Relaxed), 3);

        health.reset();
        let replayed = retry.complete_with(&cache, &req, &rc).unwrap_err();
        assert_eq!(replayed, cold);
        assert_eq!(
            echo.calls.load(Ordering::Relaxed),
            3,
            "the provider was asked"
        );
        assert_eq!(sink.replayed().stalled_secs, 9.5);
        assert_eq!(sink.replayed().calls, 0.0);
        assert_eq!(sink.lost_secs(), 9.5, "a replay loses nothing itself");
        assert!(health.is_open(&req.model, clock.now_secs()));
        assert_eq!(cache.stats().completion_hits, 1);

        faults.clear();
        health.reset();
        assert!(retry.complete_with(&cache, &req, &rc).is_ok());
        assert_eq!(echo.calls.load(Ordering::Relaxed), 4);
        // The response took the failure's place.
        assert!(cache.complete(&req).is_ok());
        assert_eq!(cache.store.lock().order.len(), 1);
    }
}
