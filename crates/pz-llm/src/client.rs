//! Client abstraction over completion and embedding models.
//!
//! `pz-core` programs against [`LlmClient`]; the reproduction supplies the
//! deterministic [`crate::sim::SimulatedLlm`], but any hosted client could
//! implement the same trait. The trait is object-safe so executors can hold
//! `Arc<dyn LlmClient>`.
//!
//! [`RetryPolicy`] wraps every call the operators make. On the path every
//! successful call takes it costs a breaker check and nothing else: it does
//! not read the prompt. The one thing it derives from the payload — the
//! jitter salt — is computed inside the retry branch (see `RetryPolicy::run`).

use crate::catalog::ModelId;
use crate::usage::{CallShare, Usage};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use thiserror::Error;

/// Errors surfaced by model clients.
#[derive(Clone, Debug, Error, PartialEq)]
pub enum LlmError {
    #[error("unknown model: {0}")]
    UnknownModel(ModelId),
    #[error("model {model} is not a {expected} model")]
    WrongKind {
        model: ModelId,
        expected: &'static str,
    },
    #[error("context window exceeded for {model}: {tokens} tokens > {window}")]
    ContextOverflow {
        model: ModelId,
        tokens: usize,
        window: usize,
    },
    #[error("transient provider error (attempt {attempt}): {reason}")]
    Transient { attempt: usize, reason: String },
    /// HTTP-429-style rejection. The provider's `retry-after` hint (in
    /// seconds, virtual) rides along so backoff and breakers can honor it.
    #[error("rate limited by provider of {model} (retry after {retry_after_secs}s)")]
    RateLimited {
        model: ModelId,
        retry_after_secs: f64,
    },
    /// The call stalled past the client's patience and was abandoned.
    #[error("request to {model} timed out after {after_secs}s")]
    Timeout { model: ModelId, after_secs: f64 },
    /// The provider returned a truncated or unparseable completion.
    #[error("malformed output from {model}: {reason}")]
    MalformedOutput { model: ModelId, reason: String },
    /// The per-model circuit breaker is open; the call was refused locally
    /// without reaching the provider.
    #[error("circuit breaker open for {model} (retry in {retry_in_secs:.1}s)")]
    CircuitOpen { model: ModelId, retry_in_secs: f64 },
    /// The caller's usage ledger refused the charge: admitting this call
    /// would cross its tenant's budget. The call was refused locally and
    /// billed nothing. Not retryable, and *not* a provider fault — failing
    /// over to a cheaper model cannot help, the budget itself is spent.
    #[error("tenant budget exhausted for {model}: {reason}")]
    QuotaExhausted { model: ModelId, reason: String },
    #[error("request rejected: {0}")]
    Rejected(String),
    /// A response cache replays `error`: the request failed past every
    /// retry under the fault plan still in force, after losing
    /// `stalled_secs`. The retry layer fails it at once, as spent retries.
    #[error("{error} (replayed from the response cache)")]
    Replayed {
        error: Box<LlmError>,
        stalled_secs: f64,
    },
}

impl LlmError {
    /// Whether retrying the identical request may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            LlmError::Transient { .. }
                | LlmError::RateLimited { .. }
                | LlmError::Timeout { .. }
                | LlmError::MalformedOutput { .. }
        )
    }

    /// Provider-supplied hint for how long to wait before retrying.
    pub fn retry_after_secs(&self) -> Option<f64> {
        match self {
            LlmError::RateLimited {
                retry_after_secs, ..
            } => Some(*retry_after_secs),
            _ => None,
        }
    }

    /// Whether this error indicates an unhealthy provider/model fault
    /// domain (as opposed to a malformed request or a caller bug) — the
    /// class of error that justifies failing over to another model.
    pub fn is_provider_fault(&self) -> bool {
        match self {
            LlmError::Replayed { error, .. } => error.is_provider_fault(),
            _ => matches!(
                self,
                LlmError::Transient { .. }
                    | LlmError::RateLimited { .. }
                    | LlmError::Timeout { .. }
                    | LlmError::MalformedOutput { .. }
                    | LlmError::CircuitOpen { .. }
            ),
        }
    }
}

/// A completion request.
#[derive(Clone, Debug)]
pub struct CompletionRequest {
    pub model: ModelId,
    /// Optional system preamble; accounted as input tokens.
    pub system: Option<String>,
    /// The prompt body (usually the structured dialect from [`crate::protocol`]).
    pub prompt: String,
    /// Upper bound on output tokens; responses are truncated to fit.
    pub max_output_tokens: usize,
}

impl CompletionRequest {
    pub fn new(model: impl Into<ModelId>, prompt: impl Into<String>) -> Self {
        Self {
            model: model.into(),
            system: None,
            prompt: prompt.into(),
            max_output_tokens: 1024,
        }
    }

    pub fn with_system(mut self, system: impl Into<String>) -> Self {
        self.system = Some(system.into());
        self
    }

    pub fn with_max_output_tokens(mut self, n: usize) -> Self {
        self.max_output_tokens = n;
        self
    }
}

impl From<String> for ModelId {
    fn from(s: String) -> Self {
        ModelId(s)
    }
}

/// A completion response with accounting attached.
#[derive(Clone, Debug)]
pub struct CompletionResponse {
    pub text: String,
    pub usage: Usage,
    /// Modelled latency of this single call in (virtual) seconds.
    pub latency_secs: f64,
    /// Dollar cost of this single call.
    pub cost_usd: f64,
    /// Served from a response cache: the share of the call that filled
    /// the entry, which the retry layer hands to the caller's
    /// [`RunSink`]. Zero for a response the provider made.
    pub replayed: CallShare,
}

/// Default chunk size for [`RetryPolicy::embed_batched`]: large enough that
/// typical retrieve/filter workloads still make a single provider call,
/// small enough to bound one request's payload on big corpora.
pub const DEFAULT_EMBED_BATCH: usize = 256;

/// An embedding request.
#[derive(Clone, Debug)]
pub struct EmbeddingRequest {
    pub model: ModelId,
    pub inputs: Vec<String>,
}

/// An embedding response.
#[derive(Clone, Debug)]
pub struct EmbeddingResponse {
    pub vectors: Vec<Vec<f32>>,
    pub usage: Usage,
    pub latency_secs: f64,
    pub cost_usd: f64,
    /// The shares of the calls that filled the inputs a cache served
    /// (see [`CompletionResponse::replayed`]).
    pub replayed: CallShare,
}

/// Object-safe client interface.
pub trait LlmClient: Send + Sync {
    /// Run a completion.
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError>;

    /// Embed a batch of inputs.
    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError>;

    /// `req` succeeded after failed attempts lost `stalled_secs` first
    /// ([`RetryPolicy::complete_with`] reports it). A caching client keeps
    /// it with the entry the call filled; other clients ignore it.
    fn note_stall(&self, _req: &CompletionRequest, _stalled_secs: f64) {}

    /// [`Self::note_stall`] for an embedding batch.
    fn note_embed_stall(&self, _req: &EmbeddingRequest, _stalled_secs: f64) {}

    /// `req` failed with `error` past every retry, after losing
    /// `stalled_secs` ([`RetryPolicy::complete_with`] reports it). A
    /// caching client replays the failure ([`LlmError::Replayed`]) while
    /// the same fault plan is in force; other clients ignore it.
    fn note_failure(&self, _req: &CompletionRequest, _error: &LlmError, _stalled_secs: f64) {}
}

/// Retry policy with capped, optionally jittered exponential backoff on a
/// virtual clock.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    pub max_attempts: usize,
    pub initial_backoff_secs: f64,
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff sleep, hint-extended or not.
    pub max_backoff_secs: f64,
    /// Jitter fraction in `[0, 1)`: each sleep is scaled by a deterministic
    /// factor in `[1 - jitter, 1 + jitter)` keyed on (`seed`, model,
    /// request, attempt). `0.0` (the default) reproduces exact exponential
    /// backoff; non-zero de-correlates synchronized retry storms without
    /// sacrificing replayability.
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            initial_backoff_secs: 0.5,
            backoff_multiplier: 2.0,
            max_backoff_secs: 60.0,
            jitter: 0.0,
            seed: 0,
        }
    }
}

/// One caller's own books, which the retry layer writes: the time its
/// calls lost to failures, and what its cache hits handed on. An executor
/// gives every run its own, so nothing a neighbour on the same clock,
/// ledger or cache does can add to it.
#[derive(Debug, Default)]
pub struct RunSink {
    lost_us: AtomicU64,
    replayed: Mutex<CallShare>,
}

impl RunSink {
    /// Virtual seconds calls lost to failures: each failed attempt's
    /// stall, and the backoff the retry loop then slept, to the µs.
    pub fn lost_secs(&self) -> f64 {
        self.lost_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// The total of the shares cache hits handed on
    /// ([`CompletionResponse::replayed`]).
    pub fn replayed(&self) -> CallShare {
        *self.replayed.lock()
    }

    fn lose(&self, secs: f64) {
        self.lost_us
            .fetch_add((secs * 1e6).round() as u64, Ordering::Relaxed);
    }

    fn hand_on(&self, share: &CallShare) {
        // A provider's response hands on nothing: no lock on that path.
        if *share != CallShare::default() {
            self.replayed.lock().add(share);
        }
    }
}

/// Ambient state the retry loop consults: the virtual clock backoff is
/// charged to, the per-model health tracker (breaker), and the absolute
/// execution deadline on that clock, if any.
#[derive(Clone, Copy, Default)]
pub struct RetryContext<'a> {
    pub clock: Option<&'a crate::clock::VirtualClock>,
    pub health: Option<&'a crate::breaker::HealthTracker>,
    pub deadline_at_secs: Option<f64>,
    /// The caller's books: the time calls lose to failures and the shares
    /// cache hits hand on are added here, for the executor to attribute
    /// to the step they belong to. `None` (the default) records nothing.
    pub sink: Option<&'a RunSink>,
}

impl<'a> RetryContext<'a> {
    pub fn new(clock: &'a crate::clock::VirtualClock) -> Self {
        Self {
            clock: Some(clock),
            health: None,
            deadline_at_secs: None,
            sink: None,
        }
    }

    pub fn with_health(mut self, health: &'a crate::breaker::HealthTracker) -> Self {
        self.health = Some(health);
        self
    }

    pub fn with_deadline(mut self, deadline_at_secs: Option<f64>) -> Self {
        self.deadline_at_secs = deadline_at_secs;
        self
    }

    pub fn with_sink(mut self, sink: Option<&'a RunSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Hand a response's replayed share to the sink, if any.
    fn hand_on(&self, share: &CallShare) {
        if let Some(sink) = self.sink {
            sink.hand_on(share);
        }
    }

    fn now_secs(&self) -> f64 {
        self.clock.map_or(0.0, |c| c.now_secs())
    }
}

impl RetryPolicy {
    /// Run `req` against `client`, retrying transient failures. Backoff time
    /// is charged to `clock` if one is provided.
    pub fn complete_with_retry(
        &self,
        client: &dyn LlmClient,
        req: &CompletionRequest,
        clock: Option<&crate::clock::VirtualClock>,
    ) -> Result<CompletionResponse, LlmError> {
        let rc = RetryContext {
            clock,
            ..Default::default()
        };
        self.complete_with(client, req, &rc)
    }

    /// Run an embedding request with the same retry semantics as
    /// completions (historically embeds were fired once, so one transient
    /// failure killed the pipeline).
    pub fn embed_with_retry(
        &self,
        client: &dyn LlmClient,
        req: &EmbeddingRequest,
        clock: Option<&crate::clock::VirtualClock>,
    ) -> Result<EmbeddingResponse, LlmError> {
        let rc = RetryContext {
            clock,
            ..Default::default()
        };
        self.embed_with(client, req, &rc)
    }

    /// Completion with full resilience context: breaker gating per attempt,
    /// `retry_after` hints honored, deadline-aware backoff.
    pub fn complete_with(
        &self,
        client: &dyn LlmClient,
        req: &CompletionRequest,
        rc: &RetryContext<'_>,
    ) -> Result<CompletionResponse, LlmError> {
        let salt = || crate::stable_hash(&[&req.prompt]);
        let exhausted = |e: &LlmError, stalled_secs| client.note_failure(req, e, stalled_secs);
        let (resp, stalled_secs) =
            self.run(&req.model, salt, rc, || client.complete(req), exhausted)?;
        if stalled_secs > 0.0 {
            client.note_stall(req, stalled_secs);
        }
        rc.hand_on(&resp.replayed);
        Ok(resp)
    }

    /// Embedding with full resilience context.
    ///
    /// Billing-order audit (PR 5): a failed or breaker-refused embedding
    /// bills the ledger nothing. `run` consults `health.allow` *before*
    /// every attempt, so a breaker-open refusal never reaches the client;
    /// and the simulator only records ledger usage after its fault and
    /// transient checks pass, so a faulted attempt bills nothing either.
    /// (The suspected bill-before-breaker ordering was checked and does not
    /// exist; `embed_billing_*` regression tests in `sim.rs` pin this.)
    pub fn embed_with(
        &self,
        client: &dyn LlmClient,
        req: &EmbeddingRequest,
        rc: &RetryContext<'_>,
    ) -> Result<EmbeddingResponse, LlmError> {
        // The hash of the batch joined by U+0001, without building the join.
        let salt = || {
            let mut h = crate::StableHasher::new();
            for (i, input) in req.inputs.iter().enumerate() {
                let separator: &[u8] = if i > 0 { &[1] } else { &[] };
                h = h.bytes(separator).bytes(input.as_bytes());
            }
            h.end_part().finish()
        };
        let (resp, stalled_secs) =
            self.run(&req.model, salt, rc, || client.embed(req), |_, _| {})?;
        if stalled_secs > 0.0 {
            client.note_embed_stall(req, stalled_secs);
        }
        rc.hand_on(&resp.replayed);
        Ok(resp)
    }

    /// Embedding with full resilience context, splitting oversized input
    /// batches into provider requests of at most `batch_size` inputs. Each
    /// chunk gets the full retry/breaker treatment; vectors merge back in
    /// input order and usage/latency/cost sum across chunks. A request with
    /// `batch_size` or fewer inputs makes exactly one provider call —
    /// byte-identical to [`Self::embed_with`] — so workloads below the
    /// threshold are unchanged. A chunk failure fails the whole batch (no
    /// partial vectors are returned).
    pub fn embed_batched(
        &self,
        client: &dyn LlmClient,
        req: &EmbeddingRequest,
        rc: &RetryContext<'_>,
        batch_size: usize,
    ) -> Result<EmbeddingResponse, LlmError> {
        let batch = batch_size.max(1);
        if req.inputs.len() <= batch {
            return self.embed_with(client, req, rc);
        }
        let mut merged = EmbeddingResponse {
            vectors: Vec::with_capacity(req.inputs.len()),
            usage: Usage::new(0, 0),
            latency_secs: 0.0,
            cost_usd: 0.0,
            replayed: CallShare::default(),
        };
        for chunk in req.inputs.chunks(batch) {
            let sub = EmbeddingRequest {
                model: req.model.clone(),
                inputs: chunk.to_vec(),
            };
            let resp = self.embed_with(client, &sub, rc)?;
            merged.vectors.extend(resp.vectors);
            merged.usage += resp.usage;
            merged.latency_secs += resp.latency_secs;
            merged.cost_usd += resp.cost_usd;
            merged.replayed.add(&resp.replayed);
        }
        Ok(merged)
    }

    /// `salt` keys the jitter draw to the request. It is a hash of the whole
    /// prompt (or embedding batch), so it is computed only where it is used:
    /// inside the retry branch, when jitter is on. A call that succeeds
    /// first time never reads its payload here. A success comes back with
    /// the seconds its failed attempts lost first; when every attempt
    /// fails, `exhausted` hears the last error and those seconds.
    fn run<T>(
        &self,
        model: &ModelId,
        salt: impl Fn() -> u64,
        rc: &RetryContext<'_>,
        mut call: impl FnMut() -> Result<T, LlmError>,
        exhausted: impl FnOnce(&LlmError, f64),
    ) -> Result<(T, f64), LlmError> {
        let mut backoff = self.initial_backoff_secs;
        let mut last_err: Option<LlmError> = None;
        let mut stalled_secs = 0.0;
        for attempt in 0..self.max_attempts.max(1) {
            // Breaker gate: refuse locally while the model's domain is open.
            // Mid-retry this surfaces the provider error we already saw;
            // before the first attempt it is a fast CircuitOpen.
            if let Some(health) = rc.health {
                if let Err(retry_in) = health.allow(model, rc.now_secs()) {
                    return Err(last_err.unwrap_or(LlmError::CircuitOpen {
                        model: model.clone(),
                        retry_in_secs: retry_in,
                    }));
                }
            }
            match call() {
                Ok(resp) => {
                    if let Some(health) = rc.health {
                        health.record_success(model, rc.now_secs());
                    }
                    return Ok((resp, stalled_secs));
                }
                // Spent retries, replayed: hand on what they lost, trip
                // the breaker as they did, and fail at once.
                Err(LlmError::Replayed {
                    error,
                    stalled_secs,
                }) => {
                    rc.hand_on(&CallShare {
                        stalled_secs,
                        ..CallShare::default()
                    });
                    if let Some(health) = rc.health {
                        health.trip(model, &error, rc.now_secs());
                    }
                    return Err(*error);
                }
                Err(e) if e.is_retryable() => {
                    if let Some(health) = rc.health {
                        health.record_failure(model, &e, rc.now_secs());
                    }
                    let mut lost = |secs: f64| {
                        stalled_secs += secs;
                        if let Some(sink) = rc.sink {
                            sink.lose(secs);
                        }
                    };
                    // A timed-out attempt stalled before it failed.
                    if let LlmError::Timeout { after_secs, .. } = &e {
                        lost(*after_secs);
                    }
                    let mut wait = backoff;
                    if let Some(hint) = e.retry_after_secs() {
                        wait = wait.max(hint);
                    }
                    wait = wait.min(self.max_backoff_secs);
                    if self.jitter > 0.0 {
                        let u = crate::hash_unit(&[
                            &self.seed.to_string(),
                            "retry-jitter",
                            model.as_str(),
                            &salt().to_string(),
                            &attempt.to_string(),
                        ]);
                        wait *= 1.0 + self.jitter * (2.0 * u - 1.0);
                    }
                    // Deadline: if even waiting would blow the budget, stop
                    // burning attempts and surface the provider error now.
                    if let Some(deadline) = rc.deadline_at_secs {
                        if rc.now_secs() + wait > deadline {
                            return Err(e);
                        }
                    }
                    if let Some(c) = rc.clock {
                        c.advance_secs(wait);
                        // Attribute the backoff sleep (virtual time only:
                        // without a clock no virtual time passes).
                        lost(wait);
                    }
                    backoff = (backoff * self.backoff_multiplier).min(self.max_backoff_secs);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        // Every attempt failed: trip the breaker so subsequent work (and
        // other operators) fail over instead of re-paying full retry cost.
        let e = last_err.unwrap_or(LlmError::Rejected("no attempts configured".into()));
        if let Some(health) = rc.health {
            health.trip(model, &e, rc.now_secs());
        }
        exhausted(&e, stalled_secs);
        Err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Client that fails transiently `fail_first` times, then succeeds.
    struct Flaky {
        fail_first: usize,
        calls: AtomicUsize,
    }

    impl LlmClient for Flaky {
        fn complete(&self, _req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                Err(LlmError::Transient {
                    attempt: n,
                    reason: "overloaded".into(),
                })
            } else {
                Ok(CompletionResponse {
                    text: "ok".into(),
                    usage: Usage::new(1, 1),
                    latency_secs: 0.0,
                    cost_usd: 0.0,
                    replayed: Default::default(),
                })
            }
        }
        fn embed(&self, _req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
            Err(LlmError::Rejected("not an embedding model".into()))
        }
    }

    #[test]
    fn retry_recovers_from_transient() {
        let c = Flaky {
            fail_first: 2,
            calls: AtomicUsize::new(0),
        };
        let clock = VirtualClock::new();
        let resp = RetryPolicy::default()
            .complete_with_retry(&c, &CompletionRequest::new("m", "p"), Some(&clock))
            .unwrap();
        assert_eq!(resp.text, "ok");
        // two backoffs: 0.5 + 1.0
        assert!((clock.now_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn retry_gives_up() {
        let c = Flaky {
            fail_first: 10,
            calls: AtomicUsize::new(0),
        };
        let err = RetryPolicy::default()
            .complete_with_retry(&c, &CompletionRequest::new("m", "p"), None)
            .unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(c.calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn non_retryable_fails_fast() {
        struct Bad;
        impl LlmClient for Bad {
            fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
                Err(LlmError::UnknownModel(req.model.clone()))
            }
            fn embed(&self, _r: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
                unreachable!()
            }
        }
        let err = RetryPolicy::default()
            .complete_with_retry(&Bad, &CompletionRequest::new("m", "p"), None)
            .unwrap_err();
        assert_eq!(err, LlmError::UnknownModel("m".into()));
    }

    /// Client that always fails with a fixed error.
    struct AlwaysErr(LlmError);

    impl LlmClient for AlwaysErr {
        fn complete(&self, _req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            Err(self.0.clone())
        }
        fn embed(&self, _req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
            Err(self.0.clone())
        }
    }

    fn transient() -> LlmError {
        LlmError::Transient {
            attempt: 0,
            reason: "overloaded".into(),
        }
    }

    #[test]
    fn embed_retry_recovers_from_transient() {
        struct FlakyEmbed {
            calls: AtomicUsize,
        }
        impl LlmClient for FlakyEmbed {
            fn complete(&self, _r: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
                unreachable!()
            }
            fn embed(&self, _r: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(transient())
                } else {
                    Ok(EmbeddingResponse {
                        vectors: vec![vec![0.0]],
                        usage: Usage::new(1, 0),
                        latency_secs: 0.0,
                        cost_usd: 0.0,
                        replayed: Default::default(),
                    })
                }
            }
        }
        let c = FlakyEmbed {
            calls: AtomicUsize::new(0),
        };
        let clock = VirtualClock::new();
        let req = EmbeddingRequest {
            model: "e".into(),
            inputs: vec!["x".into()],
        };
        let resp = RetryPolicy::default()
            .embed_with_retry(&c, &req, Some(&clock))
            .unwrap();
        assert_eq!(resp.vectors.len(), 1);
        assert_eq!(c.calls.load(Ordering::SeqCst), 2);
        assert!((clock.now_secs() - 0.5).abs() < 1e-9);
    }

    /// Embedding client that records per-call chunk sizes and returns one
    /// vector per input, tagged with its call index.
    struct ChunkRecorder {
        chunks: std::sync::Mutex<Vec<usize>>,
    }

    impl LlmClient for ChunkRecorder {
        fn complete(&self, _r: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
            unreachable!()
        }
        fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
            let mut chunks = self.chunks.lock().unwrap();
            let call = chunks.len() as f32;
            chunks.push(req.inputs.len());
            Ok(EmbeddingResponse {
                vectors: req.inputs.iter().map(|_| vec![call]).collect(),
                usage: Usage::new(req.inputs.len(), 0),
                latency_secs: 1.0,
                cost_usd: 0.25,
                replayed: Default::default(),
            })
        }
    }

    #[test]
    fn embed_batched_chunks_and_merges_in_order() {
        let c = ChunkRecorder {
            chunks: std::sync::Mutex::new(Vec::new()),
        };
        let req = EmbeddingRequest {
            model: "e".into(),
            inputs: (0..7).map(|i| format!("doc {i}")).collect(),
        };
        let rc = RetryContext::default();
        let resp = RetryPolicy::default()
            .embed_batched(&c, &req, &rc, 3)
            .unwrap();
        assert_eq!(*c.chunks.lock().unwrap(), vec![3, 3, 1]);
        // Vectors come back in input order: chunk 0's three, then chunk 1's…
        let tags: Vec<f32> = resp.vectors.iter().map(|v| v[0]).collect();
        assert_eq!(tags, vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0]);
        // Accounting sums across chunks.
        assert_eq!(resp.usage.input_tokens, 7);
        assert!((resp.latency_secs - 3.0).abs() < 1e-9);
        assert!((resp.cost_usd - 0.75).abs() < 1e-9);
    }

    #[test]
    fn embed_batched_small_input_is_single_call() {
        let c = ChunkRecorder {
            chunks: std::sync::Mutex::new(Vec::new()),
        };
        let req = EmbeddingRequest {
            model: "e".into(),
            inputs: vec!["a".into(), "b".into()],
        };
        let rc = RetryContext::default();
        RetryPolicy::default()
            .embed_batched(&c, &req, &rc, DEFAULT_EMBED_BATCH)
            .unwrap();
        assert_eq!(*c.chunks.lock().unwrap(), vec![2]);
    }

    #[test]
    fn retry_honors_retry_after_hint() {
        let c = AlwaysErr(LlmError::RateLimited {
            model: "m".into(),
            retry_after_secs: 10.0,
        });
        let clock = VirtualClock::new();
        let err = RetryPolicy::default()
            .complete_with_retry(&c, &CompletionRequest::new("m", "p"), Some(&clock))
            .unwrap_err();
        assert!(matches!(err, LlmError::RateLimited { .. }));
        // Three sleeps, each lifted to the 10s hint.
        assert!((clock.now_secs() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_is_capped() {
        let c = AlwaysErr(transient());
        let clock = VirtualClock::new();
        let policy = RetryPolicy {
            max_attempts: 4,
            initial_backoff_secs: 0.5,
            backoff_multiplier: 10.0,
            max_backoff_secs: 1.0,
            ..Default::default()
        };
        policy
            .complete_with_retry(&c, &CompletionRequest::new("m", "p"), Some(&clock))
            .unwrap_err();
        // Sleeps: 0.5, then capped at 1.0 thrice.
        assert!((clock.now_secs() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let run = |jitter: f64| {
            let c = AlwaysErr(transient());
            let clock = VirtualClock::new();
            let policy = RetryPolicy {
                jitter,
                seed: 7,
                ..Default::default()
            };
            policy
                .complete_with_retry(&c, &CompletionRequest::new("m", "p"), Some(&clock))
                .unwrap_err();
            clock.now_secs()
        };
        let a = run(0.25);
        let b = run(0.25);
        assert!((a - b).abs() < 1e-12, "jitter must be reproducible");
        let plain = run(0.0);
        assert!((plain - 3.5).abs() < 1e-9);
        assert!(a != plain && (a - plain).abs() <= 0.25 * plain + 1e-9);
    }

    /// The salt is computed on demand, not up front; it is still the hash of
    /// the whole prompt (or of the batch joined by U+0001), so a retry waits
    /// exactly as long as it always did.
    #[test]
    fn jitter_salt_is_the_payload_hash() {
        let policy = RetryPolicy {
            jitter: 0.25,
            seed: 7,
            ..Default::default()
        };
        let expected_micros = |salt: u64| -> u64 {
            let mut total = 0u64;
            let mut backoff = policy.initial_backoff_secs;
            for attempt in 0..policy.max_attempts {
                let u = crate::hash_unit(&[
                    "7",
                    "retry-jitter",
                    "m",
                    &salt.to_string(),
                    &attempt.to_string(),
                ]);
                let wait = backoff * (1.0 + policy.jitter * (2.0 * u - 1.0));
                total += (wait * 1e6).round() as u64;
                backoff *= policy.backoff_multiplier;
            }
            total
        };
        let c = AlwaysErr(transient());

        let clock = VirtualClock::new();
        let req = CompletionRequest::new("m", "a prompt\nwith a body");
        policy
            .complete_with(&c, &req, &RetryContext::new(&clock))
            .unwrap_err();
        let want = expected_micros(crate::stable_hash(&["a prompt\nwith a body"]));
        assert_eq!(clock.now_micros(), want);

        let clock = VirtualClock::new();
        let req = EmbeddingRequest {
            model: "m".into(),
            inputs: vec!["first doc".into(), String::new(), "third".into()],
        };
        policy
            .embed_with(&c, &req, &RetryContext::new(&clock))
            .unwrap_err();
        let want = expected_micros(crate::stable_hash(&["first doc\u{1}\u{1}third"]));
        assert_eq!(clock.now_micros(), want);
    }

    #[test]
    fn deadline_stops_retry_backoff() {
        let c = Flaky {
            fail_first: 10,
            calls: AtomicUsize::new(0),
        };
        let clock = VirtualClock::new();
        let rc = RetryContext::new(&clock).with_deadline(Some(0.3));
        let err = RetryPolicy::default()
            .complete_with(&c, &CompletionRequest::new("m", "p"), &rc)
            .unwrap_err();
        assert!(err.is_retryable());
        // First backoff (0.5s) would blow the 0.3s budget: one attempt only,
        // and the clock never advanced.
        assert_eq!(c.calls.load(Ordering::SeqCst), 1);
        assert!(clock.now_secs().abs() < 1e-9);
    }

    #[test]
    fn exhaustion_trips_breaker_and_gates_next_call() {
        use crate::breaker::{BreakerState, HealthTracker};
        let c = AlwaysErr(transient());
        let clock = VirtualClock::new();
        let health = HealthTracker::default();
        let rc = RetryContext::new(&clock).with_health(&health);
        let policy = RetryPolicy::default();
        let req = CompletionRequest::new("m", "p");
        let err = policy.complete_with(&c, &req, &rc).unwrap_err();
        assert!(matches!(err, LlmError::Transient { .. }));
        assert!(matches!(
            health.state(&"m".into()),
            BreakerState::Open { .. }
        ));
        // Next call is refused locally before touching the client.
        let before = clock.now_secs();
        let err = policy.complete_with(&c, &req, &rc).unwrap_err();
        assert!(matches!(err, LlmError::CircuitOpen { .. }));
        assert!((clock.now_secs() - before).abs() < 1e-9);
    }

    #[test]
    fn request_builder() {
        let r = CompletionRequest::new("gpt-4o", "hello")
            .with_system("sys")
            .with_max_output_tokens(5);
        assert_eq!(r.model.as_str(), "gpt-4o");
        assert_eq!(r.system.as_deref(), Some("sys"));
        assert_eq!(r.max_output_tokens, 5);
    }
}
