//! Tracing wrapper for model clients.
//!
//! [`TracedClient`] wraps any [`LlmClient`] and records one leaf span per
//! completion / embedding call on the shared [`pz_obs::Tracer`], stamped on
//! the virtual clock. Because spans are *leaf* spans they adopt whatever
//! structural span is currently open (an executor operator, an agent step)
//! without disturbing the scope stack — safe for parallel workers.
//!
//! A call costs the tracer one lock: the wrapper reads the clock before the
//! call and, once it returns, records the finished span — its attributes,
//! its counter increment and its latency sample — in one
//! [`pz_obs::Tracer::record_leaf`]. The span is numbered and parented when it
//! is recorded, which in a single-threaded run is exactly what opening it
//! first would give: nothing opens a span while a provider call runs. A call
//! that unwinds records no span.
//!
//! The wrapper sees only calls that actually reach the provider: placed
//! inside a [`crate::CachingClient`], cache hits never produce an LLM span
//! (they count on the `llm.cache_hits` counter instead), so `llm` span
//! counts reconcile with [`crate::UsageLedger::total_requests`].

use crate::client::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient, LlmError,
};
use pz_obs::{Layer, Tracer};
use std::sync::Arc;

/// An [`LlmClient`] that records a span per call.
#[derive(Clone)]
pub struct TracedClient {
    inner: Arc<dyn LlmClient>,
    tracer: Tracer,
}

impl TracedClient {
    pub fn new(inner: Arc<dyn LlmClient>, tracer: Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl LlmClient for TracedClient {
    fn complete(&self, req: &CompletionRequest) -> Result<CompletionResponse, LlmError> {
        let start = self.tracer.now_micros();
        let result = self.inner.complete(req);
        let model = ("model", req.model.as_str().to_string());
        match &result {
            Ok(resp) => self.tracer.record_leaf(
                Layer::Llm,
                "complete",
                start,
                [
                    model,
                    ("input_tokens", resp.usage.input_tokens.to_string()),
                    ("output_tokens", resp.usage.output_tokens.to_string()),
                    ("cost_usd", format!("{:.6}", resp.cost_usd)),
                    ("latency_secs", format!("{:.6}", resp.latency_secs)),
                ],
                "llm.completions",
                Some(("llm.latency_secs", resp.latency_secs)),
            ),
            Err(e) => self.tracer.record_leaf(
                Layer::Llm,
                "complete",
                start,
                [model, ("error", e.to_string())],
                "llm.errors",
                None,
            ),
        }
        result
    }

    fn embed(&self, req: &EmbeddingRequest) -> Result<EmbeddingResponse, LlmError> {
        let start = self.tracer.now_micros();
        let result = self.inner.embed(req);
        let model = ("model", req.model.as_str().to_string());
        let inputs = ("inputs", req.inputs.len().to_string());
        match &result {
            Ok(resp) => self.tracer.record_leaf(
                Layer::Llm,
                "embed",
                start,
                [
                    model,
                    inputs,
                    ("input_tokens", resp.usage.input_tokens.to_string()),
                    ("cost_usd", format!("{:.6}", resp.cost_usd)),
                ],
                "llm.embeddings",
                None,
            ),
            Err(e) => self.tracer.record_leaf(
                Layer::Llm,
                "embed",
                start,
                [model, inputs, ("error", e.to_string())],
                "llm.errors",
                None,
            ),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::sim::SimulatedLlm;
    use pz_obs::Tracer;

    fn traced_sim() -> (TracedClient, Tracer, VirtualClock) {
        let clock = VirtualClock::new();
        let tracer = Tracer::new(Arc::new(clock.clone()));
        let sim = Arc::new(SimulatedLlm::new(
            crate::Catalog::builtin(),
            crate::SimConfig::default(),
            clock.clone(),
            crate::UsageLedger::new(),
        ));
        (TracedClient::new(sim, tracer.clone()), tracer, clock)
    }

    #[test]
    fn completion_records_leaf_span_on_virtual_clock() {
        let (client, tracer, clock) = traced_sim();
        let resp = client
            .complete(&CompletionRequest::new("gpt-4o", "hello world"))
            .unwrap();
        let snap = tracer.snapshot();
        let llm = snap.spans_in_layer(Layer::Llm);
        assert_eq!(llm.len(), 1);
        assert_eq!(llm[0].name, "complete");
        assert_eq!(llm[0].attrs["model"], "gpt-4o");
        // Span duration equals the modelled latency (the sim advanced the
        // shared clock during the call).
        let dur_secs = llm[0].duration_us() as f64 / 1e6;
        assert!((dur_secs - resp.latency_secs).abs() < 1e-5);
        assert_eq!(llm[0].end_us, Some(clock.now_micros()));
        assert_eq!(snap.counters["llm.completions"], 1);
    }

    #[test]
    fn errors_are_counted_not_hidden() {
        let (client, tracer, _) = traced_sim();
        assert!(client
            .complete(&CompletionRequest::new("no-such-model", "x"))
            .is_err());
        let snap = tracer.snapshot();
        assert_eq!(snap.counters["llm.errors"], 1);
        let llm = snap.spans_in_layer(Layer::Llm);
        assert!(llm[0].attrs["error"].contains("unknown model"));
    }

    #[test]
    fn embeddings_traced_with_batch_size() {
        let (client, tracer, _) = traced_sim();
        client
            .embed(&EmbeddingRequest {
                model: "text-embedding-3-small".into(),
                inputs: vec!["a".into(), "b".into(), "c".into()],
            })
            .unwrap();
        let snap = tracer.snapshot();
        let llm = snap.spans_in_layer(Layer::Llm);
        assert_eq!(llm[0].name, "embed");
        assert_eq!(llm[0].attrs["inputs"], "3");
        assert_eq!(snap.counters["llm.embeddings"], 1);
    }
}
