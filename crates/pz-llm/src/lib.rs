//! # pz-llm — simulated LLM substrate
//!
//! Palimpzest's physical operators are implemented on top of hosted large
//! language models (GPT-4o, GPT-4o-mini, Llama-3, Mixtral, ...). This crate
//! provides the stand-in substrate used by the reproduction: a **model
//! catalog** with realistic price / latency / quality characteristics, a
//! **deterministic simulated client** whose output quality degrades with the
//! model's quality factor, a **virtual clock** so simulated latency is
//! accounted without wall-clock sleeps, and a **usage ledger** that tracks
//! token consumption and dollar cost exactly the way the paper's execution
//! statistics (Figure 5) report them.
//!
//! ## Determinism
//!
//! Every behaviour in this crate is a pure function of its inputs plus the
//! configured seed: the same prompt against the same model always yields the
//! same completion, the same injected errors, and the same accounted cost.
//! This is what makes the reproduction's experiments exactly re-runnable.
//!
//! ## Prompt protocol
//!
//! The simulator understands the structured prompt dialect emitted by
//! `pz-core`'s physical operators (see [`protocol`]): `FILTER`, `EXTRACT`,
//! `CLASSIFY` and `GENERATE` tasks. Free-form prompts fall back to a
//! deterministic echo-summarizer so that agent-style usage also works.

pub mod breaker;
pub mod cache;
pub mod catalog;
pub mod client;
pub mod clock;
pub mod embedding;
pub mod fault;
pub mod protocol;
pub mod sim;
mod text;
pub mod tokenizer;
pub mod traced;
pub mod usage;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, HealthTracker};
pub use cache::{CacheStats, CachingClient};
pub use catalog::{Catalog, ModelCard, ModelId, ModelKind};
pub use client::{
    CompletionRequest, CompletionResponse, EmbeddingRequest, EmbeddingResponse, LlmClient,
    LlmError, RetryContext, RetryPolicy, DEFAULT_EMBED_BATCH,
};
pub use clock::VirtualClock;
pub use embedding::Embedder;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
pub use sim::{SimConfig, SimulatedLlm};
pub use tokenizer::count_tokens;
pub use traced::TracedClient;
pub use usage::{ModelUsage, Quota, QuotaExceeded, Usage, UsageLedger};

/// Stable 64-bit FNV-1a hash used everywhere the substrate needs seeded,
/// reproducible pseudo-randomness (error injection, embeddings, latency
/// jitter). Not cryptographic; chosen for determinism across platforms.
#[inline]
pub fn stable_hash(parts: &[&str]) -> u64 {
    parts
        .iter()
        .fold(StableHasher::new(), |h, part| h.part(part))
        .finish()
}

/// Map a stable hash to a uniform f64 in [0, 1).
#[inline]
pub fn hash_unit(parts: &[&str]) -> f64 {
    unit(stable_hash(parts))
}

/// The top 53 bits as a full-precision mantissa.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The running state of [`stable_hash`], for callers that hash a shared
/// prefix or a long part once instead of once per draw: `Copy`, so a prefix
/// forks, and [`part_both`](Self::part_both) feeds one part to two states in
/// a single read (FNV is one dependent multiply per byte, so two chains
/// over the same bytes cost what one does). `new().part(a).part(b).finish()`
/// is `stable_hash(&[a, b])` bit for bit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StableHasher(u64);

impl StableHasher {
    #[inline]
    pub(crate) fn new() -> Self {
        StableHasher(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn byte(self, b: u8) -> Self {
        StableHasher((self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    /// Absorb bytes of the current part without closing it.
    #[inline]
    pub(crate) fn bytes(self, bytes: &[u8]) -> Self {
        bytes.iter().fold(self, |h, b| h.byte(*b))
    }

    /// Close the current part: a separator so ["ab","c"] != ["a","bc"].
    #[inline]
    pub(crate) fn end_part(self) -> Self {
        self.byte(0x1f)
    }

    #[inline]
    pub(crate) fn part(self, part: &str) -> Self {
        self.bytes(part.as_bytes()).end_part()
    }

    /// `(a.part(part), b.part(part))` in one pass over `part`.
    #[inline]
    pub(crate) fn part_both(a: Self, b: Self, part: &str) -> (Self, Self) {
        let (a, b) = part
            .bytes()
            .fold((a, b), |(a, b), byte| (a.byte(byte), b.byte(byte)));
        (a.end_part(), b.end_part())
    }

    #[inline]
    pub(crate) fn finish(self) -> u64 {
        // FNV-1a's low bits are a weak 7-bit state machine (multiplication
        // by an odd constant never lets high bits influence low bits), so
        // finish with a splitmix64-style avalanche before anyone takes
        // `h % n`.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }

    /// [`finish`](Self::finish) mapped to [0, 1) the way [`hash_unit`] does.
    #[inline]
    pub(crate) fn unit(self) -> f64 {
        unit(self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_deterministic() {
        assert_eq!(stable_hash(&["a", "b"]), stable_hash(&["a", "b"]));
    }

    #[test]
    fn stable_hash_separates_boundaries() {
        assert_ne!(stable_hash(&["ab", "c"]), stable_hash(&["a", "bc"]));
    }

    #[test]
    fn hash_unit_in_range() {
        for s in ["", "x", "hello world", "PalimpChat"] {
            let u = hash_unit(&[s]);
            assert!((0.0..1.0).contains(&u), "{u} out of range for {s:?}");
        }
    }

    #[test]
    fn hash_unit_spreads() {
        // Crude uniformity check: over 1000 strings the mean should be
        // near 0.5.
        let mut sum = 0.0;
        for i in 0..1000 {
            sum += hash_unit(&[&format!("key-{i}")]);
        }
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
