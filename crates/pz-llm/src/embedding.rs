//! Deterministic text embeddings.
//!
//! Stand-in for hosted embedding models: a hashed bag-of-words projection
//! into a fixed-dimension space. Texts sharing vocabulary land close in
//! cosine distance — exactly the property the `Retrieve` operator and
//! embedding-based filters rely on — and the mapping is a pure function of
//! the text, so every experiment is reproducible. Because each vector
//! depends only on its own text, chunking a batch across provider requests
//! ([`crate::client::RetryPolicy::embed_batched`]) yields bit-identical
//! vectors to one monolithic request.
//!
//! Tokens come from the same text kernel the simulator reads documents with
//! ([`crate::text`]): an embedding is one read of its text and one
//! allocation, the vector.

use crate::text::{lower, words};
use crate::StableHasher;

/// Deterministic embedder with a configurable dimensionality.
#[derive(Clone, Debug)]
pub struct Embedder {
    dim: usize,
}

impl Default for Embedder {
    fn default() -> Self {
        Self { dim: 64 }
    }
}

impl Embedder {
    /// Create an embedder producing vectors of `dim` dimensions (min 4).
    pub fn new(dim: usize) -> Self {
        Self { dim: dim.max(4) }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed `text` into an L2-normalized vector.
    ///
    /// Each lowercased alphanumeric token is hashed into three coordinates
    /// with signed weights (a sparse random projection), weighted by a
    /// sublinear term frequency. The zero text embeds to the zero vector.
    ///
    /// One read of the text and one allocation (the vector): tokens are
    /// borrowed from the shared text kernel, and each is hashed once — the
    /// three probes continue that state (`stable_hash(&[token, "0"])`, …)
    /// instead of re-hashing the token.
    pub fn embed(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        let mut buf = String::new();
        for word in words(text) {
            let token = StableHasher::new().part(lower(word, &mut buf));
            // Sublinear tf: repeated occurrences add with damping via the
            // natural accumulation then final normalization; per-token we
            // add a fixed contribution.
            for probe in ["0", "1", "2"] {
                let h = token.part(probe).finish();
                let idx = (h % self.dim as u64) as usize;
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[idx] += sign;
            }
        }
        l2_normalize(&mut v);
        v
    }
}

fn l2_normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity between two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable_hash;
    use crate::text::reference::odd_text;
    use proptest::prelude::*;

    /// The embedder this one replaced: a lower-cased `String` per token, a
    /// rendered probe number and a full re-hash of the token per probe.
    fn reference_embed(dim: usize, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; dim];
        let tokens = text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.len() > 1)
            .map(|t| t.to_ascii_lowercase());
        for token in tokens {
            for probe in 0..3u32 {
                let h = stable_hash(&[&token, &probe.to_string()]);
                let idx = (h % dim as u64) as usize;
                let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
                v[idx] += sign;
            }
        }
        l2_normalize(&mut v);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn embedding_is_bit_identical_to_reference(text in odd_text(), dim in 4usize..130) {
            prop_assert_eq!(
                bits(&Embedder::new(dim).embed(&text)),
                bits(&reference_embed(dim, &text))
            );
        }
    }

    #[test]
    fn deterministic() {
        let e = Embedder::default();
        assert_eq!(
            e.embed("colorectal cancer study"),
            e.embed("colorectal cancer study")
        );
    }

    #[test]
    fn normalized() {
        let e = Embedder::default();
        let v = e.embed("some meaningful text about genomes");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_is_zero_vector() {
        let e = Embedder::default();
        let v = e.embed("");
        assert!(v.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn shared_vocabulary_is_closer() {
        let e = Embedder::new(128);
        let a = e.embed("colorectal cancer tumor genomic mutation study");
        let b = e.embed("colorectal cancer tumor cells mutation analysis");
        let c = e.embed("three bedroom apartment with garden and garage");
        let sim_ab = cosine(&a, &b);
        let sim_ac = cosine(&a, &c);
        assert!(
            sim_ab > sim_ac + 0.2,
            "related texts should be closer: ab={sim_ab} ac={sim_ac}"
        );
    }

    #[test]
    fn self_similarity_is_one() {
        let e = Embedder::default();
        let v = e.embed("hello world");
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn dimension_respected() {
        assert_eq!(Embedder::new(32).embed("x y z").len(), 32);
        // Minimum clamp.
        assert_eq!(Embedder::new(1).dim(), 4);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn single_char_tokens_ignored() {
        let e = Embedder::default();
        assert!(e.embed("a b c d e").iter().all(|x| *x == 0.0));
    }
}
