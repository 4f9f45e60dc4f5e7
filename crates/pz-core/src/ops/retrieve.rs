//! Retrieve — semantic top-k over the operator's own input.
//!
//! The intro's "vector databases" leg, used for RAG-style narrowing
//! before expensive LLM operators: embed the natural-language query and
//! every input record, score each record by cosine similarity to the
//! query, and keep the `k` best in input order. Equal scores go to the
//! lower input position, so the result is the exact top-k of a flat scan.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::record::DataRecord;
use pz_llm::embedding::cosine;
use pz_llm::{EmbeddingRequest, ModelId};

/// Keep the `k` records most similar to `query`.
pub fn retrieve(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    query: &str,
    k: usize,
    model: &ModelId,
) -> PzResult<Vec<DataRecord>> {
    if input.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    let mut texts: Vec<String> = Vec::with_capacity(input.len() + 1);
    texts.push(query.to_string());
    texts.extend(input.iter().map(|r| r.prompt_text().into_owned()));
    let req = EmbeddingRequest {
        model: model.clone(),
        inputs: texts,
    };
    // Batched entry point: big corpora split into bounded provider
    // requests; at or below `DEFAULT_EMBED_BATCH` inputs it is one call.
    let resp = ctx.retry.embed_batched(
        ctx.llm.as_ref(),
        &req,
        &ctx.retry_ctx(),
        pz_llm::DEFAULT_EMBED_BATCH,
    )?;
    let keep = top_k(&resp.vectors, input.len(), k)?;
    Ok(input
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep.binary_search(i).is_ok())
        .map(|(_, r)| r)
        .collect())
}

/// Input positions, ascending, of the `k` documents nearest the query.
/// `vectors` is the provider's answer: the query's vector, then one per
/// document. Ranks by score (`total_cmp`, descending), then position
/// (ascending). The provider is outside the program, so an answer a
/// ranking cannot trust — a vector missing, of another length, of no
/// length, or with a NaN or infinite component — is an error.
fn top_k(vectors: &[Vec<f32>], docs: usize, k: usize) -> PzResult<Vec<usize>> {
    let bad = |what: String| Err(PzError::Execution(format!("retrieve: embedding {what}")));
    if vectors.len() != docs + 1 {
        let got = vectors.len();
        return bad(format!(
            "provider returned {got} vector(s) for {} input(s)",
            docs + 1
        ));
    }
    let (query, docs) = (&vectors[0], &vectors[1..]);
    if query.is_empty() {
        return bad("vectors must have at least one dimension".into());
    }
    if let Some(v) = docs.iter().find(|v| v.len() != query.len()) {
        let (expected, got) = (query.len(), v.len());
        return bad(format!(
            "dimension mismatch: expected {expected}, got {got}"
        ));
    }
    if vectors.iter().flatten().any(|x| !x.is_finite()) {
        return bad("vector has a non-finite component".into());
    }
    let mut scored: Vec<(f32, usize)> = docs
        .iter()
        .enumerate()
        .map(|(i, v)| (cosine(query, v), i))
        .collect();
    if k < scored.len() {
        scored.select_nth_unstable_by(k - 1, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
    }
    let mut keep: Vec<usize> = scored.into_iter().map(|(_, i)| i).collect();
    keep.sort_unstable();
    Ok(keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ctx: &PzContext, text: &str) -> DataRecord {
        DataRecord::new(ctx.next_id()).with_field("contents", text)
    }

    #[test]
    fn retrieves_most_similar() {
        let ctx = PzContext::simulated();
        let input = vec![
            rec(&ctx, "colorectal cancer genomic tumor mutation cohort"),
            rec(&ctx, "quasar galaxy telescope redshift survey"),
            rec(&ctx, "colorectal cancer screening tumor study"),
            rec(&ctx, "battery cathode lattice materials"),
        ];
        let out = retrieve(
            &ctx,
            input,
            "colorectal cancer tumor",
            2,
            &ctx.embed_model.clone(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        for r in &out {
            assert!(
                r.prompt_text().contains("colorectal"),
                "{}",
                r.prompt_text()
            );
        }
    }

    #[test]
    fn k_bounds() {
        let ctx = PzContext::simulated();
        let input = vec![rec(&ctx, "a b"), rec(&ctx, "c d")];
        assert_eq!(
            retrieve(&ctx, input.clone(), "q", 10, &ctx.embed_model.clone())
                .unwrap()
                .len(),
            2
        );
        assert!(retrieve(&ctx, input, "q", 0, &ctx.embed_model.clone())
            .unwrap()
            .is_empty());
        assert!(retrieve(&ctx, vec![], "q", 3, &ctx.embed_model.clone())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let ctx = PzContext::simulated();
        let input = vec![
            rec(&ctx, "zeta colorectal cancer tumor"),
            rec(&ctx, "alpha colorectal cancer tumor"),
        ];
        let ids: Vec<u64> = input.iter().map(|r| r.id).collect();
        let out = retrieve(
            &ctx,
            input,
            "colorectal cancer",
            2,
            &ctx.embed_model.clone(),
        )
        .unwrap();
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
    }

    #[test]
    fn charges_embedding_cost() {
        let ctx = PzContext::simulated();
        let input = vec![rec(&ctx, "some text"), rec(&ctx, "more text")];
        retrieve(&ctx, input, "query", 1, &ctx.embed_model.clone()).unwrap();
        assert!(ctx.ledger.total_cost_usd() > 0.0);
        let by_model = ctx.ledger.by_model();
        assert_eq!(by_model[0].0.as_str(), "text-embedding-3-small");
    }

    /// Answers every embedding request with `vectors`, whatever it asked.
    struct StubEmbedder {
        vectors: Vec<Vec<f32>>,
    }

    impl pz_llm::LlmClient for StubEmbedder {
        fn complete(
            &self,
            _: &pz_llm::CompletionRequest,
        ) -> Result<pz_llm::CompletionResponse, pz_llm::LlmError> {
            Err(pz_llm::LlmError::Rejected("embeddings only".into()))
        }

        fn embed(
            &self,
            _: &EmbeddingRequest,
        ) -> Result<pz_llm::EmbeddingResponse, pz_llm::LlmError> {
            Ok(pz_llm::EmbeddingResponse {
                vectors: self.vectors.clone(),
                usage: pz_llm::Usage::new(0, 0),
                latency_secs: 0.0,
                cost_usd: 0.0,
                replayed: Default::default(),
            })
        }
    }

    #[test]
    fn bad_embedding_response_is_an_error_and_leaks_nothing() {
        let ones = |d: usize| vec![1.0f32; d];
        // Query + three documents; the provider answers short, ragged,
        // with empty vectors, then with a NaN document beside an exact
        // match of the query (a NaN score would rank first).
        for (vectors, want) in [
            (
                vec![ones(4), ones(4), ones(4)],
                "returned 3 vector(s) for 4 input(s)",
            ),
            (
                vec![ones(4), ones(4), ones(4), ones(2)],
                "dimension mismatch: expected 4, got 2",
            ),
            (vec![vec![]; 4], "vectors must have at least one dimension"),
            (
                vec![
                    vec![1.0, 0.0],
                    vec![1.0, 0.0],
                    vec![f32::NAN, 0.0],
                    vec![0.0, 1.0],
                ],
                "non-finite component",
            ),
        ] {
            let ctx =
                PzContext::simulated().with_client(std::sync::Arc::new(StubEmbedder { vectors }));
            let input = vec![rec(&ctx, "a"), rec(&ctx, "b"), rec(&ctx, "c")];
            let next = ctx.next_id() + 1;
            let err = retrieve(&ctx, input, "q", 1, &ctx.embed_model.clone()).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
            assert_eq!(ctx.next_id(), next, "{err}");
        }
    }

    /// Retrieve ranks the provider's answer where it lies: it numbers no
    /// record and takes no id.
    #[test]
    fn transient_collection_cleaned_up() {
        let ctx = PzContext::simulated();
        let input = vec![rec(&ctx, "text")];
        let next = ctx.next_id() + 1;
        let out = retrieve(&ctx, input.clone(), "q", 1, &ctx.embed_model.clone()).unwrap();
        assert_eq!(out, input);
        assert_eq!(ctx.next_id(), next);
    }
}
