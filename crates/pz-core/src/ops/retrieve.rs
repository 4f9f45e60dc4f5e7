//! Retrieve — semantic top-k over the operator's own input.
//!
//! The intro's "vector databases" leg: embed every input record and the
//! natural-language query, load the vectors into a transient collection of
//! the vector store, and keep the `k` most similar — one query per
//! collection, which the store answers with an exact scan. Used for
//! RAG-style narrowing before expensive LLM operators.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::record::DataRecord;
use pz_llm::{EmbeddingRequest, ModelId};
use pz_vector::{Metric, VecId, VectorStoreError};

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
    // The provider is outside the program: without one vector per input
    // the tail of the input would silently be unretrievable.
    if resp.vectors.len() != input.len() + 1 {
        return Err(PzError::Execution(format!(
            "retrieve: embedding provider returned {} vector(s) for {} input(s)",
            resp.vectors.len(),
            input.len() + 1
        )));
    }
    let (query_vec, doc_vecs) = (&resp.vectors[0], &resp.vectors[1..]);

    // A transient per-op collection: retrieval is over the operator input,
    // not a persistent corpus. Unique name avoids cross-run clashes. It is
    // dropped on every path, so a store error cannot leak it.
    let coll = format!("__retrieve_{}", ctx.next_id());
    let picked = top_k_ids(ctx, &coll, query_vec, doc_vecs, k);
    ctx.vectors.drop_collection(&coll);
    let picked = picked?;

    Ok(input
        .into_iter()
        .enumerate()
        .filter(|(i, _)| picked.binary_search(&(*i as VecId)).is_ok())
        .map(|(_, r)| r)
        .collect())
}

/// Create `coll`, load `docs` into it and return the sorted ids — insert
/// positions, so input positions — of the `k` nearest to `query`. The
/// store refuses an empty query vector and any document vector of another
/// length, so a malformed provider response is an error here.
fn top_k_ids(
    ctx: &PzContext,
    coll: &str,
    query: &[f32],
    docs: &[Vec<f32>],
    k: usize,
) -> Result<Vec<VecId>, VectorStoreError> {
    ctx.vectors
        .create_collection(coll, query.len(), Metric::Cosine)?;
    for v in docs {
        ctx.vectors.add(coll, v, "")?;
    }
    let hits = ctx.vectors.search(coll, query, k)?;
    let mut ids: Vec<VecId> = hits.iter().map(|h| h.id).collect();
    ids.sort_unstable();
    Ok(ids)
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

    /// Embeds input `i` as `dims[i]` ones, and nothing past `dims`.
    struct StubEmbedder {
        dims: Vec<usize>,
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
                vectors: self.dims.iter().map(|&d| vec![1.0; d]).collect(),
                usage: pz_llm::Usage::new(0, 0),
                latency_secs: 0.0,
                cost_usd: 0.0,
            })
        }
    }

    #[test]
    fn bad_embedding_response_is_an_error_and_leaks_nothing() {
        // Query + three documents; the provider answers short, ragged, then
        // with empty vectors.
        for (dims, want) in [
            (vec![4, 4, 4], "returned 3 vector(s) for 4 input(s)"),
            (vec![4, 4, 4, 2], "dimension mismatch: expected 4, got 2"),
            (vec![0, 0, 0, 0], "vectors must have at least one dimension"),
        ] {
            let ctx =
                PzContext::simulated().with_client(std::sync::Arc::new(StubEmbedder { dims }));
            let input = vec![rec(&ctx, "a"), rec(&ctx, "b"), rec(&ctx, "c")];
            let err = retrieve(&ctx, input, "q", 2, &ctx.embed_model.clone()).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
            assert!(ctx.vectors.collection_names().is_empty(), "{err}");
        }
    }

    #[test]
    fn transient_collection_cleaned_up() {
        let ctx = PzContext::simulated();
        let input = vec![rec(&ctx, "text")];
        retrieve(&ctx, input, "q", 1, &ctx.embed_model.clone()).unwrap();
        assert!(ctx.vectors.collection_names().is_empty());
    }
}
