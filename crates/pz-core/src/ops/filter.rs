//! Filter implementations.
//!
//! Three physical strategies for the logical `Filter`:
//! * [`llm_filter`] — one boolean LLM judgement per record (the quality
//!   reference, cost proportional to record size and model price);
//! * [`embedding_filter`] — cosine similarity between the predicate's
//!   embedding and the record's embedding against a threshold (orders of
//!   magnitude cheaper, noticeably lower quality);
//! * [`udf_filter`] — a registered Rust predicate (free, exact — for
//!   conventional conditions).

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::record::DataRecord;
use pz_llm::protocol::{self, Effort};
use pz_llm::tokenizer::truncate_to_tokens;
use pz_llm::{count_tokens, CompletionRequest, EmbeddingRequest, ModelId};

/// LLM-judged filter: keeps records for which the model answers TRUE.
pub fn llm_filter(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    predicate: &str,
    model: &ModelId,
    effort: Effort,
) -> PzResult<Vec<DataRecord>> {
    // Fit each record into the model's context window (head + tail
    // truncation), leaving room for the predicate and protocol overhead.
    let window = ctx
        .catalog
        .get(model)
        .map(|m| m.context_window)
        .unwrap_or(usize::MAX);
    let budget = window.saturating_sub(count_tokens(predicate) + 64);
    let mut out = Vec::with_capacity(input.len());
    for rec in input {
        let text = rec.prompt_text();
        let text = truncate_to_tokens(&text, budget);
        let prompt = protocol::filter_prompt_with_effort(predicate, &text, effort);
        let req = CompletionRequest::new(model.clone(), prompt).with_max_output_tokens(4);
        let resp = ctx
            .retry
            .complete_with(ctx.llm.as_ref(), &req, &ctx.retry_ctx())?;
        match protocol::parse_bool_response(&resp.text) {
            Some(true) => out.push(rec),
            Some(false) => {}
            None => {
                // Unparseable verdicts drop the record but do not abort
                // the pipeline: treat as "did not satisfy the predicate".
            }
        }
    }
    Ok(out)
}

/// Embedding-similarity filter.
pub fn embedding_filter(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    predicate: &str,
    model: &ModelId,
    threshold: f32,
) -> PzResult<Vec<DataRecord>> {
    if input.is_empty() {
        return Ok(input);
    }
    let mut texts: Vec<String> = Vec::with_capacity(input.len() + 1);
    texts.push(predicate.to_string());
    texts.extend(input.iter().map(|r| r.prompt_text().into_owned()));
    let req = EmbeddingRequest {
        model: model.clone(),
        inputs: texts,
    };
    // Batched entry point: bounded provider requests on big inputs, one
    // call (identical to before) at or below `DEFAULT_EMBED_BATCH`.
    let resp = ctx.retry.embed_batched(
        ctx.llm.as_ref(),
        &req,
        &ctx.retry_ctx(),
        pz_llm::DEFAULT_EMBED_BATCH,
    )?;
    let (query, records) = resp
        .vectors
        .split_first()
        .ok_or_else(|| PzError::Execution("embedding response was empty".into()))?;
    Ok(input
        .into_iter()
        .zip(records)
        .filter(|(_, v)| pz_llm::embedding::cosine(query, v) >= threshold)
        .map(|(r, _)| r)
        .collect())
}

/// Mixture-of-agents filter: every model votes on every record; strict
/// majority keeps it (a tie drops the record). Votes are independent — the
/// simulator keys its error injection by model — so the ensemble beats its
/// members the way real majority voting does.
pub fn ensemble_filter(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    predicate: &str,
    models: &[ModelId],
    effort: Effort,
) -> PzResult<Vec<DataRecord>> {
    if models.is_empty() {
        return Err(PzError::Plan(
            "ensemble filter needs at least one model".into(),
        ));
    }
    let mut out = Vec::with_capacity(input.len());
    for rec in input {
        let mut yes = 0usize;
        for model in models {
            let window = ctx
                .catalog
                .get(model)
                .map(|m| m.context_window)
                .unwrap_or(usize::MAX);
            let budget = window.saturating_sub(count_tokens(predicate) + 64);
            let text = rec.prompt_text();
            let text = truncate_to_tokens(&text, budget);
            let prompt = protocol::filter_prompt_with_effort(predicate, &text, effort);
            let req = CompletionRequest::new(model.clone(), prompt).with_max_output_tokens(4);
            let resp = ctx
                .retry
                .complete_with(ctx.llm.as_ref(), &req, &ctx.retry_ctx())?;
            if protocol::parse_bool_response(&resp.text) == Some(true) {
                yes += 1;
            }
        }
        if yes * 2 > models.len() {
            out.push(rec);
        }
    }
    Ok(out)
}

/// UDF filter.
pub fn udf_filter(ctx: &PzContext, input: Vec<DataRecord>, udf: &str) -> PzResult<Vec<DataRecord>> {
    let f = ctx.udfs.filter(udf)?;
    Ok(input.into_iter().filter(|r| f(r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::MemorySource;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn records(ctx: &PzContext, texts: &[&str]) -> Vec<DataRecord> {
        let src = MemorySource::from_texts(
            "t",
            Schema::text_file(),
            texts.iter().map(|s| s.to_string()).collect(),
        );
        ctx.registry.register(Arc::new(src));
        ctx.registry
            .get("t")
            .unwrap()
            .records(ctx.next_ids(texts.len() as u64))
            .unwrap()
    }

    #[test]
    fn llm_filter_separates_topics() {
        let ctx = PzContext::simulated();
        let input = records(
            &ctx,
            &[
                "A study of colorectal cancer tumor mutation in genomic cohorts.",
                "Galaxy cluster redshift surveys with radio telescopes.",
            ],
        );
        let out = llm_filter(
            &ctx,
            input,
            "The documents are about colorectal cancer",
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].prompt_text().contains("colorectal"));
    }

    #[test]
    fn llm_filter_charges_cost_per_record() {
        let ctx = PzContext::simulated();
        let input = records(&ctx, &["one doc here", "two docs here", "three docs here"]);
        llm_filter(&ctx, input, "anything", &"gpt-4o".into(), Effort::Standard).unwrap();
        assert_eq!(ctx.ledger.total_requests(), 3);
        assert!(ctx.ledger.total_cost_usd() > 0.0);
        assert!(ctx.clock.now_secs() > 0.0);
    }

    #[test]
    fn high_effort_costs_more() {
        let ctx1 = PzContext::simulated();
        let input1 = records(&ctx1, &["a document about some topic"]);
        llm_filter(&ctx1, input1, "topic", &"gpt-4o".into(), Effort::Standard).unwrap();
        let standard_cost = ctx1.ledger.total_cost_usd();

        let ctx2 = PzContext::simulated();
        let input2 = records(&ctx2, &["a document about some topic"]);
        llm_filter(&ctx2, input2, "topic", &"gpt-4o".into(), Effort::High).unwrap();
        let high_cost = ctx2.ledger.total_cost_usd();
        assert!(
            high_cost > standard_cost * 1.5,
            "{high_cost} vs {standard_cost}"
        );
    }

    #[test]
    fn embedding_filter_thresholds() {
        let ctx = PzContext::simulated();
        let input = records(
            &ctx,
            &[
                "colorectal cancer tumor mutation genomic study",
                "quasar redshift telescope galaxy survey",
            ],
        );
        let out = embedding_filter(
            &ctx,
            input,
            "colorectal cancer tumor genomic",
            &ctx.embed_model.clone(),
            0.35,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].prompt_text().contains("colorectal"));
        // Threshold 0 keeps nothing out only if scores >= 0; -1 keeps all.
        let ctx2 = PzContext::simulated();
        let input2 = records(&ctx2, &["a", "b"]);
        let all = embedding_filter(&ctx2, input2, "q", &ctx2.embed_model.clone(), -1.0).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn embedding_filter_empty_input() {
        let ctx = PzContext::simulated();
        let out = embedding_filter(&ctx, Vec::new(), "q", &ctx.embed_model.clone(), 0.5).unwrap();
        assert!(out.is_empty());
        assert_eq!(ctx.ledger.total_requests(), 0);
    }

    #[test]
    fn ensemble_filter_majority_vote() {
        let ctx = PzContext::simulated();
        let input = records(
            &ctx,
            &[
                "A study of colorectal cancer tumor mutation in genomic cohorts.",
                "Galaxy cluster redshift surveys with radio telescopes.",
            ],
        );
        let models: Vec<ModelId> =
            vec!["gpt-4o".into(), "llama-3-70b".into(), "gpt-4o-mini".into()];
        let out = ensemble_filter(
            &ctx,
            input,
            "The documents are about colorectal cancer",
            &models,
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].prompt_text().contains("colorectal"));
        // Three calls per record.
        assert_eq!(ctx.ledger.total_requests(), 6);
    }

    #[test]
    fn ensemble_beats_its_weakest_member() {
        // Aggregate error rate of the 3-model majority must be below the
        // weakest member's own error rate across many records.
        let ctx = PzContext::simulated();
        let models: Vec<ModelId> = vec!["gpt-4o".into(), "llama-3-70b".into(), "llama-3-8b".into()];
        let mut ensemble_errors = 0usize;
        let mut weak_errors = 0usize;
        let n = 120;
        for i in 0..n {
            let relevant = i % 2 == 0;
            let text = if relevant {
                format!("Doc {i}: somatic colorectal cancer tumor mutation cohort.")
            } else {
                format!("Doc {i}: galaxy cluster redshift survey telescope imaging.")
            };
            let rec = DataRecord::new(ctx.next_id()).with_field("contents", text);
            let kept_ens = !ensemble_filter(
                &ctx,
                vec![rec.clone()],
                "about colorectal cancer",
                &models,
                Effort::Standard,
            )
            .unwrap()
            .is_empty();
            let kept_weak = !llm_filter(
                &ctx,
                vec![rec],
                "about colorectal cancer",
                &"llama-3-8b".into(),
                Effort::Standard,
            )
            .unwrap()
            .is_empty();
            if kept_ens != relevant {
                ensemble_errors += 1;
            }
            if kept_weak != relevant {
                weak_errors += 1;
            }
        }
        assert!(
            ensemble_errors < weak_errors,
            "ensemble {ensemble_errors} vs weak {weak_errors}"
        );
    }

    #[test]
    fn ensemble_empty_models_rejected() {
        let ctx = PzContext::simulated();
        assert!(ensemble_filter(&ctx, vec![], "p", &[], Effort::Standard).is_err());
    }

    #[test]
    fn udf_filter_applies() {
        let ctx = PzContext::simulated();
        ctx.udfs
            .register_filter("short", |r: &DataRecord| r.prompt_text().len() < 10);
        let input = records(&ctx, &["tiny", "a very long document body"]);
        let out = udf_filter(&ctx, input, "short").unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn udf_filter_unknown_errors() {
        let ctx = PzContext::simulated();
        assert!(matches!(
            udf_filter(&ctx, Vec::new(), "missing"),
            Err(PzError::UnknownUdf(_))
        ));
    }
}
