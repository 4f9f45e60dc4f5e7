//! Classify — semantic categorization.
//!
//! Assigns each record exactly one of a fixed label set (the `sem_map`
//! of Lotus-style systems), writing the chosen label into a new field.
//! Unlike a filter, nothing is dropped: downstream conventional operators
//! (group-by, UDF filters on the label) take over — the mixed
//! LLM/relational composition the paper motivates.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::record::DataRecord;
use pz_llm::protocol::{self, Effort};
use pz_llm::tokenizer::truncate_to_tokens;
use pz_llm::{count_tokens, CompletionRequest, ModelId};

/// LLM-judged classification: one call per record; the response label is
/// snapped to the nearest configured label (case-insensitive), `Null`-like
/// responses fall back to the last label ("other" by convention).
pub fn llm_classify(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    labels: &[String],
    output_field: &str,
    model: &ModelId,
    effort: Effort,
) -> PzResult<Vec<DataRecord>> {
    if labels.is_empty() {
        return Err(PzError::Plan("classify needs at least one label".into()));
    }
    let window = ctx
        .catalog
        .get(model)
        .map(|m| m.context_window)
        .unwrap_or(usize::MAX);
    let label_tokens: usize = labels.iter().map(|l| count_tokens(l)).sum();
    let budget = window.saturating_sub(label_tokens + 64);
    let mut out = Vec::with_capacity(input.len());
    for mut rec in input {
        let text = rec.prompt_text();
        let text = truncate_to_tokens(&text, budget);
        let prompt = protocol::classify_prompt_with_effort(labels, &text, effort);
        let req = CompletionRequest::new(model.clone(), prompt).with_max_output_tokens(16);
        let resp = ctx
            .retry
            .complete_with(ctx.llm.as_ref(), &req, &ctx.retry_ctx())?;
        let answer = resp.text.trim();
        let label = labels
            .iter()
            .find(|l| l.eq_ignore_ascii_case(answer))
            .or_else(|| {
                // Tolerate prose around the label, the way real model
                // output requires.
                labels
                    .iter()
                    .find(|l| answer.to_lowercase().contains(&l.to_lowercase()))
            })
            .unwrap_or_else(|| labels.last().expect("non-empty"));
        rec.set(output_field.to_string(), label.clone());
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ctx: &PzContext, text: &str) -> DataRecord {
        DataRecord::new(ctx.next_id()).with_field("contents", text)
    }

    fn labels() -> Vec<String> {
        vec![
            "merger business".into(),
            "office social".into(),
            "other".into(),
        ]
    }

    #[test]
    fn classifies_by_topic() {
        let ctx = PzContext::simulated();
        let input = vec![
            rec(
                &ctx,
                "the acme initech merger agreement requires the disclosure schedules",
            ),
            rec(
                &ctx,
                "the team offsite social plan announces the friday social",
            ),
        ];
        let out = llm_classify(
            &ctx,
            input,
            &labels(),
            "category",
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(
            out[0].get("category").unwrap().as_text(),
            Some("merger business")
        );
        assert_eq!(
            out[1].get("category").unwrap().as_text(),
            Some("office social")
        );
    }

    #[test]
    fn nothing_is_dropped() {
        let ctx = PzContext::simulated();
        let input: Vec<DataRecord> = (0..7)
            .map(|i| rec(&ctx, &format!("document number {i}")))
            .collect();
        let out = llm_classify(
            &ctx,
            input,
            &labels(),
            "category",
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 7);
        for r in &out {
            let label = r.get("category").unwrap().as_display();
            assert!(labels().contains(&label), "{label}");
        }
    }

    #[test]
    fn empty_labels_rejected() {
        let ctx = PzContext::simulated();
        assert!(llm_classify(&ctx, vec![], &[], "c", &"gpt-4o".into(), Effort::Standard).is_err());
    }

    #[test]
    fn charges_one_call_per_record() {
        let ctx = PzContext::simulated();
        let input = vec![rec(&ctx, "a"), rec(&ctx, "b"), rec(&ctx, "c")];
        llm_classify(
            &ctx,
            input,
            &labels(),
            "cat",
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(ctx.ledger.total_requests(), 3);
    }

    #[test]
    fn weak_model_misclassifies_more() {
        let ctx = PzContext::simulated();
        let n = 120;
        let mut strong_ok = 0usize;
        let mut weak_ok = 0usize;
        for i in 0..n {
            let (text, want) = if i % 2 == 0 {
                (
                    format!("mail {i}: the acme initech merger valuation model and filing"),
                    "merger business",
                )
            } else {
                (
                    format!("mail {i}: the cafeteria menu and friday social for all staff"),
                    "office social",
                )
            };
            let run = |m: &str| {
                let out = llm_classify(
                    &ctx,
                    vec![rec(&ctx, &text)],
                    &labels(),
                    "cat",
                    &m.into(),
                    Effort::Standard,
                )
                .unwrap();
                out[0].get("cat").unwrap().as_display() == want
            };
            strong_ok += usize::from(run("gpt-4o"));
            weak_ok += usize::from(run("llama-3-8b"));
        }
        assert!(strong_ok > weak_ok, "strong {strong_ok} vs weak {weak_ok}");
    }
}
