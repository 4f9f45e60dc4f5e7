//! Join implementations.
//!
//! The pipeline stream joins against a second *registered dataset* (the
//! build side), keeping plans linear the way the paper describes them
//! while adding the relational completeness a production system needs.
//! Two strategies:
//!
//! * [`hash_join`] — conventional equi-join on field equality (free);
//! * [`llm_join`] — semantic join: an LLM judges every (left, right) pair
//!   against a natural-language criterion. O(|L|·|R|) model calls — by far
//!   the most expensive operator, which is exactly why narrowing operators
//!   (filters, retrieve) in front of it matter.
//!
//! Output records merge both sides; right-side fields that collide with a
//! left field are prefixed with the build dataset's name.

use crate::context::PzContext;
use crate::error::PzResult;
use crate::record::DataRecord;
use pz_llm::protocol::{self, Effort};
use pz_llm::tokenizer::truncate_to_tokens;
use pz_llm::{count_tokens, CompletionRequest, ModelId};
use std::collections::BTreeMap;

/// Merge a matching pair into one output record.
fn merge(ctx: &PzContext, left: &DataRecord, right: &DataRecord, right_name: &str) -> DataRecord {
    let prefix = crate::ops::logical::join_field_prefix(right_name);
    let mut out = left.derive(ctx.next_id());
    out.fields = left.fields.clone();
    for (k, v) in &right.fields {
        let key = if out.fields.contains_key(k) {
            format!("{prefix}_{k}")
        } else {
            k.clone()
        };
        out.fields.insert(key, v.clone());
    }
    out.lineage.push(right.id);
    out
}

/// Materialize the build side of a join.
fn build_side(ctx: &PzContext, dataset: &str) -> PzResult<Vec<DataRecord>> {
    let src = ctx.registry.get(dataset)?;
    src.records(ctx.reserve_ids(src.as_ref()))
}

/// Conventional equi-join: `left.left_field == right.right_field`
/// (string-rendered comparison on non-null values).
pub fn hash_join(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    dataset: &str,
    left_field: &str,
    right_field: &str,
) -> PzResult<Vec<DataRecord>> {
    let right = build_side(ctx, dataset)?;
    let mut table: BTreeMap<String, Vec<&DataRecord>> = BTreeMap::new();
    for r in &right {
        if let Some(v) = r.get(right_field) {
            if !v.is_null() {
                table.entry(v.as_display()).or_default().push(r);
            }
        }
    }
    let mut out = Vec::new();
    for l in &input {
        if let Some(v) = l.get(left_field) {
            if v.is_null() {
                continue;
            }
            if let Some(matches) = table.get(&v.as_display()) {
                for r in matches {
                    out.push(merge(ctx, l, r, dataset));
                }
            }
        }
    }
    Ok(out)
}

/// Semantic join: keep every (left, right) pair the model judges as
/// matching the criterion.
pub fn llm_join(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    dataset: &str,
    criterion: &str,
    model: &ModelId,
    effort: Effort,
) -> PzResult<Vec<DataRecord>> {
    let right = build_side(ctx, dataset)?;
    let window = ctx
        .catalog
        .get(model)
        .map(|m| m.context_window)
        .unwrap_or(usize::MAX);
    // Both sides must fit together, with headroom for the criterion.
    let budget = window.saturating_sub(count_tokens(criterion) + 96) / 2;
    let mut out = Vec::new();
    for l in &input {
        let left_text = l.prompt_text();
        let left_text = truncate_to_tokens(&left_text, budget);
        for r in &right {
            let right_text = r.prompt_text();
            let right_text = truncate_to_tokens(&right_text, budget);
            let prompt = protocol::match_prompt(criterion, &left_text, &right_text, effort);
            let req = CompletionRequest::new(model.clone(), prompt).with_max_output_tokens(4);
            let resp = ctx
                .retry
                .complete_with(ctx.llm.as_ref(), &req, &ctx.retry_ctx())?;
            if protocol::parse_bool_response(&resp.text) == Some(true) {
                out.push(merge(ctx, l, r, dataset));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::MemorySource;
    use crate::record::Value;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn ctx_with_catalog() -> PzContext {
        let ctx = PzContext::simulated();
        // A small reference catalog of datasets, one per record.
        let items = vec![
            (
                "cat-0.txt".to_string(),
                "repository: GDC portal\ncatalog_entry: TCGA COADREAD colorectal adenocarcinoma multi omics cohort\n"
                    .to_string(),
            ),
            (
                "cat-1.txt".to_string(),
                "repository: GEO\ncatalog_entry: GSE39582 colon cancer gene expression profiles\n"
                    .to_string(),
            ),
            (
                "cat-2.txt".to_string(),
                "repository: SDSS\ncatalog_entry: quasar redshift sky survey imaging\n".to_string(),
            ),
        ];
        ctx.registry.register(Arc::new(MemorySource::new(
            "catalog",
            Schema::text_file(),
            items,
        )));
        ctx
    }

    fn left_record(ctx: &PzContext, name: &str, desc: &str) -> DataRecord {
        DataRecord::new(ctx.next_id())
            .with_field("name", name)
            .with_field("description", desc)
    }

    #[test]
    fn hash_join_on_equal_fields() {
        let ctx = PzContext::simulated();
        let items = vec![
            ("a.txt".to_string(), "x".to_string()),
            ("b.txt".to_string(), "y".to_string()),
        ];
        ctx.registry.register(Arc::new(MemorySource::new(
            "right",
            Schema::text_file(),
            items,
        )));
        let left = vec![
            DataRecord::new(ctx.next_id())
                .with_field("file", "a.txt")
                .with_field("tag", 1i64),
            DataRecord::new(ctx.next_id()).with_field("file", "missing.txt"),
        ];
        let out = hash_join(&ctx, left, "right", "file", "filename").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("tag").unwrap().as_int(), Some(1));
        assert_eq!(out[0].get("contents").unwrap().as_text(), Some("x"));
        // Two parents in the lineage: the left record and the build record.
        assert_eq!(out[0].lineage.len(), 2);
    }

    #[test]
    fn hash_join_field_collisions_prefixed() {
        let ctx = PzContext::simulated();
        let items = vec![("a.txt".to_string(), "right contents".to_string())];
        ctx.registry
            .register(Arc::new(MemorySource::new("r", Schema::text_file(), items)));
        let left = vec![DataRecord::new(ctx.next_id())
            .with_field("filename", "a.txt")
            .with_field("contents", "left contents")];
        let out = hash_join(&ctx, left, "r", "filename", "filename").unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].get("contents").unwrap().as_text(),
            Some("left contents")
        );
        assert_eq!(
            out[0].get("r_contents").unwrap().as_text(),
            Some("right contents")
        );
        assert_eq!(out[0].get("r_filename").unwrap().as_text(), Some("a.txt"));
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let ctx = PzContext::simulated();
        ctx.registry.register(Arc::new(MemorySource::new(
            "r",
            Schema::text_file(),
            vec![("a.txt".to_string(), "x".to_string())],
        )));
        let left = vec![DataRecord::new(ctx.next_id()).with_field("file", Value::Null)];
        let out = hash_join(&ctx, left, "r", "file", "filename").unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn llm_join_matches_same_dataset_mentions() {
        let ctx = ctx_with_catalog();
        let left = vec![
            left_record(
                &ctx,
                "TCGA-COADREAD",
                "Colorectal adenocarcinoma multi omics cohort",
            ),
            left_record(
                &ctx,
                "GSE39582",
                "Gene expression profiles of colon cancer tumors",
            ),
        ];
        let out = llm_join(
            &ctx,
            left,
            "catalog",
            "the records refer to the same dataset",
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        // Each extraction matches its catalog entry (and not the quasar one).
        assert_eq!(
            out.len(),
            2,
            "{:?}",
            out.iter().map(|r| r.to_json()).collect::<Vec<_>>()
        );
        for rec in &out {
            let entry = rec.get("contents").unwrap().as_display();
            let name = rec.get("name").unwrap().as_display();
            assert!(
                !entry.contains("quasar"),
                "{name} must not match the astronomy catalog entry"
            );
        }
        // 2 left × 3 right = 6 model calls.
        assert_eq!(ctx.ledger.total_requests(), 6);
    }

    #[test]
    fn llm_join_unknown_dataset_errors() {
        let ctx = PzContext::simulated();
        assert!(llm_join(
            &ctx,
            vec![],
            "ghost",
            "same thing",
            &"gpt-4o".into(),
            Effort::Standard
        )
        .is_err());
    }

    #[test]
    fn llm_join_empty_left_is_free() {
        let ctx = ctx_with_catalog();
        let out = llm_join(
            &ctx,
            vec![],
            "catalog",
            "same dataset",
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(ctx.ledger.total_requests(), 0);
    }
}
