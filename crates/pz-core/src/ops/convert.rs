//! Convert implementation — the paper's flagship operator.
//!
//! §2.1: "*Convert* transforms an object of schema A into an object of
//! schema B by computing the fields in B that do not explicitly exist in
//! A." Fields already present in the input are carried over directly; the
//! missing ones are extracted by the model. With
//! [`Cardinality::OneToMany`], a single input record may yield several
//! output records (the demo's one-paper → many-datasets case).

use crate::context::PzContext;
use crate::error::PzResult;
use crate::ops::logical::Cardinality;
use crate::record::{DataRecord, Value};
use crate::schema::Schema;
use pz_llm::protocol::{self, Effort, FieldSpec};
use pz_llm::tokenizer::truncate_to_tokens;
use pz_llm::{CompletionRequest, ModelId};

/// LLM-backed convert.
pub fn llm_convert(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    target: &Schema,
    cardinality: Cardinality,
    model: &ModelId,
    effort: Effort,
) -> PzResult<Vec<DataRecord>> {
    // Which target fields must the model compute?
    let mut out = Vec::new();
    for rec in &input {
        let missing: Vec<FieldSpec> = target
            .fields
            .iter()
            .filter(|f| rec.get(&f.name).is_none_or(|v| v.is_null()))
            .map(|f| FieldSpec::new(f.name.clone(), f.description.clone()))
            .collect();

        let extractions: Vec<std::collections::BTreeMap<String, Option<String>>> = if missing
            .is_empty()
        {
            // Nothing to compute: pure carry-over.
            vec![Default::default()]
        } else {
            // Fit the record into the model's context window (head +
            // tail truncation keeps the data-availability sections that
            // live at the end of papers).
            let window = ctx
                .catalog
                .get(model)
                .map(|m| m.context_window)
                .unwrap_or(usize::MAX);
            let overhead: usize = missing
                .iter()
                .map(|f| f.name.len() / 3 + f.description.len() / 3)
                .sum();
            let budget = window.saturating_sub(overhead + 128);
            let text = rec.prompt_text();
            let text = truncate_to_tokens(&text, budget);
            let prompt = protocol::extract_prompt_with_effort(
                &missing,
                map_cardinality(cardinality),
                &text,
                effort,
            );
            let req = CompletionRequest::new(model.clone(), prompt).with_max_output_tokens(1024);
            let resp = ctx
                .retry
                .complete_with(ctx.llm.as_ref(), &req, &ctx.retry_ctx())?;
            let objs = protocol::parse_extraction_response(&resp.text);
            if objs.is_empty() && cardinality == Cardinality::OneToOne {
                vec![Default::default()]
            } else {
                objs
            }
        };

        for obj in extractions {
            let mut derived = rec.derive(ctx.next_id());
            for f in &target.fields {
                // Prefer carried-over input values; fill the rest from the
                // extraction, parsed to the declared type.
                if let Some(v) = rec.get(&f.name) {
                    if !v.is_null() {
                        derived.set(f.name.clone(), v.clone());
                        continue;
                    }
                }
                let value = match obj.get(&f.name) {
                    Some(Some(raw)) => Value::parse_as(raw, f.field_type),
                    _ => Value::Null,
                };
                derived.set(f.name.clone(), value);
            }
            out.push(derived);
        }
    }
    Ok(out)
}

/// Field-wise ("conventional") convert: one focused LLM call per missing
/// field per record. One-to-many outputs are zipped positionally across
/// the per-field result lists — the alignment fragility this strategy is
/// known for is real here, because each call independently decides how
/// many objects it saw.
pub fn llm_convert_fieldwise(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    target: &Schema,
    cardinality: Cardinality,
    model: &ModelId,
    effort: Effort,
) -> PzResult<Vec<DataRecord>> {
    let mut out = Vec::new();
    for rec in &input {
        let missing: Vec<&crate::field::FieldDef> = target
            .fields
            .iter()
            .filter(|f| rec.get(&f.name).is_none_or(|v| v.is_null()))
            .collect();
        if missing.is_empty() {
            let mut derived = rec.derive(ctx.next_id());
            for f in &target.fields {
                derived.set(
                    f.name.clone(),
                    rec.get(&f.name).cloned().unwrap_or(Value::Null),
                );
            }
            out.push(derived);
            continue;
        }
        let window = ctx
            .catalog
            .get(model)
            .map(|m| m.context_window)
            .unwrap_or(usize::MAX);
        // One call per field; collect each field's extracted value list.
        let mut per_field: Vec<(String, Vec<Option<String>>)> = Vec::with_capacity(missing.len());
        for f in &missing {
            let spec = vec![FieldSpec::new(f.name.clone(), f.description.clone())];
            let budget = window.saturating_sub(f.name.len() / 3 + f.description.len() / 3 + 128);
            let text = rec.prompt_text();
            let text = truncate_to_tokens(&text, budget);
            let prompt = protocol::extract_prompt_with_effort(
                &spec,
                map_cardinality(cardinality),
                &text,
                effort,
            );
            let req = CompletionRequest::new(model.clone(), prompt).with_max_output_tokens(1024);
            let resp = ctx
                .retry
                .complete_with(ctx.llm.as_ref(), &req, &ctx.retry_ctx())?;
            let objs = protocol::parse_extraction_response(&resp.text);
            let values: Vec<Option<String>> = objs
                .into_iter()
                .map(|mut o| o.remove(&f.name).flatten())
                .collect();
            per_field.push((f.name.clone(), values));
        }
        // Zip positionally: the i-th value of every field belongs to the
        // i-th output object.
        let n_out = match cardinality {
            Cardinality::OneToOne => 1,
            Cardinality::OneToMany => per_field.iter().map(|(_, v)| v.len()).max().unwrap_or(0),
        };
        for i in 0..n_out {
            let mut derived = rec.derive(ctx.next_id());
            for f in &target.fields {
                if let Some(v) = rec.get(&f.name) {
                    if !v.is_null() {
                        derived.set(f.name.clone(), v.clone());
                        continue;
                    }
                }
                let raw = per_field
                    .iter()
                    .find(|(name, _)| name == &f.name)
                    .and_then(|(_, vals)| vals.get(i).cloned().flatten());
                let value = match raw {
                    Some(r) => Value::parse_as(&r, f.field_type),
                    None => Value::Null,
                };
                derived.set(f.name.clone(), value);
            }
            out.push(derived);
        }
        if n_out == 0 && cardinality == Cardinality::OneToOne {
            let mut derived = rec.derive(ctx.next_id());
            for f in &target.fields {
                derived.set(f.name.clone(), Value::Null);
            }
            out.push(derived);
        }
    }
    Ok(out)
}

fn map_cardinality(c: Cardinality) -> protocol::Cardinality {
    match c {
        Cardinality::OneToOne => protocol::Cardinality::OneToOne,
        Cardinality::OneToMany => protocol::Cardinality::OneToMany,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{FieldDef, FieldType};

    fn clinical() -> Schema {
        Schema::new(
            "ClinicalData",
            "A schema for extracting clinical data datasets from papers.",
            vec![
                FieldDef::text("name", "The name of the clinical data dataset"),
                FieldDef::text(
                    "description",
                    "A short description of the content of the dataset",
                ),
                FieldDef::text("url", "The public URL where the dataset can be accessed"),
            ],
        )
        .unwrap()
    }

    const PAPER: &str = "Title: Colorectal study\n\
        Abstract: We analyze colorectal cancer tumors.\n\
        Dataset: TCGA-COADREAD\n\
        Description: Colorectal adenocarcinoma multi omics cohort\n\
        URL: https://portal.gdc.cancer.gov/projects/TCGA-COADREAD\n";

    fn paper_record(ctx: &PzContext) -> DataRecord {
        DataRecord::new(ctx.next_id())
            .with_field("filename", "p.pdf")
            .with_field("contents", PAPER)
    }

    #[test]
    fn convert_extracts_missing_fields() {
        let ctx = PzContext::simulated();
        let rec = paper_record(&ctx);
        let out = llm_convert(
            &ctx,
            vec![rec],
            &clinical(),
            Cardinality::OneToMany,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("name").unwrap().as_text(), Some("TCGA-COADREAD"));
        assert_eq!(
            out[0].get("url").unwrap().as_text(),
            Some("https://portal.gdc.cancer.gov/projects/TCGA-COADREAD")
        );
    }

    #[test]
    fn convert_tracks_lineage() {
        let ctx = PzContext::simulated();
        let rec = paper_record(&ctx);
        let parent = rec.id;
        let out = llm_convert(
            &ctx,
            vec![rec],
            &clinical(),
            Cardinality::OneToMany,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out[0].lineage, vec![parent]);
    }

    #[test]
    fn one_to_many_yields_multiple_records() {
        let ctx = PzContext::simulated();
        let doc = "Dataset: Alpha\nURL: https://alpha.example.org/data\n\
                   Dataset: Beta\nURL: https://beta.example.org/data\n";
        let rec = DataRecord::new(ctx.next_id()).with_field("contents", doc);
        let schema = Schema::new(
            "D",
            "",
            vec![
                FieldDef::text("dataset_name", "The dataset name"),
                FieldDef::text("url", "The public URL"),
            ],
        )
        .unwrap();
        let out = llm_convert(
            &ctx,
            vec![rec],
            &schema,
            Cardinality::OneToMany,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn one_to_one_always_yields_one() {
        let ctx = PzContext::simulated();
        let rec = DataRecord::new(ctx.next_id()).with_field("contents", "unstructured prose");
        let schema = Schema::new(
            "S",
            "",
            vec![FieldDef::text("missing_thing", "does not exist")],
        )
        .unwrap();
        let out = llm_convert(
            &ctx,
            vec![rec],
            &schema,
            Cardinality::OneToOne,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].get("missing_thing").unwrap().is_null());
    }

    #[test]
    fn existing_fields_carry_over_without_llm() {
        let ctx = PzContext::simulated();
        let rec = DataRecord::new(ctx.next_id())
            .with_field("name", "KnownName")
            .with_field("url", "https://known.example.org");
        let schema = Schema::new(
            "S",
            "",
            vec![FieldDef::text("name", "name"), FieldDef::text("url", "url")],
        )
        .unwrap();
        let out = llm_convert(
            &ctx,
            vec![rec],
            &schema,
            Cardinality::OneToOne,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out[0].get("name").unwrap().as_text(), Some("KnownName"));
        // All fields present => no LLM call at all.
        assert_eq!(ctx.ledger.total_requests(), 0);
    }

    #[test]
    fn typed_fields_parse() {
        let ctx = PzContext::simulated();
        let rec = DataRecord::new(ctx.next_id())
            .with_field("contents", "Price: 125000\nAddress: 1 Main St\n");
        let schema = Schema::new(
            "L",
            "",
            vec![
                FieldDef::typed("price", FieldType::Int, "The listing price"),
                FieldDef::text("address", "The street address"),
            ],
        )
        .unwrap();
        let out = llm_convert(
            &ctx,
            vec![rec],
            &schema,
            Cardinality::OneToOne,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out[0].get("price").unwrap().as_int(), Some(125_000));
        assert_eq!(out[0].get("address").unwrap().as_text(), Some("1 Main St"));
    }

    #[test]
    fn fieldwise_convert_extracts_per_field() {
        let ctx = PzContext::simulated();
        let rec = paper_record(&ctx);
        let out = llm_convert_fieldwise(
            &ctx,
            vec![rec],
            &clinical(),
            Cardinality::OneToMany,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("name").unwrap().as_text(), Some("TCGA-COADREAD"));
        // Three missing fields => three LLM calls for one record.
        assert_eq!(ctx.ledger.total_requests(), 3);
    }

    #[test]
    fn fieldwise_costs_more_than_bonded() {
        // On realistic (long) documents the per-field input repetition
        // dominates; tiny docs would hide it behind output-token pricing.
        let long_doc = format!("{}{}", "background prose filler. ".repeat(400), PAPER);
        let mk = |fieldwise: bool| {
            let ctx = PzContext::simulated();
            let rec = DataRecord::new(ctx.next_id())
                .with_field("filename", "p.pdf")
                .with_field("contents", long_doc.clone());
            if fieldwise {
                llm_convert_fieldwise(
                    &ctx,
                    vec![rec],
                    &clinical(),
                    Cardinality::OneToMany,
                    &"gpt-4o".into(),
                    Effort::Standard,
                )
                .unwrap();
            } else {
                llm_convert(
                    &ctx,
                    vec![rec],
                    &clinical(),
                    Cardinality::OneToMany,
                    &"gpt-4o".into(),
                    Effort::Standard,
                )
                .unwrap();
            }
            ctx.ledger.total_cost_usd()
        };
        assert!(mk(true) > mk(false) * 2.0, "fieldwise must pay per field");
    }

    #[test]
    fn fieldwise_one_to_one_always_one_output() {
        let ctx = PzContext::simulated();
        let rec = DataRecord::new(ctx.next_id()).with_field("contents", "plain prose");
        let schema = Schema::new("S", "", vec![FieldDef::text("ghost_field", "nothing")]).unwrap();
        let out = llm_convert_fieldwise(
            &ctx,
            vec![rec],
            &schema,
            Cardinality::OneToOne,
            &"gpt-4o".into(),
            Effort::Standard,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].get("ghost_field").unwrap().is_null());
    }

    #[test]
    fn weak_model_extracts_worse() {
        // Aggregate over many records: the weak model must produce more
        // null/corrupted fields than the champion.
        let ctx = PzContext::simulated();
        let schema = clinical();
        let mut strong_good = 0usize;
        let mut weak_good = 0usize;
        let n = 60;
        for i in 0..n {
            let doc = format!(
                "Dataset: DS-{i}\nDescription: cohort number {i}\nURL: https://data.example.org/{i}\n"
            );
            let mk = |m: &str| {
                let rec = DataRecord::new(ctx.next_id()).with_field("contents", doc.clone());
                let out = llm_convert(
                    &ctx,
                    vec![rec],
                    &schema,
                    Cardinality::OneToMany,
                    &m.into(),
                    Effort::Standard,
                )
                .unwrap();
                out.first().is_some_and(|r| {
                    r.get("name").unwrap().as_text() == Some(&format!("DS-{i}"))
                        && r.get("url").unwrap().as_text()
                            == Some(&format!("https://data.example.org/{i}"))
                })
            };
            if mk("gpt-4o") {
                strong_good += 1;
            }
            if mk("llama-3-8b") {
                weak_good += 1;
            }
        }
        assert!(
            strong_good > weak_good,
            "strong {strong_good} vs weak {weak_good}"
        );
    }
}
