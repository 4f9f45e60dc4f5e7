//! Record identity, kept for the benchmark's `core.memo.identity_ns`
//! cell. Re-runs over an edited dataset are served by the response cache
//! (`PzContext::with_cache`): an unchanged record repeats its prompts
//! verbatim and bills nothing, a changed one misses and bills.

use crate::record::DataRecord;
use pz_llm::stable_hash;

/// Content hash over a record's fields-only JSON; ids and lineage are
/// left out.
pub fn record_identity(rec: &DataRecord) -> u64 {
    let json = serde_json::to_string(&rec.to_json()).unwrap_or_default();
    stable_hash(&[&json])
}

#[cfg(test)]
mod tests {
    use crate::context::PzContext;
    use crate::datasource::VersionedSource;
    use crate::exec::{execute_plan, ExecutionConfig};
    use crate::field::FieldDef;
    use crate::ops::logical::Cardinality;
    use crate::ops::physical::{PhysicalOp, PhysicalPlan};
    use crate::record::DataRecord;
    use crate::schema::Schema;
    use pz_llm::protocol::Effort;
    use std::sync::Arc;

    fn versioned_ctx() -> (PzContext, Arc<VersionedSource>) {
        let ctx = PzContext::simulated().with_cache();
        let (docs, _) = pz_datagen::science::demo_corpus();
        let items: Vec<(String, String)> =
            docs.into_iter().map(|d| (d.filename, d.content)).collect();
        let src = Arc::new(VersionedSource::new(
            "sigmod-demo",
            Schema::pdf_file(),
            items,
        ));
        ctx.registry.register(src.clone());
        (ctx, src)
    }

    fn clinical() -> Schema {
        Schema::new(
            "ClinicalData",
            "datasets in papers",
            vec![
                FieldDef::text("name", "The name of the clinical data dataset"),
                FieldDef::text("url", "The public URL where the dataset can be accessed"),
            ],
        )
        .unwrap()
    }

    fn demo_plan() -> PhysicalPlan {
        PhysicalPlan {
            ops: vec![
                PhysicalOp::Scan {
                    dataset: "sigmod-demo".into(),
                },
                PhysicalOp::LlmFilter {
                    predicate: "The papers are about colorectal cancer".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
                PhysicalOp::LlmConvert {
                    target: clinical(),
                    cardinality: Cardinality::OneToMany,
                    description: "extract datasets".into(),
                    model: "gpt-4o".into(),
                    effort: Effort::Standard,
                },
            ],
        }
    }

    fn multiset(records: &[DataRecord]) -> Vec<String> {
        let mut v: Vec<String> = records
            .iter()
            .map(|r| serde_json::to_string(&r.to_json()).unwrap())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn identical_rerun_bills_zero_calls() {
        let config = ExecutionConfig::sequential();
        let (ctx, _src) = versioned_ctx();
        let (rec1, stats1) = execute_plan(&ctx, &demo_plan(), config).unwrap();
        let calls1 = ctx.ledger.total_requests();
        assert!(calls1 > 0);
        assert_eq!(stats1.memo_hits, 0, "first run hit an empty cache");
        ctx.reset_accounting();
        let (rec2, stats2) = execute_plan(&ctx, &demo_plan(), config).unwrap();
        assert_eq!(ctx.ledger.total_requests(), 0, "re-run re-billed calls");
        assert_eq!(multiset(&rec1), multiset(&rec2));
        assert!(stats2.memo_hits > 0);
    }

    #[test]
    fn append_one_record_bills_o1_calls() {
        let config = ExecutionConfig::sequential();
        let (ctx, src) = versioned_ctx();
        let (_, _) = execute_plan(&ctx, &demo_plan(), config).unwrap();
        let v = src.append(
            "delta-000.pdf",
            "Delta document. A colorectal cancer cohort using the FunkyData registry at https://example.org/funky.",
        );
        assert_eq!(v.version, 1);
        ctx.reset_accounting();
        let (rec2, _) = execute_plan(&ctx, &demo_plan(), config).unwrap();
        let delta_calls = ctx.ledger.total_requests();
        assert!(
            delta_calls <= 2,
            "append of 1 record cost {delta_calls} calls (want <= filter + convert)"
        );

        // From-scratch over the final corpus agrees on the answer.
        let scratch = PzContext::simulated();
        let (docs, _) = pz_datagen::science::demo_corpus();
        let mut items: Vec<(String, String)> =
            docs.into_iter().map(|d| (d.filename, d.content)).collect();
        items.push((
            "delta-000.pdf".into(),
            "Delta document. A colorectal cancer cohort using the FunkyData registry at https://example.org/funky.".into(),
        ));
        scratch
            .registry
            .register(Arc::new(crate::datasource::MemorySource::new(
                "sigmod-demo",
                Schema::pdf_file(),
                items,
            )));
        let (rec_f, _) = execute_plan(&scratch, &demo_plan(), config).unwrap();
        assert_eq!(multiset(&rec2), multiset(&rec_f));
        assert!(delta_calls < scratch.ledger.total_requests());
    }
}
