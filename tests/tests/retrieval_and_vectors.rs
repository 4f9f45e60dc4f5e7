//! Integration: the Retrieve operator and the embedding substrate inside
//! full pipelines (the intro's "vector databases" leg), checked against
//! `pz-vector`'s exact flat index.

use pz_core::prelude::*;
use pz_datagen::science::{self, ScienceConfig};
use std::sync::Arc;

fn big_science_ctx(n: usize) -> PzContext {
    let ctx = PzContext::simulated();
    let (docs, _) = science::generate(ScienceConfig {
        n_papers: n,
        ..Default::default()
    });
    let items: Vec<(String, String)> = docs.into_iter().map(|d| (d.filename, d.content)).collect();
    ctx.registry.register(Arc::new(MemorySource::new(
        "sci",
        Schema::pdf_file(),
        items,
    )));
    ctx
}

#[test]
fn retrieve_narrows_before_expensive_filter() {
    let ctx = big_science_ctx(40);
    // RAG-style: semantic top-10 narrowing, then the LLM filter only sees
    // 10 records instead of 40.
    let plan = Dataset::source("sci")
        .retrieve("colorectal cancer tumor genomic mutation", 10)
        .filter(science::FILTER_PREDICATE)
        .build()
        .unwrap();
    let outcome = execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let retrieve_stats = &outcome.stats.operators[1];
    let filter_stats = &outcome.stats.operators[2];
    assert_eq!(retrieve_stats.output_records, 10);
    assert_eq!(
        filter_stats.llm_calls, 10,
        "filter must only see the retrieved subset"
    );
    // Retrieval should be topical: most retrieved records pass the filter.
    assert!(
        filter_stats.output_records >= 5,
        "{}",
        filter_stats.output_records
    );
}

#[test]
fn retrieve_is_cheaper_than_filtering_everything() {
    let ctx1 = big_science_ctx(40);
    let narrowed = Dataset::source("sci")
        .retrieve("colorectal cancer tumor genomic mutation", 10)
        .filter(science::FILTER_PREDICATE)
        .build()
        .unwrap();
    let o1 = execute(
        &ctx1,
        &narrowed,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();

    let ctx2 = big_science_ctx(40);
    let full = Dataset::source("sci")
        .filter(science::FILTER_PREDICATE)
        .build()
        .unwrap();
    let o2 = execute(
        &ctx2,
        &full,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    assert!(
        o1.stats.total_cost_usd < o2.stats.total_cost_usd / 2.0,
        "narrowed {} vs full {}",
        o1.stats.total_cost_usd,
        o2.stats.total_cost_usd
    );
}

/// One `Retrieve` over 8,292 records — past the 8,192 rows at which a
/// vector store once started counting scans toward an HNSW graph, and
/// about the size of pzbench `retrieve`'s load. The output is exactly a
/// flat index's top-k, and no vector-layer event is recorded.
#[test]
fn retrieve_past_hnsw_threshold_is_exact_and_builds_nothing() {
    use pz_llm::EmbeddingRequest;
    use pz_vector::{FlatIndex, Metric};
    const N: usize = 8_292;
    const K: usize = 25;
    let topics = ["colorectal tumor", "galaxy redshift", "battery cathode"];
    let docs: Vec<(String, String)> = (0..N)
        .map(|i| {
            let text = format!("{} note {i} batch {}", topics[i % 3], i * 7);
            (format!("note-{i}.pdf"), text)
        })
        .collect();
    let ctx = PzContext::simulated();
    ctx.registry.register(Arc::new(MemorySource::new(
        "notes",
        Schema::pdf_file(),
        docs.clone(),
    )));
    let query = "colorectal tumor note 4242";
    let plan = Dataset::source("notes").retrieve(query, K).build().unwrap();
    let outcome = execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();

    let mut inputs = vec![query.to_string()];
    inputs.extend(docs.iter().map(|(_, text)| text.clone()));
    let req = EmbeddingRequest {
        model: ctx.embed_model.clone(),
        inputs,
    };
    let vectors = ctx.llm.embed(&req).unwrap().vectors;
    let mut flat = FlatIndex::new(vectors[0].len(), Metric::Cosine);
    for v in &vectors[1..] {
        flat.add(v);
    }
    let mut nearest: Vec<u64> = flat.search(&vectors[0], K).iter().map(|s| s.id).collect();
    nearest.sort_unstable();
    let want: Vec<&str> = nearest
        .iter()
        .map(|&i| docs[i as usize].0.as_str())
        .collect();
    let got: Vec<&str> = outcome
        .records
        .iter()
        .map(|r| r.get("filename").and_then(|v| v.as_text()).unwrap())
        .collect();
    assert_eq!(got, want);
    let events = ctx.tracer.snapshot().events;
    assert!(
        events.iter().all(|e| e.layer != pz_obs::Layer::Vector),
        "the store recorded index work"
    );
}

/// Equal scores go to the lower input position: six copies of the
/// best-matching text, and `k` cuts through them. `Retrieve` keeps the
/// four lowest copies, as a flat index does.
#[test]
fn retrieve_ties_keep_the_lowest_input_positions() {
    use pz_llm::EmbeddingRequest;
    use pz_vector::{FlatIndex, Metric};
    const K: usize = 4;
    let query = "colorectal tumor cohort";
    let texts: Vec<String> = (0..12)
        .map(|i| match i % 2 {
            1 => query.to_string(),
            _ => format!("galaxy redshift survey {i}"),
        })
        .collect();
    let ctx = PzContext::simulated();
    ctx.registry.register(Arc::new(MemorySource::from_texts(
        "ties",
        Schema::text_file(),
        texts.clone(),
    )));
    let plan = Dataset::source("ties").retrieve(query, K).build().unwrap();
    let outcome = execute(
        &ctx,
        &plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .unwrap();
    let got: Vec<&str> = outcome
        .records
        .iter()
        .map(|r| r.get("filename").and_then(|v| v.as_text()).unwrap())
        .collect();
    assert_eq!(
        got,
        [
            "item-0001.txt",
            "item-0003.txt",
            "item-0005.txt",
            "item-0007.txt"
        ]
    );

    let mut inputs = vec![query.to_string()];
    inputs.extend(texts);
    let req = EmbeddingRequest {
        model: ctx.embed_model.clone(),
        inputs,
    };
    let vectors = ctx.llm.embed(&req).unwrap().vectors;
    let mut flat = FlatIndex::new(vectors[0].len(), Metric::Cosine);
    for v in &vectors[1..] {
        flat.add(v);
    }
    let mut nearest: Vec<u64> = flat.search(&vectors[0], K).iter().map(|s| s.id).collect();
    nearest.sort_unstable();
    assert_eq!(nearest, [1, 3, 5, 7]);
}

#[test]
fn embedding_filter_agrees_with_topics_at_scale() {
    let ctx = big_science_ctx(60);
    let plan = PhysicalPlan {
        ops: vec![
            PhysicalOp::Scan {
                dataset: "sci".into(),
            },
            PhysicalOp::EmbeddingFilter {
                predicate: "colorectal cancer tumor genomic mutation cohort".into(),
                model: "text-embedding-3-small".into(),
                threshold: 0.30,
            },
        ],
    };
    let (records, stats) =
        pz_core::exec::execute_plan(&ctx, &plan, ExecutionConfig::sequential()).unwrap();
    // Embedding filtering is imperfect but must be topical: the majority of
    // kept records mention colorectal vocabulary.
    let relevant = records
        .iter()
        .filter(|r| r.prompt_text().to_lowercase().contains("colorectal"))
        .count();
    assert!(
        relevant * 2 >= records.len(),
        "{relevant} of {} kept records are on-topic",
        records.len()
    );
    // And it is nearly free compared to LLM filtering.
    assert!(stats.total_cost_usd < 0.01, "{}", stats.total_cost_usd);
}
