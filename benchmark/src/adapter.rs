//! The only file that names the engine. Everything else in `pzbench` calls
//! these functions, so a PR that renames or removes engine internals edits
//! one file — or none, if it keeps to the surface listed here.
//!
//! Engine surface used (and nothing else):
//!
//! - `PzContext::simulated()` / `.with_cache()` / `.with_incremental()`,
//!   `ctx.registry.register`, `ctx.udfs.register_filter` / `register_map`,
//!   `ctx.ledger`, `ctx.tracer`, `ctx.cache`, `ctx.llm`, `ctx.embed_model`
//! - `MemorySource`, `VersionedSource::apply`, `DatasetChange`, `Schema`,
//!   `FieldDef`, `DataRecord`, `Value`
//! - `Dataset` builder, `PhysicalPlan` / `PhysicalOp`, `Policy`,
//!   `Optimizer::optimize`, `execute`, `exec::execute_plan`,
//!   `ExecutionConfig::{sequential, streaming}` + `.with_parallelism` /
//!   `.with_incremental`, `ExecMode::Streaming { batch_size }` (read only),
//!   `ExecutionStats`, `exec::incremental::record_identity`
//! - `SimulatedLlm::with_defaults`, `TracedClient`, `CachingClient`,
//!   `LlmClient::{complete, embed}`, `CompletionRequest`, `protocol::
//!   {filter_prompt, extract_prompt}`, `tokenizer::count_tokens`, `Quota`
//! - `Tracer::{span, span_count, counter, snapshot, set_profiling}`
//! - `VectorStore::{ensure_collection, add, search}`
//! - `ServeHost::{new, add_tenant, session_ctx, run_session, scheduler,
//!   admission}`, `TenantSpec`, `SessionJob`
//! - `PalimpChat::{new, handle, session}`, `SessionState::{ctx, last_outcome}`,
//!   `archytas::template::render_template`, `codegen::CREATE_SCHEMA_TEMPLATE`
//! - `pz_datagen::stream::{doc_at, truth_at}`, `edits::edit_script`,
//!   `science::FILTER_PREDICATE`
//!
//! Deliberately *not* named, because ROADMAP items 2–3 are slated to delete
//! or rename them: `scan_chunk_size`, `ExecutionConfig::workers`,
//! `IvfIndex` / `HnswIndex`, `sort_external`, `exec::channel`. Workloads
//! run on the defaults a user gets.
//!
//! Each call into a layer's public function opens a benchmark-side span
//! (`trace::span`), which is a single relaxed load while tracing is off.

use crate::trace::span;
use pz_core::prelude::*;
use pz_llm::protocol::{self, Effort, FieldSpec};
use pz_llm::LlmClient;
use std::sync::Arc;

pub use palimpchat::PalimpChat;
pub use pz_core::prelude::{DataRecord, ExecutionStats, LogicalPlan, PhysicalPlan, PzContext};
pub use pz_datagen::edits::EditOp;
pub use pz_datagen::Document;
pub use pz_llm::{CachingClient, CompletionRequest};
pub use pz_serve::{ServeHost, SessionJob};
pub use pz_vector::VectorStore;

pub type Source = Arc<dyn pz_core::datasource::DataSource>;
pub type Client = Arc<dyn LlmClient>;

// --------------------------------------------------------------- inputs

/// Documents `0..n` of the seeded streaming corpus (`stream::doc_at`).
pub fn gen_docs(n: usize, seed: u64) -> Vec<Document> {
    let cfg = pz_datagen::stream::StreamConfig::sized(n, seed);
    (0..n)
        .map(|i| pz_datagen::stream::doc_at(&cfg, i))
        .collect()
}

/// Dataset mentions in the relevant documents of that corpus — what a
/// perfect filter + convert would extract.
pub fn truth_mentions(n: usize, seed: u64) -> usize {
    let cfg = pz_datagen::stream::StreamConfig::sized(n, seed);
    (0..n)
        .map(|i| pz_datagen::stream::truth_at(&cfg, i))
        .filter(|t| t.relevant)
        .map(|t| t.mentions.len())
        .sum()
}

fn items(docs: &[Document]) -> Vec<(String, String)> {
    docs.iter()
        .map(|d| (d.filename.clone(), d.content.clone()))
        .collect()
}

pub fn memory_source(name: &str, docs: &[Document]) -> Source {
    Arc::new(MemorySource::new(name, Schema::pdf_file(), items(docs)))
}

pub fn versioned_source(name: &str, docs: &[Document]) -> Arc<VersionedSource> {
    Arc::new(VersionedSource::new(name, Schema::pdf_file(), items(docs)))
}

pub fn edit_script(base: &[Document], seed: u64, batches: usize, ops: usize) -> Vec<Vec<EditOp>> {
    pz_datagen::edits::edit_script(base, seed, batches, ops).batches
}

/// Apply one edit batch to a versioned source.
pub fn apply_edits(source: &VersionedSource, batch: &[EditOp]) {
    let changes: Vec<DatasetChange> = batch
        .iter()
        .map(|op| match op {
            EditOp::Append(d) => DatasetChange::Append {
                filename: d.filename.clone(),
                content: d.content.clone(),
            },
            EditOp::Update { filename, content } => DatasetChange::Update {
                filename: filename.clone(),
                content: content.clone(),
            },
            EditOp::Delete { filename } => DatasetChange::Delete {
                filename: filename.clone(),
            },
        })
        .collect();
    let _s = span("source.apply");
    source.apply(&changes);
}

// ------------------------------------------------------------- contexts

pub fn new_ctx() -> PzContext {
    let _s = span("core.new_context");
    PzContext::simulated()
}

pub fn new_ctx_cached() -> PzContext {
    PzContext::simulated().with_cache()
}

pub fn register(ctx: &PzContext, source: Source) {
    ctx.registry.register(source);
}

/// Which executor drives a physical plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Drive {
    Materializing,
    Streaming,
    /// Streaming with two workers per stage.
    StreamingP2,
}

fn config(drive: Drive) -> ExecutionConfig {
    match drive {
        Drive::Materializing => ExecutionConfig::sequential(),
        Drive::Streaming => ExecutionConfig::streaming(),
        Drive::StreamingP2 => ExecutionConfig::streaming().with_parallelism(2),
    }
}

/// Records per batch the streaming executor uses by default.
pub fn streaming_batch_size() -> usize {
    match ExecutionConfig::streaming().mode {
        ExecMode::Streaming { batch_size, .. } => batch_size,
        ExecMode::Materializing => 1,
    }
}

pub fn execute_plan(
    ctx: &PzContext,
    plan: &PhysicalPlan,
    drive: Drive,
) -> (Vec<DataRecord>, ExecutionStats) {
    let _s = span("exec.execute_plan");
    pz_core::exec::execute_plan(ctx, plan, config(drive)).expect("benchmark plans never fail")
}

/// The incremental double opt-in (`PzContext::with_incremental` +
/// `ExecutionConfig::with_incremental`) lives in this one function and the
/// one below it: the PR that gives the switch one home flags these lines.
pub fn new_ctx_incremental() -> PzContext {
    PzContext::simulated().with_incremental()
}

pub fn execute_plan_incremental(
    ctx: &PzContext,
    plan: &PhysicalPlan,
) -> (Vec<DataRecord>, ExecutionStats) {
    let _s = span("exec.execute_plan");
    pz_core::exec::execute_plan(ctx, plan, ExecutionConfig::sequential().with_incremental())
        .expect("benchmark plans never fail")
}

/// Optimize + execute a logical plan under MaxQuality (`pz_core::execute`).
pub fn execute_logical(ctx: &PzContext, plan: &LogicalPlan) -> (Vec<DataRecord>, ExecutionStats) {
    let _s = span("core.execute");
    let out = execute(
        ctx,
        plan,
        &Policy::MaxQuality,
        ExecutionConfig::sequential(),
    )
    .expect("benchmark plans never fail");
    (out.records, out.stats)
}

/// `(plans considered)` for one optimizer run under MaxQuality.
pub fn optimize(ctx: &PzContext, plan: &LogicalPlan) -> usize {
    let _s = span("optimizer.optimize");
    let (_, _, report) = Optimizer::default()
        .optimize(ctx, plan, &Policy::MaxQuality)
        .expect("benchmark plans are valid");
    report.plans_considered
}

pub fn ledger_requests(ctx: &PzContext) -> usize {
    ctx.ledger.total_requests()
}

pub fn ledger_cost(ctx: &PzContext) -> f64 {
    ctx.ledger.total_cost_usd()
}

pub fn span_count(ctx: &PzContext) -> usize {
    ctx.tracer.span_count()
}

pub fn counter(ctx: &PzContext, name: &str) -> u64 {
    ctx.tracer.counter(name)
}

pub fn set_profiling(ctx: &PzContext, on: bool) {
    ctx.tracer.set_profiling(on);
}

/// Serialize the context's whole trace as JSONL; returns its length.
pub fn trace_jsonl_len(ctx: &PzContext) -> usize {
    let _s = span("obs.snapshot_jsonl");
    ctx.tracer.snapshot().to_jsonl().len()
}

/// One `pz-obs` span the way the engine's layers use it: open, two
/// attributes, finish.
pub fn obs_span(ctx: &PzContext) {
    let s = ctx.tracer.span(pz_obs::Layer::Executor, "op:bench");
    s.set_attr("model", "gpt-4o");
    s.set_attr("records", "1");
    s.finish();
}

// ---------------------------------------------------------------- plans

fn clinical_schema() -> Schema {
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
    .expect("static schema is valid")
}

fn llm_filter() -> PhysicalOp {
    PhysicalOp::LlmFilter {
        predicate: pz_datagen::science::FILTER_PREDICATE.into(),
        model: "gpt-4o".into(),
        effort: Effort::Standard,
    }
}

fn scan(dataset: &str) -> PhysicalOp {
    PhysicalOp::Scan {
        dataset: dataset.into(),
    }
}

/// The paper's §3 pipeline as a fixed physical plan:
/// Scan → LLMFilter[gpt-4o] → LLMConvert[ClinicalData, llama-3-70b].
/// `ops` keeps only the first `ops` operators (prefix differencing).
pub fn extract_plan(dataset: &str, ops: usize) -> PhysicalPlan {
    let mut all = vec![
        scan(dataset),
        llm_filter(),
        PhysicalOp::LlmConvert {
            target: clinical_schema(),
            cardinality: Cardinality::OneToMany,
            description: "extract datasets".into(),
            model: "llama-3-70b".into(),
            effort: Effort::Standard,
        },
    ];
    all.truncate(ops);
    PhysicalPlan { ops: all }
}

/// The same pipeline as a logical plan, for the optimizer and the sessions
/// of `serve`.
pub fn extract_logical(dataset: &str) -> LogicalPlan {
    Dataset::source(dataset)
        .filter(pz_datagen::science::FILTER_PREDICATE)
        .convert(
            clinical_schema(),
            Cardinality::OneToMany,
            "extract datasets",
        )
        .build()
        .expect("static plan is valid")
}

/// Four chained semantic filters (the optimizer's plan space grows with
/// every semantic operator).
pub fn chain4_logical(dataset: &str) -> LogicalPlan {
    Dataset::source(dataset)
        .filter("The papers are about colorectal cancer")
        .filter("The papers use a public dataset")
        .filter("The papers report a clinical trial")
        .filter("The papers were published after 2015")
        .build()
        .expect("static plan is valid")
}

const KEEP_HALF: &str = "keep_half";
const KEEP_ALL: &str = "keep_all";
const LEN_BUCKET: &str = "len_bucket";
pub const BUCKET_WIDTH: i64 = 200;

/// The filter `relational` keeps a record by (about half of them).
pub fn keeps(filename: &str) -> bool {
    pz_llm::stable_hash(&[filename]).is_multiple_of(2)
}

/// Register the UDFs the LLM-free plans use.
pub fn register_udfs(ctx: &PzContext) {
    ctx.udfs.register_filter(KEEP_HALF, |r| {
        r.get("filename")
            .and_then(|v| v.as_text())
            .is_some_and(keeps)
    });
    ctx.udfs.register_filter(KEEP_ALL, |_| true);
    ctx.udfs.register_map(LEN_BUCKET, |r| {
        let len = r
            .get("contents")
            .and_then(|v| v.as_text())
            .map_or(0, |s| s.len()) as i64;
        let mut out = r.clone();
        out.set("len", len);
        out.set("bucket", len / BUCKET_WIDTH);
        out
    });
}

/// No LLM: Scan → UdfFilter(~50%) → UdfMap(len, bucket) → Sort(len desc)
/// → Aggregate(by bucket: count, avg len); `ops` truncates as above.
pub fn relational_plan(dataset: &str, ops: usize) -> PhysicalPlan {
    let mut all = vec![
        scan(dataset),
        PhysicalOp::UdfFilter {
            udf: KEEP_HALF.into(),
        },
        PhysicalOp::Map {
            udf: LEN_BUCKET.into(),
        },
        PhysicalOp::Sort {
            field: "len".into(),
            descending: true,
        },
        PhysicalOp::Aggregate {
            group_by: vec!["bucket".into()],
            aggs: vec![
                AggExpr::new(AggFunc::Count, "", "n"),
                AggExpr::new(AggFunc::Avg, "len", "avg_len"),
            ],
        },
    ];
    all.truncate(ops);
    PhysicalPlan { ops: all }
}

/// Scan → keep-all UdfFilter: the executor's own per-record cost.
pub fn passthrough_plan(dataset: &str) -> PhysicalPlan {
    PhysicalPlan {
        ops: vec![
            scan(dataset),
            PhysicalOp::UdfFilter {
                udf: KEEP_ALL.into(),
            },
        ],
    }
}

pub const RETRIEVE_QUERY: &str = "colorectal cancer cohort with a public genomic dataset";
pub const RETRIEVE_K: usize = 50;

/// Scan → Retrieve(k=50) → LLMFilter; `ops` truncates as above.
pub fn retrieve_plan(ctx: &PzContext, dataset: &str, ops: usize) -> PhysicalPlan {
    let mut all = vec![
        scan(dataset),
        PhysicalOp::Retrieve {
            query: RETRIEVE_QUERY.into(),
            k: RETRIEVE_K,
            model: ctx.embed_model.clone(),
        },
        llm_filter(),
    ];
    all.truncate(ops);
    PhysicalPlan { ops: all }
}

// -------------------------------------------------------------- records

/// Field values of a record as one canonical string (ids and lineage
/// depend on allocation order, so they are left out).
pub fn record_key(r: &DataRecord) -> String {
    serde_json::to_string(&r.to_json()).expect("a JSON value always serializes")
}

/// Sorted keys: equal multisets compare equal.
pub fn multiset(records: &[DataRecord]) -> Vec<String> {
    let mut keys: Vec<String> = records.iter().map(record_key).collect();
    keys.sort_unstable();
    keys
}

pub fn filename(r: &DataRecord) -> &str {
    r.get("filename").and_then(|v| v.as_text()).unwrap_or("")
}

pub fn field_f64(r: &DataRecord, name: &str) -> f64 {
    r.get(name).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

/// A source-shaped record (what `Scan` emits for one document).
pub fn sample_record(doc: &Document) -> DataRecord {
    DataRecord::new(1)
        .with_field("filename", doc.filename.as_str())
        .with_field("contents", doc.content.as_str())
}

pub fn record_derive(r: &DataRecord, id: u64) -> DataRecord {
    r.derive(id)
}

/// Serialize to JSON text and parse back.
pub fn record_json_roundtrip(r: &DataRecord) -> DataRecord {
    let text = serde_json::to_string(r).expect("records serialize");
    serde_json::from_str(&text).expect("records round-trip")
}

pub fn record_identity(r: &DataRecord) -> u64 {
    pz_core::exec::incremental::record_identity(r)
}

// ------------------------------------------------------------------ llm

pub fn count_tokens(text: &str) -> usize {
    pz_llm::tokenizer::count_tokens(text)
}

/// The bare simulator: no tracing, no cache.
pub fn raw_sim() -> Client {
    Arc::new(pz_llm::SimulatedLlm::with_defaults())
}

/// `client` behind the per-call span wrapper every context installs.
pub fn traced(client: Client) -> Client {
    let tracer = pz_obs::Tracer::new(Arc::new(pz_llm::VirtualClock::new()));
    Arc::new(pz_llm::TracedClient::new(client, tracer))
}

pub fn cached(client: Client) -> CachingClient {
    CachingClient::new(client)
}

pub fn filter_request(text: &str) -> CompletionRequest {
    CompletionRequest::new(
        "gpt-4o",
        protocol::filter_prompt(pz_datagen::science::FILTER_PREDICATE, text),
    )
}

pub fn extract_request(text: &str) -> CompletionRequest {
    let fields: Vec<FieldSpec> = clinical_schema()
        .fields
        .iter()
        .map(|f| FieldSpec::new(f.name.as_str(), f.description.as_str()))
        .collect();
    CompletionRequest::new(
        "llama-3-70b",
        protocol::extract_prompt(&fields, protocol::Cardinality::OneToMany, text),
    )
}

pub fn complete(client: &dyn LlmClient, req: &CompletionRequest) -> usize {
    let _s = span("llm.complete");
    client
        .complete(req)
        .expect("the fault-free simulator never fails")
        .text
        .len()
}

/// Embed texts with the context's default embedding model.
pub fn embed(ctx: &PzContext, texts: Vec<String>) -> Vec<Vec<f32>> {
    let _s = span("llm.embed");
    ctx.llm
        .embed(&pz_llm::EmbeddingRequest {
            model: ctx.embed_model.clone(),
            inputs: texts,
        })
        .expect("the fault-free simulator never fails")
        .vectors
}

/// Completion hits ÷ lookups of the context's cache (0 without a cache).
pub fn cache_hit_ratio(ctx: &PzContext) -> f64 {
    ctx.cache
        .as_ref()
        .map_or(0.0, |c| c.stats().completion_hit_rate())
}

// --------------------------------------------------------------- vector

pub fn vector_collection(store: &VectorStore, name: &str, dim: usize) {
    store.ensure_collection(name, dim, pz_vector::Metric::Cosine);
}

pub fn vector_add(store: &VectorStore, name: &str, v: &[f32], payload: usize) {
    let _s = span("vector.add");
    store
        .add(name, v, payload.to_string())
        .expect("collection exists with this dimension");
}

/// Payloads (insert positions) of the top-`k` hits.
pub fn vector_search(store: &VectorStore, name: &str, q: &[f32], k: usize) -> Vec<usize> {
    let _s = span("vector.search");
    store
        .search(name, q, k)
        .expect("collection exists with this dimension")
        .iter()
        .filter_map(|h| h.payload.parse().ok())
        .collect()
}

pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    pz_llm::embedding::cosine(a, b)
}

// ---------------------------------------------------------------- serve

/// Tenants of the `serve` workload: (id, scheduler weight).
pub const TENANTS: [(&str, f64); 4] = [("t0", 1.0), ("t1", 1.0), ("t2", 2.0), ("t3", 4.0)];
/// The one tenant with a request budget.
pub const QUOTA_TENANT: &str = "t2";

/// A host with the four tenants, shared cache on, 2 run slots + 4 queued.
pub fn serve_host(quota_requests: usize) -> ServeHost {
    let mut host = ServeHost::new(pz_serve::ServeConfig {
        admission: pz_serve::AdmissionConfig {
            max_concurrent_runs: 2,
            max_queued: 4,
            ..Default::default()
        },
        shared_cache: true,
    });
    for (i, (id, weight)) in TENANTS.iter().enumerate() {
        let mut spec = pz_serve::TenantSpec::new(*id)
            .with_weight(*weight)
            .with_seed(3000 + i as u64);
        if *id == QUOTA_TENANT {
            spec = spec.with_quota(pz_llm::Quota::request_limit(quota_requests));
        }
        host.add_tenant(spec);
    }
    host
}

pub fn tenant_ctx(host: &ServeHost, tenant: &str) -> PzContext {
    host.session_ctx(tenant).expect("tenant was provisioned")
}

/// Start the tenant's next billing period: usage back to zero, quota kept.
pub fn reset_tenant_ledger(host: &ServeHost, tenant: &str) {
    tenant_ctx(host, tenant).ledger.reset();
}

pub fn session_job(tenant: &str, dataset: &str) -> SessionJob {
    SessionJob::new(tenant, dataset, extract_logical(dataset))
}

/// What a session came to.
pub enum SessionEnd {
    Completed,
    /// Flagged partial result: the tenant's budget ran out mid-run.
    Truncated,
    /// Refused by admission control.
    Shed,
    Failed,
}

pub fn run_session(host: &ServeHost, job: SessionJob) -> SessionEnd {
    let _s = span("serve.run_session");
    let outcome = host.run_session(job);
    match &outcome.result {
        Ok(o) if o.stats.quota_exhausted => SessionEnd::Truncated,
        Ok(_) => SessionEnd::Completed,
        Err(_) if outcome.shed() => SessionEnd::Shed,
        Err(_) => SessionEnd::Failed,
    }
}

pub fn scheduler_granted(host: &ServeHost) -> u64 {
    host.scheduler().stats().granted
}

pub fn admission_shed(host: &ServeHost) -> u64 {
    let s = host.admission().stats();
    s.shed_queue_full + s.shed_deadline
}

// ----------------------------------------------------------------- chat

pub fn new_chat() -> PalimpChat {
    let _s = span("chat.new_session");
    PalimpChat::new()
}

/// One chat turn; returns (reply, agent steps taken).
pub fn chat_turn(chat: &mut PalimpChat, utterance: &str) -> (String, usize) {
    let _s = span("chat.handle");
    let r = chat.handle(utterance).expect("demo utterances are handled");
    (r.reply, r.trace.steps.len())
}

/// Records the session's last pipeline run produced.
pub fn chat_output_records(chat: &PalimpChat) -> usize {
    chat.session()
        .lock()
        .last_outcome
        .as_ref()
        .map_or(0, |o| o.records.len())
}

pub fn chat_ctx(chat: &PalimpChat) -> PzContext {
    chat.session().lock().ctx.clone()
}

/// Render the Figure 2 `create_schema` tool template once.
pub fn render_template() -> usize {
    use serde_json::json;
    let mut vars = archytas::template::Bindings::new();
    vars.insert("schema_name".into(), json!("ClinicalData"));
    vars.insert(
        "schema_description".into(),
        json!("A schema for extracting clinical data datasets from papers."),
    );
    vars.insert("field_names".into(), json!(["name", "description", "url"]));
    archytas::template::render_template(palimpchat::codegen::CREATE_SCHEMA_TEMPLATE, &vars)
        .expect("the shipped template renders")
        .len()
}
