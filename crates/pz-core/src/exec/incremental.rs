//! Incremental (delta-driven) re-execution.
//!
//! PalimpChat sessions iterate on evolving datasets: a user appends a few
//! records, tweaks one document, re-runs the same pipeline. A from-scratch
//! executor re-bills every LLM call for records whose answers cannot have
//! changed. This module generalizes the exact-match LLM response cache
//! (`pz_llm::CachingClient`, keyed per request) from the leaf case to
//! whole physical operators: an [`ExecutionSnapshot`] memo store keyed by
//! `(record identity, operator fingerprint, prompt hash)` — all three
//! computed with the same [`pz_llm::stable_hash`] the leaf cache uses —
//! records each operator's verdict per input record, and a re-run replays
//! memoized verdicts for unchanged records while routing only the dirty
//! delta through the real operator (and only the delta through the
//! `UsageLedger`).
//!
//! # Delta rules
//!
//! Every memoizable operator reconstructs its **full** output from its
//! full current input — memoized records replay, dirty records execute —
//! so appends, updates, and deletes are all handled by one mechanism:
//!
//! - **Filters** (`LlmFilter`, `EmbeddingFilter`, `EnsembleFilter`) memoize
//!   the keep/drop verdict per record; the dirty subset runs as one batch.
//! - **`LlmClassify`** memoizes the chosen label and replays it via `set`.
//! - **Converts** (`LlmConvert`, `FieldwiseConvert`) memoize the list of
//!   output field maps per input record and replay them by deriving fresh
//!   records (new ids, correct lineage).
//! - **`LlmJoin`** memoizes the joined output rows per *left* record; its
//!   fingerprint folds in a content hash of the right dataset, so editing
//!   the build side invalidates every probe.
//!
//! Operators without a delta rule (`Scan`, relational operators, `Retrieve`,
//! `HashJoin`, `UnionAll`, UDFs) transparently fall back to a full re-run
//! of just that operator — correctness never depends on memo coverage.
//! Relational fallbacks are LLM-free, so the re-run bills nothing;
//! `Retrieve` re-bills its (batched) embedding call. Because each operator
//! executes on a subset of the input a from-scratch run would see, the
//! incremental ledger cost is always `<=` the from-scratch cost.
//!
//! Both switches default off, and the memo path is not entered unless
//! `ExecutionConfig::with_incremental` *and* a `PzContext` snapshot
//! (`PzContext::with_incremental`) are armed — disabled runs stay
//! byte-identical to the non-incremental executors.

use crate::context::PzContext;
use crate::error::PzResult;
use crate::exec::observed::Observed;
use crate::ops::physical::PhysicalOp;
use crate::record::{DataRecord, Value};
use parking_lot::RwLock;
use pz_llm::stable_hash;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Memo key: `(record identity, operator fingerprint, prompt hash)`.
type MemoKey = (u64, u64, u64);

/// One memoized operator verdict for one input record.
#[derive(Clone, Debug)]
enum MemoEntry {
    /// Filter-family verdict: was the record kept?
    Kept(bool),
    /// Classify verdict: the label written to the output field.
    Label { field: String, label: Value },
    /// Convert/join outputs: the field map of every record this input
    /// produced, in emission order. Replayed by deriving fresh records.
    Outputs(Vec<BTreeMap<String, Value>>),
}

/// The persistent memo store a run leaves behind and a re-run consumes.
///
/// Clones share state (like every other `PzContext` handle), so the
/// snapshot installed by [`PzContext::with_incremental`] accumulates
/// across runs: the first execution populates it, later executions replay
/// from it. Entries for deleted or superseded records are simply never
/// looked up again; the store is append-only within a session.
#[derive(Clone, Default)]
pub struct ExecutionSnapshot {
    entries: Arc<RwLock<HashMap<MemoKey, (MemoEntry, Observed)>>>,
    hits: Arc<AtomicUsize>,
}

impl ExecutionSnapshot {
    /// An empty snapshot: the first run through it executes everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized operator verdicts.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Cumulative memo replays across every run through this snapshot.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Drop all memoized verdicts (replay counters are kept).
    pub fn clear(&self) {
        self.entries.write().clear();
    }
}

impl std::fmt::Debug for ExecutionSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionSnapshot")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .finish()
    }
}

/// Stable identity of a record: a content hash over its fields-only JSON
/// (`BTreeMap` field order makes it deterministic). Executor-assigned ids
/// and lineage are excluded — they depend on allocation order, not
/// content, and must not dirty a record across runs.
pub fn record_identity(rec: &DataRecord) -> u64 {
    let json = serde_json::to_string(&rec.to_json()).unwrap_or_default();
    stable_hash(&[&json])
}

/// Hash of the text an LLM operator would prompt with for this record.
/// Folded into the memo key so two records that serialize differently but
/// prompt identically still get distinct entries via their identity, and
/// prompt-affecting drift is caught even if serialization misses it.
fn prompt_hash(rec: &DataRecord) -> u64 {
    stable_hash(&["prompt", &rec.prompt_text()])
}

/// Fingerprint of an operator's full configuration (its serde JSON covers
/// predicate/schema/model/effort — any change invalidates its memo
/// entries). `LlmJoin` additionally folds in a content hash of the right
/// dataset's current records so build-side edits invalidate probe results.
/// Returns `None` for operators without a delta rule.
pub fn op_fingerprint(ctx: &PzContext, op: &PhysicalOp) -> Option<u64> {
    if !memoizable(op) {
        return None;
    }
    let desc = serde_json::to_string(op).unwrap_or_default();
    let mut parts: Vec<String> = vec![desc];
    if let PhysicalOp::LlmJoin { dataset, .. } = op {
        let right = ctx
            .registry
            .get(dataset)
            .ok()
            .and_then(|src| src.records(0).ok())
            .map(|recs| {
                recs.iter()
                    .map(|r| serde_json::to_string(&r.to_json()).unwrap_or_default())
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .unwrap_or_default();
        parts.push(right);
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    Some(stable_hash(&refs))
}

/// Does this operator have a delta rule? Everything else falls back to a
/// transparent full re-run of just that operator.
pub fn memoizable(op: &PhysicalOp) -> bool {
    matches!(
        op,
        PhysicalOp::LlmFilter { .. }
            | PhysicalOp::EmbeddingFilter { .. }
            | PhysicalOp::EnsembleFilter { .. }
            | PhysicalOp::LlmClassify { .. }
            | PhysicalOp::LlmConvert { .. }
            | PhysicalOp::FieldwiseConvert { .. }
            | PhysicalOp::LlmJoin { .. }
    )
}

/// Run one operator with memoization: split the input into memoized
/// (clean) and unseen (dirty) records, route only the dirty subset through
/// `run` (the caller's normal execution path — model substitution
/// included), replay memoized verdicts for the rest, and merge in input
/// order so the output is identical to a from-scratch run.
///
/// Each verdict keeps an even share of what its dirty subset cost; the
/// replayed shares come back with the output, for the substitution
/// controller to observe as if those records had run again.
///
/// Non-memoizable operators pass straight through to `run` with the full
/// input — the fallback path.
pub(crate) fn execute_memoized(
    ctx: &PzContext,
    snap: &ExecutionSnapshot,
    op: &PhysicalOp,
    input: Vec<DataRecord>,
    run: &mut dyn FnMut(Vec<DataRecord>) -> PzResult<(Vec<DataRecord>, Observed)>,
) -> PzResult<(Vec<DataRecord>, Observed)> {
    let Some(fp) = op_fingerprint(ctx, op) else {
        return Ok((run(input)?.0, Observed::default()));
    };
    let keys: Vec<MemoKey> = input
        .iter()
        .map(|r| (record_identity(r), fp, prompt_hash(r)))
        .collect();
    let cached: Vec<Option<(MemoEntry, Observed)>> = {
        let entries = snap.entries.read();
        keys.iter().map(|k| entries.get(k).cloned()).collect()
    };
    let dirty: Vec<DataRecord> = input
        .iter()
        .zip(&cached)
        .filter(|(_, c)| c.is_none())
        .map(|(r, _)| r.clone())
        .collect();
    let (fresh, cost) = if dirty.is_empty() {
        (Vec::new(), Observed::default())
    } else {
        run(dirty.clone())?
    };
    // Attribute each fresh output to the dirty input that produced it, and
    // derive the memo entry to store. Input ids are unique within a run,
    // so attribution by id is exact.
    let mut fresh_entries: HashMap<u64, MemoEntry> = HashMap::new();
    let mut fresh_outputs: HashMap<u64, Vec<DataRecord>> = HashMap::new();
    match op {
        PhysicalOp::LlmFilter { .. }
        | PhysicalOp::EmbeddingFilter { .. }
        | PhysicalOp::EnsembleFilter { .. } => {
            // Filters return a subset of their input, unmodified.
            let kept: HashSet<u64> = fresh.iter().map(|r| r.id).collect();
            for d in &dirty {
                fresh_entries.insert(d.id, MemoEntry::Kept(kept.contains(&d.id)));
            }
            for r in fresh {
                fresh_outputs.entry(r.id).or_default().push(r);
            }
        }
        PhysicalOp::LlmClassify { output_field, .. } => {
            // One output per input, positionally, same record id.
            for (d, out) in dirty.iter().zip(fresh) {
                let label = out.get(output_field).cloned().unwrap_or(Value::Null);
                fresh_entries.insert(
                    d.id,
                    MemoEntry::Label {
                        field: output_field.clone(),
                        label,
                    },
                );
                fresh_outputs.entry(d.id).or_default().push(out);
            }
        }
        PhysicalOp::LlmConvert { .. } | PhysicalOp::FieldwiseConvert { .. } => {
            // Outputs derive from their input: lineage ends with its id.
            for r in fresh {
                let parent = r.lineage.last().copied().unwrap_or_default();
                fresh_outputs.entry(parent).or_default().push(r);
            }
            for d in &dirty {
                let outs = fresh_outputs.get(&d.id).cloned().unwrap_or_default();
                fresh_entries.insert(
                    d.id,
                    MemoEntry::Outputs(outs.into_iter().map(|r| r.fields).collect()),
                );
            }
        }
        PhysicalOp::LlmJoin { .. } => {
            // Joined rows derive from the left record then push the right
            // id: the left parent is lineage's second-to-last element.
            for r in fresh {
                let parent = r
                    .lineage
                    .len()
                    .checked_sub(2)
                    .and_then(|i| r.lineage.get(i))
                    .copied()
                    .unwrap_or_default();
                fresh_outputs.entry(parent).or_default().push(r);
            }
            for d in &dirty {
                let outs = fresh_outputs.get(&d.id).cloned().unwrap_or_default();
                fresh_entries.insert(
                    d.id,
                    MemoEntry::Outputs(outs.into_iter().map(|r| r.fields).collect()),
                );
            }
        }
        _ => unreachable!("memoizable() gated above"),
    }
    // Merge in input order: clean records replay, dirty records emit the
    // outputs just attributed to them. Store new entries as we go.
    let mut out: Vec<DataRecord> = Vec::with_capacity(input.len());
    let mut replays = 0usize;
    let mut replayed = Observed::default();
    {
        let mut store = snap.entries.write();
        let share = cost.share(dirty.len());
        for (i, rec) in input.into_iter().enumerate() {
            match &cached[i] {
                Some((entry, seen)) => {
                    replays += 1;
                    replayed.add(seen);
                    replay_entry(ctx, rec, entry, &mut out);
                }
                None => {
                    if let Some(e) = fresh_entries.get(&rec.id) {
                        store.insert(keys[i], (e.clone(), share));
                    }
                    out.extend(fresh_outputs.remove(&rec.id).unwrap_or_default());
                }
            }
        }
    }
    if replays > 0 {
        snap.hits.fetch_add(replays, Ordering::Relaxed);
        ctx.tracer.incr("exec.memo_replay", replays as u64);
        ctx.tracer.event(
            pz_obs::Layer::Executor,
            "memo_replay",
            &[
                ("operator", op.describe()),
                ("replayed", replays.to_string()),
            ],
        );
    }
    Ok((out, replayed))
}

/// Reconstruct the output(s) a memoized input record produced. Replayed
/// derives get fresh executor ids; lineage records the input parent (a
/// replayed join row omits the right-side parent id, which is
/// allocation-dependent and excluded from record identity anyway).
fn replay_entry(ctx: &PzContext, rec: DataRecord, entry: &MemoEntry, out: &mut Vec<DataRecord>) {
    match entry {
        MemoEntry::Kept(true) => out.push(rec),
        MemoEntry::Kept(false) => {}
        MemoEntry::Label { field, label } => {
            let mut r = rec;
            r.set(field.clone(), label.clone());
            out.push(r);
        }
        MemoEntry::Outputs(maps) => {
            for fields in maps {
                let mut derived = rec.derive(ctx.next_id());
                derived.fields = fields.clone();
                out.push(derived);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasource::VersionedSource;
    use crate::exec::{execute_plan, ExecutionConfig};
    use crate::field::FieldDef;
    use crate::ops::logical::Cardinality;
    use crate::ops::physical::PhysicalPlan;
    use crate::schema::Schema;
    use pz_llm::protocol::Effort;
    use std::sync::Arc;

    fn versioned_ctx() -> (PzContext, Arc<VersionedSource>) {
        let ctx = PzContext::simulated().with_incremental();
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
        for config in [
            ExecutionConfig::sequential().with_incremental(),
            ExecutionConfig::streaming().with_incremental(),
        ] {
            let (ctx, _src) = versioned_ctx();
            let (rec1, stats1) = execute_plan(&ctx, &demo_plan(), config).unwrap();
            let calls1 = ctx.ledger.total_requests();
            assert!(calls1 > 0);
            assert_eq!(stats1.memo_hits, 0, "first run replayed from empty memo");
            ctx.reset_accounting();
            let (rec2, stats2) = execute_plan(&ctx, &demo_plan(), config).unwrap();
            assert_eq!(ctx.ledger.total_requests(), 0, "re-run re-billed calls");
            assert_eq!(multiset(&rec1), multiset(&rec2));
            assert!(stats2.memo_hits > 0);
        }
    }

    #[test]
    fn append_one_record_bills_o1_calls() {
        for config in [
            ExecutionConfig::sequential().with_incremental(),
            ExecutionConfig::streaming().with_incremental(),
        ] {
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
            let (rec_f, _) =
                execute_plan(&scratch, &demo_plan(), config_without_incremental(config)).unwrap();
            assert_eq!(multiset(&rec2), multiset(&rec_f));
            assert!(delta_calls < scratch.ledger.total_requests());
        }
    }

    fn config_without_incremental(mut c: ExecutionConfig) -> ExecutionConfig {
        c.incremental = false;
        c
    }

    #[test]
    fn off_by_default_is_inert() {
        // Config flag without a snapshot, and snapshot without the flag,
        // both leave the executor untouched.
        let (ctx, _src) = versioned_ctx();
        let (_, stats) = execute_plan(&ctx, &demo_plan(), ExecutionConfig::sequential()).unwrap();
        assert_eq!(stats.memo_hits, 0);
        assert!(ctx.incremental.as_ref().unwrap().is_empty());
        let json = serde_json::to_string(&stats).unwrap();
        assert!(!json.contains("memo_hits"));
    }
}
