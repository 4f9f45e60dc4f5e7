//! Seeded edit scripts over a base corpus.
//!
//! Re-runs over an edited dataset (served by the response cache, which
//! bills only the records an edit touched) are exercised by replaying
//! *changes* to a dataset: appends, in-place updates, and deletes. This
//! module generates those change streams deterministically from a seed,
//! so the E19 append-latency experiment, the `rerun` benchmark workload
//! and the differential proptest harness in `tests/tests/incremental.rs`
//! share one source of edits — same seed, same script, on any platform.

use crate::Document;

/// One edit to a corpus, keyed by filename (the stable record identity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Add a brand-new document.
    Append(Document),
    /// Rewrite the content of an existing document.
    Update { filename: String, content: String },
    /// Remove a document.
    Delete { filename: String },
}

/// A deterministic sequence of edit batches over a base corpus.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditScript {
    /// Batches apply in order; each batch is one "run boundary" — the
    /// pipeline re-runs once per batch.
    pub batches: Vec<Vec<EditOp>>,
}

impl EditScript {
    /// Total number of edit operations across all batches.
    pub fn len(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when every operation is an append — the cached-prefix
    /// zero-cost guarantee only binds for pure-append scripts.
    pub fn is_pure_append(&self) -> bool {
        self.batches
            .iter()
            .flatten()
            .all(|op| matches!(op, EditOp::Append(_)))
    }
}

/// splitmix64: tiny, seedable, platform-stable. Good enough to pick edit
/// kinds and targets; no external RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const WORDS: &[&str] = &[
    "colorectal",
    "cancer",
    "cohort",
    "screening",
    "genomic",
    "dataset",
    "survival",
    "biomarker",
    "registry",
    "trial",
];

fn synth_content(rng: &mut u64, tag: &str) -> String {
    let n = 4 + (splitmix64(rng) % 8) as usize;
    let words: Vec<&str> = (0..n)
        .map(|_| WORDS[(splitmix64(rng) % WORDS.len() as u64) as usize])
        .collect();
    format!("Delta document {tag}. {}.", words.join(" "))
}

/// Generate `batches` batches of `ops_per_batch` edits over `base`,
/// deterministically from `seed`. Appends mint fresh `delta-NNN.pdf`
/// documents; updates and deletes target documents still live at the time
/// the op is generated (base or previously appended). When nothing is
/// live, the generator falls back to an append so every script has the
/// requested length.
pub fn edit_script(
    base: &[Document],
    seed: u64,
    batches: usize,
    ops_per_batch: usize,
) -> EditScript {
    let mut rng = seed ^ 0x0b5e_d17e_5eed_0001;
    let mut live: Vec<String> = base.iter().map(|d| d.filename.clone()).collect();
    let mut appended = 0usize;
    let mut script = EditScript::default();
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(ops_per_batch);
        for _ in 0..ops_per_batch {
            let kind = splitmix64(&mut rng) % 4;
            // Bias toward appends (the headline re-run case): 2/4
            // append, 1/4 update, 1/4 delete.
            let op = match kind {
                0 | 1 => None,
                2 if !live.is_empty() => {
                    let i = (splitmix64(&mut rng) % live.len() as u64) as usize;
                    let filename = live[i].clone();
                    let content = synth_content(&mut rng, &format!("upd-{filename}"));
                    Some(EditOp::Update { filename, content })
                }
                3 if !live.is_empty() => {
                    let i = (splitmix64(&mut rng) % live.len() as u64) as usize;
                    let filename = live.remove(i);
                    Some(EditOp::Delete { filename })
                }
                _ => None,
            };
            let op = op.unwrap_or_else(|| {
                let id = format!("delta-{appended:03}");
                let filename = format!("{id}.pdf");
                appended += 1;
                live.push(filename.clone());
                EditOp::Append(Document {
                    content: synth_content(&mut rng, &id),
                    id,
                    filename,
                })
            });
            batch.push(op);
        }
        script.batches.push(batch);
    }
    script
}

/// A pure-append script: `batches` batches of `ops_per_batch` appends.
pub fn append_script(seed: u64, batches: usize, ops_per_batch: usize) -> EditScript {
    let mut rng = seed ^ 0x0b5e_d17e_5eed_0002;
    let mut script = EditScript::default();
    let mut k = 0usize;
    for _ in 0..batches {
        let mut batch = Vec::with_capacity(ops_per_batch);
        for _ in 0..ops_per_batch {
            let id = format!("delta-{k:03}");
            k += 1;
            batch.push(EditOp::Append(Document {
                content: synth_content(&mut rng, &id),
                id: id.clone(),
                filename: format!("{id}.pdf"),
            }));
        }
        script.batches.push(batch);
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Vec<Document> {
        (0..5)
            .map(|i| Document {
                id: format!("doc-{i}"),
                filename: format!("doc-{i:03}.pdf"),
                content: format!("Document {i}."),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_script() {
        let a = edit_script(&base(), 7, 3, 4);
        let b = edit_script(&base(), 7, 3, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(edit_script(&base(), 1, 2, 5), edit_script(&base(), 2, 2, 5));
    }

    #[test]
    fn deletes_target_live_documents_only() {
        let docs = base();
        let script = edit_script(&docs, 99, 4, 6);
        let mut live: Vec<String> = docs.iter().map(|d| d.filename.clone()).collect();
        for op in script.batches.iter().flatten() {
            match op {
                EditOp::Append(d) => live.push(d.filename.clone()),
                EditOp::Update { filename, .. } | EditOp::Delete { filename } => {
                    assert!(live.contains(filename), "edit targets dead doc {filename}");
                    if matches!(op, EditOp::Delete { .. }) {
                        live.retain(|f| f != filename);
                    }
                }
            }
        }
    }

    #[test]
    fn append_script_is_pure() {
        assert!(append_script(3, 2, 2).is_pure_append());
        assert!(!append_script(3, 2, 2).is_empty());
    }
}
