//! Collection-oriented store facade.
//!
//! What the `Retrieve` operator actually talks to: named collections of
//! `(vector, payload)` pairs with metric-aware top-k search. A collection
//! is a [`FlatIndex`] and a payload per id: `add` appends and `search` is
//! an exact scan, so every answer is the exact top-k and no write ever
//! waits on index work. `Retrieve` loads a fresh collection, queries it
//! once and drops it; an approximate index would be built for one query
//! and thrown away. A store can be snapshotted to JSON and restored.

use crate::flat::{FlatIndex, Scored};
use crate::metric::Metric;
use crate::VecId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use thiserror::Error;

/// Store-level errors.
#[derive(Clone, Debug, Error, PartialEq, Eq)]
pub enum VectorStoreError {
    #[error("collection not found: {0}")]
    CollectionNotFound(String),
    #[error("collection already exists: {0}")]
    CollectionExists(String),
    #[error("collection {0}: vectors must have at least one dimension")]
    ZeroDimension(String),
    #[error("dimension mismatch: expected {expected}, got {got}")]
    DimensionMismatch { expected: usize, got: usize },
    #[error("snapshot error: {0}")]
    Snapshot(String),
}

/// A search result: the payload attached at insert time plus the score.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchHit {
    pub id: VecId,
    pub score: f32,
    pub payload: String,
}

/// One named collection: its vectors, and the payload of each by id.
struct Collection {
    flat: FlatIndex,
    payloads: Vec<String>,
}

impl Collection {
    /// The store's one dimension check: `flat` is never handed a vector
    /// of another length, so its asserts cannot fire from here.
    fn check_dim(&self, got: usize) -> Result<(), VectorStoreError> {
        let expected = self.flat.dim();
        if got == expected {
            return Ok(());
        }
        Err(VectorStoreError::DimensionMismatch { expected, got })
    }

    fn add(&mut self, v: &[f32], payload: String) -> Result<VecId, VectorStoreError> {
        self.check_dim(v.len())?;
        self.payloads.push(payload);
        Ok(self.flat.add(v))
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<SearchHit>, VectorStoreError> {
        self.check_dim(query.len())?;
        let hit = |s: Scored| SearchHit {
            id: s.id,
            score: s.score,
            payload: self.payloads[s.id as usize].clone(),
        };
        Ok(self.flat.search(query, k).into_iter().map(hit).collect())
    }
}

/// Serializable snapshot of one collection (vectors + payloads).
#[derive(Serialize, Deserialize)]
struct CollectionSnapshot {
    dim: usize,
    metric: Metric,
    vectors: Vec<Vec<f32>>,
    payloads: Vec<String>,
}

/// Serializable snapshot of a whole store.
#[derive(Serialize, Deserialize)]
struct StoreSnapshot {
    collections: BTreeMap<String, CollectionSnapshot>,
}

/// Thread-safe store of named collections. Clones share state.
#[derive(Clone, Default)]
pub struct VectorStore {
    collections: Arc<RwLock<BTreeMap<String, Arc<RwLock<Collection>>>>>,
    tracer: Option<pz_obs::Tracer>,
}

impl VectorStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `vector.*` counters (inserts, probes) on `tracer`. Clones
    /// made after this call share the tracer.
    pub fn with_tracer(mut self, tracer: pz_obs::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Create a collection. Errors if the name is taken or `dim` is 0.
    pub fn create_collection(
        &self,
        name: &str,
        dim: usize,
        metric: Metric,
    ) -> Result<(), VectorStoreError> {
        if dim == 0 {
            return Err(VectorStoreError::ZeroDimension(name.to_string()));
        }
        let mut map = self.collections.write();
        if map.contains_key(name) {
            return Err(VectorStoreError::CollectionExists(name.to_string()));
        }
        let coll = Collection {
            flat: FlatIndex::new(dim, metric),
            payloads: Vec::new(),
        };
        map.insert(name.to_string(), Arc::new(RwLock::new(coll)));
        Ok(())
    }

    /// Create the collection if missing; no-op if present (or if `dim` is
    /// 0, which no collection accepts).
    pub fn ensure_collection(&self, name: &str, dim: usize, metric: Metric) {
        let _ = self.create_collection(name, dim, metric);
    }

    fn get_collection(&self, name: &str) -> Result<Arc<RwLock<Collection>>, VectorStoreError> {
        self.collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| VectorStoreError::CollectionNotFound(name.to_string()))
    }

    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    pub fn collection_len(&self, name: &str) -> Result<usize, VectorStoreError> {
        let len = self.get_collection(name)?.read().flat.len();
        Ok(len)
    }

    /// Insert a vector with an opaque payload, returning the assigned id.
    pub fn add(
        &self,
        collection: &str,
        vector: &[f32],
        payload: impl Into<String>,
    ) -> Result<VecId, VectorStoreError> {
        let id = self
            .get_collection(collection)?
            .write()
            .add(vector, payload.into())?;
        if let Some(t) = &self.tracer {
            t.incr("vector.inserts", 1);
        }
        Ok(id)
    }

    /// Exact top-k search in a collection, under its read lock.
    pub fn search(
        &self,
        collection: &str,
        query: &[f32],
        k: usize,
    ) -> Result<Vec<SearchHit>, VectorStoreError> {
        let hits = self.get_collection(collection)?.read().search(query, k)?;
        if let Some(t) = &self.tracer {
            t.incr("vector.probes", 1);
        }
        Ok(hits)
    }

    /// Drop a collection; `Ok` even if it did not exist.
    pub fn drop_collection(&self, name: &str) {
        self.collections.write().remove(name);
    }

    /// Serialize the whole store (vectors + payloads).
    pub fn to_json(&self) -> Result<String, VectorStoreError> {
        let mut snap = StoreSnapshot {
            collections: BTreeMap::new(),
        };
        for (name, coll) in self.collections.read().iter() {
            let c = coll.read();
            let vectors: Vec<Vec<f32>> = (0..c.flat.len() as VecId)
                .filter_map(|id| c.flat.get(id).map(<[f32]>::to_vec))
                .collect();
            snap.collections.insert(
                name.clone(),
                CollectionSnapshot {
                    dim: c.flat.dim(),
                    metric: c.flat.metric(),
                    vectors,
                    payloads: c.payloads.clone(),
                },
            );
        }
        serde_json::to_string(&snap).map_err(|e| VectorStoreError::Snapshot(e.to_string()))
    }

    /// Restore a store from [`Self::to_json`] output. Returns a fresh
    /// store; collection contents (ids, payloads, search results) match the
    /// snapshotted store exactly.
    pub fn from_json(json: &str) -> Result<Self, VectorStoreError> {
        let snap: StoreSnapshot =
            serde_json::from_str(json).map_err(|e| VectorStoreError::Snapshot(e.to_string()))?;
        let store = Self::new();
        for (name, c) in snap.collections {
            if c.vectors.len() != c.payloads.len() {
                return Err(VectorStoreError::Snapshot(format!(
                    "collection {name:?}: {} vectors vs {} payloads",
                    c.vectors.len(),
                    c.payloads.len()
                )));
            }
            store.create_collection(&name, c.dim, c.metric)?;
            for (v, payload) in c.vectors.iter().zip(c.payloads) {
                store.add(&name, v, payload)?;
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_add_search() {
        let store = VectorStore::new();
        store.create_collection("docs", 2, Metric::Cosine).unwrap();
        store.add("docs", &[1.0, 0.0], "alpha").unwrap();
        store.add("docs", &[0.0, 1.0], "beta").unwrap();
        let hits = store.search("docs", &[1.0, 0.1], 1).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].payload, "alpha");
    }

    #[test]
    fn duplicate_collection_rejected() {
        let store = VectorStore::new();
        store.create_collection("c", 2, Metric::Dot).unwrap();
        assert_eq!(
            store.create_collection("c", 2, Metric::Dot),
            Err(VectorStoreError::CollectionExists("c".into()))
        );
        // ensure_collection tolerates it.
        store.ensure_collection("c", 2, Metric::Dot);
    }

    #[test]
    fn missing_collection_errors() {
        let store = VectorStore::new();
        assert!(matches!(
            store.search("nope", &[1.0], 1),
            Err(VectorStoreError::CollectionNotFound(_))
        ));
        assert!(matches!(
            store.add("nope", &[1.0], "x"),
            Err(VectorStoreError::CollectionNotFound(_))
        ));
    }

    #[test]
    fn dimension_checked() {
        let store = VectorStore::new();
        store.create_collection("c", 3, Metric::Cosine).unwrap();
        assert_eq!(
            store.add("c", &[1.0], "x"),
            Err(VectorStoreError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        );
        store.add("c", &[1.0, 2.0, 3.0], "x").unwrap();
        assert_eq!(
            store.search("c", &[1.0], 1),
            Err(VectorStoreError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        );
        assert_eq!(
            store.create_collection("z", 0, Metric::Cosine),
            Err(VectorStoreError::ZeroDimension("z".into()))
        );
        store.ensure_collection("z", 0, Metric::Cosine);
        assert_eq!(store.collection_names(), ["c"]);
    }

    #[test]
    fn drop_collection() {
        let store = VectorStore::new();
        store.create_collection("c", 2, Metric::Cosine).unwrap();
        store.drop_collection("c");
        assert!(store.collection_names().is_empty());
        store.drop_collection("never-existed");
    }

    #[test]
    fn payloads_follow_ids() {
        let store = VectorStore::new();
        store.create_collection("c", 1, Metric::Dot).unwrap();
        for i in 0..10 {
            store.add("c", &[i as f32], format!("payload-{i}")).unwrap();
        }
        let hits = store.search("c", &[100.0], 3).unwrap();
        assert_eq!(hits[0].payload, "payload-9");
        assert_eq!(hits[1].payload, "payload-8");
    }

    #[test]
    fn snapshot_round_trips() {
        let store = VectorStore::new();
        store.create_collection("docs", 3, Metric::Cosine).unwrap();
        for i in 0..20 {
            let f = i as f32;
            store
                .add("docs", &[f.sin(), f.cos(), f * 0.1], format!("p{i}"))
                .unwrap();
        }
        store
            .create_collection("other", 2, Metric::Euclidean)
            .unwrap();
        store.add("other", &[1.0, 2.0], "x").unwrap();

        let json = store.to_json().unwrap();
        let restored = VectorStore::from_json(&json).unwrap();
        assert_eq!(restored.collection_names(), store.collection_names());
        assert_eq!(restored.collection_len("docs").unwrap(), 20);
        // Search results identical.
        let q = [0.3f32, 0.9, 0.5];
        let a = store.search("docs", &q, 5).unwrap();
        let b = restored.search("docs", &q, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        assert!(matches!(
            VectorStore::from_json("not json"),
            Err(VectorStoreError::Snapshot(_))
        ));
        let bad = r#"{"collections":{"c":{"dim":2,"metric":"Cosine","vectors":[[1.0,2.0]],"payloads":[]}}}"#;
        assert!(matches!(
            VectorStore::from_json(bad),
            Err(VectorStoreError::Snapshot(_))
        ));
    }

    fn point(i: usize) -> [f32; 2] {
        let f = i as f32;
        [f.sin() * 10.0, f.cos() * 10.0]
    }

    /// A traced store whose collection "c" holds `point(0..n)`, loaded
    /// through the public `add`.
    fn loaded(n: usize) -> (VectorStore, pz_obs::Tracer) {
        let tracer = pz_obs::Tracer::new(Arc::new(pz_obs::FrozenClock(0)));
        let store = VectorStore::new().with_tracer(tracer.clone());
        store.create_collection("c", 2, Metric::Euclidean).unwrap();
        for i in 0..n {
            store.add("c", &point(i), format!("p{i}")).unwrap();
        }
        (store, tracer)
    }

    /// A collection of 8,256 rows, about the size of the `Retrieve` loads
    /// pzbench drives, answers `FlatIndex`'s exact top-k on every one of
    /// several queries, and a row appended after a search is found by the
    /// very next one.
    #[test]
    fn one_shot_load_builds_nothing_and_answers_exactly() {
        let n = 8_256;
        let (store, _) = loaded(n);
        let mut flat = FlatIndex::new(2, Metric::Euclidean);
        for i in 0..n {
            flat.add(&point(i));
        }
        for i in 0..8 {
            let q = [(i as f32 * 0.37).sin() * 9.0, (i as f32 * 0.37).cos() * 9.0];
            let hits = store.search("c", &q, 10).unwrap();
            let got: Vec<(VecId, f32)> = hits.iter().map(|h| (h.id, h.score)).collect();
            let want: Vec<(VecId, f32)> = flat
                .search(&q, 10)
                .iter()
                .map(|s| (s.id, s.score))
                .collect();
            assert_eq!(got, want, "query {i}");
        }
        store.add("c", &[500.0, 500.0], "fresh").unwrap();
        assert_eq!(
            store.search("c", &[500.0, 500.0], 1).unwrap()[0].payload,
            "fresh"
        );
    }

    /// Inserts and probes are counted; a search builds nothing, so the
    /// tracer holds no event.
    #[test]
    fn tracer_counts_inserts_probes_and_builds() {
        let n = 100;
        let (store, tracer) = loaded(n);
        for q in [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]] {
            store.search("c", &q, 3).unwrap();
        }
        // A rejected query is not a probe.
        store.search("c", &[1.0], 3).unwrap_err();
        let snap = tracer.snapshot();
        assert_eq!(snap.counters["vector.inserts"], n as u64);
        assert_eq!(snap.counters["vector.probes"], 3);
        assert!(snap.events.is_empty(), "a search built something");
    }

    #[test]
    fn concurrent_adds() {
        let store = VectorStore::new();
        store.create_collection("c", 2, Metric::Cosine).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        store
                            .add("c", &[t as f32, i as f32], format!("{t}-{i}"))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.collection_len("c").unwrap(), 400);
    }
}
