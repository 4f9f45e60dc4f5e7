//! Collection-oriented store facade.
//!
//! What the `Retrieve` operator actually talks to: named collections of
//! `(vector, payload)` pairs with metric-aware top-k search. Writes append
//! and never index, so `add` is O(1) at every size. Reads pick one of two
//! rungs from what the collection observes about itself: an exact scan
//! below [`Collection::HNSW_THRESHOLD`] rows, and past it too until the
//! scans served there have cost about what an HNSW graph costs to build.
//! Only then does `search` build the graph, and it inserts any rows
//! appended since before every answer, so there is no stale window. A
//! collection that is loaded, queried once and dropped — every `Retrieve`
//! — builds nothing and gets the exact top-k.

use crate::flat::FlatIndex;
use crate::hnsw::{HnswConfig, HnswIndex};
use crate::metric::Metric;
use crate::VecId;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use thiserror::Error;

/// Store-level errors.
#[derive(Clone, Debug, Error, PartialEq, Eq)]
pub enum VectorStoreError {
    #[error("collection not found: {0}")]
    CollectionNotFound(String),
    #[error("collection already exists: {0}")]
    CollectionExists(String),
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

/// Exact scans a collection at or past [`Collection::HNSW_THRESHOLD`]
/// serves before `search` builds its graph: the measured break-even, not
/// an option. A graph insert costs ~99 µs a row at 8.4k rows (pzbench
/// `retrieve`) and 155–169 µs at 1M (E21); an exact scan ~0.06–0.09 µs a
/// row (`vector.search_flat_us`, E10): a graph pays for itself after
/// 99/0.09 ≈ 1,100 to 169/0.06 ≈ 2,800 queries. Buying once the rent paid
/// equals the price keeps the store within about twice the cost of the
/// best choice in hindsight on any traffic.
const GRAPH_BREAK_EVEN_SCANS: usize = 1_500;

/// One named collection.
pub struct Collection {
    dim: usize,
    metric: Metric,
    flat: FlatIndex,
    payloads: Vec<String>,
    /// Approximate rung over rows `0..hnsw.len()`, inserted in id order.
    /// Built and extended by `search` only; `add` never touches it.
    hnsw: Option<HnswIndex>,
    /// Exact scans served at or past [`Self::HNSW_THRESHOLD`] rows.
    exact_scans: AtomicUsize,
}

impl Collection {
    /// Below this size every query is an exact scan; at or past it a
    /// collection that keeps being queried earns an HNSW graph.
    pub const HNSW_THRESHOLD: usize = 8192;

    fn new(dim: usize, metric: Metric) -> Self {
        Self {
            dim,
            metric,
            flat: FlatIndex::new(dim, metric),
            payloads: Vec::new(),
            hnsw: None,
            exact_scans: AtomicUsize::new(0),
        }
    }

    pub fn len(&self) -> usize {
        self.flat.len()
    }

    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    fn check_dim(&self, got: usize) -> Result<(), VectorStoreError> {
        let expected = self.dim;
        if got == expected {
            return Ok(());
        }
        Err(VectorStoreError::DimensionMismatch { expected, got })
    }

    /// Append and return: no index is built, rebuilt or inserted into.
    fn add(&mut self, v: &[f32], payload: String) -> Result<VecId, VectorStoreError> {
        self.check_dim(v.len())?;
        self.payloads.push(payload);
        Ok(self.flat.add(v))
    }

    /// Top-k from whichever rung is due, as far as a read lock allows:
    /// `None` means the graph is due but missing or behind the rows, and
    /// the caller must [`Self::catch_up`] under the write lock first.
    fn search(&self, query: &[f32], k: usize) -> Option<Vec<SearchHit>> {
        // The routing decision, all of it. Both inputs only ever grow, so
        // once the graph rung answers it answers for good.
        let scored = if self.len() < Self::HNSW_THRESHOLD {
            self.flat.search(query, k)
        } else if self.exact_scans.load(Ordering::Relaxed) < GRAPH_BREAK_EVEN_SCANS {
            // A statistic that publishes no data: Relaxed is enough, and
            // racing searchers overshooting by a scan or two is harmless.
            self.exact_scans.fetch_add(1, Ordering::Relaxed);
            self.flat.search(query, k)
        } else {
            let graph = self.hnsw.as_ref().filter(|g| g.len() == self.len())?;
            graph.search(query, k)
        };
        let hit = |s: crate::flat::Scored| SearchHit {
            id: s.id,
            score: s.score,
            payload: self.payloads[s.id as usize].clone(),
        };
        Some(scored.into_iter().map(hit).collect())
    }

    /// Bring the graph level with the rows, in id order (so it is the
    /// graph a standalone [`HnswIndex`] fed the same rows would be); a
    /// no-op if another searcher got here first. True if it was created.
    fn catch_up(&mut self) -> bool {
        let created = self.hnsw.is_none();
        let graph = self
            .hnsw
            .get_or_insert_with(|| HnswIndex::new(self.dim, self.metric, HnswConfig::default()));
        for id in graph.len()..self.flat.len() {
            graph.add(self.flat.get(id as VecId).expect("id below len"));
        }
        created
    }
}

/// Serializable snapshot of one collection (vectors + payloads). The
/// graph is derived state and is not persisted.
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

    /// Record `vector.*` counters (inserts, probes, index builds) on
    /// `tracer`. Clones made after this call share the tracer.
    pub fn with_tracer(mut self, tracer: pz_obs::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Create a collection. Errors if the name is taken.
    pub fn create_collection(
        &self,
        name: &str,
        dim: usize,
        metric: Metric,
    ) -> Result<(), VectorStoreError> {
        let mut map = self.collections.write();
        if map.contains_key(name) {
            return Err(VectorStoreError::CollectionExists(name.to_string()));
        }
        map.insert(
            name.to_string(),
            Arc::new(RwLock::new(Collection::new(dim, metric))),
        );
        Ok(())
    }

    /// Create the collection if missing; no-op if present.
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
        let coll = self.get_collection(name)?;
        let len = coll.read().len();
        Ok(len)
    }

    /// Insert a vector with an opaque payload, returning the assigned id.
    pub fn add(
        &self,
        collection: &str,
        vector: &[f32],
        payload: impl Into<String>,
    ) -> Result<VecId, VectorStoreError> {
        let coll = self.get_collection(collection)?;
        let id = coll.write().add(vector, payload.into())?;
        if let Some(t) = &self.tracer {
            t.incr("vector.inserts", 1);
        }
        Ok(id)
    }

    /// Top-k search in a collection.
    pub fn search(
        &self,
        collection: &str,
        query: &[f32],
        k: usize,
    ) -> Result<Vec<SearchHit>, VectorStoreError> {
        let coll = self.get_collection(collection)?;
        let read = coll.read();
        read.check_dim(query.len())?;
        let mut built_len = None;
        let hits = match read.search(query, k) {
            Some(hits) => hits,
            None => {
                drop(read);
                let mut write = coll.write();
                built_len = write.catch_up().then(|| write.len());
                let hits = write.search(query, k);
                hits.expect("graph is level under the write lock")
            }
        };
        if let Some(t) = &self.tracer {
            t.incr("vector.probes", 1);
            if let Some(len) = built_len {
                t.incr("vector.index_builds", 1);
                let attrs = [("collection", collection.into()), ("len", len.to_string())];
                t.event(pz_obs::Layer::Vector, "hnsw_build", &attrs);
            }
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
                .map(|id| c.flat.get(id).expect("sequential ids").to_vec())
                .collect();
            snap.collections.insert(
                name.clone(),
                CollectionSnapshot {
                    dim: c.dim,
                    metric: c.metric,
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

    /// (`vector.index_builds`, `hnsw_build` events) recorded so far.
    fn builds(tracer: &pz_obs::Tracer) -> (u64, usize) {
        let events = tracer.snapshot().events;
        (
            tracer.counter("vector.index_builds"),
            events.iter().filter(|e| e.name == "hnsw_build").count(),
        )
    }

    fn scored(hits: &[SearchHit]) -> Vec<(VecId, f32)> {
        hits.iter().map(|h| (h.id, h.score)).collect()
    }

    fn key(scan: Vec<crate::flat::Scored>) -> Vec<(VecId, f32)> {
        scan.iter().map(|s| (s.id, s.score)).collect()
    }

    /// The `Retrieve` shape: load past the threshold, query once. Nothing
    /// is built on either side of the query and the answer is the exact
    /// scan's; a later insert is findable by the very next search.
    #[test]
    fn one_shot_load_builds_nothing_and_answers_exactly() {
        let n = Collection::HNSW_THRESHOLD + 64;
        let (store, tracer) = loaded(n);
        assert_eq!(builds(&tracer), (0, 0), "add must never index");
        let mut flat = FlatIndex::new(2, Metric::Euclidean);
        for i in 0..n {
            flat.add(&point(i));
        }
        let q = [3.0, -4.0];
        let got = scored(&store.search("c", &q, 10).unwrap());
        assert_eq!(got, key(flat.search(&q, 10)));
        store.add("c", &[500.0, 500.0], "fresh").unwrap();
        assert_eq!(
            store.search("c", &[500.0, 500.0], 1).unwrap()[0].payload,
            "fresh"
        );
        assert_eq!(builds(&tracer), (0, 0));
    }

    /// Test seam: pretend collection "c" has already served `n` exact scans
    /// past the threshold (the real count takes seconds in a debug build).
    fn set_scans_served(store: &VectorStore, n: usize) {
        let coll = store.get_collection("c").unwrap();
        coll.read().exact_scans.store(n, Ordering::Relaxed);
    }

    /// A large collection that keeps being queried: exact until it has
    /// served `GRAPH_BREAK_EVEN_SCANS` scans, then exactly one graph, equal
    /// to a standalone `HnswIndex` fed the same rows in the same order,
    /// and kept level with every later `add`.
    #[test]
    fn queried_collection_builds_one_graph_at_break_even() {
        let n = Collection::HNSW_THRESHOLD + 64;
        let (store, tracer) = loaded(n);
        let mut flat = FlatIndex::new(2, Metric::Euclidean);
        let mut twin = HnswIndex::new(2, Metric::Euclidean, HnswConfig::default());
        for i in 0..n {
            flat.add(&point(i));
            twin.add(&point(i));
        }
        let query = |i: usize| [(i as f32 * 0.37).sin() * 9.0, (i as f32 * 0.37).cos() * 9.0];
        set_scans_served(&store, GRAPH_BREAK_EVEN_SCANS - 3);
        for i in 0..3 {
            let got = scored(&store.search("c", &query(i), 5).unwrap());
            assert_eq!(got, key(flat.search(&query(i), 5)), "scan {i}");
        }
        assert_eq!(builds(&tracer), (0, 0), "the graph is not yet paid for");
        for i in 0..20 {
            let got = scored(&store.search("c", &query(i), 5).unwrap());
            assert_eq!(got, key(twin.search(&query(i), 5)), "graph query {i}");
            assert_eq!(builds(&tracer), (1, 1));
        }
        // Appended after the build: indexed by the very next search.
        store.add("c", &[500.0, 500.0], "fresh").unwrap();
        twin.add(&[500.0, 500.0]);
        let hits = store.search("c", &[500.0, 500.0], 5).unwrap();
        assert_eq!(hits[0].payload, "fresh");
        assert_eq!(scored(&hits), key(twin.search(&[500.0, 500.0], 5)));
        assert_eq!(builds(&tracer), (1, 1), "catching up is not a build");
    }

    #[test]
    fn tracer_counts_inserts_probes_and_builds() {
        let n = Collection::HNSW_THRESHOLD;
        let (store, tracer) = loaded(n);
        set_scans_served(&store, GRAPH_BREAK_EVEN_SCANS);
        // Three searchers find the graph due at once: all take the write
        // lock in turn, and the re-check under it lets only one build.
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for q in [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]] {
                let (store, start) = (&store, &start);
                s.spawn(move || {
                    start.wait();
                    store.search("c", &q, 3).unwrap();
                });
            }
        });
        let snap = tracer.snapshot();
        assert_eq!(snap.counters["vector.inserts"], n as u64);
        assert_eq!(snap.counters["vector.probes"], 3);
        assert_eq!(builds(&tracer), (1, 1));
        let event = snap.events.iter().find(|e| e.name == "hnsw_build").unwrap();
        assert_eq!(event.attrs["len"], n.to_string());
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
