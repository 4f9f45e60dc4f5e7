//! HNSW (hierarchical navigable small world) graph index.
//!
//! A standalone approximate top-k index: a layered proximity graph
//! searched greedily from a single entry point, whose query cost grows
//! ~logarithmically with collection size versus the exact scan's O(n).
//! [`VectorStore`](crate::store::VectorStore) does not use it: the store's
//! one caller queries each collection once, so a graph would be built for
//! one query and dropped, and every store search is an exact scan.
//!
//! Determinism: level assignment is seeded (splitmix64 over
//! `(seed, node id)`), inserts are order-dependent, and every candidate
//! ordering breaks score ties by ascending id. Same seed + same insert
//! sequence → identical graph → identical top-k, which the
//! recall/determinism suite pins.
//!
//! The graph is *incremental*: [`HnswIndex::add`] indexes a vector before
//! it returns, so there is no batch-build entry point and no stale window.

use crate::flat::{top_k, Scored};
use crate::metric::Metric;
use crate::VecId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// HNSW build/search parameters.
#[derive(Clone, Copy, Debug)]
pub struct HnswConfig {
    /// Max neighbors per node on layers > 0; layer 0 keeps `2*m`.
    pub m: usize,
    /// Candidate-list width while inserting.
    pub ef_construction: usize,
    /// Candidate-list width while searching (raised to `k` if smaller).
    pub ef_search: usize,
    /// Seed for level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 12,
            ef_construction: 64,
            ef_search: 64,
            seed: 7,
        }
    }
}

// Max-heap entry: best score on top, ties by ascending id.
#[derive(PartialEq)]
struct MaxEntry(Scored);

impl Eq for MaxEntry {}

impl Ord for MaxEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .score
            .total_cmp(&other.0.score)
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

impl PartialOrd for MaxEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// Min-heap entry: worst score on top so it can be evicted.
#[derive(PartialEq)]
struct MinEntry(Scored);

impl Eq for MinEntry {}

impl Ord for MinEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for MinEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Incremental HNSW index. Ids are assigned sequentially by insertion
/// order, matching [`FlatIndex`](crate::flat::FlatIndex), so the two
/// answer in the same id space.
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    config: HnswConfig,
    /// Row-major vector storage, len = n * dim.
    data: Vec<f32>,
    /// links[node][layer] = neighbor ids; node's top layer =
    /// `links[node].len() - 1`.
    links: Vec<Vec<Vec<u32>>>,
    /// Entry node (highest-layer node seen so far).
    entry: Option<u32>,
}

impl HnswIndex {
    pub fn new(dim: usize, metric: Metric, config: HnswConfig) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(config.m >= 2, "m must be at least 2");
        Self {
            dim,
            metric,
            config,
            data: Vec::new(),
            links: Vec::new(),
            entry: None,
        }
    }

    pub fn len(&self) -> usize {
        self.links.len()
    }

    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    fn vector(&self, id: u32) -> &[f32] {
        let pos = id as usize * self.dim;
        &self.data[pos..pos + self.dim]
    }

    fn score(&self, q: &[f32], id: u32) -> f32 {
        self.metric.score(q, self.vector(id))
    }

    /// Seeded geometric level draw: `floor(-ln(u) / ln(m))`, capped so a
    /// pathological draw can't build a skyscraper.
    fn level_for(&self, id: u64) -> usize {
        let mut z = self
            .config
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // u in (0, 1]: never exactly 0 so ln is finite.
        let u = ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let ml = 1.0 / (self.config.m as f64).ln();
        ((-u.ln() * ml) as usize).min(16)
    }

    fn max_neighbors(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Greedy best-first search on one layer from `entry`, keeping the
    /// `ef` best candidates seen.
    fn search_layer(&self, q: &[f32], entry: u32, ef: usize, layer: usize) -> Vec<Scored> {
        let start = Scored {
            id: entry as VecId,
            score: self.score(q, entry),
        };
        let mut visited: HashSet<u32> = HashSet::with_capacity(ef * self.config.m);
        visited.insert(entry);
        let mut candidates = BinaryHeap::new();
        candidates.push(MaxEntry(start));
        let mut results = BinaryHeap::new();
        results.push(MinEntry(start));
        while let Some(MaxEntry(best)) = candidates.pop() {
            let worst = results.peek().map(|e: &MinEntry| e.0.score).unwrap();
            if results.len() >= ef && best.score < worst {
                break;
            }
            let node = best.id as u32;
            if layer >= self.links[node as usize].len() {
                continue;
            }
            for &nb in &self.links[node as usize][layer] {
                if !visited.insert(nb) {
                    continue;
                }
                let s = Scored {
                    id: nb as VecId,
                    score: self.score(q, nb),
                };
                let worst = results.peek().map(|e: &MinEntry| e.0.score).unwrap();
                if results.len() < ef || s.score > worst {
                    candidates.push(MaxEntry(s));
                    results.push(MinEntry(s));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<Scored> = results.into_iter().map(|e| e.0).collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        out
    }

    /// Greedy single-step descent through layers above `target`.
    fn descend(&self, q: &[f32], mut ep: u32, from_layer: usize, target: usize) -> u32 {
        let mut layer = from_layer;
        while layer > target {
            let mut improved = true;
            let mut best = self.score(q, ep);
            while improved {
                improved = false;
                if layer < self.links[ep as usize].len() {
                    for &nb in &self.links[ep as usize][layer] {
                        let s = self.score(q, nb);
                        if s > best {
                            best = s;
                            ep = nb;
                            improved = true;
                        }
                    }
                }
            }
            layer -= 1;
        }
        ep
    }

    /// Insert a vector, indexing it immediately. Returns its id.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn add(&mut self, v: &[f32]) -> VecId {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        let id = self.links.len() as u32;
        let level = self.level_for(id as u64);
        self.data.extend_from_slice(v);
        self.links.push(vec![Vec::new(); level + 1]);
        let Some(entry) = self.entry else {
            self.entry = Some(id);
            return id as VecId;
        };
        let entry_top = self.links[entry as usize].len() - 1;
        let mut ep = self.descend(v, entry, entry_top, level.min(entry_top));
        for layer in (0..=level.min(entry_top)).rev() {
            let found = self.search_layer(v, ep, self.config.ef_construction, layer);
            let cap = self.max_neighbors(layer);
            let chosen: Vec<u32> = found.iter().take(cap).map(|s| s.id as u32).collect();
            for &nb in &chosen {
                self.links[id as usize][layer].push(nb);
                self.links[nb as usize][layer].push(id);
                // Shrink an overfull neighbor back to its cap, keeping the
                // best-scored links (ties by id, as everywhere) — except
                // the just-added back-link, which always survives this
                // shrink: otherwise an outlier's in-links would all be
                // pruned on arrival, orphaning it from graph traversal.
                if self.links[nb as usize][layer].len() > cap {
                    let nv: Vec<f32> = self.vector(nb).to_vec();
                    let mut scored: Vec<Scored> = self.links[nb as usize][layer]
                        .iter()
                        .map(|&x| Scored {
                            id: x as VecId,
                            score: self.metric.score(&nv, self.vector(x)),
                        })
                        .collect();
                    scored
                        .sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
                    scored.truncate(cap);
                    let mut kept: Vec<u32> = scored.iter().map(|s| s.id as u32).collect();
                    if !kept.contains(&id) {
                        *kept.last_mut().expect("cap >= 2") = id;
                    }
                    self.links[nb as usize][layer] = kept;
                }
            }
            ep = chosen.first().copied().unwrap_or(ep);
        }
        if level > entry_top {
            self.entry = Some(id);
        }
        id as VecId
    }

    /// Approximate top-k search.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Scored> {
        self.search_with_ef(query, k, self.config.ef_search)
    }

    /// Approximate top-k with an explicit candidate width (for recall
    /// sweeps). `ef` is raised to `k` if smaller.
    pub fn search_with_ef(&self, query: &[f32], k: usize, ef: usize) -> Vec<Scored> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        if k == 0 {
            return Vec::new();
        }
        let entry_top = self.links[entry as usize].len() - 1;
        let ep = self.descend(query, entry, entry_top, 0);
        let found = self.search_layer(query, ep, ef.max(k), 0);
        top_k(found.into_iter(), k)
    }

    /// Batched top-k: one graph descent per query, results in query order.
    pub fn search_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Scored>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

    /// `n` vectors uniform in [-1, 1)^dim from a seeded splitmix64 stream.
    fn random_corpus(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
        };
        (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    fn indexed(dim: usize, metric: Metric, config: HnswConfig, corpus: &[Vec<f32>]) -> HnswIndex {
        let mut idx = HnswIndex::new(dim, metric, config);
        for v in corpus {
            idx.add(v);
        }
        idx
    }

    fn recall_vs_flat(corpus: &[Vec<f32>], dim: usize, metric: Metric) -> f64 {
        let idx = indexed(dim, metric, HnswConfig::default(), corpus);
        let mut flat = FlatIndex::new(dim, metric);
        for v in corpus {
            flat.add(v);
        }
        let mut hit = 0usize;
        let mut total = 0usize;
        for qi in (0..corpus.len()).step_by(corpus.len() / 20) {
            let q = &corpus[qi];
            let truth: Vec<VecId> = flat.search(q, 10).iter().map(|h| h.id).collect();
            let approx: Vec<VecId> = idx.search(q, 10).iter().map(|h| h.id).collect();
            hit += truth.iter().filter(|t| approx.contains(t)).count();
            total += truth.len();
        }
        hit as f64 / total as f64
    }

    #[test]
    fn empty_and_tiny() {
        let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default());
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 4], 5).is_empty());
        let mut idx = HnswIndex::new(2, Metric::Dot, HnswConfig::default());
        assert_eq!(idx.add(&[1.0, 0.0]), 0);
        assert_eq!(idx.add(&[0.0, 1.0]), 1);
        let hits = idx.search(&[1.0, 0.1], 2);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits.len(), 2);
        assert!(idx.search(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_wrong_dim_panics() {
        HnswIndex::new(3, Metric::Cosine, HnswConfig::default()).add(&[1.0]);
    }

    #[test]
    fn recall_against_flat_ground_truth() {
        for (n, seed) in [(1000usize, 1u64), (3000, 2)] {
            let corpus = random_corpus(n, 8, seed);
            let r = recall_vs_flat(&corpus, 8, Metric::Euclidean);
            assert!(r >= 0.9, "recall {r} at n={n}");
        }
    }

    #[test]
    fn recall_cosine() {
        let corpus = random_corpus(2000, 16, 3);
        let r = recall_vs_flat(&corpus, 16, Metric::Cosine);
        assert!(r >= 0.9, "recall {r}");
    }

    #[test]
    fn deterministic_same_seed_same_graph_same_topk() {
        let corpus = random_corpus(800, 8, 4);
        let a = indexed(8, Metric::Euclidean, HnswConfig::default(), &corpus);
        let b = indexed(8, Metric::Euclidean, HnswConfig::default(), &corpus);
        assert_eq!(a.links, b.links, "same seed must build the same graph");
        assert_eq!(a.entry, b.entry);
        for qi in [0usize, 123, 799] {
            let q = &corpus[qi];
            assert_eq!(a.search(q, 10), b.search(q, 10), "query {qi}");
        }
    }

    #[test]
    fn different_seed_different_graph() {
        let corpus = random_corpus(500, 8, 5);
        let a = indexed(8, Metric::Euclidean, HnswConfig::default(), &corpus);
        let other = HnswConfig {
            seed: 99,
            ..Default::default()
        };
        let b = indexed(8, Metric::Euclidean, other, &corpus);
        assert_ne!(a.links, b.links);
    }

    #[test]
    fn recall_improves_with_ef() {
        let corpus = random_corpus(2000, 8, 7);
        let idx = indexed(8, Metric::Euclidean, HnswConfig::default(), &corpus);
        let mut flat = FlatIndex::new(8, Metric::Euclidean);
        for v in &corpus {
            flat.add(v);
        }
        let recall_at = |ef: usize| -> f64 {
            let mut hit = 0;
            let mut total = 0;
            for qi in (0..2000).step_by(100) {
                let q = &corpus[qi];
                let truth: Vec<VecId> = flat.search(q, 10).iter().map(|h| h.id).collect();
                let approx: Vec<VecId> =
                    idx.search_with_ef(q, 10, ef).iter().map(|h| h.id).collect();
                hit += truth.iter().filter(|t| approx.contains(t)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };
        let narrow = recall_at(10);
        let wide = recall_at(200);
        assert!(wide >= narrow, "narrow={narrow} wide={wide}");
        assert!(wide >= 0.95, "wide={wide}");
    }

    #[test]
    fn search_batch_matches_single() {
        let corpus = random_corpus(300, 4, 8);
        let idx = indexed(4, Metric::Cosine, HnswConfig::default(), &corpus);
        let queries: Vec<Vec<f32>> = corpus[..5].to_vec();
        let batched = idx.search_batch(&queries, 3);
        for (q, hits) in queries.iter().zip(&batched) {
            assert_eq!(hits, &idx.search(q, 3));
        }
    }

    #[test]
    fn self_query_finds_self() {
        let corpus = random_corpus(1000, 8, 9);
        let idx = indexed(8, Metric::Euclidean, HnswConfig::default(), &corpus);
        let mut found = 0;
        for qi in (0..1000).step_by(50) {
            let hits = idx.search(&corpus[qi], 1);
            if hits.first().map(|h| h.id) == Some(qi as VecId) {
                found += 1;
            }
        }
        assert!(found >= 18, "self-hit {found}/20");
    }
}
