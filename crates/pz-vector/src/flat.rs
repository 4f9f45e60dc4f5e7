//! Exact (brute-force) index.
//!
//! Scans every stored vector: O(n·d) per query, and exact. It is what
//! every `VectorStore::search` runs, and the ground truth against which
//! [`crate::hnsw::HnswIndex`] recall is measured. Append-only: nothing is
//! ever removed, so a vector's id is its position.

use crate::metric::Metric;
use crate::VecId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scored result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scored {
    pub id: VecId,
    pub score: f32,
}

// Min-heap entry (reversed ordering) for top-k selection.
#[derive(PartialEq)]
struct HeapEntry(Scored);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: the *worst* element sits on top so it can be evicted.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| self.0.id.cmp(&other.0.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Select the `k` best-scored items from an iterator, sorted by descending
/// score (ties broken by ascending id, so results are deterministic).
pub(crate) fn top_k(items: impl Iterator<Item = Scored>, k: usize) -> Vec<Scored> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for item in items {
        heap.push(HeapEntry(item));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<Scored> = heap.into_iter().map(|e| e.0).collect();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
    out
}

/// Exact top-k index.
#[derive(Clone, Debug)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    data: Vec<f32>, // row-major, len = len() * dim
}

impl FlatIndex {
    /// Create an index for `dim`-dimensional vectors.
    pub fn new(dim: usize, metric: Metric) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            metric,
            data: Vec::new(),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Add a vector, returning its assigned id.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn add(&mut self, v: &[f32]) -> VecId {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        let id = self.len() as VecId;
        self.data.extend_from_slice(v);
        id
    }

    /// Fetch a stored vector by id; `None` past the end.
    pub fn get(&self, id: VecId) -> Option<&[f32]> {
        let start = usize::try_from(id).ok()?.checked_mul(self.dim)?;
        self.data.get(start..start.checked_add(self.dim)?)
    }

    /// Exact top-k search.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Scored> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let metric = self.metric;
        top_k(
            self.data
                .chunks_exact(self.dim)
                .enumerate()
                .map(|(pos, v)| Scored {
                    id: pos as VecId,
                    score: metric.score(query, v),
                }),
            k,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_index() -> FlatIndex {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.add(&[1.0, 0.0]); // id 0
        idx.add(&[0.0, 1.0]); // id 1
        idx.add(&[0.7, 0.7]); // id 2
        idx
    }

    #[test]
    fn search_orders_by_similarity() {
        let idx = small_index();
        let hits = idx.search(&[1.0, 0.1], 3);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 2);
        assert_eq!(hits[2].id, 1);
    }

    #[test]
    fn k_larger_than_len() {
        let idx = small_index();
        assert_eq!(idx.search(&[1.0, 0.0], 10).len(), 3);
    }

    #[test]
    fn k_zero_is_empty() {
        let idx = small_index();
        assert!(idx.search(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new(4, Metric::Dot);
        assert!(idx.search(&[0.0; 4], 5).is_empty());
    }

    #[test]
    fn ids_are_sequential() {
        let mut idx = FlatIndex::new(1, Metric::Dot);
        assert_eq!(idx.add(&[1.0]), 0);
        assert_eq!(idx.add(&[2.0]), 1);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(1), Some(&[2.0][..]));
        assert_eq!(idx.get(2), None, "one past the end");
        assert_eq!(idx.get(99), None);
        assert_eq!(idx.get(VecId::MAX), None, "offset overflow");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn add_wrong_dim_panics() {
        FlatIndex::new(3, Metric::Cosine).add(&[1.0]);
    }

    #[test]
    fn ties_break_by_id() {
        let mut idx = FlatIndex::new(1, Metric::Dot);
        for _ in 0..5 {
            idx.add(&[1.0]);
        }
        let hits = idx.search(&[1.0], 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    proptest! {
        #[test]
        fn top_k_matches_full_sort(
            scores in proptest::collection::vec(-100.0f32..100.0, 0..50),
            k in 0usize..10,
        ) {
            let items: Vec<Scored> = scores.iter().enumerate()
                .map(|(i, &s)| Scored { id: i as VecId, score: s })
                .collect();
            let got = top_k(items.clone().into_iter(), k);
            let mut want = items;
            want.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
            want.truncate(k);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn search_results_sorted_desc(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-1.0f32..1.0, 4), 1..30),
            query in proptest::collection::vec(-1.0f32..1.0, 4),
        ) {
            let mut idx = FlatIndex::new(4, Metric::Euclidean);
            for v in &vectors {
                idx.add(v);
            }
            let hits = idx.search(&query, 10);
            for w in hits.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
            }
        }
    }
}
