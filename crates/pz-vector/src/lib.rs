//! # pz-vector — vector store substrate
//!
//! The PalimpChat paper's introduction motivates declarative AI frameworks
//! partly by the pain of "coordinating multiple software stacks — vector
//! databases, relational operators, and novel programming practices". This
//! crate is the vector-database leg of that stack for the reproduction: an
//! in-process store with exact ([`FlatIndex`]) and approximate
//! ([`HnswIndex`], layered navigable-small-world graph) top-k search, used
//! by Palimpzest's `Retrieve` operator. A [`Collection`] has two rungs:
//! writes only append, queries are answered by exact scan, and the graph
//! is built at query time only for a collection that is both large and
//! queried often enough to have paid for it (see [`store`]) — so one-shot
//! retrieval never builds an index and search stays sub-linear at a
//! million vectors for collections that keep being asked.
//!
//! Everything is deterministic: HNSW level assignment is seeded and the
//! tie-breaking rules are fixed, so index builds are reproducible.

pub mod flat;
pub mod hnsw;
pub mod metric;
pub mod store;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use metric::Metric;
pub use store::{Collection, SearchHit, VectorStore, VectorStoreError};

/// Identifier assigned to a vector when it is added to an index.
pub type VecId = u64;
