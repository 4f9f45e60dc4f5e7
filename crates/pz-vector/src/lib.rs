//! # pz-vector — vector store substrate
//!
//! The PalimpChat paper's introduction motivates declarative AI frameworks
//! partly by the pain of "coordinating multiple software stacks — vector
//! databases, relational operators, and novel programming practices". This
//! crate is the vector-database leg of that stack for the reproduction: an
//! in-process store of named collections with exact ([`FlatIndex`]) top-k
//! search under a [`Metric`], used by Palimpzest's `Retrieve` operator.
//! `Retrieve` loads a transient collection, queries it once and drops it,
//! so the exact scan is the store's one rung (see [`store`]). The crate
//! also keeps a standalone approximate index ([`HnswIndex`], a layered
//! navigable-small-world graph) that the store does not route to.
//!
//! Everything is deterministic: a vector's id is its insert position,
//! score ties break by ascending id, and HNSW level assignment is seeded.

pub mod flat;
pub mod hnsw;
pub mod metric;
pub mod store;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use metric::Metric;
pub use store::{SearchHit, VectorStore, VectorStoreError};

/// Identifier assigned to a vector when it is added to an index.
pub type VecId = u64;
