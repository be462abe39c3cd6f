//! A+ indexes: the paper's primary contribution (§III–§IV).
//!
//! Three index types make up the subsystem:
//!
//! * [`primary::PrimaryIndexes`] — the required forward + backward indexes
//!   over *all* edges, stored in a tunable [`nested_csr::NestedCsr`]
//!   (partitioning levels over 64-owner pages, sorted innermost ID lists).
//! * [`vertex_partitioned::VertexPartitionedIndex`] — secondary indexes over
//!   *1-hop views* (arbitrary predicates on an edge and its endpoints),
//!   stored as space-efficient **offset lists** into the primary ID lists,
//!   sharing the primary's partitioning levels when possible (§III-B3).
//! * [`edge_partitioned::EdgePartitionedIndex`] — secondary indexes over
//!   *2-hop views* whose predicate relates both edges, partitioned by the
//!   bound edge's ID in one of four orientations (§III-B2).
//!
//! [`store::IndexStore`] registers all indexes, answers the optimizer's
//! "which index can serve this extension?" queries via predicate
//! subsumption, and coordinates maintenance (update buffers, tombstones,
//! page merges — §IV-C).

pub mod bitmap_index;
pub mod edge_partitioned;
pub mod error;
pub mod list;
pub mod maintenance;
pub mod nested_csr;
pub mod offsets;
pub mod primary;
pub mod sortkey;
pub mod spec;
pub mod store;
pub mod vertex_partitioned;
pub mod view;

pub use error::IndexError;
pub use list::{List, OffsetList};
pub use primary::PrimaryIndexes;
pub use spec::{Direction, IndexSpec, PartitionKey, SortKey};
pub use store::IndexStore;
pub use view::{CmpOp, ViewComparison, ViewEntity, ViewOperand, ViewPredicate};
