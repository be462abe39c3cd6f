//! # A+ Indexes
//!
//! A from-scratch Rust implementation of **"A+ Indexes: Tunable and
//! Space-Efficient Adjacency Lists in Graph Database Management Systems"**
//! (Mhedhbi, Gupta, Khaliq, Salihoglu — ICDE 2021), including the
//! in-memory property-graph substrate, the tunable primary adjacency-list
//! indexes, secondary vertex- and edge-partitioned indexes stored as offset
//! lists, and a GraphflowDB-style query processor (E/I + MULTI-EXTEND
//! operators, DP optimizer with i-cost).
//!
//! ## Quick start
//!
//! ```
//! use aplus::Database;
//! use aplus::datagen::build_financial_graph;
//!
//! // The paper's Figure-1 financial graph.
//! let mut db = Database::new(build_financial_graph().graph).unwrap();
//!
//! // Example 2: wires sent from accounts Alice owns.
//! let n = db
//!     .count("MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice'")
//!     .unwrap();
//! assert_eq!(n, 4);
//!
//! // Example 4's reconfiguration: add currency partitioning.
//! db.ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID")
//!     .unwrap();
//! let usd = db
//!     .count("MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice', r2.currency = USD")
//!     .unwrap();
//! assert_eq!(usd, 2);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`common`] | IDs, FxHash, bitmaps, packed offset arrays |
//! | [`runtime`] | Morsel-driven parallelism: the scoped work-stealing [`MorselPool`] |
//! | `obs` | Observability: metrics registry, per-query [`PROFILE` profiles](query::QueryProfile), leveled logging |
//! | [`graph`] | Property-graph store: catalog, columns, loader |
//! | [`datagen`] | Synthetic datasets + the Figure-1 running example |
//! | [`core`] | The A+ index subsystem (primary, VP, EP, offset lists) |
//! | [`query`] | Parser, DP optimizer, E/I + MULTI-EXTEND executor, [`SharedDatabase`] service layer |
//! | [`server`] | Network front-end: length-prefixed JSON wire protocol, TCP server, blocking client, `aplus-shell` |
//! | [`baseline`] | Fixed-index engines for the Table-V comparison |
//!
//! ## Concurrency
//!
//! Queries execute morsel-parallel (the root scan's ID range partitions
//! into ranges executed on a work-stealing pool — a pinned root is one
//! range, run inline; `APLUS_THREADS` overrides the worker count) with
//! counts and row sequences bit-identical at every thread count: one
//! driver (`Database::run`) merges per-morsel counts or blocks in
//! morsel order, so `collect` gathers and `stream` pushes rows into a
//! [`RowSink`] (e.g. the bounded [`row_channel`]) without materializing
//! the result. [`SharedDatabase`]
//! publishes immutable database [`Snapshot`]s under epoch-based
//! versioning: readers pin the current snapshot and **never block behind
//! writers** (not even a full `RECONFIGURE` rebuild), while writes batch
//! through an explicit writer handle and commit as the next epoch with
//! one pointer swap (see `docs/ARCHITECTURE.md` for the lifecycle):
//!
//! ```
//! use aplus::datagen::build_financial_graph;
//! use aplus::{Database, MorselPool, SharedDatabase};
//!
//! let db = Database::new(build_financial_graph().graph).unwrap();
//! let shared = SharedDatabase::with_pool(db, MorselPool::new(2));
//! let reader = shared.clone(); // one cheap handle per connection/thread
//! assert_eq!(reader.count("MATCH a-[r:W]->b").unwrap(), 9);
//!
//! // A pinned snapshot is immune to later commits…
//! let pinned = reader.snapshot();
//! shared.writer().insert_edge(
//!     aplus::common::VertexId(0),
//!     aplus::common::VertexId(2),
//!     "W",
//!     &[],
//! ).unwrap();
//! assert_eq!(pinned.count("MATCH a-[r:W]->b").unwrap(), 9);
//! // …while fresh reads observe the new epoch.
//! assert_eq!(reader.epoch(), 1);
//! assert_eq!(reader.count("MATCH a-[r:W]->b").unwrap(), 10);
//! ```

// The long-form references under docs/ embed runnable Rust examples;
// including them here turns every fenced `rust` block into a doctest, so
// `cargo test --doc` (and therefore CI) fails if the documents rot.
#[cfg(doctest)]
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub struct ArchitectureDocTests;

#[cfg(doctest)]
#[doc = include_str!("../docs/PROTOCOL.md")]
pub struct ProtocolDocTests;

#[cfg(doctest)]
#[doc = include_str!("../docs/DURABILITY.md")]
pub struct DurabilityDocTests;

#[cfg(doctest)]
#[doc = include_str!("../docs/REPLICATION.md")]
pub struct ReplicationDocTests;

#[cfg(doctest)]
#[doc = include_str!("../docs/OBSERVABILITY.md")]
pub struct ObservabilityDocTests;

pub use aplus_baseline as baseline;
pub use aplus_common as common;
pub use aplus_core as core;
pub use aplus_datagen as datagen;
pub use aplus_graph as graph;
pub use aplus_query as query;
pub use aplus_runtime as runtime;
pub use aplus_server as server;
pub use aplus_storage as storage;

pub use aplus_core::{Direction, IndexSpec, IndexStore, PartitionKey, SortKey};
pub use aplus_graph::{Graph, GraphBuilder, Value};
pub use aplus_query::{
    row_channel, CrashPoint, Database, DurabilityConfig, DurabilityError, FaultInjector,
    FsyncPolicy, QueryError, RawRow, RowReceiver, RowSink, SharedDatabase, Snapshot, StorageError,
    VecSink,
};
pub use aplus_runtime::MorselPool;
