//! Query processing over A+ indexes (§IV-A).
//!
//! This crate rebuilds the GraphflowDB query-processing subset the paper
//! modifies:
//!
//! * [`query`] — the bound query model: a subgraph pattern (query vertices
//!   and directed, optionally labelled query edges) plus conjunctive
//!   predicates, as produced from openCypher-style `MATCH ... WHERE ...`.
//! * [`parser`] — a recursive-descent parser for the paper's surface
//!   syntax: queries, `RECONFIGURE PRIMARY INDEXES`, `CREATE 1-HOP VIEW`,
//!   and `CREATE 2-HOP VIEW` statements.
//! * [`plan`] / [`exec`] — physical plans: `SCAN`, `EXTEND/INTERSECT`
//!   (multiway sorted intersections on neighbour IDs — WCOJ-style),
//!   `MULTI-EXTEND` (intersections on a property sort key binding several
//!   query vertices at once), and `VAR-LENGTH EXPAND` (a BFS over vertex
//!   bitsets). Every predicate runs on the operator whose bindings complete
//!   it, and a plan carries its counted suffix, planned once per prepare.
//! * [`optimizer`] — the DP join optimizer: enumerates one query vertex at
//!   a time, consults the INDEX STORE with predicate subsumption, and costs
//!   plans with **i-cost** (estimated total adjacency-list entries touched).
//! * [`engine`] — a `Database` facade tying graph + index store + parser +
//!   optimizer + executor together, and the concurrent `SharedDatabase`
//!   service layer: epoch-based snapshot publication (readers pin
//!   immutable `Snapshot`s and never block behind writers; writers build
//!   a private head and commit it with one pointer swap).
//! * [`sink`] — push-based result streaming: the `RowSink` trait, the
//!   collecting `VecSink`, and the bounded blocking `row_channel` for
//!   draining a stream on another thread.
//!
//! Query execution is morsel-driven and has one driver, [`exec::run`]:
//! the root scan's ID range (a pinned root is the one-ID range)
//! partitions into ranges executed on an [`aplus_runtime::MorselPool`]
//! (work-stealing, scoped threads; a 1-thread pool runs inline), with
//! per-worker operator state and a deterministic morsel-order merge —
//! counts *and* collected/streamed row sequences are bit-identical at
//! every thread count, including under `LIMIT` (which exits early).
//!
//! Every plan runs **block-at-a-time and factorized** ([`block`]): each
//! operator extends a whole block of bindings, intermediates stay
//! factorized until the sink boundary, and counts fold multiplicities
//! without flattening.

pub mod ast;
pub mod block;
pub mod durable;
pub mod engine;
pub mod error;
pub mod exec;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod query;
pub mod sink;

pub use crate::query::{QueryGraph, QueryOperand, QueryPredicate};
pub use aplus_runtime::MorselPool;
// Durability configuration, crash injection, and the replication-facing
// WAL/codec surface, re-exported so servers and tests can open a durable
// database or ship/apply its WAL without depending on `aplus_storage`
// directly.
pub use aplus_storage::{
    decode_ops, encode_ops, CrashPoint, DurabilityConfig, FaultInjector, FsyncPolicy, PropValue,
    RawRecord, StorageError, WalOp, WalTail,
};
// Observability: the metrics registry every `SharedDatabase` carries and
// the per-query profile `PROFILE` runs return.
pub use aplus_obs::{
    HistogramSnapshot, HopProfile, LevelProfile, MetricsRegistry, MetricsSnapshot, QueryProfile,
    QueryProfiler,
};
pub use durable::DurabilityError;
pub use engine::{metric, profiled, Database, DatabaseWriteGuard, SharedDatabase, Snapshot};
pub use error::QueryError;
pub use exec::Output;
pub use sink::{row_channel, RawRow, RowChannelSink, RowReceiver, RowSink, VecSink};
