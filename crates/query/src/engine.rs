//! The `Database` facade: graph + index store + parser + optimizer +
//! executor in one handle — plus the concurrent service layer,
//! [`SharedDatabase`], which publishes immutable database [`Snapshot`]s
//! under epoch-based versioning: any number of reader threads execute
//! queries (`&self`, morsel-parallel) against a pinned snapshot and
//! **never block behind a writer**, while writes, DDL and flushes build
//! the next version off to the side through an explicit writer handle and
//! publish it with a single pointer swap.
//!
//! This is the API the examples and benchmarks use:
//!
//! ```
//! use aplus_datagen::build_financial_graph;
//! use aplus_query::Database;
//!
//! let db = Database::new(build_financial_graph().graph).unwrap();
//! let wires = db.count("MATCH a-[r:W]->b").unwrap();
//! assert_eq!(wires, 9);
//!
//! // The concurrent service layer: cloneable, Send + Sync, readers pin
//! // immutable snapshots (no reader/writer lock at all), and queries run
//! // morsel-parallel on the pool.
//! let shared = db.into_shared();
//! let handle = shared.clone();
//! assert_eq!(handle.count("MATCH a-[r:W]->b").unwrap(), 9);
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Instant;

use aplus_common::{EdgeId, VertexId};
use aplus_core::{IndexSpec, IndexStore};
use aplus_graph::{Graph, GraphError, PropertyEntity, Value};
use aplus_obs::{Gauge, MetricsRegistry, QueryProfile, QueryProfiler};
use aplus_runtime::MorselPool;
use aplus_storage::{
    checkpoint::retain_newest, decode_checkpoint_payload, encode_checkpoint_payload,
    write_checkpoint, CrashPoint, DurabilityConfig, PropValue, RecoveredState, StorageError, WalOp,
    WalTail,
};

use crate::ast::{self, Statement};
use crate::durable::{self, Checkpointer, DurabilityError, DurableCore};
use crate::error::QueryError;
use crate::exec::{self, ExecContext, Output};
use crate::optimizer;
use crate::parser;
use crate::plan::{Operator, Plan};
use crate::query::QueryGraph;
use crate::sink::{RowSink, VecSink};

pub use crate::sink::RawRow;

/// Names a non-query statement kind for error messages.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Query(_) => "a MATCH query",
        Statement::Profile(_) => "a PROFILE query",
        Statement::ReconfigurePrimary { .. } => "RECONFIGURE PRIMARY INDEXES",
        Statement::CreateOneHop { .. } => "CREATE 1-HOP VIEW",
        Statement::CreateTwoHop { .. } => "CREATE 2-HOP VIEW",
    }
}

/// Engine/storage metric names registered on a [`SharedDatabase`]'s
/// [`MetricsRegistry`] (see [`SharedDatabase::metrics`]). Public so
/// servers, tests and dashboards can refer to them without string
/// duplication.
pub mod metric {
    /// Counter: write batches committed and published.
    pub const EPOCHS_PUBLISHED: &str = "aplus_engine_epochs_published_total";
    /// Gauge: the currently published epoch.
    pub const PUBLISHED_EPOCH: &str = "aplus_engine_published_epoch";
    /// Gauge: database versions currently alive (published head plus any
    /// older versions still pinned by snapshots).
    pub const LIVE_VERSIONS: &str = "aplus_engine_live_versions";
    /// Histogram: WAL batch append latency (includes fsync when on).
    pub const WAL_APPEND_SECONDS: &str = "aplus_wal_append_seconds";
    /// Histogram: fuzzy checkpoint duration.
    pub const CHECKPOINT_SECONDS: &str = "aplus_checkpoint_seconds";
    /// Gauge: payload size of the most recent checkpoint, bytes.
    pub const CHECKPOINT_LAST_BYTES: &str = "aplus_checkpoint_last_bytes";
    /// Counter: checkpoints written.
    pub const CHECKPOINTS_TOTAL: &str = "aplus_checkpoints_total";
    /// Histogram: durable-open recovery time (checkpoint load + WAL
    /// replay, or initial build + seed checkpoint on a fresh directory).
    pub const RECOVERY_SECONDS: &str = "aplus_recovery_seconds";
}

/// Clamping `u64`/`usize` → gauge value; monitoring prefers saturation
/// over a panic or a negative wrap.
fn gauge_value(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Outcome of a DDL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdlOutcome {
    /// The primary indexes were reconfigured.
    Reconfigured,
    /// A secondary index was created under this name.
    Created(String),
}

/// A read-optimized graph database with A+ indexes.
///
/// Cloning is cheap: every heavyweight artifact (catalog, topology
/// columns, property columns, primary CSR pair, secondary indexes) sits
/// behind an `Arc`, so a clone is reference-count bumps — O(artifact
/// *count*), not O(index memory). Copies are lazy and fine-grained: a
/// mutation unshares (`Arc::make_mut`) only the 64-owner index pages and
/// the edge-column chunks it writes, each at most once per clone, plus
/// the page-pointer spine of each index it touches — this is what makes
/// [`SharedDatabase`]'s snapshot publication affordable: a writer's head
/// costs only the pages and chunks its batch actually dirties.
#[derive(Debug, Clone)]
pub struct Database {
    graph: Graph,
    store: IndexStore,
    /// Ordered index-DDL statement history (see [`Database::ddl_history`]).
    index_ddl: Vec<DdlRecord>,
}

/// One successfully applied DDL statement, kept for checkpoint replay.
#[derive(Debug, Clone)]
struct DdlRecord {
    /// `RECONFIGURE PRIMARY INDEXES` — only the latest one is retained
    /// (each reconfigure fully supersedes the previous primary spec, and
    /// index builds are deterministic functions of the graph and their own
    /// spec, so replaying just the last one reaches the same state).
    reconfigure: bool,
    statement: String,
}

impl Database {
    /// Builds a database over `graph` with the default primary
    /// configuration (D).
    pub fn new(graph: Graph) -> Result<Self, QueryError> {
        let store = IndexStore::build(&graph)?;
        Ok(Self {
            graph,
            store,
            index_ddl: Vec::new(),
        })
    }

    /// Builds with a custom primary spec.
    pub fn with_primary_spec(graph: Graph, spec: IndexSpec) -> Result<Self, QueryError> {
        let store = IndexStore::build_with_spec(&graph, spec)?;
        Ok(Self {
            graph,
            store,
            index_ddl: Vec::new(),
        })
    }

    /// Rebuilds a database from a checkpoint/bootstrap payload (see
    /// [`SharedDatabase::bootstrap_payload`]): decodes the graph, then
    /// replays the recorded index DDL. Deterministic — one payload always
    /// rebuilds a bit-identical database, which is what lets a replica
    /// serve the primary's epoch numbers as its own.
    ///
    /// # Errors
    /// [`DurabilityError::Storage`] when the payload fails to decode,
    /// [`DurabilityError::Query`] when the graph or DDL replay fails.
    pub fn from_checkpoint_payload(payload: &[u8]) -> Result<Self, DurabilityError> {
        let (graph, ddl) = decode_checkpoint_payload(payload)?;
        let mut db = Self::new(graph)?;
        for statement in &ddl {
            db.ddl(statement)?;
        }
        Ok(db)
    }

    /// The ordered index-DDL statements that produced this database's
    /// index configuration — what a durability checkpoint records so
    /// recovery can rebuild the (derived) indexes by replaying them.
    /// Superseded `RECONFIGURE` statements are dropped; `CREATE ... VIEW`
    /// statements are kept in application order.
    ///
    /// Indexes configured *programmatically* — [`Database::with_primary_spec`]
    /// or [`Database::store_and_graph_mut`] — are not recorded here and
    /// therefore not durable; durable databases should configure indexes
    /// through [`Database::ddl`].
    #[must_use]
    pub fn ddl_history(&self) -> Vec<String> {
        self.index_ddl.iter().map(|r| r.statement.clone()).collect()
    }

    /// The data graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The index store.
    #[must_use]
    pub fn store(&self) -> &IndexStore {
        &self.store
    }

    /// Mutable access to the index store for programmatic index creation
    /// (the DDL path is [`Database::ddl`]). The graph is passed alongside
    /// because index builds read it.
    pub fn store_and_graph_mut(&mut self) -> (&mut IndexStore, &Graph) {
        (&mut self.store, &self.graph)
    }

    /// Parses, binds and optimizes a `MATCH` query without executing it
    /// (plan inspection, plan-shape tests, repeated execution).
    pub fn prepare(&self, query: &str) -> Result<(QueryGraph, Plan), QueryError> {
        // Scans bind vertices as u32; refuse to plan against a graph whose
        // population would silently truncate IDs.
        exec::check_vertex_domain(self.graph.vertex_count())?;
        match parser::parse(query)? {
            Statement::Query(ast) | Statement::Profile(ast) => {
                let bound = ast::bind_query(&self.graph, &ast)?;
                let plan = optimizer::optimize(&self.graph, &self.store, &bound)?;
                Ok((bound, plan))
            }
            other => Err(QueryError::Syntax {
                message: format!(
                    "expected a MATCH query, got {} (DDL goes through Database::ddl)",
                    statement_kind(&other)
                ),
                offset: parser::statement_offset(query),
            }),
        }
    }

    /// Executes a prepared query on `pool` into `out` and returns the
    /// number of matches ([`Output::Count`]) or of rows delivered
    /// ([`Output::Rows`]) — the one query driver every other read entry
    /// point wraps. Counts and row sequences are bit-identical at any pool
    /// size (deterministic morsel-order merge; `MorselPool::sequential()`
    /// runs the same code inline), including under a row limit, which
    /// stops execution early. `profiler`, when given, receives the run's
    /// per-operator statistics (see [`profiled`]).
    ///
    /// `plan` must come from [`Database::prepare`] on this same database
    /// version: plans reference indexes by name and partition layout.
    pub fn run(
        &self,
        query: &QueryGraph,
        plan: &Plan,
        pool: &MorselPool,
        profiler: Option<&QueryProfiler>,
        out: Output<'_>,
    ) -> u64 {
        let ctx = ExecContext {
            graph: &self.graph,
            store: &self.store,
            profiler,
        };
        exec::run(ctx, query, plan, pool, out)
    }

    /// Parses, binds, optimizes and executes a `MATCH` query inline on the
    /// caller's thread; returns the number of matches.
    pub fn count(&self, query: &str) -> Result<u64, QueryError> {
        let (bound, plan) = self.prepare(query)?;
        Ok(self.count_prepared_parallel(&bound, &plan, &MorselPool::sequential()))
    }

    /// Counts a prepared query morsel-parallel on `pool`.
    #[must_use]
    pub fn count_prepared_parallel(
        &self,
        query: &QueryGraph,
        plan: &Plan,
        pool: &MorselPool,
    ) -> u64 {
        self.run(query, plan, pool, None, Output::Count)
    }

    /// Wraps this database in the concurrent service layer with a pool
    /// sized from the environment (`APLUS_THREADS`, default: all cores).
    #[must_use]
    pub fn into_shared(self) -> SharedDatabase {
        SharedDatabase::new(self)
    }

    /// Executes inline and collects up to `limit` rows of `(vertex
    /// bindings, edge bindings)` (raw IDs; unbound slots are sentinels).
    /// Execution stops as soon as `limit` rows are gathered.
    pub fn collect(&self, query: &str, limit: usize) -> Result<Vec<RawRow>, QueryError> {
        let (bound, plan) = self.prepare(query)?;
        Ok(self.collect_prepared_parallel(&bound, &plan, limit, &MorselPool::sequential()))
    }

    /// Collects up to `limit` rows of a prepared query morsel-parallel on
    /// `pool`.
    #[must_use]
    pub fn collect_prepared_parallel(
        &self,
        query: &QueryGraph,
        plan: &Plan,
        limit: usize,
        pool: &MorselPool,
    ) -> Vec<RawRow> {
        let mut sink = VecSink::with_limit(limit);
        self.stream_prepared(query, plan, limit, pool, &mut sink);
        sink.into_rows()
    }

    /// Runs a query inline with per-operator instrumentation and returns
    /// the match count alongside the collected [`QueryProfile`]. Accepts
    /// both `MATCH …` and `PROFILE MATCH …` statements (the keyword only
    /// marks intent; instrumentation is decided by calling this entry
    /// point).
    pub fn profile_count(&self, query: &str) -> Result<(u64, QueryProfile), QueryError> {
        self.profile_count_on(query, &MorselPool::sequential())
    }

    fn profile_count_on(
        &self,
        query: &str,
        pool: &MorselPool,
    ) -> Result<(u64, QueryProfile), QueryError> {
        let (bound, plan) = self.prepare(query)?;
        let profile = profiled(&plan, |p| {
            self.run(&bound, &plan, pool, Some(p), Output::Count)
        });
        Ok((profile.rows, profile))
    }

    /// Streams up to `limit` result rows into `sink`, in sequential result
    /// order, executing morsel-parallel on `pool` — rows are pushed as
    /// their morsel's turn comes, never materializing the full result. The
    /// pushed sequence is bit-identical to [`Database::collect`] at any
    /// thread count; the sink returning [`std::ops::ControlFlow::Break`]
    /// stops the query early (cancelling outstanding morsels).
    pub fn stream(
        &self,
        query: &str,
        limit: usize,
        pool: &MorselPool,
        sink: &mut dyn RowSink,
    ) -> Result<(), QueryError> {
        let (bound, plan) = self.prepare(query)?;
        self.stream_prepared(&bound, &plan, limit, pool, sink);
        Ok(())
    }

    /// Streams a prepared query (see [`Database::stream`]).
    pub fn stream_prepared(
        &self,
        query: &QueryGraph,
        plan: &Plan,
        limit: usize,
        pool: &MorselPool,
        sink: &mut dyn RowSink,
    ) {
        self.run(query, plan, pool, None, Output::Rows { limit, sink });
    }

    /// Applies a DDL statement: `RECONFIGURE PRIMARY INDEXES ...`,
    /// `CREATE 1-HOP VIEW ...` or `CREATE 2-HOP VIEW ...`.
    pub fn ddl(&mut self, statement: &str) -> Result<DdlOutcome, QueryError> {
        let outcome = self.ddl_apply(statement)?;
        match &outcome {
            DdlOutcome::Reconfigured => {
                // A reconfigure fully supersedes any earlier one.
                self.index_ddl.retain(|r| !r.reconfigure);
                self.index_ddl.push(DdlRecord {
                    reconfigure: true,
                    statement: statement.to_owned(),
                });
            }
            DdlOutcome::Created(_) => self.index_ddl.push(DdlRecord {
                reconfigure: false,
                statement: statement.to_owned(),
            }),
        }
        Ok(outcome)
    }

    fn ddl_apply(&mut self, statement: &str) -> Result<DdlOutcome, QueryError> {
        match parser::parse(statement)? {
            Statement::ReconfigurePrimary {
                partition_by,
                sort_by,
            } => {
                let spec = ast::bind_spec(&self.graph, &partition_by, &sort_by)?;
                self.store.reconfigure_primary(&self.graph, spec)?;
                Ok(DdlOutcome::Reconfigured)
            }
            Statement::CreateOneHop {
                name,
                wheres,
                directions,
                partition_by,
                sort_by,
            } => {
                let view = ast::bind_one_hop_view(&self.graph, &wheres)?;
                let spec = ast::bind_spec(&self.graph, &partition_by, &sort_by)?;
                self.store
                    .create_vertex_index(&self.graph, &name, directions, view, spec)?;
                Ok(DdlOutcome::Created(name))
            }
            Statement::CreateTwoHop {
                name,
                orientation,
                wheres,
                partition_by,
                sort_by,
            } => {
                let view = ast::bind_two_hop_view(&self.graph, orientation, &wheres)?;
                let spec = ast::bind_spec(&self.graph, &partition_by, &sort_by)?;
                self.store
                    .create_edge_index(&self.graph, &name, view, spec)?;
                Ok(DdlOutcome::Created(name))
            }
            Statement::Query(_) | Statement::Profile(_) => Err(QueryError::Syntax {
                message: "expected DDL, got a MATCH query (use Database::count)".into(),
                offset: parser::statement_offset(statement),
            }),
        }
    }

    /// Inserts an edge with properties, maintaining all indexes (§IV-C).
    pub fn insert_edge(
        &mut self,
        src: aplus_common::VertexId,
        dst: aplus_common::VertexId,
        label: &str,
        props: &[(&str, Value<'_>)],
    ) -> Result<EdgeId, GraphError> {
        let e = self.graph.add_edge(src, dst, label)?;
        for (name, value) in props {
            let pid = self.graph.catalog().property(PropertyEntity::Edge, name)?;
            self.graph.set_edge_prop(e, pid, *value)?;
        }
        self.store.insert_edge(&self.graph, e);
        Ok(e)
    }

    /// Deletes an edge, maintaining all indexes.
    pub fn delete_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        self.graph.delete_edge(e)?;
        self.store.delete_edge(&self.graph, e);
        Ok(())
    }

    /// Forces all pending update buffers to merge.
    pub fn flush(&mut self) {
        self.store.flush(&self.graph);
    }

    /// Total index memory in bytes.
    #[must_use]
    pub fn index_memory_bytes(&self) -> usize {
        self.store.memory_bytes()
    }
}

/// Runs `run` with a [`QueryProfiler`] sized for `plan` — one level cell
/// per physical operator, plus hop cells sized by the plan's largest
/// var-length hop bound so `PROFILE` can report per-hop frontier
/// statistics (no hop section for plans without var-length operators) —
/// and freezes it into the [`QueryProfile`] a `PROFILE` run returns,
/// stamped with the engine that executes the plan, the wall-clock time,
/// and the result cardinality `run` returns. Pass the profiler on to
/// [`Database::run`]; differential tests use this to profile one plan
/// pinned to each engine (see [`Plan::with_flatten`]).
pub fn profiled(plan: &Plan, run: impl FnOnce(&QueryProfiler) -> u64) -> QueryProfile {
    let hops = plan
        .ops
        .iter()
        .map(|op| match op {
            Operator::VarLengthExpand { max, .. } => *max as usize,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let profiler = QueryProfiler::new(plan.ops.len()).with_hops(hops);
    let started = Instant::now();
    let rows = run(&profiler);
    let elapsed = started.elapsed();
    let mut profile = profiler.finish(&plan.op_descriptions());
    profile.engine = if crate::block::use_block(plan) {
        "block"
    } else {
        "row"
    }
    .to_owned();
    profile.elapsed_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    profile.rows = rows;
    profile
}

/// An immutable, pinned version of the database published by a
/// [`SharedDatabase`].
///
/// A snapshot is an `Arc` over one committed database version: cloning it
/// is a reference-count bump, holding it costs nothing to anyone else, and
/// it dereferences to [`Database`], so the whole `&self` query API
/// (`count`, `collect`, `stream`, `prepare`, plan inspection, memory
/// reporting) runs against it. Everything observed through one snapshot is
/// **transactionally consistent**: the version it pins was published by a
/// single pointer swap after the writer finished, and no later write ever
/// mutates it.
///
/// Snapshots decouple reader lifetime from writer progress — a reader may
/// keep a snapshot pinned across an arbitrarily long drain while writers
/// publish any number of newer versions. The pinned version's memory is
/// reclaimed when the last snapshot referencing it drops.
#[derive(Debug, Clone)]
#[must_use]
pub struct Snapshot {
    inner: Arc<Version>,
}

#[derive(Debug)]
struct Version {
    epoch: u64,
    db: Database,
    /// Shared live-version gauge; decremented on drop so
    /// [`metric::LIVE_VERSIONS`] tracks how many versions snapshots keep
    /// alive.
    live: Gauge,
}

impl Version {
    /// Wraps a database version in a [`Snapshot`], accounting it on the
    /// live-versions gauge.
    fn snapshot(metrics: &MetricsRegistry, epoch: u64, db: Database) -> Snapshot {
        let live = metrics.gauge(metric::LIVE_VERSIONS);
        live.inc();
        Snapshot {
            inner: Arc::new(Version { epoch, db, live }),
        }
    }
}

impl Drop for Version {
    fn drop(&mut self) {
        self.live.dec();
    }
}

impl Snapshot {
    /// The epoch this snapshot pins: 0 for the initial database, +1 per
    /// committed write batch. Strictly monotone across publications, so
    /// two snapshots of one [`SharedDatabase`] compare by age.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }
}

impl Deref for Snapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.inner.db
    }
}

/// The concurrent service layer over a [`Database`]: epoch-based snapshot
/// publication.
///
/// Cloning is cheap (an `Arc` bump) and every clone addresses the same
/// database, so a server can hand one handle per connection:
///
/// * **Reads never block.** [`SharedDatabase::count`] & friends pin the
///   current [`Snapshot`] — an `Arc` load, never a lock held across
///   execution — and run morsel-parallel on the handle's [`MorselPool`].
///   A reader is never delayed by a writer, not even by a full
///   `RECONFIGURE` rebuild in flight.
/// * **Writes serialize, then publish.** Mutation (inserts, deletes, DDL,
///   `RECONFIGURE`, flushes) goes through [`SharedDatabase::writer`]: the
///   returned handle owns a private mutable head (initialized from the
///   latest snapshot) and dereferences to `&mut Database`. When the handle
///   drops, the head is committed as the next epoch's snapshot with a
///   single pointer swap. Readers observe either the pre- or post-commit
///   version, never a partial one.
///
/// Memory bound: at most `live snapshots + in-flight writer heads`
/// database versions exist at once — in the steady state exactly one, and
/// each old version is freed the moment its last pinned snapshot drops.
/// [`Database`]'s copy-on-write internals mean distinct versions share
/// every artifact the write batch did not dirty.
///
/// A prepared plan runs only on the [`Snapshot`] that planned it: pin
/// one with [`SharedDatabase::snapshot`], then `prepare` and execute on it.
///
/// # Writer panics
///
/// A writer that panics mid-mutation takes its private head down with it:
/// nothing is published, the last committed snapshot keeps serving, and
/// subsequent reads *and* writes proceed normally. There is no lock
/// poisoning anywhere in this type — the old `RwLock`-based service layer
/// panicked on every access after a writer crash; snapshot publication
/// makes a half-mutated database unobservable by construction.
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    state: Arc<SharedState>,
    pool: MorselPool,
    /// The background checkpointer, present when durability is configured
    /// with `checkpoint_every > 0`. Shared by every clone; the last clone
    /// to drop joins the thread.
    _checkpointer: Option<Arc<Checkpointer>>,
}

#[derive(Debug)]
struct SharedState {
    /// The published head. Locked only for the pointer copy (pin) or the
    /// pointer swap (publish) — never while a query executes or a writer
    /// builds, so the hold time is O(1) and readers never queue behind
    /// index rebuilds.
    published: Mutex<Snapshot>,
    /// Serializes writers. Held for the whole build-and-publish cycle of
    /// one write batch; readers never touch it.
    write_gate: Mutex<()>,
    /// Durability, when opened via [`SharedDatabase::open_durable`]: the
    /// WAL append in [`SharedState::commit`] becomes the commit point.
    durable: Option<Arc<DurableCore>>,
    /// Engine/storage metrics shared by every clone of the handle (see
    /// [`metric`] for the names).
    metrics: MetricsRegistry,
}

/// Builds the shared state for a freshly opened database, seeding the
/// epoch gauge and the live-version accounting.
fn shared_state(db: Database, epoch: u64, durable: Option<Arc<DurableCore>>) -> Arc<SharedState> {
    let metrics = MetricsRegistry::new();
    metrics
        .gauge(metric::PUBLISHED_EPOCH)
        .set(gauge_value(epoch));
    let published = Mutex::new(Version::snapshot(&metrics, epoch, db));
    Arc::new(SharedState {
        published,
        write_gate: Mutex::new(()),
        durable,
        metrics,
    })
}

/// Poison recovery: every critical section over these mutexes replaces
/// whole values (an `Arc` pointer, a unit), so a panic inside one cannot
/// leave torn state — recovering the guard is always sound.
fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl SharedState {
    fn pin(&self) -> Snapshot {
        recover(self.published.lock()).clone()
    }

    fn publish(&self, db: Database, epoch: u64) {
        let next = Version::snapshot(&self.metrics, epoch, db);
        self.metrics.counter(metric::EPOCHS_PUBLISHED).inc();
        self.metrics
            .gauge(metric::PUBLISHED_EPOCH)
            .set(gauge_value(epoch));
        let prev = std::mem::replace(&mut *recover(self.published.lock()), next);
        // Drop the displaced version *outside* the lock: if this was its
        // last pin, deallocating a large database must not delay readers.
        drop(prev);
    }

    /// Commits one finished write batch, returning the epoch now
    /// published. Without durability this is exactly the old behavior: one
    /// pointer swap. With durability, the batch's operation log is
    /// appended to the WAL (and optionally fsynced) *first* — the append
    /// is the commit point — and only then published; a failed append
    /// publishes nothing, so readers can never observe an epoch the WAL
    /// does not hold.
    fn commit(
        &self,
        head: Database,
        epoch: u64,
        ops: Vec<WalOp>,
        tainted: bool,
    ) -> Result<u64, DurabilityError> {
        let Some(core) = &self.durable else {
            self.publish(head, epoch);
            return Ok(epoch);
        };
        if tainted {
            // An operation in the batch failed after possibly mutating the
            // head (e.g. an edge added before its property errored). The
            // op log no longer describes the head exactly, so replaying it
            // could diverge — refuse rather than persist a lie.
            return Err(DurabilityError::TaintedBatch);
        }
        if ops.is_empty() {
            // Nothing logged: publishing would mint an epoch with no WAL
            // record and break the contiguity invariant recovery checks.
            return Ok(epoch - 1);
        }
        let started = Instant::now();
        core.append_batch(epoch, &ops)?;
        self.metrics
            .histogram(metric::WAL_APPEND_SECONDS)
            .observe(started.elapsed());
        self.publish(head, epoch);
        Ok(epoch)
    }
}

/// Checkpoints the current published snapshot: a *fuzzy* checkpoint — the
/// snapshot is pinned and serialized while writers keep committing newer
/// epochs. On success the WAL is trimmed through the *previous*
/// checkpoint's epoch (never this one's), so the previous checkpoint plus
/// the remaining WAL always reconstructs every committed epoch even if the
/// new checkpoint file later turns out corrupt.
fn checkpoint_state(state: &SharedState) -> Result<u64, DurabilityError> {
    let Some(core) = &state.durable else {
        return Err(DurabilityError::NotDurable);
    };
    let _serialize = recover(core.checkpoint_lock.lock());
    if core.is_crashed() {
        return Err(DurabilityError::Storage(StorageError::AlreadyCrashed));
    }
    let snapshot = state.pin(); // writers keep committing past this
    let epoch = snapshot.epoch();
    let prev = core.last_checkpoint_epoch();
    if epoch == prev {
        return Ok(epoch); // nothing committed since the last checkpoint
    }
    let started = Instant::now();
    let payload = encode_checkpoint_payload(snapshot.graph(), &snapshot.ddl_history());
    state
        .metrics
        .gauge(metric::CHECKPOINT_LAST_BYTES)
        .set(gauge_value(payload.len() as u64));
    if let Err(e) = write_checkpoint(&core.data_dir, epoch, &payload, core.fsync, &core.injector) {
        core.mark_crashed();
        return Err(DurabilityError::Storage(e));
    }
    core.set_last_checkpoint(epoch);
    if core.injector.fire(CrashPoint::PreWalTrim) {
        // The new checkpoint is durable but the WAL still holds the old
        // prefix — recovery skips records at or below the checkpoint
        // epoch, so the leftover prefix is harmless.
        core.mark_crashed();
        return Err(DurabilityError::Storage(StorageError::InjectedCrash(
            CrashPoint::PreWalTrim,
        )));
    }
    {
        let mut wal = core.wal.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(e) = wal.trim_through(prev, core.fsync) {
            core.mark_crashed();
            return Err(DurabilityError::Storage(e));
        }
    }
    // Best effort: losing a delete here only leaves an extra old file.
    let _ = retain_newest(&core.data_dir);
    state.metrics.counter(metric::CHECKPOINTS_TOTAL).inc();
    state
        .metrics
        .histogram(metric::CHECKPOINT_SECONDS)
        .observe(started.elapsed());
    Ok(epoch)
}

/// One poll of the background checkpointer: checkpoint when `every` epochs
/// have accumulated past the last checkpoint. Failures are reported to
/// stderr — the sticky crashed flag already stops further durable work, and
/// a background thread has nowhere better to put the error.
fn checkpointer_tick(state: &Weak<SharedState>, every: u64) {
    let Some(state) = state.upgrade() else { return };
    let Some(core) = &state.durable else { return };
    if core.is_crashed() {
        return;
    }
    if state.pin().epoch() >= core.last_checkpoint_epoch().saturating_add(every) {
        if let Err(e) = checkpoint_state(&state) {
            aplus_obs::log::error(format_args!("aplus: background checkpoint failed: {e}"));
        }
    }
}

impl SharedDatabase {
    /// Wraps `db` with a pool sized from the environment (`APLUS_THREADS`,
    /// default: available parallelism).
    #[must_use]
    pub fn new(db: Database) -> Self {
        Self::with_pool(db, MorselPool::from_env())
    }

    /// Wraps `db` with an explicit execution pool.
    #[must_use]
    pub fn with_pool(db: Database, pool: MorselPool) -> Self {
        Self {
            state: shared_state(db, 0, None),
            pool,
            _checkpointer: None,
        }
    }

    /// Opens a **durable** database in `config.data_dir` with a pool sized
    /// from the environment. See
    /// [`SharedDatabase::open_durable_with_pool`].
    pub fn open_durable(
        config: DurabilityConfig,
        init: impl FnOnce() -> Result<Database, QueryError>,
    ) -> Result<Self, DurabilityError> {
        Self::open_durable_with_pool(config, MorselPool::from_env(), init)
    }

    /// Opens a durable database: recovers whatever `config.data_dir`
    /// holds, or seeds it from `init` when the directory is fresh.
    ///
    /// * **Fresh directory** — `init()` builds the initial database, which
    ///   is checkpointed as epoch 0 before this returns; from then on the
    ///   directory alone reconstructs the database.
    /// * **Existing directory** — the newest valid checkpoint is loaded,
    ///   its index DDL replayed, and the WAL tail (every batch whose
    ///   append completed) reapplied; `init` is *not* called. The handle
    ///   resumes at the recovered epoch, so epoch numbers are stable
    ///   across restarts.
    ///
    /// Every write batch committed through the returned handle appends one
    /// WAL record (fsynced under [`aplus_storage::FsyncPolicy::Always`])
    /// before it publishes. When `config.checkpoint_every > 0`, a
    /// background thread checkpoints after that many epochs accumulate
    /// past the last checkpoint; [`SharedDatabase::checkpoint`] forces one
    /// manually.
    ///
    /// # Errors
    /// [`DurabilityError::Storage`] when the directory is unreadable,
    /// unwritable, corrupt beyond repair, or written by a newer build;
    /// [`DurabilityError::Query`] when `init` fails or recovered state
    /// fails to rebuild.
    pub fn open_durable_with_pool(
        config: DurabilityConfig,
        pool: MorselPool,
        init: impl FnOnce() -> Result<Database, QueryError>,
    ) -> Result<Self, DurabilityError> {
        let fsync = config.fsync.should_sync();
        let recovery_started = Instant::now();
        let (db, epoch, wal, last_checkpoint) =
            match aplus_storage::recover(&config.data_dir, fsync)? {
                RecoveredState::Fresh { wal } => {
                    let db = init()?;
                    let payload = encode_checkpoint_payload(db.graph(), &db.ddl_history());
                    write_checkpoint(&config.data_dir, 0, &payload, fsync, &config.injector)?;
                    (db, 0, wal, 0)
                }
                RecoveredState::Existing {
                    checkpoint_epoch,
                    graph,
                    ddl,
                    tail,
                    wal,
                } => {
                    // Rebuild on a plain Database: nothing here re-logs.
                    // `ddl()` re-records the statements into the history,
                    // so the *next* checkpoint carries them forward.
                    let mut db = Database::new(*graph)?;
                    for statement in &ddl {
                        db.ddl(statement)?;
                    }
                    let mut epoch = checkpoint_epoch;
                    for batch in &tail {
                        durable::apply_ops(&mut db, &batch.ops)?;
                        epoch = batch.epoch;
                    }
                    (db, epoch, wal, checkpoint_epoch)
                }
            };
        let core = Arc::new(DurableCore::new(
            wal,
            config.data_dir.clone(),
            fsync,
            config.injector.clone(),
            last_checkpoint,
        ));
        let state = shared_state(db, epoch, Some(core));
        state
            .metrics
            .histogram(metric::RECOVERY_SECONDS)
            .observe(recovery_started.elapsed());
        let checkpointer = (config.checkpoint_every > 0).then(|| {
            // The thread holds only a Weak: it cannot keep the database
            // alive, and the Checkpointer's drop joins it.
            let weak = Arc::downgrade(&state);
            let every = config.checkpoint_every;
            Arc::new(Checkpointer::spawn(move || {
                checkpointer_tick(&weak, every);
            }))
        });
        Ok(Self {
            state,
            pool,
            _checkpointer: checkpointer,
        })
    }

    /// Whether this database persists its commits (opened via
    /// [`SharedDatabase::open_durable`]).
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.state.durable.is_some()
    }

    /// Forces a fuzzy checkpoint of the current published epoch and
    /// returns it. Concurrent writers are unaffected (the snapshot is
    /// pinned, not locked). Returns the epoch unchanged when nothing
    /// committed since the last checkpoint.
    ///
    /// # Errors
    /// [`DurabilityError::NotDurable`] on an in-memory database;
    /// [`DurabilityError::Storage`] when writing fails.
    pub fn checkpoint(&self) -> Result<u64, DurabilityError> {
        checkpoint_state(&self.state)
    }

    /// The execution pool queries run on.
    #[must_use]
    pub fn pool(&self) -> &MorselPool {
        &self.pool
    }

    /// Pins the currently published [`Snapshot`]. Never blocks behind a
    /// writer (the publication cell is locked only for pointer swaps);
    /// queries issued through the snapshot are immune to concurrent
    /// writes, including `RECONFIGURE` rebuilds.
    pub fn snapshot(&self) -> Snapshot {
        self.state.pin()
    }

    /// The epoch of the currently published snapshot: 0 initially, +1 per
    /// committed write batch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Parses, optimizes and executes a `MATCH` query morsel-parallel
    /// against the current snapshot; returns the number of matches.
    pub fn count(&self, query: &str) -> Result<u64, QueryError> {
        let snapshot = self.snapshot();
        let (bound, plan) = snapshot.prepare(query)?;
        Ok(snapshot.count_prepared_parallel(&bound, &plan, &self.pool))
    }

    /// Executes and collects up to `limit` rows morsel-parallel against
    /// the current snapshot. The row sequence is identical to a sequential
    /// collect at any pool size.
    pub fn collect(&self, query: &str, limit: usize) -> Result<Vec<RawRow>, QueryError> {
        let snapshot = self.snapshot();
        let (bound, plan) = snapshot.prepare(query)?;
        Ok(snapshot.collect_prepared_parallel(&bound, &plan, limit, &self.pool))
    }

    /// The metrics registry of this database: engine/storage counters,
    /// gauges and histograms (names in [`metric`]). Cloneable and shared
    /// by every clone of the handle; servers register their own
    /// request-level metrics on the same registry so one snapshot covers
    /// the whole process.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        self.state.metrics.clone()
    }

    /// Runs a query with per-operator instrumentation morsel-parallel
    /// against the current snapshot; returns the count and the
    /// [`QueryProfile`].
    pub fn profile_count(&self, query: &str) -> Result<(u64, QueryProfile), QueryError> {
        self.snapshot().profile_count_on(query, &self.pool)
    }

    /// Streams up to `limit` rows into `sink` morsel-parallel against one
    /// pinned snapshot, held for the whole drain — the consumer observes
    /// one transactionally consistent version (no torn rows), **and**
    /// writers are completely unaffected: they keep committing new epochs
    /// while the stream drains the old one. Pair with
    /// [`crate::sink::row_channel`] to drain from another thread with
    /// bounded buffering.
    ///
    /// # Snapshot isolation is a guarantee, not a trade-off
    ///
    /// Under the old lock-based service layer, a slow consumer draining
    /// directly inside the sink extended a read-lock hold and stalled
    /// writers; services had to bound the drain with buffer + timeout
    /// machinery. With epoch-based publication the consistency comes from
    /// the pinned snapshot itself: an arbitrarily slow drain costs
    /// writers nothing. The only price of a long-pinned stream is memory
    /// — the pinned version stays live (sharing all undirtied artifacts
    /// with newer versions) until the stream finishes, so servers may
    /// still want disconnect-cancellation to reclaim abandoned streams
    /// (as `aplus_server` does with its write timeout).
    pub fn stream(
        &self,
        query: &str,
        limit: usize,
        sink: &mut dyn RowSink,
    ) -> Result<(), QueryError> {
        let snapshot = self.snapshot(); // pinned for the whole drain
        snapshot.stream(query, limit, &self.pool, sink)
    }

    /// Applies one DDL statement **transactionally**: the statement runs
    /// on a private head and commits as the next epoch only on success.
    /// Any failure — a parse error, an invalid spec, a duplicate index
    /// name, a `RECONFIGURE` that fails halfway through its secondary
    /// rebuilds — aborts the batch and publishes nothing, so readers can
    /// never observe a partially applied statement (and no redundant
    /// epoch is published for a statement that did nothing). Prefer this
    /// over `writer().ddl(..)` unless the DDL is part of a larger batch
    /// whose error handling you manage yourself via
    /// [`DatabaseWriteGuard::abort`].
    pub fn ddl(&self, statement: &str) -> Result<DdlOutcome, QueryError> {
        let mut w = self.writer();
        match w.ddl(statement) {
            Ok(outcome) => Ok(outcome), // dropping `w` commits the epoch
            Err(e) => {
                w.abort();
                Err(e)
            }
        }
    }

    /// The serialized writer handle: all mutation — `insert_edge`,
    /// `delete_edge`, `ddl`, `flush` — goes through the returned handle,
    /// which dereferences to `&mut Database` (a private head initialized
    /// from the latest snapshot). Blocks only behind *other writers*;
    /// in-flight readers are unaffected and new readers keep pinning the
    /// previous epoch until the handle drops, which commits the head as
    /// the next epoch in one pointer swap.
    ///
    /// Batch naturally: every mutation through one handle publishes as a
    /// single atomic version change, and the per-batch cost (one
    /// copy-on-write head initialization) amortizes over the batch. Use
    /// [`DatabaseWriteGuard::abort`] to discard the head instead of
    /// committing; a panic while the handle is live discards it too.
    pub fn writer(&self) -> DatabaseWriteGuard<'_> {
        let gate = recover(self.state.write_gate.lock());
        let base = self.state.pin();
        DatabaseWriteGuard {
            head: Some(base.inner.db.clone()),
            ops: Vec::new(),
            tainted: false,
            next_epoch: base.epoch() + 1,
            state: &self.state,
            _gate: gate,
        }
    }

    // --- Replication -----------------------------------------------------
    //
    // A replica is an in-memory `SharedDatabase` that publishes the
    // *primary's* epoch numbers: it is seeded from a bootstrap payload
    // (the primary's pinned snapshot, serialized with the checkpoint
    // codec) and then applies the primary's WAL records — each through the
    // same deterministic replay `recover` uses — publishing each batch as
    // exactly the epoch its WAL record names. Dense IDs and first-seen
    // interner codes make the replay bit-identical, so a replica at epoch
    // N serves the same counts and rows as the primary at epoch N.

    /// Serializes the current snapshot for replica bootstrap: the epoch it
    /// pins plus a checkpoint-codec payload
    /// ([`Database::from_checkpoint_payload`] rebuilds it). Works on any
    /// database, durable or not — the payload is built from the live
    /// snapshot, no checkpoint file is read.
    #[must_use]
    pub fn bootstrap_payload(&self) -> (u64, Vec<u8>) {
        let snapshot = self.snapshot();
        let payload = encode_checkpoint_payload(snapshot.graph(), &snapshot.ddl_history());
        (snapshot.epoch(), payload)
    }

    /// Reads the WAL tail past `from` for a replication shipper: the
    /// committed records with `epoch > from`, or
    /// [`WalTail::Trimmed`] when a checkpoint already trimmed that far
    /// back (the subscriber must re-bootstrap). Uses an independent read
    /// handle on the WAL file — appenders and the checkpointer are never
    /// blocked, and a torn in-flight append reads as end-of-log.
    ///
    /// # Errors
    /// [`DurabilityError::NotDurable`] on an in-memory database (no WAL to
    /// ship); [`DurabilityError::Storage`] when the read fails.
    pub fn wal_tail(&self, from: u64) -> Result<WalTail, DurabilityError> {
        let Some(core) = &self.state.durable else {
            return Err(DurabilityError::NotDurable);
        };
        Ok(aplus_storage::read_tail(
            &aplus_storage::wal_path(&core.data_dir),
            from,
        )?)
    }

    /// Wraps a bootstrapped replica database publishing at `epoch` (the
    /// epoch the bootstrap payload pinned), with a pool sized from the
    /// environment. The result is in-memory: replicas re-bootstrap from
    /// their primary on restart instead of recovering locally.
    #[must_use]
    pub fn replica(db: Database, epoch: u64) -> Self {
        Self::replica_with_pool(db, epoch, MorselPool::from_env())
    }

    /// [`SharedDatabase::replica`] with an explicit execution pool.
    #[must_use]
    pub fn replica_with_pool(db: Database, epoch: u64, pool: MorselPool) -> Self {
        Self {
            state: shared_state(db, epoch, None),
            pool,
            _checkpointer: None,
        }
    }

    /// Applies one replicated batch and publishes it as `epoch`. Returns
    /// `true` when the batch was applied, `false` when `epoch` is already
    /// published (a resumed stream replaying records the replica has —
    /// skipping is what makes re-subscription idempotent). The batch must
    /// be the next epoch in sequence; the stream's ops are replayed
    /// through the same entry points the primary's writer used, so the
    /// published snapshot is bit-identical to the primary's at `epoch`.
    ///
    /// # Errors
    /// [`DurabilityError::Replication`] when `epoch` skips past
    /// `current + 1` (the subscriber lost records and must resume or
    /// re-bootstrap) or when this database is durable;
    /// [`DurabilityError::Query`] when an op fails to apply — on a
    /// faithful stream that indicates divergence, so the caller should
    /// discard the replica and re-bootstrap.
    pub fn apply_replica_batch(&self, epoch: u64, ops: &[WalOp]) -> Result<bool, DurabilityError> {
        if self.state.durable.is_some() {
            return Err(DurabilityError::Replication(
                "replica apply requires an in-memory database \
                 (replicas re-bootstrap from their primary on restart)"
                    .to_owned(),
            ));
        }
        let _gate = recover(self.state.write_gate.lock());
        let base = self.state.pin();
        if epoch <= base.epoch() {
            return Ok(false);
        }
        if epoch != base.epoch() + 1 {
            return Err(DurabilityError::Replication(format!(
                "replication stream jumped to epoch {epoch} where {} was expected",
                base.epoch() + 1
            )));
        }
        let mut head = base.inner.db.clone();
        durable::apply_ops(&mut head, ops)?;
        self.state.publish(head, epoch);
        Ok(true)
    }

    /// Replaces the published snapshot with a re-bootstrapped database at
    /// `epoch` — the recovery path for a replica whose resume point was
    /// trimmed away on the primary. Monotone: `epoch` may equal the
    /// current epoch (an idempotent retry) but never precede it, so
    /// readers of this replica never observe time moving backwards.
    ///
    /// # Errors
    /// [`DurabilityError::Replication`] when `epoch` precedes the current
    /// epoch or this database is durable.
    pub fn install_replica_snapshot(
        &self,
        db: Database,
        epoch: u64,
    ) -> Result<(), DurabilityError> {
        if self.state.durable.is_some() {
            return Err(DurabilityError::Replication(
                "replica install requires an in-memory database".to_owned(),
            ));
        }
        let _gate = recover(self.state.write_gate.lock());
        let current = self.state.pin().epoch();
        if epoch < current {
            return Err(DurabilityError::Replication(format!(
                "bootstrap at epoch {epoch} would move the replica backwards from {current}"
            )));
        }
        self.state.publish(db, epoch);
        Ok(())
    }
}

/// Exclusive write access to the database behind a [`SharedDatabase`]:
/// a writer-owned mutable head, committed as the next snapshot epoch when
/// the guard drops (unless [`DatabaseWriteGuard::abort`]ed or unwound by
/// a panic — then the head is discarded and nothing is published).
#[must_use]
pub struct DatabaseWriteGuard<'a> {
    /// The mutable head; `None` after an abort (nothing to publish).
    head: Option<Database>,
    /// The logical operation log of this batch — what the WAL record
    /// holds when the database is durable. Populated by the guard's own
    /// `insert_edge`/`delete_edge`/`ddl`/`flush` wrappers.
    ops: Vec<WalOp>,
    /// Set when a logged operation failed: the head may now hold
    /// mutations `ops` does not describe, so a durable commit refuses the
    /// batch (an in-memory commit is unaffected).
    tainted: bool,
    next_epoch: u64,
    state: &'a SharedState,
    _gate: MutexGuard<'a, ()>,
}

impl DatabaseWriteGuard<'_> {
    /// The epoch this write batch will publish as when the guard drops.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Discards every mutation made through this guard: the head is
    /// dropped, nothing is published, and readers keep the previous
    /// epoch. The transactional escape hatch for multi-statement batches
    /// that fail halfway.
    pub fn abort(mut self) {
        self.head = None;
    }

    /// Commits the batch explicitly and reports whether it succeeded —
    /// the durable counterpart of just dropping the guard (which cannot
    /// return an error). Returns the epoch now published: `next_epoch`
    /// for a non-empty batch, the previous epoch when nothing was logged
    /// (durable databases publish no epoch for an empty batch).
    ///
    /// # Errors
    /// [`DurabilityError::Storage`] when the WAL append fails — nothing
    /// is published and the batch is lost, exactly as if the process had
    /// crashed before acknowledging; [`DurabilityError::TaintedBatch`]
    /// when an operation in the batch had failed.
    pub fn commit(mut self) -> Result<u64, DurabilityError> {
        let head = self.head.take().expect("head present until drop/abort");
        let ops = std::mem::take(&mut self.ops);
        self.state.commit(head, self.next_epoch, ops, self.tainted)
    }

    /// [`Database::insert_edge`], logged: the operation joins this batch's
    /// WAL record when the database is durable.
    pub fn insert_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        label: &str,
        props: &[(&str, Value<'_>)],
    ) -> Result<EdgeId, GraphError> {
        let head = self.head.as_mut().expect("head present until drop/abort");
        match head.insert_edge(src, dst, label, props) {
            Ok(e) => {
                self.ops.push(WalOp::InsertEdge {
                    src: src.0,
                    dst: dst.0,
                    label: label.to_owned(),
                    props: props
                        .iter()
                        .map(|(name, value)| ((*name).to_owned(), PropValue::from_value(*value)))
                        .collect(),
                });
                Ok(e)
            }
            Err(e) => {
                self.tainted = true;
                Err(e)
            }
        }
    }

    /// [`Database::delete_edge`], logged.
    pub fn delete_edge(&mut self, e: EdgeId) -> Result<(), GraphError> {
        let head = self.head.as_mut().expect("head present until drop/abort");
        match head.delete_edge(e) {
            Ok(()) => {
                self.ops.push(WalOp::DeleteEdge { edge: e.0 });
                Ok(())
            }
            Err(err) => {
                self.tainted = true;
                Err(err)
            }
        }
    }

    /// [`Database::ddl`], logged.
    pub fn ddl(&mut self, statement: &str) -> Result<DdlOutcome, QueryError> {
        let head = self.head.as_mut().expect("head present until drop/abort");
        match head.ddl(statement) {
            Ok(outcome) => {
                self.ops.push(WalOp::Ddl {
                    statement: statement.to_owned(),
                });
                Ok(outcome)
            }
            Err(e) => {
                self.tainted = true;
                Err(e)
            }
        }
    }

    /// [`Database::flush`], logged.
    pub fn flush(&mut self) {
        let head = self.head.as_mut().expect("head present until drop/abort");
        head.flush();
        self.ops.push(WalOp::Flush);
    }
}

impl Deref for DatabaseWriteGuard<'_> {
    type Target = Database;

    fn deref(&self) -> &Database {
        self.head.as_ref().expect("head present until drop/abort")
    }
}

impl DerefMut for DatabaseWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Database {
        self.head.as_mut().expect("head present until drop/abort")
    }
}

impl Drop for DatabaseWriteGuard<'_> {
    fn drop(&mut self) {
        if let Some(head) = self.head.take() {
            if std::thread::panicking() {
                // A writer crash mid-mutation: the half-mutated head dies
                // here, unpublished. Readers and future writers never see
                // it — the snapshot analogue of (and the replacement for)
                // lock poisoning.
                return;
            }
            let ops = std::mem::take(&mut self.ops);
            if let Err(e) = self.state.commit(head, self.next_epoch, ops, self.tainted) {
                // An implicit drop has no way to return the error. Nothing
                // was published (readers keep the previous epoch) and the
                // sticky crashed flag refuses further durable commits; use
                // `commit()` to observe failures programmatically.
                aplus_obs::log::error(format_args!(
                    "aplus: write batch for epoch {} was NOT committed: {e}",
                    self.next_epoch
                ));
            }
        }
        // The write gate releases after the publish (field drop order),
        // so the next writer's head always starts from this commit.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aplus_common::VertexId;
    use aplus_datagen::build_financial_graph;

    fn db() -> Database {
        Database::new(build_financial_graph().graph).unwrap()
    }

    #[test]
    fn count_labelled_edges() {
        let db = db();
        assert_eq!(db.count("MATCH a-[r:W]->b").unwrap(), 9);
        assert_eq!(db.count("MATCH a-[r:DD]->b").unwrap(), 11);
        assert_eq!(db.count("MATCH a-[r:O]->b").unwrap(), 5);
        assert_eq!(db.count("MATCH a-[r]->b").unwrap(), 25);
    }

    #[test]
    fn example1_alice_two_hops() {
        // Example 1: 2-hop from Alice. Alice owns v1 and v2; out-edges:
        // v1 has 5, v2 has 3 => 8 paths.
        let db = db();
        let n = db
            .count("MATCH c1-[r1:O]->a1-[r2]->a2 WHERE c1.name = 'Alice'")
            .unwrap();
        assert_eq!(n, 8);
    }

    #[test]
    fn example2_wire_transfers_from_alices_accounts() {
        // Example 2: Wires from accounts Alice owns: v1 has 3 wires, v2 has
        // 1 wire (t8) => 4.
        let db = db();
        let n = db
            .count("MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice'")
            .unwrap();
        assert_eq!(n, 4);
    }

    #[test]
    fn example4_currency_predicate() {
        // Example 4: wires in USD from Alice's accounts. v1 wires: t4 (EUR),
        // t17 (EUR), t20 (USD); v2 wires: t8 (USD) => 2.
        let db = db();
        let n = db
            .count(
                "MATCH c1-[r1:O]->a1-[r2:W]->a2 \
                 WHERE c1.name = 'Alice', r2.currency = USD",
            )
            .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn reconfigure_keeps_answers() {
        let mut db = db();
        let before = db.count("MATCH a-[r:W]->b WHERE r.currency = USD").unwrap();
        db.ddl(
            "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID",
        )
        .unwrap();
        let after = db.count("MATCH a-[r:W]->b WHERE r.currency = USD").unwrap();
        assert_eq!(before, after);
        assert_eq!(after, 5); // t5, t8, t9, t14, t20
    }

    #[test]
    fn create_one_hop_view_and_query() {
        let mut db = db();
        let out = db
            .ddl(
                "CREATE 1-HOP VIEW BigUsd \
                 MATCH vs-[eadj]->vd \
                 WHERE eadj.currency = USD, eadj.amt > 70 \
                 INDEX AS FW-BW \
                 PARTITION BY eadj.label SORT BY vnbr.ID",
            )
            .unwrap();
        assert_eq!(out, DdlOutcome::Created("BigUsd".into()));
        // Queries still answer correctly with the index available.
        let n = db
            .count("MATCH a-[r:DD]->b WHERE r.currency = USD, r.amt > 70")
            .unwrap();
        // DD USD > 70: t3 (200), t6 (70? no, >70 strict), t7 (75), t10 (80),
        // t16 (195) => t3, t7, t10, t16 = 4.
        assert_eq!(n, 4);
    }

    #[test]
    fn example7_money_flow_with_ep_index() {
        let mut db = db();
        db.ddl(
            "CREATE 2-HOP VIEW MoneyFlow \
             MATCH vs-[eb]->vd-[eadj]->vnbr \
             WHERE eb.date < eadj.date, eadj.amt < eb.amt \
             INDEX AS PARTITION BY eadj.label SORT BY vnbr.city",
        )
        .unwrap();
        // Example 7's query (α dropped as in the paper's Example 7 recap):
        // from t13, two more descending-amount, ascending-date steps.
        // t13 (raw edge id 17: owns occupy 0..5, t13 = 4 + 13).
        let q = "MATCH a1-[r1]->a2-[r2]->a3-[r3]->a4 \
                 WHERE r1.eID = 17, \
                 r1.date < r2.date, r2.amt < r1.amt, \
                 r2.date < r3.date, r3.amt < r2.amt";
        let (_, plan) = db.prepare(q).unwrap();
        assert!(
            plan.uses_edge_partitioned_index(),
            "plan should use the MoneyFlow EP index:\n{plan}"
        );
        // t13 -> t19 (date 19 > 13, amt 5 < 10); from t19 (v5->v4, amt 5):
        // forward edges of v4 with date > 19 and amt < 5: none => 0 matches.
        assert_eq!(db.count(q).unwrap(), 0);
        // Two-step variant ends at t19.
        let q2 = "MATCH a1-[r1]->a2-[r2]->a3 \
                  WHERE r1.eID = 17, r1.date < r2.date, r2.amt < r1.amt";
        assert_eq!(db.count(q2).unwrap(), 1);
    }

    #[test]
    fn insert_and_delete_edges_maintain_queries() {
        let mut db = db();
        let before = db.count("MATCH a-[r:W]->b").unwrap();
        let e = db
            .insert_edge(VertexId(0), VertexId(2), "W", &[("amt", Value::Int(42))])
            .unwrap();
        assert_eq!(db.count("MATCH a-[r:W]->b").unwrap(), before + 1);
        db.delete_edge(e).unwrap();
        assert_eq!(db.count("MATCH a-[r:W]->b").unwrap(), before);
        db.flush();
        assert_eq!(db.count("MATCH a-[r:W]->b").unwrap(), before);
    }

    #[test]
    fn ddl_and_query_mixups_are_errors() {
        let mut db = db();
        assert!(db
            .count("RECONFIGURE PRIMARY INDEXES SORT BY vnbr.ID")
            .is_err());
        assert!(db.ddl("MATCH a-[r]->b").is_err());
    }

    #[test]
    fn ddl_and_query_mixups_report_the_statement_offset() {
        // The rejection span points at the statement keyword, not byte 0 —
        // server error frames rely on this to highlight the right spot.
        let mut db = db();
        match db.count("  \n RECONFIGURE PRIMARY INDEXES SORT BY vnbr.ID") {
            Err(QueryError::Syntax { message, offset }) => {
                assert_eq!(offset, 4, "offset of the RECONFIGURE keyword");
                assert!(message.contains("RECONFIGURE PRIMARY INDEXES"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        match db.prepare("\t CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd INDEX AS FW") {
            Err(QueryError::Syntax { message, offset }) => {
                assert_eq!(offset, 2, "offset of the CREATE keyword");
                assert!(message.contains("CREATE 1-HOP VIEW"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        match db.ddl("   MATCH a-[r]->b") {
            Err(QueryError::Syntax { offset, .. }) => {
                assert_eq!(offset, 3, "offset of the MATCH keyword");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn memory_reporting() {
        let db = db();
        assert!(db.index_memory_bytes() > 0);
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let db = db();
        for q in [
            "MATCH a-[r:W]->b",
            "MATCH a-[r]->b",
            "MATCH a-[r1]->b-[r2]->c",
            "MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice'",
            "MATCH a1-[r1]->a2 WHERE r1.eID = 17", // edge-scan root
        ] {
            let seq = db.count(q).unwrap();
            for threads in [1, 2, 4] {
                let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(threads));
                assert_eq!(shared.count(q).unwrap(), seq, "{q} at {threads} threads");
            }
        }
    }

    #[test]
    fn shared_database_reads_and_writes() {
        let shared = db().into_shared();
        let reader = shared.clone();
        assert_eq!(reader.count("MATCH a-[r:W]->b").unwrap(), 9);
        // Writes/DDL serialize through the writer handle.
        let e = shared
            .writer()
            .insert_edge(VertexId(0), VertexId(2), "W", &[])
            .unwrap();
        assert_eq!(reader.count("MATCH a-[r:W]->b").unwrap(), 10);
        shared
            .writer()
            .ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID")
            .unwrap();
        assert_eq!(reader.count("MATCH a-[r:W]->b").unwrap(), 10);
        shared.writer().delete_edge(e).unwrap();
        shared.writer().flush();
        assert_eq!(reader.count("MATCH a-[r:W]->b").unwrap(), 9);
        // Snapshots expose the plain &self API.
        assert!(reader.snapshot().index_memory_bytes() > 0);
    }

    #[test]
    fn shared_database_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<SharedDatabase>();
        assert_send_sync::<Snapshot>();
    }

    #[test]
    fn epochs_advance_per_write_batch() {
        let shared = db().into_shared();
        assert_eq!(shared.epoch(), 0);
        shared
            .writer()
            .insert_edge(VertexId(0), VertexId(2), "W", &[])
            .unwrap();
        assert_eq!(shared.epoch(), 1, "one guard = one epoch");
        {
            let mut w = shared.writer();
            assert_eq!(w.epoch(), 2, "the epoch this batch will publish as");
            w.insert_edge(VertexId(0), VertexId(3), "W", &[]).unwrap();
            w.flush();
            w.ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID")
                .unwrap();
        }
        assert_eq!(shared.epoch(), 2, "a whole batch publishes once");
    }

    #[test]
    fn snapshots_pin_their_version_across_later_writes() {
        let shared = db().into_shared();
        let before = shared.snapshot();
        shared
            .writer()
            .insert_edge(VertexId(0), VertexId(2), "W", &[])
            .unwrap();
        let after = shared.snapshot();
        // The pinned snapshot still answers from its own epoch…
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.count("MATCH a-[r:W]->b").unwrap(), 9);
        // …while new pins see the committed write.
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.count("MATCH a-[r:W]->b").unwrap(), 10);
    }

    #[test]
    fn abort_discards_the_write_batch() {
        let shared = db().into_shared();
        let mut w = shared.writer();
        w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
        w.insert_edge(VertexId(0), VertexId(3), "W", &[]).unwrap();
        w.abort();
        assert_eq!(shared.epoch(), 0, "aborted batches publish nothing");
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 9);
        // The service stays fully writable afterwards.
        shared
            .writer()
            .insert_edge(VertexId(0), VertexId(2), "W", &[])
            .unwrap();
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 10);
    }

    #[test]
    fn failed_shared_ddl_publishes_nothing() {
        let shared = db().into_shared();
        // A parse failure aborts: no epoch for an error.
        assert!(shared.ddl("MATCH a-[r]->b").is_err());
        assert_eq!(shared.epoch(), 0);
        // A successful statement commits one epoch…
        shared
            .ddl(
                "CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd \
                 INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID",
            )
            .unwrap();
        assert_eq!(shared.epoch(), 1);
        // …and a duplicate-name failure aborts again, leaving the last
        // committed version (with exactly one V index) untouched.
        assert!(shared
            .ddl(
                "CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd \
                 INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID",
            )
            .is_err());
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 9);
    }

    #[test]
    fn writer_panic_discards_the_head_and_poisons_nothing() {
        let shared = db().into_shared();
        let crasher = {
            let handle = shared.clone();
            std::thread::spawn(move || {
                let mut w = handle.writer();
                w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
                panic!("simulated writer crash mid-mutation");
            })
        };
        assert!(crasher.join().is_err(), "the writer thread panicked");
        // The half-mutated head died unpublished: reads serve the last
        // committed epoch, and both reads and writes keep working.
        assert_eq!(shared.epoch(), 0);
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 9);
        shared
            .writer()
            .insert_edge(VertexId(0), VertexId(2), "W", &[])
            .unwrap();
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 10);
    }

    #[test]
    fn readers_complete_while_a_writer_holds_the_gate() {
        // Deterministic non-blocking proof: a reader must finish while the
        // write gate is held (under the old RwLock layer this deadlocked —
        // the count would queue behind the write guard).
        let shared = db().into_shared();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let writer = {
            let handle = shared.clone();
            std::thread::spawn(move || {
                let mut w = handle.writer();
                w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
                ready_tx.send(()).unwrap();
                // Hold the uncommitted batch until the reader proves it
                // finished without us.
                done_rx.recv().unwrap();
            })
        };
        ready_rx.recv().unwrap();
        assert_eq!(
            shared.count("MATCH a-[r:W]->b").unwrap(),
            9,
            "reads run against the published epoch while the batch is open"
        );
        done_tx.send(()).unwrap();
        writer.join().unwrap();
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 10);
    }

    #[test]
    fn parallel_collect_matches_sequential_rows() {
        let db = db();
        for q in [
            "MATCH a-[r:W]->b",
            "MATCH a-[r1]->b-[r2]->c",
            "MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE c1.name = 'Alice'", // pinned root
            "MATCH a1-[r1]->a2 WHERE r1.eID = 17",                    // edge-scan root
        ] {
            let seq = db.collect(q, usize::MAX).unwrap();
            for threads in [1, 2, 4] {
                let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(threads));
                for limit in [0, 1, 3, usize::MAX] {
                    let par = shared.collect(q, limit).unwrap();
                    assert_eq!(
                        par,
                        seq[..limit.min(seq.len())],
                        "{q} at {threads} threads, limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn stream_pushes_rows_in_collect_order() {
        let db = db();
        let q = "MATCH a-[r1]->b-[r2]->c";
        let expect = db.collect(q, 7).unwrap();
        let mut got = Vec::new();
        db.stream(q, 7, &MorselPool::new(4), &mut |row| {
            got.push(row);
            std::ops::ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn stream_sink_break_stops_early() {
        let db = db();
        let mut got = Vec::new();
        db.stream(
            "MATCH a-[r1]->b-[r2]->c",
            usize::MAX,
            &MorselPool::new(2),
            &mut |row| {
                got.push(row);
                std::ops::ControlFlow::Break(())
            },
        )
        .unwrap();
        assert_eq!(got.len(), 1, "the sink consumed exactly one row");
        assert_eq!(got, db.collect("MATCH a-[r1]->b-[r2]->c", 1).unwrap());
    }

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aplus-engine-durable-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path) -> DurabilityConfig {
        // Tests run without fsync (the files are still written in full)
        // and without the background checkpointer (explicit control).
        DurabilityConfig::new(dir)
            .fsync(aplus_storage::FsyncPolicy::Never)
            .checkpoint_every(0)
    }

    #[test]
    fn durable_open_seeds_then_recovers_across_restarts() {
        let dir = durable_dir("roundtrip");
        let pool = MorselPool::new(2);
        {
            let shared =
                SharedDatabase::open_durable_with_pool(durable_config(&dir), pool.clone(), || {
                    Ok(db())
                })
                .unwrap();
            assert!(shared.is_durable());
            assert_eq!(shared.epoch(), 0);
            shared
                .ddl(
                    "CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd \
                     INDEX AS FW PARTITION BY eadj.label SORT BY vnbr.ID",
                )
                .unwrap();
            let mut w = shared.writer();
            w.insert_edge(VertexId(0), VertexId(2), "W", &[("amt", Value::Int(42))])
                .unwrap();
            w.flush();
            assert_eq!(w.commit().unwrap(), 2);
            assert_eq!(shared.epoch(), 2);
            assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 10);
        }
        // Reopen: init must NOT run (the directory holds state); the WAL
        // tail replays both epochs over the seed checkpoint.
        let shared = SharedDatabase::open_durable_with_pool(durable_config(&dir), pool, || {
            panic!("init must not be called for an existing directory")
        })
        .unwrap();
        assert_eq!(shared.epoch(), 2, "epochs are stable across restarts");
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 10);
        // The recovered database keeps accepting durable writes.
        let mut w = shared.writer();
        w.insert_edge(VertexId(0), VertexId(3), "W", &[]).unwrap();
        assert_eq!(w.commit().unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_checkpoint_trims_and_recovery_uses_it() {
        let dir = durable_dir("checkpoint");
        let pool = MorselPool::new(1);
        {
            let shared =
                SharedDatabase::open_durable_with_pool(durable_config(&dir), pool.clone(), || {
                    Ok(db())
                })
                .unwrap();
            for _ in 0..3 {
                let mut w = shared.writer();
                w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
                w.commit().unwrap();
            }
            assert_eq!(shared.checkpoint().unwrap(), 3);
            // More epochs past the checkpoint: recovery replays the tail.
            let mut w = shared.writer();
            w.insert_edge(VertexId(0), VertexId(3), "W", &[]).unwrap();
            w.commit().unwrap();
            // A checkpoint with nothing new is a no-op.
            assert_eq!(shared.checkpoint().unwrap(), 4);
            assert_eq!(shared.checkpoint().unwrap(), 4);
        }
        let shared = SharedDatabase::open_durable_with_pool(durable_config(&dir), pool, || {
            panic!("init must not be called")
        })
        .unwrap();
        assert_eq!(shared.epoch(), 4);
        assert_eq!(shared.count("MATCH a-[r:W]->b").unwrap(), 13);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_empty_batches_and_aborts_publish_nothing() {
        let dir = durable_dir("empty");
        let shared = SharedDatabase::open_durable_with_pool(
            durable_config(&dir),
            MorselPool::new(1),
            || Ok(db()),
        )
        .unwrap();
        // An untouched writer publishes no epoch (it would have no WAL
        // record, breaking the contiguity invariant).
        assert_eq!(shared.writer().commit().unwrap(), 0);
        assert_eq!(shared.epoch(), 0);
        // Failed DDL through the transactional path: aborted, no epoch.
        assert!(shared.ddl("MATCH a-[r]->b").is_err());
        assert_eq!(shared.epoch(), 0);
        // An aborted batch publishes nothing either.
        let mut w = shared.writer();
        w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
        w.abort();
        assert_eq!(shared.epoch(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_tainted_batches_are_refused() {
        let dir = durable_dir("tainted");
        let shared = SharedDatabase::open_durable_with_pool(
            durable_config(&dir),
            MorselPool::new(1),
            || Ok(db()),
        )
        .unwrap();
        let mut w = shared.writer();
        w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
        // An out-of-range vertex makes the operation fail: the batch is
        // now tainted and must not commit durably.
        assert!(w
            .insert_edge(VertexId(9999), VertexId(0), "W", &[])
            .is_err());
        assert!(matches!(w.commit(), Err(DurabilityError::TaintedBatch)));
        assert_eq!(shared.epoch(), 0, "the tainted batch published nothing");
        // The database stays fully usable afterwards.
        let mut w = shared.writer();
        w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
        assert_eq!(w.commit().unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_background_checkpointer_checkpoints_and_joins() {
        let dir = durable_dir("background");
        {
            let config = DurabilityConfig::new(&dir)
                .fsync(aplus_storage::FsyncPolicy::Never)
                .checkpoint_every(2);
            let shared =
                SharedDatabase::open_durable_with_pool(config, MorselPool::new(1), || Ok(db()))
                    .unwrap();
            for _ in 0..4 {
                let mut w = shared.writer();
                w.insert_edge(VertexId(0), VertexId(2), "W", &[]).unwrap();
                w.commit().unwrap();
            }
            // The checkpointer polls every ~50ms; give it a few rounds.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let newest = aplus_storage::list_checkpoints(&dir)
                    .unwrap()
                    .last()
                    .map(|(e, _)| *e)
                    .unwrap_or(0);
                if newest >= 2 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "background checkpointer never caught up (newest {newest})"
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        } // drop joins the checkpointer thread
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_database_collect_and_stream() {
        let shared = db().into_shared();
        let expect = {
            let guard = shared.snapshot();
            guard.collect("MATCH a-[r:W]->b", usize::MAX).unwrap()
        };
        assert_eq!(
            shared.collect("MATCH a-[r:W]->b", usize::MAX).unwrap(),
            expect
        );
        // Stream through a bounded channel drained on another thread.
        let (mut tx, rx) = crate::sink::row_channel(2);
        let streamer = {
            let handle = shared.clone();
            std::thread::spawn(move || {
                handle
                    .stream("MATCH a-[r:W]->b", usize::MAX, &mut tx)
                    .unwrap();
                drop(tx); // close: the receiver's iterator ends
            })
        };
        let got: Vec<RawRow> = rx.collect();
        streamer.join().unwrap();
        assert_eq!(got, expect);
    }
}
