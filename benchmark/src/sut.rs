//! The pinned surface: every call the benchmark makes into the product.
//!
//! Nothing outside this file names an `aplus_*` crate, so a later PR that
//! renames or removes a product function sees its whole cost to the
//! benchmark here (`README.md` lists the functions used).
//!
//! * **End-to-end numbers** go only through
//!   `SharedDatabase::{with_pool, open_durable_with_pool, count, collect,
//!   stream, writer, checkpoint, epoch}`, `Database::{new, ddl,
//!   index_memory_bytes}`, `serve` and `Client`.
//! * **Set-up checks and layer probes** additionally use `prepare` /
//!   `count_prepared*` / `stream_prepared` / `profile_count`, `Plan::uses_index`,
//!   `parser::parse`, `IndexStore::memory_report` and the index `list`
//!   accessors, the wire codec, and `aplus_storage::{Wal, recover,
//!   list_checkpoints, encode_ops}`.

use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::path::Path;

use aplus_common::{EdgeId, VertexId};
use aplus_core::Direction;
use aplus_datagen::properties::{
    add_fraud_properties, add_magicrecs_properties, amount_alpha_for_selectivity,
    time_threshold_for_selectivity,
};
use aplus_datagen::{generate, GeneratorConfig};
use aplus_query::plan::Plan;
use aplus_query::{DurabilityConfig, FsyncPolicy, MorselPool, QueryGraph, WalOp};
use aplus_server::{Request, Response, ServerConfig};
use aplus_storage::{FaultInjector, RecoveredState, Wal};

use crate::trace::{leaf_opt, Tracer};

pub use aplus_graph::Graph;
pub use aplus_query::{Database, QueryProfile, RawRow, SharedDatabase, Snapshot};
pub use aplus_server::{Client, ServerHandle};

/// Any product error, flattened: the benchmark only asks "did it fail".
pub type SutResult<T> = Result<T, String>;

fn flat<T, E: std::fmt::Display>(r: Result<T, E>) -> SutResult<T> {
    r.map_err(|e| e.to_string())
}

// ---- datasets -----------------------------------------------------------

/// Which workload properties decorate the generated graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Props {
    None,
    /// MagicRecs `time` on edges plus the fraud `acc`/`city`/`amt`/`date`.
    MagicRecsAndFraud,
}

/// A social (Zipf 0.75) `G_{i,j}` dataset, fully determined by its fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dataset {
    pub vertices: usize,
    pub edges: usize,
    pub vertex_labels: usize,
    pub edge_labels: usize,
    pub seed: u64,
    pub props: Props,
}

/// Constants the secondary workload's query and DDL texts are filled with.
#[derive(Debug, Clone, Copy, Default)]
pub struct Alphas {
    /// `time <` threshold with 5 % selectivity (0 without properties).
    pub time: i64,
    /// Money-flow intermediate cut with 5 % selectivity.
    pub amt: i64,
}

pub fn generate_graph(d: &Dataset) -> (Graph, Alphas) {
    let config = GeneratorConfig::social(d.vertices, d.edges, d.vertex_labels, d.edge_labels)
        .with_seed(d.seed);
    let mut graph = generate(&config);
    let alphas = match d.props {
        Props::None => Alphas::default(),
        Props::MagicRecsAndFraud => {
            let time = add_magicrecs_properties(&mut graph, d.seed ^ 0xA11);
            add_fraud_properties(&mut graph, d.seed ^ 0xF4A);
            Alphas {
                time: time_threshold_for_selectivity(&graph, time, 0.05),
                amt: amount_alpha_for_selectivity(0.05),
            }
        }
    };
    (graph, alphas)
}

// ---- set-up -------------------------------------------------------------

/// `Database::new`: the default primary configuration D.
pub fn new_database(graph: Graph) -> SutResult<Database> {
    flat(Database::new(graph))
}

pub fn ddl(db: &mut Database, statement: &str) -> SutResult<()> {
    flat(db.ddl(statement)).map(|_| ())
}

/// The paper's reconfigured primary Dp (Table II), used as the *reference*
/// configuration: index configurations must never change results.
pub const RECONFIGURE_DP: &str =
    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID";

pub fn index_memory_bytes(db: &Database) -> usize {
    db.index_memory_bytes()
}

pub fn share(db: Database, workers: usize) -> SharedDatabase {
    SharedDatabase::with_pool(db, MorselPool::new(workers))
}

/// Opens a durable database in `dir`, fsyncing every commit when
/// `fsync_always`, with background checkpoints every `checkpoint_every`
/// epochs. A fresh directory is seeded from `seed` (and checkpointed as
/// epoch 0); an existing one is recovered and `seed` must be `None`.
pub fn open_durable(
    dir: &Path,
    fsync_always: bool,
    checkpoint_every: u64,
    workers: usize,
    seed: Option<Graph>,
) -> SutResult<SharedDatabase> {
    let policy = if fsync_always {
        FsyncPolicy::Always
    } else {
        FsyncPolicy::Never
    };
    let config = DurabilityConfig::new(dir)
        .fsync(policy)
        .checkpoint_every(checkpoint_every);
    flat(SharedDatabase::open_durable_with_pool(
        config,
        MorselPool::new(workers),
        || match seed {
            Some(graph) => Database::new(graph),
            None => Err(aplus_query::QueryError::NoPlan(
                "expected an existing data directory, found a fresh one".to_owned(),
            )),
        },
    ))
}

// ---- reads --------------------------------------------------------------

pub fn count(shared: &SharedDatabase, text: &str) -> SutResult<u64> {
    flat(shared.count(text))
}

pub fn collect(shared: &SharedDatabase, text: &str, limit: usize) -> SutResult<Vec<RawRow>> {
    flat(shared.collect(text, limit))
}

/// Drains `stream(text, usize::MAX, sink)` into a counting sink.
pub fn stream_count(shared: &SharedDatabase, text: &str) -> SutResult<u64> {
    let mut rows = 0u64;
    flat(shared.stream(text, usize::MAX, &mut |_row: RawRow| {
        rows += 1;
        ControlFlow::Continue(())
    }))?;
    Ok(rows)
}

pub fn epoch(shared: &SharedDatabase) -> u64 {
    shared.epoch()
}

pub fn checkpoint(shared: &SharedDatabase) -> SutResult<u64> {
    flat(shared.checkpoint())
}

// ---- writes -------------------------------------------------------------

/// One write batch of the durable workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Batch {
    /// Insert these `(src, dst)` edges under `label`.
    Insert(Vec<(u32, u32)>),
    /// Delete these edges.
    Delete(Vec<u64>),
}

/// What a committed batch produced.
#[derive(Debug, Default)]
pub struct Committed {
    /// The epoch the commit was acknowledged as.
    pub epoch: u64,
    /// IDs assigned to inserted edges (empty for a delete batch).
    pub inserted: Vec<u64>,
}

/// Applies `batch` through one `writer()` guard and commits it. With a
/// tracer, the three public steps become spans: opening the guard (write
/// gate + copy-on-write head), the mutations (graph + index maintenance,
/// plus a `flush` when asked), and `commit()` (WAL append + fsync on a
/// durable database, then the epoch publication).
pub fn commit_batch(
    shared: &SharedDatabase,
    label: &str,
    batch: &Batch,
    flush: bool,
    mut tracer: Option<&mut Tracer>,
) -> SutResult<Committed> {
    let mut w = leaf_opt(&mut tracer, "graph.writer", || shared.writer());
    let mutated: SutResult<Vec<u64>> = leaf_opt(&mut tracer, "graph.mutate", || {
        let mut inserted = Vec::new();
        match batch {
            Batch::Insert(edges) => {
                for &(src, dst) in edges {
                    let e = flat(w.insert_edge(VertexId(src), VertexId(dst), label, &[]))?;
                    inserted.push(e.0);
                }
            }
            Batch::Delete(edges) => {
                for &e in edges {
                    flat(w.delete_edge(EdgeId(e)))?;
                }
            }
        }
        if flush {
            w.flush();
        }
        Ok(inserted)
    });
    let inserted = match mutated {
        Ok(inserted) => inserted,
        Err(e) => {
            w.abort();
            return Err(e);
        }
    };
    let epoch = leaf_opt(&mut tracer, "storage.commit", || flat(w.commit()))?;
    Ok(Committed { epoch, inserted })
}

// ---- wire ---------------------------------------------------------------

/// `serve` on an OS-assigned loopback port with the default `ServerConfig`.
pub fn serve_loopback(shared: SharedDatabase) -> SutResult<ServerHandle> {
    flat(aplus_server::serve(
        shared,
        "127.0.0.1:0",
        ServerConfig::default(),
    ))
}

pub fn server_addr(handle: &ServerHandle) -> SocketAddr {
    handle.local_addr()
}

pub fn connect(addr: SocketAddr) -> SutResult<Client> {
    flat(Client::connect(addr))
}

pub fn ping(client: &mut Client) -> SutResult<()> {
    flat(client.ping())
}

/// The client verb of one wire request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Count,
    Collect,
    StreamCollect,
}

/// What a wire request (or its direct twin) answered: a count, or the
/// number of rows plus a hash of their IDs in result order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Count(u64),
    Rows { rows: u64, hash: u64 },
}

fn hash_rows(rows: &[RawRow]) -> Answer {
    // FNV-1a over every bound ID, in order: equal iff the row sequences
    // are identical (up to hash collisions).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (vertices, edges) in rows {
        vertices.iter().for_each(|&v| mix(u64::from(v)));
        edges.iter().for_each(|&e| mix(e));
    }
    Answer::Rows {
        rows: rows.len() as u64,
        hash: h,
    }
}

pub fn wire_request(
    client: &mut Client,
    verb: Verb,
    text: &str,
    limit: usize,
) -> SutResult<Answer> {
    match verb {
        Verb::Count => flat(client.count(text)).map(Answer::Count),
        Verb::Collect => flat(client.collect(text, limit)).map(|r| hash_rows(&r)),
        Verb::StreamCollect => flat(client.stream_collect(text, limit)).map(|r| hash_rows(&r)),
    }
}

/// The same request answered in-process (wire answers must equal these).
pub fn direct_request(
    shared: &SharedDatabase,
    verb: Verb,
    text: &str,
    limit: usize,
) -> SutResult<Answer> {
    match verb {
        Verb::Count => count(shared, text).map(Answer::Count),
        Verb::Collect | Verb::StreamCollect => collect(shared, text, limit).map(|r| hash_rows(&r)),
    }
}

// ---- layer probes: query ------------------------------------------------

/// A query planned against one snapshot (kept pinned so the plan stays
/// valid).
pub struct Prepared {
    snapshot: Snapshot,
    bound: QueryGraph,
    plan: Plan,
}

pub fn pin(shared: &SharedDatabase) -> Snapshot {
    shared.snapshot()
}

/// `parser::parse` alone.
pub fn parse_only(text: &str) -> SutResult<()> {
    flat(aplus_query::parser::parse(text)).map(|_| ())
}

/// `Database::prepare` on a pinned snapshot: parse + bind + optimize.
pub fn prepare(snapshot: Snapshot, text: &str) -> SutResult<Prepared> {
    let (bound, plan) = flat(snapshot.prepare(text))?;
    Ok(Prepared {
        snapshot,
        bound,
        plan,
    })
}

impl Prepared {
    pub fn uses_index(&self, name: &str) -> bool {
        self.plan.uses_index(name)
    }

    /// `count_prepared_parallel` on `workers` threads.
    pub fn count(&self, workers: usize) -> u64 {
        self.snapshot
            .count_prepared_parallel(&self.bound, &self.plan, &MorselPool::new(workers))
    }

    /// `stream_prepared` into a counting sink, stopping after `limit` rows.
    pub fn stream_count(&self, limit: usize, workers: usize) -> u64 {
        let mut rows = 0u64;
        self.snapshot.stream_prepared(
            &self.bound,
            &self.plan,
            limit,
            &MorselPool::new(workers),
            &mut |_row: RawRow| {
                rows += 1;
                ControlFlow::Continue(())
            },
        );
        rows
    }

    /// `collect_prepared_parallel`, hashed like a wire answer.
    pub fn collect(&self, limit: usize, workers: usize) -> Answer {
        hash_rows(&self.snapshot.collect_prepared_parallel(
            &self.bound,
            &self.plan,
            limit,
            &MorselPool::new(workers),
        ))
    }
}

pub fn profile_count(shared: &SharedDatabase, text: &str) -> SutResult<(u64, QueryProfile)> {
    flat(shared.profile_count(text))
}

// ---- layer probes: core -------------------------------------------------

/// Sum of the lengths of the forward primary lists of `owners` (the work
/// `core.list_fetch_ns` times).
pub fn primary_list_lengths(db: &Database, owners: &[u32]) -> usize {
    let fwd = db.store().primary().index(Direction::Fwd);
    owners
        .iter()
        .map(|&v| fwd.list(VertexId(v), &[]).len())
        .sum()
}

/// Same through a vertex-partitioned index's offset lists.
pub fn vp_list_lengths(db: &Database, name: &str, owners: &[u32]) -> SutResult<usize> {
    let store = db.store();
    let fwd = store.primary().index(Direction::Fwd);
    let vp = store
        .vertex_index(name, Direction::Fwd)
        .ok_or_else(|| format!("no vertex-partitioned index {name}"))?;
    Ok(owners
        .iter()
        .map(|&v| vp.list(fwd, VertexId(v), &[]).len())
        .sum())
}

/// Same through an edge-partitioned index, keyed by bound edge.
pub fn ep_list_lengths(db: &Database, name: &str, bound_edges: &[u64]) -> SutResult<usize> {
    let store = db.store();
    let fwd = store.primary().index(Direction::Fwd);
    let ep = store
        .edge_index(name)
        .ok_or_else(|| format!("no edge-partitioned index {name}"))?;
    Ok(bound_edges
        .iter()
        .map(|&e| ep.list(db.graph(), fwd, EdgeId(e), &[]).len())
        .sum())
}

/// `(bytes, indexed entries)` of the index called `name` in
/// `IndexStore::memory_report` (`"primary"`, or a secondary index with both
/// its directions added up).
pub fn index_bytes_and_entries(db: &Database, name: &str) -> (usize, usize) {
    let store = db.store();
    let bytes = store
        .memory_report()
        .iter()
        .filter(|(n, _)| n == name || n.starts_with(&format!("{name}:")))
        .map(|(_, b)| *b)
        .sum();
    let primary = store.primary();
    let entries = if name == "primary" {
        // Every live edge appears once per direction.
        2 * db.graph().live_edge_count()
    } else if let Some(ep) = store.edge_index(name) {
        ep.entry_count()
    } else {
        [Direction::Fwd, Direction::Bwd]
            .into_iter()
            .filter_map(|d| Some(store.vertex_index(name, d)?.entry_count(primary.index(d))))
            .sum()
    };
    (bytes, entries)
}

// ---- layer probes: server -----------------------------------------------

/// Round-trips the request frame of `(verb, text, limit)` and a matching
/// response frame through the wire codec (`to_json` + `from_json` each).
pub fn codec_roundtrip(
    verb: Verb,
    text: &str,
    limit: usize,
    answer_rows: &[RawRow],
) -> SutResult<()> {
    let limit = Some(limit as u64);
    let query = text.to_owned();
    let (request, response) = match verb {
        Verb::Count => (
            Request::Count { query },
            Response::Count {
                value: answer_rows.len() as u64,
            },
        ),
        Verb::Collect => (
            Request::Collect { query, limit },
            Response::Rows {
                rows: answer_rows.to_vec(),
            },
        ),
        Verb::StreamCollect => (
            Request::Stream { query, limit },
            Response::RowBatch {
                rows: answer_rows.to_vec(),
            },
        ),
    };
    Request::from_json(&request.to_json())?;
    Response::from_json(&response.to_json())?;
    Ok(())
}

// ---- layer probes: storage ----------------------------------------------

/// A bare WAL in `dir`, for timing `Wal::append` without the engine.
pub struct WalProbe {
    wal: Wal,
    payload: Vec<u8>,
    next_epoch: u64,
}

impl WalProbe {
    /// Creates `dir/probe.wal`; every append carries the encoded ops of one
    /// insert batch over `edges`.
    pub fn create(dir: &Path, label: &str, edges: &[(u32, u32)]) -> SutResult<Self> {
        flat(std::fs::create_dir_all(dir))?;
        let ops: Vec<WalOp> = edges
            .iter()
            .map(|&(src, dst)| WalOp::InsertEdge {
                src,
                dst,
                label: label.to_owned(),
                props: Vec::new(),
            })
            .collect();
        Ok(Self {
            wal: flat(Wal::create(dir.join("probe.wal"), false))?,
            payload: aplus_storage::encode_ops(&ops),
            next_epoch: 1,
        })
    }

    pub fn append(&mut self, fsync: bool) -> SutResult<()> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        flat(
            self.wal
                .append(epoch, &self.payload, fsync, &FaultInjector::none()),
        )
    }

    /// Bytes the log grew by per appended record.
    pub fn bytes_per_record(&self) -> SutResult<f64> {
        let len = flat(std::fs::metadata(self.wal.path()))?.len();
        // 16-byte file header, then one record per append.
        Ok((len - 16) as f64 / (self.next_epoch - 1) as f64)
    }
}

/// `aplus_storage::recover` alone: checkpoint load + WAL scan, without the
/// engine's index rebuild and replay. Returns the recovered epoch.
pub fn storage_recover_only(dir: &Path, fsync_always: bool) -> SutResult<u64> {
    let state: RecoveredState = flat(aplus_storage::recover(dir, fsync_always))?;
    Ok(state.recovered_epoch())
}

/// Size of the newest checkpoint file in `dir`.
pub fn newest_checkpoint_bytes(dir: &Path) -> SutResult<u64> {
    let checkpoints = flat(aplus_storage::list_checkpoints(dir))?;
    let (_, path) = checkpoints
        .iter()
        .max_by_key(|(epoch, _)| *epoch)
        .ok_or("no checkpoint file")?;
    Ok(flat(std::fs::metadata(path))?.len())
}
