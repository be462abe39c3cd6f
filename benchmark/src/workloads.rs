//! The workloads: datasets, set-up, expected results and op streams.
//!
//! Every workload is a closed loop. The dataset of each workload is frozen
//! ([`dataset`]): on this Zipf graph the cost of a labelled query swings by
//! orders of magnitude with the labels the hubs happen to draw, so a
//! per-run dataset seed would drown every other signal. `--seed` instead
//! drives the request stream: the order of each round, the pinned roots and
//! the write endpoints.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::sut::{
    self, Alphas, Answer, Batch, Client, Dataset, Props, ServerHandle, SharedDatabase, Verb,
};
use crate::trace::Tracer;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PrimaryCount,
    SecondaryStream,
    WirePoint,
    DurableRw,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::PrimaryCount,
        Kind::SecondaryStream,
        Kind::WirePoint,
        Kind::DurableRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PrimaryCount => "primary_count",
            Kind::SecondaryStream => "secondary_stream",
            Kind::WirePoint => "wire_point",
            Kind::DurableRw => "durable_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_durable(self) -> bool {
        self == Kind::DurableRw
    }
}

/// Dataset size. [`Scale::FROZEN`] is what the benchmark reports on; unit
/// tests use a smaller one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub vertices: usize,
    pub edges: usize,
}

impl Scale {
    /// Ork-shaped: the paper's Orkut divided by ~300, average degree 39.
    pub const FROZEN: Scale = Scale {
        vertices: 10_000,
        edges: 390_000,
    };
}

/// The frozen dataset of a workload at `scale` (seeds picked once so each
/// mix is balanced: no single query takes more than a third of a round).
pub fn dataset(kind: Kind, scale: Scale) -> Dataset {
    let (vertex_labels, edge_labels, seed, props) = match kind {
        Kind::PrimaryCount | Kind::WirePoint => (8, 2, 2, Props::None),
        Kind::SecondaryStream => (1, 1, 1, Props::MagicRecsAndFraud),
        Kind::DurableRw => (8, 3, 1, Props::None),
    };
    Dataset {
        vertices: scale.vertices,
        edges: scale.edges,
        vertex_labels,
        edge_labels,
        seed,
        props,
    }
}

/// Execution-pool workers of a workload's database.
pub fn pool_workers(kind: Kind) -> usize {
    match kind {
        Kind::SecondaryStream => 2,
        _ => 1,
    }
}

// ---- durable workload constants ------------------------------------------

pub const WRITE_LABEL: &str = "E2";
/// Edges per insert batch.
pub const BATCH_EDGES: usize = 8;
/// Every `DELETE_EVERY`-th commit deletes what the commits since the last
/// delete inserted, so the live `E2` population levels off.
pub const DELETE_EVERY: u64 = 4;
/// Every `FLUSH_EVERY`-th commit also flushes the update buffers.
pub const FLUSH_EVERY: u64 = 64;
pub const CHECKPOINT_EVERY: u64 = 2000;

// ---- wire workload constants ---------------------------------------------

/// Distinct pinned roots the wire clients draw from (chosen by `--seed`).
pub const WIRE_ROOTS: usize = 64;
pub const WIRE_CLIENTS: usize = 2;
/// While tracing, every this-many-th wire request is replayed in-process
/// (replaying all of them would double the traced run's work).
pub const WIRE_REPLAY_EVERY: u64 = 16;

// ---- seeded randomness ---------------------------------------------------

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

// ---- query literals ------------------------------------------------------

const PRIMARY_QUERIES: &str = include_str!("../queries/primary_count.txt");
const SECONDARY_QUERIES: &str = include_str!("../queries/secondary_stream.txt");
const SECONDARY_DDL: &str = include_str!("../queries/secondary_ddl.txt");
const WIRE_QUERIES: &str = include_str!("../queries/wire_point.txt");
const DURABLE_QUERIES: &str = include_str!("../queries/durable_rw.txt");

/// Splits every non-comment line of a query file into `fields` fields, the
/// last one taking the rest of the line (the query text).
fn literal_lines(src: &'static str, fields: usize) -> Vec<Vec<&'static str>> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let parts: Vec<&str> = l.splitn(fields, ' ').collect();
            assert_eq!(parts.len(), fields, "malformed query line: {l}");
            parts
        })
        .collect()
}

fn fill(text: &str, alphas: Alphas) -> String {
    text.replace("{time_alpha}", &alphas.time.to_string())
        .replace("{amt_alpha}", &alphas.amt.to_string())
}

/// Name of the durable query file's line that only the recovery check runs.
const RECOVERY_ONLY: &str = "E2";

/// Counts the live edges the durable writer works on (its result changes
/// with every commit, so it is compared live-vs-recovered only).
pub fn recovery_only_query() -> &'static str {
    literal_lines(DURABLE_QUERIES, 2)
        .into_iter()
        .find(|l| l[0] == RECOVERY_ONLY)
        .expect("the durable query file has the recovery-only line")[1]
}

/// A read query with the result every index configuration must give.
#[derive(Debug, Clone)]
pub struct Query {
    pub name: String,
    pub text: String,
    pub expected: u64,
}

/// One distinct wire request and the answer it must get.
#[derive(Debug, Clone)]
pub struct WireRequest {
    pub verb: Verb,
    pub limit: usize,
    pub text: String,
    pub expected: Answer,
}

// ---- set-up ----------------------------------------------------------------

/// Where set-up time went (seconds). `total` is the end-to-end `setup_s`.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// `Database::new`: the primary index build (0 for the durable
    /// workload, whose `open_durable` does not expose it).
    pub build: f64,
    /// Each index DDL, in application order.
    pub ddl: Vec<(&'static str, f64)>,
    pub total: f64,
}

/// A ready system under test.
pub struct Fixture {
    pub kind: Kind,
    pub shared: SharedDatabase,
    pub alphas: Alphas,
    pub times: SetupTimes,
    pub index_bytes: usize,
    /// `wire_point`: the running server.
    pub server: Option<ServerHandle>,
    /// Durable workloads: the data directory.
    pub data_dir: Option<PathBuf>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Builds the system a workload runs against — everything `setup_s` covers:
/// graph generation, `Database::new`, every index DDL, and `serve` /
/// `open_durable` where the workload has them.
pub fn set_up(kind: Kind, scale: Scale, data_dir: &Path) -> Result<Fixture, String> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let (graph, alphas) = sut::generate_graph(&dataset(kind, scale));
    let workers = pool_workers(kind);

    let (shared, server, dir) = if kind.is_durable() {
        // `open_durable` builds the database from the seed graph and
        // writes the epoch-0 checkpoint.
        let _ = std::fs::remove_dir_all(data_dir);
        let shared = sut::open_durable(data_dir, true, CHECKPOINT_EVERY, workers, Some(graph))?;
        (shared, None, Some(data_dir.to_owned()))
    } else {
        let t = Instant::now();
        let mut db = sut::new_database(graph)?;
        times.build = secs(t);
        if kind == Kind::SecondaryStream {
            for line in literal_lines(SECONDARY_DDL, 2) {
                let t = Instant::now();
                sut::ddl(&mut db, &fill(line[1], alphas))?;
                times.ddl.push((line[0], secs(t)));
            }
        }
        let shared = sut::share(db, workers);
        let server = if kind == Kind::WirePoint {
            Some(sut::serve_loopback(shared.clone())?)
        } else {
            None
        };
        (shared, server, None)
    };
    times.total = secs(started);
    let index_bytes = sut::index_memory_bytes(&sut::pin(&shared));
    Ok(Fixture {
        kind,
        shared,
        alphas,
        times,
        index_bytes,
        server,
        data_dir: dir,
    })
}

/// The reference database expected results come from: the same graph under
/// a *different* index configuration — Dp instead of D, or (secondary
/// workload) D with no secondary index. Returns it with the time the
/// D -> Dp reconfiguration took (0 when there was none).
pub fn reference_database(kind: Kind, scale: Scale) -> Result<(SharedDatabase, f64), String> {
    let (graph, _) = sut::generate_graph(&dataset(kind, scale));
    let mut db = sut::new_database(graph)?;
    let mut reconfigure_s = 0.0;
    if kind != Kind::SecondaryStream {
        let t = Instant::now();
        sut::ddl(&mut db, sut::RECONFIGURE_DP)?;
        reconfigure_s = secs(t);
    }
    Ok((sut::share(db, 1), reconfigure_s))
}

/// The read queries of a workload with their expected counts, computed on
/// `reference`. For the secondary workload, also asserts through
/// `Plan::uses_index` that each plan on the fixture uses its secondary
/// index (and the reference's plan does not).
pub fn read_queries(fixture: &Fixture, reference: &SharedDatabase) -> Result<Vec<Query>, String> {
    let lines: Vec<(&str, Option<&'static str>, &str)> = match fixture.kind {
        Kind::PrimaryCount => literal_lines(PRIMARY_QUERIES, 2)
            .into_iter()
            .map(|l| (l[0], None, l[1]))
            .collect(),
        Kind::SecondaryStream => literal_lines(SECONDARY_QUERIES, 3)
            .into_iter()
            .map(|l| (l[0], Some(l[1]), l[2]))
            .collect(),
        Kind::DurableRw => literal_lines(DURABLE_QUERIES, 2)
            .into_iter()
            .filter(|l| l[0] != RECOVERY_ONLY)
            .map(|l| (l[0], None, l[1]))
            .collect(),
        Kind::WirePoint => Vec::new(),
    };
    let mut queries = Vec::new();
    for (name, must_use, text) in lines {
        let text = fill(text, fixture.alphas);
        if let Some(index) = must_use {
            let plan = sut::prepare(sut::pin(&fixture.shared), &text)?;
            if !plan.uses_index(index) {
                return Err(format!("{name}: plan does not use {index}"));
            }
        }
        queries.push(Query {
            name: name.to_owned(),
            expected: sut::count(reference, &text)?,
            text,
        });
    }
    Ok(queries)
}

/// The distinct requests of the wire workload: every request kind from each
/// of [`WIRE_ROOTS`] seeded roots. The expected answer is the in-process
/// one (wire must equal direct); the full count of every text is also
/// checked against `reference`.
pub fn wire_requests(
    fixture: &Fixture,
    reference: &SharedDatabase,
    scale: Scale,
    rng: &mut Rng,
) -> Result<Vec<WireRequest>, String> {
    let kinds = literal_lines(WIRE_QUERIES, 4);
    let mut out = Vec::new();
    for _ in 0..WIRE_ROOTS {
        let root = rng.below(scale.vertices);
        for k in &kinds {
            let verb = match k[1] {
                "count" => Verb::Count,
                "collect" => Verb::Collect,
                "stream_collect" => Verb::StreamCollect,
                other => return Err(format!("unknown wire verb {other}")),
            };
            let limit: usize = k[2].parse().map_err(|e| format!("bad limit: {e}"))?;
            let text = k[3].replace("{r}", &root.to_string());
            let full = sut::count(&fixture.shared, &text)?;
            let want = sut::count(reference, &text)?;
            if full != want {
                return Err(format!(
                    "{} from root {root}: D counts {full}, Dp counts {want}",
                    k[0]
                ));
            }
            out.push(WireRequest {
                verb,
                limit,
                expected: sut::direct_request(&fixture.shared, verb, &text, limit)?,
                text,
            });
        }
    }
    Ok(out)
}

// ---- op streams --------------------------------------------------------------

/// One closed-loop client. `op` performs the next operation and says
/// whether it succeeded with the expected result; with a tracer it performs
/// the same work through the product's finer-grained public calls, one span
/// per call.
pub trait OpStream: Send {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> bool;

    /// After how many consecutive ops the op mix repeats (1 when every op
    /// is drawn alike). Statistics are taken over whole rounds.
    fn round_len(&self) -> usize {
        1
    }

    /// Called before each window, so it starts on a round boundary.
    fn begin_window(&mut self) {}
}

/// How a [`ReadMix`] runs its queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// `SharedDatabase::count(text)`.
    Count,
    /// `SharedDatabase::stream(text, usize::MAX, counting sink)`.
    Stream,
}

/// Round-robin over a query set, each round in a freshly shuffled order.
pub struct ReadMix {
    shared: SharedDatabase,
    queries: Arc<Vec<Query>>,
    mode: ReadMode,
    workers: usize,
    order: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl ReadMix {
    pub fn new(
        shared: SharedDatabase,
        queries: Arc<Vec<Query>>,
        mode: ReadMode,
        workers: usize,
        rng: Rng,
    ) -> Self {
        let order = (0..queries.len()).collect();
        Self {
            shared,
            queries,
            mode,
            workers,
            order,
            next: 0,
            rng,
        }
    }
}

impl OpStream for ReadMix {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> bool {
        if self.next == 0 {
            self.rng.shuffle(&mut self.order);
        }
        let q = &self.queries[self.order[self.next]];
        self.next = (self.next + 1) % self.order.len();
        let got = match tracer {
            None => match self.mode {
                ReadMode::Count => sut::count(&self.shared, &q.text),
                ReadMode::Stream => sut::stream_count(&self.shared, &q.text),
            },
            Some(t) => {
                let op = t.enter_op("op.read");
                let snapshot = t.leaf("query.pin", || sut::pin(&self.shared));
                let got = t
                    .leaf("query.prepare", || sut::prepare(snapshot, &q.text))
                    .map(|p| match self.mode {
                        ReadMode::Count => t.leaf("query.exec", || p.count(self.workers)),
                        ReadMode::Stream => {
                            t.leaf("query.stream", || p.stream_count(usize::MAX, self.workers))
                        }
                    });
                t.exit(op);
                got
            }
        };
        got == Ok(q.expected)
    }

    fn round_len(&self) -> usize {
        self.order.len()
    }

    fn begin_window(&mut self) {
        self.next = 0;
    }
}

/// One persistent wire connection sending a seeded stream of tiny requests.
pub struct WireClient {
    client: Client,
    shared: SharedDatabase,
    requests: Arc<Vec<WireRequest>>,
    rng: Rng,
    traced_ops: u64,
}

impl WireClient {
    pub fn new(
        client: Client,
        shared: SharedDatabase,
        requests: Arc<Vec<WireRequest>>,
        rng: Rng,
    ) -> Self {
        Self {
            client,
            shared,
            requests,
            rng,
            traced_ops: 0,
        }
    }
}

impl OpStream for WireClient {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> bool {
        let r = &self.requests[self.rng.below(self.requests.len())];
        let Some(t) = tracer else {
            return sut::wire_request(&mut self.client, r.verb, &r.text, r.limit) == Ok(r.expected);
        };
        let wire = t.enter_op("op.request");
        let got = sut::wire_request(&mut self.client, r.verb, &r.text, r.limit);
        t.exit(wire);
        self.traced_ops += 1;
        if !self.traced_ops.is_multiple_of(WIRE_REPLAY_EVERY) {
            return got == Ok(r.expected);
        }
        // The server's share of the request is not visible from here, so
        // a sample of the requests is replayed in-process, one span per
        // step (same op_id: the replay belongs to the request it explains).
        let replay = t.enter("op.replay");
        let snapshot = t.leaf("query.pin", || sut::pin(&self.shared));
        let replayed = t
            .leaf("query.prepare", || sut::prepare(snapshot, &r.text))
            .map(|p| {
                t.leaf("query.exec", || match r.verb {
                    Verb::Count => Answer::Count(p.count(1)),
                    Verb::Collect | Verb::StreamCollect => p.collect(r.limit, 1),
                })
            });
        t.exit(replay);
        got == Ok(r.expected) && replayed == Ok(r.expected)
    }
}

/// The durable writer: insert batches of [`BATCH_EDGES`] seeded edges on
/// [`WRITE_LABEL`]; every [`DELETE_EVERY`]-th commit deletes the edges
/// inserted since the previous delete; every [`FLUSH_EVERY`]-th commit
/// flushes.
pub struct CommitStream {
    shared: SharedDatabase,
    vertices: usize,
    rng: Rng,
    commits: u64,
    /// Edges inserted since the last delete commit.
    pending: VecDeque<u64>,
    /// The last epoch a commit was acknowledged as (shared, so the run can
    /// read it after the stream has been handed to its thread).
    acknowledged_epoch: Arc<AtomicU64>,
}

impl CommitStream {
    pub fn new(shared: SharedDatabase, vertices: usize, rng: Rng) -> Self {
        let acknowledged_epoch = Arc::new(AtomicU64::new(sut::epoch(&shared)));
        Self {
            shared,
            vertices,
            rng,
            commits: 0,
            pending: VecDeque::new(),
            acknowledged_epoch,
        }
    }

    pub fn acknowledged_epoch(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.acknowledged_epoch)
    }

    fn next_batch(&mut self) -> Batch {
        if self.commits.is_multiple_of(DELETE_EVERY) && !self.pending.is_empty() {
            return Batch::Delete(self.pending.drain(..).collect());
        }
        let edges = (0..BATCH_EDGES)
            .map(|_| {
                let src = self.rng.below(self.vertices);
                // Distinct endpoints: the generator avoids self-loops too.
                let dst = (src + 1 + self.rng.below(self.vertices - 1)) % self.vertices;
                (src as u32, dst as u32)
            })
            .collect();
        Batch::Insert(edges)
    }
}

impl OpStream for CommitStream {
    fn op(&mut self, mut tracer: Option<&mut Tracer>) -> bool {
        self.commits += 1;
        let batch = self.next_batch();
        let flush = self.commits.is_multiple_of(FLUSH_EVERY);
        let op = tracer.as_deref_mut().map(|t| t.enter_op("op.commit"));
        let committed = sut::commit_batch(
            &self.shared,
            WRITE_LABEL,
            &batch,
            flush,
            tracer.as_deref_mut(),
        );
        if let (Some(t), Some(op)) = (tracer, op) {
            t.exit(op);
        }
        match committed {
            // Epochs are dense: anything but the next one is a lost or
            // duplicated commit.
            Ok(c) if c.epoch == self.acknowledged_epoch.load(Ordering::SeqCst) + 1 => {
                self.acknowledged_epoch.store(c.epoch, Ordering::SeqCst);
                self.pending.extend(c.inserted);
                true
            }
            _ => false,
        }
    }

    /// The delete and flush pattern repeats every `FLUSH_EVERY` commits.
    fn round_len(&self) -> usize {
        FLUSH_EVERY as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<usize> = (0..100).map(|_| a.below(10)).collect();
        let ys: Vec<usize> = (0..100).map(|_| b.below(10)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|&x| x < 10));
        assert_ne!(Rng::new(8).next_u64(), Rng::new(7).next_u64());
        let mut order: Vec<usize> = (0..15).collect();
        a.shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn query_files_parse() {
        assert_eq!(literal_lines(PRIMARY_QUERIES, 2).len(), 15);
        assert_eq!(literal_lines(SECONDARY_QUERIES, 3).len(), 9);
        assert_eq!(literal_lines(SECONDARY_DDL, 2).len(), 3);
        assert_eq!(literal_lines(WIRE_QUERIES, 4).len(), 4);
        assert_eq!(literal_lines(DURABLE_QUERIES, 2).len(), 6);
        let filled = fill("a < {time_alpha} + {amt_alpha}", Alphas { time: 5, amt: 7 });
        assert_eq!(filled, "a < 5 + 7");
    }

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
