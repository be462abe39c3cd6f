//! The planner's statistics are maintained on the write path, never
//! recomputed — so two things must hold everywhere a graph can come from:
//!
//! 1. **One truth.** `Graph::live_edge_count` / `live_edges_per_label`
//!    equal an independent scan of the edge table at every published
//!    epoch: on a durable primary driven through inserts, deletes,
//!    double deletes, flushes and aborted batches; on a replica applying
//!    that primary's WAL records; on a replica bootstrapped from its
//!    snapshot payload; and on the database recovered from its directory
//!    (checkpoint load + WAL replay).
//! 2. **Same plans.** For every query text the benchmark runs (read from
//!    `benchmark/queries/`, never edited), the plan `optimize` builds from
//!    the maintained numbers is the plan `optimize_with` builds from
//!    scan-derived ones: equal `Debug` output, bit-equal `est_cost`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use aplus::common::{EdgeId, VertexId};
use aplus::datagen::properties::{
    add_fraud_properties, add_magicrecs_properties, amount_alpha_for_selectivity,
    time_threshold_for_selectivity,
};
use aplus::datagen::{build_financial_graph, generate, GeneratorConfig};
use aplus::query::ast::{self, Statement};
use aplus::query::optimizer::{optimize, optimize_with, PlannerStats};
use aplus::query::{decode_ops, parser, WalTail};
use aplus::{Database, DurabilityConfig, FsyncPolicy, Graph, MorselPool, SharedDatabase, Value};
use proptest::prelude::*;

// ------------------------------------------------------------- the recount

/// `(live edges, live edges per label)` from a scan of the edge table —
/// deliberately not `Graph::edges()`-based bookkeeping shared with the
/// product: it walks edge IDs and asks the tombstone bit.
fn recount(g: &Graph) -> (usize, Vec<usize>) {
    let mut per_label = vec![0usize; g.catalog().edge_label_count()];
    let mut live = 0;
    for e in (0..g.edge_count() as u64).map(EdgeId) {
        if !g.edge_is_deleted(e) {
            live += 1;
            per_label[g.edge_label(e).unwrap().index()] += 1;
        }
    }
    (live, per_label)
}

fn maintained(g: &Graph) -> (usize, Vec<usize>) {
    let mut per_label = g.live_edges_per_label().to_vec();
    per_label.resize(g.catalog().edge_label_count(), 0);
    (g.live_edge_count(), per_label)
}

fn assert_one_truth(g: &Graph, what: &str) {
    assert_eq!(maintained(g), recount(g), "{what}");
}

// ------------------------------------------------- every graph provenance

/// One generated write-batch command.
#[derive(Debug, Clone)]
enum Cmd {
    Insert {
        src: u32,
        dst: u32,
        wire: bool,
    },
    /// Delete the `pick`-th edge ID ever issued — live or already
    /// tombstoned (a double delete), whatever it happens to be.
    Delete {
        pick: usize,
    },
    Flush,
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        4 => (0u32..4, 0u32..4, prop::bool::ANY)
            .prop_map(|(src, dst, wire)| Cmd::Insert { src, dst, wire }),
        4 => (0usize..64).prop_map(|pick| Cmd::Delete { pick }),
        1 => Just(Cmd::Flush),
    ]
}

fn temp_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aplus_stats_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_db() -> Database {
    Database::new(build_financial_graph().graph).unwrap()
}

fn open(dir: &PathBuf, fresh: bool) -> SharedDatabase {
    let config = DurabilityConfig::new(dir)
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(0);
    SharedDatabase::open_durable_with_pool(config, MorselPool::new(1), || {
        assert!(fresh, "recovery must not reseed");
        Ok(seed_db())
    })
    .unwrap()
}

/// Ships every WAL record past the replica's epoch and checks the
/// replica's statistics at each epoch it publishes.
fn catch_up(primary: &SharedDatabase, replica: &SharedDatabase) {
    let WalTail::Records(records) = primary.wal_tail(replica.epoch()).unwrap() else {
        panic!("the replica never falls behind a trim in this test");
    };
    for record in records {
        let ops = decode_ops(&record.payload).unwrap();
        replica.apply_replica_batch(record.epoch, &ops).unwrap();
        assert_one_truth(
            replica.snapshot().graph(),
            &format!("replica at epoch {}", record.epoch),
        );
    }
    assert_eq!(replica.epoch(), primary.epoch());
    assert_eq!(
        maintained(replica.snapshot().graph()),
        maintained(primary.snapshot().graph()),
        "replica and primary agree at epoch {}",
        primary.epoch()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn maintained_statistics_equal_a_recount_on_every_database(
        batches in prop::collection::vec(
            (prop::collection::vec(cmd(), 1..6), 0u8..5),
            2..10,
        ),
    ) {
        let dir = temp_dir();
        let primary = open(&dir, true);
        let replica = SharedDatabase::replica_with_pool(seed_db(), 0, MorselPool::new(1));
        let checkpoint_at = batches.len() / 2;

        for (i, (batch, fate)) in batches.iter().enumerate() {
            let abort = *fate == 0; // one batch in five
            let before = maintained(primary.snapshot().graph());
            let mut writer = primary.writer();
            for command in batch {
                match command {
                    Cmd::Insert { src, dst, wire } => {
                        let label = if *wire { "W" } else { "DD" };
                        writer
                            .insert_edge(VertexId(*src), VertexId(*dst), label, &[("amt", Value::Int(1))])
                            .unwrap();
                    }
                    Cmd::Delete { pick } => {
                        let e = EdgeId((*pick % writer.graph().edge_count()) as u64);
                        writer.delete_edge(e).unwrap();
                    }
                    Cmd::Flush => writer.flush(),
                }
            }
            // The private head is a graph like any other.
            assert_one_truth(writer.graph(), "writer head");
            if abort {
                writer.abort();
                prop_assert_eq!(
                    maintained(primary.snapshot().graph()),
                    before,
                    "an aborted batch publishes nothing"
                );
            } else {
                let epoch = writer.commit().unwrap();
                assert_one_truth(primary.snapshot().graph(), &format!("primary at epoch {epoch}"));
                catch_up(&primary, &replica);
            }
            if i == checkpoint_at {
                // Later batches replay from the WAL on top of this
                // checkpoint, so recovery exercises both paths.
                primary.checkpoint().unwrap();
            }
        }

        // A replica bootstrapped from the snapshot payload (checkpoint codec).
        let (epoch, payload) = primary.bootstrap_payload();
        let bootstrapped = Database::from_checkpoint_payload(&payload).unwrap();
        assert_one_truth(bootstrapped.graph(), "bootstrapped replica");
        prop_assert_eq!(epoch, primary.epoch());

        // The recovered primary (checkpoint load + WAL replay).
        let expect = maintained(primary.snapshot().graph());
        let expect_epoch = primary.epoch();
        drop(primary);
        let recovered = open(&dir, false);
        prop_assert_eq!(recovered.epoch(), expect_epoch);
        assert_one_truth(recovered.snapshot().graph(), "recovered primary");
        prop_assert_eq!(maintained(recovered.snapshot().graph()), expect.clone());
        prop_assert_eq!(maintained(bootstrapped.graph()), expect);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Delete-after-flush: the flush folds the index buffers and clears index
/// tombstones, but the graph's tombstone stays — a second delete of the
/// same edge is still a no-op for the statistics.
#[test]
fn double_delete_and_delete_after_flush_do_not_skew_the_statistics() {
    let mut db = seed_db();
    let wires = db.count("MATCH a-[r:W]->b").unwrap();
    let live = db.graph().live_edge_count();
    let e = EdgeId(0);
    db.delete_edge(e).unwrap();
    db.delete_edge(e).unwrap();
    assert_one_truth(db.graph(), "after a double delete");
    assert_eq!(db.graph().live_edge_count(), live - 1);
    db.flush();
    db.delete_edge(e).unwrap();
    assert_one_truth(db.graph(), "after delete-after-flush");
    assert_eq!(db.graph().live_edge_count(), live - 1);
    let label = db.graph().edge_label(e).unwrap();
    let gone = u64::from(db.graph().catalog().edge_label_name(label) == "W");
    assert_eq!(db.count("MATCH a-[r:W]->b").unwrap(), wires - gone);
}

// -------------------------------------------------------- plan equivalence

/// The `NAME … TEXT` lines of one `benchmark/queries/*.txt` file: the text
/// starts at the first `MATCH`/`CREATE` token.
fn benchmark_texts(file: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("benchmark/queries")
        .join(file);
    let texts: Vec<String> = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let start = l
                .find("MATCH")
                .into_iter()
                .chain(l.find("CREATE"))
                .min()
                .unwrap_or_else(|| panic!("no statement in {l:?}"));
            l[start..].to_owned()
        })
        .collect();
    assert!(!texts.is_empty(), "{file} holds queries");
    texts
}

/// Plans `text` twice — from the maintained statistics and from a recount
/// — and requires the same plan, bit for bit.
fn assert_same_plan(db: &Database, text: &str) {
    let Statement::Query(parsed) = parser::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"))
    else {
        panic!("{text}: not a query");
    };
    let bound = ast::bind_query(db.graph(), &parsed).unwrap_or_else(|e| panic!("{text}: {e}"));
    let (edge_count, edges_per_label) = recount(db.graph());
    let scanned = PlannerStats {
        vertex_count: db.graph().vertices().count(),
        edge_count,
        edges_per_label: &edges_per_label,
    };
    let plan = optimize(db.graph(), db.store(), &bound).unwrap();
    let reference = optimize_with(db.graph(), db.store(), &bound, scanned).unwrap();
    assert_eq!(format!("{plan:?}"), format!("{reference:?}"), "{text}");
    assert_eq!(
        plan.est_cost.to_bits(),
        reference.est_cost.to_bits(),
        "{text}"
    );
    // And `prepare` is that same call.
    let (_, prepared) = db.prepare(text).unwrap();
    assert_eq!(format!("{prepared:?}"), format!("{plan:?}"), "{text}");
}

/// Tombstones a spread of edges (some twice), so live counts differ from
/// the ID space and differ per label.
fn churn(db: &mut Database) {
    let n = db.graph().edge_count() as u64;
    for e in (0..n).step_by(7).chain((0..n).step_by(21)) {
        db.delete_edge(EdgeId(e)).unwrap();
    }
    db.insert_edge(VertexId(0), VertexId(1), "E0", &[]).unwrap();
}

#[test]
fn benchmark_queries_plan_identically_from_maintained_and_scanned_statistics() {
    // G_{8,3}-shaped (8 vertex labels, 3 edge labels), scaled down: the
    // primary_count / durable_rw / wire_point texts bind against it.
    let graph = generate(&GeneratorConfig::social(2_000, 24_000, 8, 3).with_seed(11));
    let mut db = Database::new(graph).unwrap();
    churn(&mut db);
    let texts: Vec<String> = ["primary_count.txt", "durable_rw.txt", "wire_point.txt"]
        .iter()
        .flat_map(|f| benchmark_texts(f))
        .map(|t| t.replace("{r}", "5"))
        .collect();
    for config in [
        None,
        Some("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID"),
    ] {
        if let Some(ddl) = config {
            db.ddl(ddl).unwrap();
        }
        for text in &texts {
            assert_same_plan(&db, text);
        }
    }

    // G_{1,1} with the MagicRecs + fraud properties and the VPt/VPc/EPc
    // secondary indexes: the secondary_stream texts.
    let mut graph = generate(&GeneratorConfig::social(1_500, 9_000, 1, 1).with_seed(12));
    let time = add_magicrecs_properties(&mut graph, 12 ^ 0xA11);
    add_fraud_properties(&mut graph, 12 ^ 0xF4A);
    let time_alpha = time_threshold_for_selectivity(&graph, time, 0.05);
    let amt_alpha = amount_alpha_for_selectivity(0.05);
    let fill = |t: String| {
        t.replace("{time_alpha}", &time_alpha.to_string())
            .replace("{amt_alpha}", &amt_alpha.to_string())
    };
    let mut db = Database::new(graph).unwrap();
    for ddl in benchmark_texts("secondary_ddl.txt") {
        db.ddl(&fill(ddl)).unwrap();
    }
    // Maintenance after the builds, so the secondary indexes' own entry
    // counts (which also feed the cost model) have buffers and tombstones.
    churn(&mut db);
    for text in benchmark_texts("secondary_stream.txt") {
        assert_same_plan(&db, &fill(text));
    }
}
