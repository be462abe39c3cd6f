//! Observability end to end, engine-side: metric counters stay monotone
//! and race-free under concurrent readers and a committing writer,
//! per-query profiles are deterministic across thread counts, `PROFILE`
//! parses as a statement, profiles distinguish `RECONFIGURE`d layouts
//! and report the block engine's factorized work, and the durable path
//! records WAL / checkpoint / recovery metrics.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use aplus::common::VertexId;
use aplus::datagen::{build_financial_graph, generate, GeneratorConfig};
use aplus::query::{metric, profiled, Output, QueryProfile, RawRow};
use aplus::{Database, DurabilityConfig, FsyncPolicy, MorselPool, SharedDatabase};

const WIRES: &str = "MATCH a-[r:W]->b";
const TWO_HOP: &str = "MATCH c1-[r1:O]->a1-[r2:W]->a2";

fn financial() -> Database {
    Database::new(build_financial_graph().graph).expect("index build")
}

fn social(vertices: usize, edges: usize) -> Database {
    Database::new(generate(&GeneratorConfig::social(vertices, edges, 1, 1))).expect("index build")
}

/// Collects up to `limit` rows of `query` on `pool` with a profiler
/// attached: `prepare` + `run` with `Output::Rows`.
fn profile_rows(
    db: &Database,
    query: &str,
    limit: usize,
    pool: &MorselPool,
) -> (Vec<RawRow>, QueryProfile) {
    let (bound, plan) = db.prepare(query).expect("query valid");
    let mut rows = Vec::new();
    let profile = profiled(&plan, |p| {
        let sink = &mut |r: RawRow| {
            rows.push(r);
            ControlFlow::Continue(())
        };
        db.run(&bound, &plan, pool, Some(p), Output::Rows { limit, sink })
    });
    (rows, profile)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aplus_obs_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Readers hammer counts while a writer commits epochs; a sampler thread
/// snapshots the registry throughout and asserts the published-epochs
/// counter never moves backwards. After the dust settles, the counter
/// equals the published epoch exactly — no lost or double increments at
/// any pool size.
#[test]
fn counters_are_monotone_and_race_free_under_concurrent_load() {
    const COMMITS: u64 = 40;
    for threads in [1usize, 2, 4] {
        let shared = SharedDatabase::with_pool(financial(), MorselPool::new(threads));
        let metrics = shared.metrics();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let reader = shared.clone();
                let done = &done;
                s.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        reader.count(WIRES).expect("query valid");
                    }
                });
            }
            let sampler = {
                let metrics = metrics.clone();
                let done = &done;
                s.spawn(move || {
                    let mut last = 0u64;
                    let mut samples = Vec::new();
                    loop {
                        let now = metrics
                            .snapshot()
                            .counter(metric::EPOCHS_PUBLISHED)
                            .unwrap_or(0);
                        assert!(now >= last, "counter moved backwards: {last} -> {now}");
                        last = now;
                        samples.push(now);
                        if done.load(Ordering::Relaxed) {
                            return samples;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            };
            for _ in 0..COMMITS {
                let mut writer = shared.writer();
                let e = writer
                    .insert_edge(VertexId(0), VertexId(2), "W", &[])
                    .expect("endpoints exist");
                writer.commit().expect("commit");
                let mut writer = shared.writer();
                writer.delete_edge(e).expect("edge live");
                writer.commit().expect("commit");
            }
            done.store(true, Ordering::Relaxed);
            let samples = sampler.join().expect("sampler clean");
            assert!(!samples.is_empty());
        });
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter(metric::EPOCHS_PUBLISHED),
            Some(2 * COMMITS),
            "pool size {threads}: every commit increments the counter exactly once"
        );
        assert_eq!(
            snap.gauge(metric::PUBLISHED_EPOCH),
            Some((2 * COMMITS) as i64),
            "pool size {threads}: the epoch gauge tracks the published epoch"
        );
    }
}

/// A profiled collect returns exactly the rows a plain collect returns,
/// and the profile's row total matches both.
#[test]
fn profile_rows_match_collect_counts() {
    let shared = SharedDatabase::with_pool(financial(), MorselPool::new(2));
    for query in [WIRES, TWO_HOP] {
        let plain = shared.collect(query, usize::MAX).expect("query valid");
        let (rows, profile) = profile_rows(&shared.snapshot(), query, usize::MAX, shared.pool());
        assert_eq!(rows, plain, "{query}: profiling must not change results");
        assert_eq!(profile.rows, rows.len() as u64, "{query}");
        let (n, count_profile) = shared.profile_count(query).expect("query valid");
        assert_eq!(n, rows.len() as u64, "{query}");
        assert_eq!(count_profile.rows, n, "{query}");
    }
}

/// The deterministic view of a profile (everything but wall-clock and
/// morsel attribution) is identical at every thread count — the shared
/// atomics see the same per-level sums regardless of interleaving.
#[test]
fn profile_merge_is_deterministic_across_thread_counts() {
    // Every morsel is a range of root IDs, so no counter depends on where
    // the morsels are cut. The labelled star-of-stars counts its tail in
    // place off a non-root owner, whose label reads must not depend on
    // where blocks split. The pinned supernode is one morsel at every pool
    // size, its one list and its two-list leapfrog included.
    let labelled =
        Database::new(generate(&GeneratorConfig::social(300, 2400, 2, 1))).expect("index build");
    let hub_db = social(300, 2400);
    let mut out_degree = vec![0usize; hub_db.graph().vertex_count()];
    for (_, s, _, _) in hub_db.graph().edges() {
        out_degree[s.index()] += 1;
    }
    let hub = (0..out_degree.len())
        .max_by_key(|&v| out_degree[v])
        .expect("the graph has vertices");
    let cases = [
        (
            social(300, 2400),
            "MATCH a1-[e1]->a2, a2-[e2]->a3".to_owned(),
        ),
        (
            labelled,
            "MATCH (a0:V0)-[r0:E0]->(a1:V1), (a0:V0)-[r1:E0]->(a2:V1), \
             (a1:V1)-[r2:E0]->(a3:V0), (a1:V1)-[r3:E0]->(a4:V1)"
                .to_owned(),
        ),
        (hub_db.clone(), format!("MATCH a-[r]->b WHERE a.ID = {hub}")),
        (
            hub_db,
            format!("MATCH a-[r]->b, a-[s]->b WHERE a.ID = {hub}"),
        ),
    ];
    for (db, query) in &cases {
        let baseline = db.profile_count(query).expect("query valid");
        for threads in [1usize, 2, 4] {
            let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(threads));
            let (n, profile) = shared.profile_count(query).expect("query valid");
            assert_eq!(n, baseline.0);
            assert_eq!(
                profile.deterministic_view(),
                baseline.1.deterministic_view(),
                "thread count {threads} changed the profile of {query}"
            );
            assert_eq!(
                profile.morsels_per_worker.len().min(threads),
                profile.morsels_per_worker.len(),
                "at most one morsel bucket per worker"
            );
        }
    }
}

/// Variable-length `PROFILE` reports per-hop frontier/visited/emitted
/// stats that are pure traversal properties — recorded once per BFS
/// level before emission — so they are identical at every thread count,
/// including under a `LIMIT` that stops emission mid-level.
#[test]
fn var_length_profiles_report_thread_invariant_hop_stats() {
    let db = social(300, 2400);
    let query = "MATCH a1-[*1..3]->a2";
    let (n, baseline) = db.profile_count(query).expect("query valid");
    assert!(
        !baseline.hops.is_empty() && baseline.hops.len() <= 3,
        "per-hop stats populated up to the bound: {baseline:?}"
    );
    // With min = 1 and no target filters, every newly-reached vertex is
    // emitted: the per-hop emitted stats decompose the row count by
    // shortest-path length.
    assert_eq!(
        baseline.hops.iter().map(|h| h.emitted).sum::<u64>(),
        n,
        "{baseline:?}"
    );
    for h in &baseline.hops {
        assert!(h.frontier > 0, "every recorded hop expanded a frontier");
    }
    // The rendered profile prints one line per hop.
    let rendered = baseline.render();
    assert!(rendered.contains("hop1 frontier="), "{rendered}");

    for threads in [1usize, 2, 4] {
        let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(threads));
        let (pn, profile) = shared.profile_count(query).expect("query valid");
        assert_eq!(pn, n);
        assert_eq!(
            profile.hops, baseline.hops,
            "thread count {threads} changed the hop stats"
        );
    }

    // Pinned root: one morsel at every pool size, whose block runs the
    // whole BFS before any row is flattened, so hop stats stay
    // thread-invariant even under a LIMIT that stops emission mid-level.
    let pinned = "MATCH a1-[*1..3]->a2 WHERE a1.ID = 0";
    let full = db.count(pinned).expect("query valid");
    assert!(full >= 2, "root 0 must reach a few vertices: {full}");
    let limit = (full as usize) / 2;
    let (seq_rows, seq_limited) = profile_rows(&db, pinned, limit, &MorselPool::sequential());
    assert_eq!(seq_rows.len(), limit);
    assert!(!seq_limited.hops.is_empty());
    for threads in [2usize, 4] {
        let (rows, limited) = profile_rows(&db, pinned, limit, &MorselPool::new(threads));
        assert_eq!(rows, seq_rows, "thread count {threads}");
        assert_eq!(
            limited.hops, seq_limited.hops,
            "thread count {threads}: LIMIT changed recorded hop stats"
        );
    }
}

/// `PROFILE MATCH …` parses as a statement and profiles exactly the
/// embedded query.
#[test]
fn profile_keyword_parses_and_matches_plain_count() {
    let mut db = financial();
    let n = db.count(WIRES).expect("query valid");
    let (pn, profile) = db
        .profile_count(&format!("PROFILE {WIRES}"))
        .expect("PROFILE statement parses");
    assert_eq!(pn, n);
    assert_eq!(profile.levels.len(), 2, "scan + one E/I");
    // The DDL path must reject it: PROFILE is a read, not a statement
    // that mints an epoch.
    assert!(db.ddl(&format!("PROFILE {WIRES}")).is_err());
}

/// The same query profiled before and after `RECONFIGURE PRIMARY
/// INDEXES` shows different per-level work: predicate-subsumed partitions
/// shrink the candidate sets the E/I levels examine.
#[test]
fn profiles_differ_across_reconfigured_layouts() {
    let query = "MATCH c1-[r1:O]->a1-[r2:W]->a2 WHERE r2.currency = USD";
    let mut db = financial();
    let (n_before, before) = db.profile_count(query).expect("query valid");
    db.ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, eadj.currency SORT BY vnbr.ID")
        .expect("reconfigure");
    let (n_after, after) = db.profile_count(query).expect("query valid");
    assert_eq!(n_before, n_after, "layout must never change results");
    let candidates =
        |p: &aplus::query::QueryProfile| -> u64 { p.levels.iter().map(|l| l.candidates).sum() };
    assert!(
        candidates(&after) < candidates(&before),
        "currency partitioning must shrink examined candidates: \
         before {} after {}",
        candidates(&before),
        candidates(&after)
    );
}

/// Every plan shape profiles as the block engine: roots seed blocks
/// (vertex- and edge-scan roots, E/I chains and var-length expansions
/// alike). Both a high-fanout unlabelled 2-hop and a labelled
/// tree (whose tail owner already has a bound edge) count their tail in
/// place: the tail level reads fewer candidates than the rows it counts,
/// where binding each row would read at least one per row.
#[test]
fn profiles_report_blocks_and_in_place_tail_counts() {
    let pool = MorselPool::new(2);
    let profile = |db: &Database, query: &str| {
        let (bound, plan) = db.prepare(query).expect("plan");
        profiled(&plan, |p| {
            db.run(&bound, &plan, &pool, Some(p), Output::Count)
        })
    };
    let fin = financial();
    for query in [
        WIRES,
        TWO_HOP,
        "MATCH a-[r1]->b-[r2]->c WHERE r1.eID = 3",
        "MATCH a-[:W*1..3]->b",
    ] {
        let block = profile(&fin, query);
        assert_eq!(block.engine, "block", "{query}");
        assert!(block.blocks > 0, "{query}: roots seed blocks");
        assert_eq!(
            block.rows,
            fin.count(query).expect("query valid"),
            "{query}"
        );
    }
    let labelled =
        Database::new(generate(&GeneratorConfig::social(300, 2400, 2, 1))).expect("index build");
    let cases = [
        (social(300, 2400), "MATCH a1-[e1]->a2, a2-[e2]->a3"),
        (
            labelled,
            "MATCH (a1:V0)-[e1:E0]->(a2:V1), (a2:V1)-[e2:E0]->(a3:V1), (a2:V1)-[e3:E0]->(a4:V0)",
        ),
    ];
    for (db, query) in &cases {
        let block = profile(db, query);
        let rows = db.collect(query, usize::MAX).expect("query valid").len() as u64;
        assert_eq!(
            block.rows, rows,
            "the count equals the flattened rows: {query}"
        );
        assert!(
            block.fc_shortcut_hits > 0,
            "the tail extension takes the factorized-count shortcut: {query}"
        );
        let tail = plan_tail_level(&block);
        assert_eq!(block.levels[tail].emitted, rows, "{query}");
        assert!(
            block.levels[tail].candidates < rows,
            "{query}: tail candidates {} vs rows {rows}",
            block.levels[tail].candidates
        );
    }
}

fn plan_tail_level(p: &aplus::query::QueryProfile) -> usize {
    p.levels.len() - 1
}

/// The durable path records storage metrics: WAL append latency per
/// commit, checkpoint counters/bytes, and recovery time on reopen.
#[test]
fn durable_lifecycle_records_storage_metrics() {
    let dir = temp_dir("durable");
    let config = || DurabilityConfig::new(&dir).fsync(FsyncPolicy::Never);
    let shared =
        SharedDatabase::open_durable(config(), || Database::new(build_financial_graph().graph))
            .expect("open durable");
    for _ in 0..3 {
        let mut writer = shared.writer();
        let e = writer
            .insert_edge(VertexId(0), VertexId(2), "W", &[])
            .expect("endpoints exist");
        writer.commit().expect("durable commit");
        let mut writer = shared.writer();
        writer.delete_edge(e).expect("edge live");
        writer.commit().expect("durable commit");
    }
    shared.checkpoint().expect("checkpoint");
    let snap = shared.metrics().snapshot();
    let wal = snap
        .histograms
        .get(metric::WAL_APPEND_SECONDS)
        .expect("WAL appends recorded");
    assert_eq!(wal.count, 6, "one observation per committed batch");
    assert_eq!(snap.counter(metric::CHECKPOINTS_TOTAL), Some(1));
    assert!(snap.gauge(metric::CHECKPOINT_LAST_BYTES).unwrap_or(0) > 0);
    drop(shared);

    let reopened =
        SharedDatabase::open_durable(config(), || Database::new(build_financial_graph().graph))
            .expect("recover");
    let snap = reopened.metrics().snapshot();
    let recovery = snap
        .histograms
        .get(metric::RECOVERY_SECONDS)
        .expect("recovery timed");
    assert_eq!(recovery.count, 1);
    assert_eq!(reopened.epoch(), 6, "recovered to the last epoch");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Live-version accounting: the gauge counts database *versions* kept
/// alive — a snapshot pinned across a commit holds its superseded
/// version, and dropping the pin releases it.
#[test]
fn live_version_gauge_tracks_pinned_versions() {
    let shared = SharedDatabase::with_pool(financial(), MorselPool::new(1));
    let metrics = shared.metrics();
    let live = || metrics.snapshot().gauge(metric::LIVE_VERSIONS).unwrap_or(0);
    assert_eq!(live(), 1, "one published version");
    let pinned = shared.snapshot();
    let mut writer = shared.writer();
    writer
        .insert_edge(VertexId(0), VertexId(2), "W", &[])
        .expect("endpoints exist");
    writer.commit().expect("commit");
    assert_eq!(live(), 2, "the pin keeps the superseded version alive");
    drop(pinned);
    assert_eq!(live(), 1, "dropping the pin releases it");
}

/// The hub graph of the memo races: `HUB_ROOTS` `A` vertices each with an
/// `E` edge to one `B` hub, which has an `F` edge to each of `HUB_FAN` `C`
/// vertices, each with one to three `G` edges to `D` vertices. An `F`
/// edge's `w` is 1 for every thousandth `C` vertex, else 0.
const HUB_ROOTS: u32 = 2_048;
const HUB_FAN: u32 = 20_000;

fn memo_hub() -> Database {
    use aplus::graph::{PropertyEntity, PropertyKind, Value};
    let mut g = aplus::graph::Graph::new();
    g.register_property(PropertyEntity::Edge, "w", PropertyKind::Int)
        .unwrap();
    let w = g.catalog().property(PropertyEntity::Edge, "w").unwrap();
    let hub = HUB_ROOTS;
    let c0 = hub + 1;
    let d0 = c0 + HUB_FAN;
    for _ in 0..HUB_ROOTS {
        g.add_vertex("A");
    }
    g.add_vertex("B");
    for _ in 0..HUB_FAN {
        g.add_vertex("C");
    }
    for _ in 0..3 {
        g.add_vertex("D");
    }
    for a in 0..HUB_ROOTS {
        g.add_edge(VertexId(a), VertexId(hub), "E").unwrap();
    }
    for c in c0..d0 {
        let f = g.add_edge(VertexId(hub), VertexId(c), "F").unwrap();
        g.set_edge_prop(f, w, Value::Int(i64::from(c % 1_000 == 0)))
            .unwrap();
        for d in 0..=c % 3 {
            g.add_edge(VertexId(c), VertexId(d0 + d), "G").unwrap();
        }
    }
    Database::new(g).expect("index build")
}

/// The roots of every morsel reach one hub, the owner of a counted inner
/// branch, so at pools 2 and 4 several workers evaluate the hub's cell at
/// once. Its work is recorded once, by the write that lands, so the count
/// `PROFILE` equals the sequential one on every run, and reads the hub's
/// list once and each `C` vertex's list once.
#[test]
fn count_memo_records_a_raced_cell_once() {
    let db = memo_hub();
    let query = "MATCH (a:A)-[r:E]->(h:B), (h:B)-[s:F]->(c:C), (c:C)-[t:G]->(d:D)";
    let (bound, plan) = db.prepare(query).expect("plan");
    let profile = |pool: &MorselPool| {
        profiled(&plan, |p| {
            db.run(&bound, &plan, pool, Some(p), Output::Count)
        })
    };
    let sequential = profile(&MorselPool::sequential());
    let leaves: u64 = (HUB_ROOTS + 1..HUB_ROOTS + 1 + HUB_FAN)
        .map(|c| u64::from(1 + c % 3))
        .sum();
    assert_eq!(sequential.rows, u64::from(HUB_ROOTS) * leaves);
    let lists: Vec<u64> = sequential.levels.iter().map(|l| l.lists_scanned).collect();
    assert_eq!(
        lists,
        [0, u64::from(HUB_ROOTS), 1, u64::from(HUB_FAN)],
        "{}",
        sequential.render()
    );
    let want = sequential.deterministic_view();
    for threads in [2, 4] {
        let pool = MorselPool::new(threads);
        for run in 0..20 {
            let got = profile(&pool);
            assert_eq!(
                got.deterministic_view(),
                want,
                "pool {threads} run {run}:\n{}",
                got.render()
            );
        }
    }
}

/// The roots of every morsel reach the hub, whose `F` list a filtered
/// last operator reads from the query's memo, so at pools 2 and 4 several
/// workers want the hub's list cell at once. The cell is filled once, and
/// that fill records the one list read, so the `PROFILE` equals the
/// sequential one on every run: one list at the memo level, and a scan of
/// the 20 kept entries per root.
#[test]
fn list_memo_records_a_raced_fill_once() {
    let db = memo_hub();
    let query = "MATCH (a:A)-[r:E]->h, h-[s:F]->c WHERE s.w = 1";
    let (bound, plan) = db.prepare(query).expect("plan");
    assert!(
        plan.to_string()
            .lines()
            .any(|l| l.starts_with("  E/I v2 ⋂[v1→primary:fwd") && l.ends_with("list-filter=1")),
        "{plan}"
    );
    let profile = |pool: &MorselPool| {
        profiled(&plan, |p| {
            db.run(&bound, &plan, pool, Some(p), Output::Count)
        })
    };
    let sequential = profile(&MorselPool::sequential());
    let kept = u64::from(HUB_FAN / 1_000);
    assert_eq!(sequential.rows, u64::from(HUB_ROOTS) * kept);
    let lists: Vec<u64> = sequential.levels.iter().map(|l| l.lists_scanned).collect();
    assert_eq!(
        lists,
        [0, u64::from(HUB_ROOTS), 1],
        "{}",
        sequential.render()
    );
    assert_eq!(sequential.levels[2].candidates, u64::from(HUB_ROOTS) * kept);
    let want = sequential.deterministic_view();
    for threads in [2, 4] {
        let pool = MorselPool::new(threads);
        for run in 0..20 {
            let got = profile(&pool);
            assert_eq!(
                got.deterministic_view(),
                want,
                "pool {threads} run {run}:\n{}",
                got.render()
            );
        }
    }
}
