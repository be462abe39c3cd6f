//! Layer probes: the benchmark timing calls into single public functions of
//! one layer (crate), on the workload's own fixture. They run only in the
//! traced run, before its window, and feed the per-layer metrics.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::Values;
use crate::stats::median;
use crate::sut::{self, SharedDatabase, Verb};
use crate::workloads::{
    self, CommitStream, Fixture, Kind, OpStream, Query, Rng, Scale, WireRequest, BATCH_EDGES,
    WRITE_LABEL,
};

pub struct Context<'a> {
    pub fixture: &'a Fixture,
    pub reference: &'a SharedDatabase,
    /// Time the reference's D -> Dp reconfiguration took (0 if none).
    pub reconfigure_s: f64,
    pub queries: &'a [Query],
    pub requests: &'a [WireRequest],
    pub scale: Scale,
    /// A directory the storage probes may create and must remove.
    pub scratch_dir: PathBuf,
}

/// Owners (or bound edges) fetched per list-fetch probe repetition.
const FETCHES: usize = 10_000;

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

pub fn run_all(
    ctx: &Context<'_>,
    rng: &mut Rng,
    out: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    set_up_breakdown(ctx, out);
    core_lists(ctx, rng, out)?;
    match ctx.fixture.kind {
        Kind::WirePoint => {
            let texts: Vec<&str> = ctx
                .requests
                .iter()
                .take(16)
                .map(|r| r.text.as_str())
                .collect();
            query_front(ctx, &texts, out)?;
            server(ctx, out)?;
        }
        kind => {
            let texts: Vec<&str> = ctx.queries.iter().map(|q| q.text.as_str()).collect();
            query_front(ctx, &texts, out)?;
            query_work(ctx, out, problems)?;
            match kind {
                Kind::PrimaryCount => primary_only(ctx, out)?,
                Kind::SecondaryStream => secondary_only(ctx, out)?,
                _ => durable_only(ctx, rng, out)?,
            }
        }
    }
    Ok(())
}

/// `core.build_s` and friends: the parts of set-up, as timed during it.
fn set_up_breakdown(ctx: &Context<'_>, out: &mut Values) {
    let times = &ctx.fixture.times;
    out.set("core.build_s", times.build, 1);
    out.set("core.reconfigure_s", ctx.reconfigure_s, 1);
    let ddl = |prefix: &str| -> f64 {
        times
            .ddl
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s)
            .sum::<f64>()
            + 0.0 // an empty sum is -0.0
    };
    out.set("core.create_vp_s", ddl("VP"), 1);
    out.set("core.create_ep_s", ddl("EP"), 1);
}

/// `core.list_fetch_ns`, `core.offset_list_fetch_ns`, `core.bytes_per_edge.*`.
fn core_lists(ctx: &Context<'_>, rng: &mut Rng, out: &mut Values) -> Result<(), String> {
    let db = sut::pin(&ctx.fixture.shared);
    let owners: Vec<u32> = (0..FETCHES)
        .map(|_| rng.below(ctx.scale.vertices) as u32)
        .collect();
    let reps = 21;
    let per_fetch_ns = |secs: f64| secs * 1e9 / FETCHES as f64;
    let primary = median_secs(reps, || {
        black_box(sut::primary_list_lengths(&db, black_box(&owners)));
    });
    out.set("core.list_fetch_ns", per_fetch_ns(primary), reps);

    let (bytes, entries) = sut::index_bytes_and_entries(&db, "primary");
    out.set(
        "core.bytes_per_edge.primary",
        bytes as f64 / entries as f64,
        0,
    );

    if ctx.fixture.kind == Kind::SecondaryStream {
        let edges: Vec<u64> = (0..FETCHES)
            .map(|_| rng.below(ctx.scale.edges) as u64)
            .collect();
        // Both must answer before anything is timed.
        sut::vp_list_lengths(&db, "VPt", &owners)?;
        sut::ep_list_lengths(&db, "EPc", &edges)?;
        let vp = median_secs(reps, || {
            black_box(sut::vp_list_lengths(&db, "VPt", black_box(&owners)).ok());
        });
        let ep = median_secs(reps, || {
            black_box(sut::ep_list_lengths(&db, "EPc", black_box(&edges)).ok());
        });
        out.set(
            "core.offset_list_fetch_ns",
            per_fetch_ns((vp + ep) / 2.0),
            reps,
        );
        for (metric, index) in [
            ("core.bytes_per_edge.VPt", "VPt"),
            ("core.bytes_per_edge.VPc", "VPc"),
            ("core.bytes_per_edge.EPc", "EPc"),
        ] {
            let (bytes, entries) = sut::index_bytes_and_entries(&db, index);
            out.set(metric, bytes as f64 / entries.max(1) as f64, 0);
        }
    }
    Ok(())
}

/// `query.parse_us` and `query.plan_us`: median over `texts` of each text's
/// median.
fn query_front(ctx: &Context<'_>, texts: &[&str], out: &mut Values) -> Result<(), String> {
    let mut parse_us = Vec::new();
    let mut plan_us = Vec::new();
    for text in texts {
        sut::parse_only(text)?;
        let parse = median_secs(51, || {
            black_box(sut::parse_only(black_box(text)).ok());
        });
        let prepare = median_secs(9, || {
            black_box(sut::prepare(sut::pin(&ctx.fixture.shared), black_box(text)).is_ok());
        });
        parse_us.push(parse * 1e6);
        plan_us.push((prepare - parse).max(0.0) * 1e6);
    }
    out.set("query.parse_us", median(&mut parse_us), texts.len());
    out.set("query.plan_us", median(&mut plan_us), texts.len());
    Ok(())
}

/// Per-query median execution time of the workload's plans on `shared`.
fn exec_medians(
    shared: &SharedDatabase,
    queries: &[Query],
    workers: usize,
) -> Result<Vec<f64>, String> {
    queries
        .iter()
        .map(|q| {
            let p = sut::prepare(sut::pin(shared), &q.text)?;
            Ok(median_secs(5, || {
                black_box(p.count(workers));
            }))
        })
        .collect()
}

/// `query.exec_ms` and the exact work counts from `profile_count`.
fn query_work(
    ctx: &Context<'_>,
    out: &mut Values,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let shared = &ctx.fixture.shared;
    let workers = workloads::pool_workers(ctx.fixture.kind);
    let mut exec_ms: Vec<f64> = exec_medians(shared, ctx.queries, workers)?
        .into_iter()
        .map(|s| s * 1e3)
        .collect();
    for (q, ms) in ctx.queries.iter().zip(&exec_ms) {
        eprintln!(
            "   {:<6} count {:>10}  exec {ms:>9.3} ms",
            q.name, q.expected
        );
    }
    out.set("query.exec_ms", median(&mut exec_ms), ctx.queries.len());

    let (mut rows, mut lists, mut candidates, mut block) = (0u64, 0u64, 0u64, 0usize);
    for q in ctx.queries {
        let (n, profile) = sut::profile_count(shared, &q.text)?;
        if n != q.expected {
            problems.push(format!(
                "{}: profiled count {n}, expected {}",
                q.name, q.expected
            ));
        }
        rows += n;
        lists += profile.levels.iter().map(|l| l.lists_scanned).sum::<u64>();
        candidates += profile.levels.iter().map(|l| l.candidates).sum::<u64>();
        block += usize::from(profile.engine == "block");
    }
    let per_row = |n: u64| n as f64 / rows.max(1) as f64;
    out.set("query.candidates_per_row", per_row(candidates), 0);
    out.set("query.lists_per_row", per_row(lists), 0);
    out.set(
        "query.block_share",
        block as f64 / ctx.queries.len() as f64,
        0,
    );
    Ok(())
}

/// `core.reconfig_speedup` (Table II) and `obs.profile_overhead`.
fn primary_only(ctx: &Context<'_>, out: &mut Values) -> Result<(), String> {
    let shared = &ctx.fixture.shared;
    let d = exec_medians(shared, ctx.queries, 1)?;
    let dp = exec_medians(ctx.reference, ctx.queries, 1)?;
    let mut speedups: Vec<f64> = d.iter().zip(&dp).map(|(d, dp)| d / dp).collect();
    out.set(
        "core.reconfig_speedup",
        median(&mut speedups),
        speedups.len(),
    );

    let mut overheads = Vec::new();
    for q in ctx.queries {
        let plain = median_secs(3, || {
            black_box(sut::count(shared, &q.text).ok());
        });
        let profiled = median_secs(3, || {
            black_box(sut::profile_count(shared, &q.text).is_ok());
        });
        overheads.push(profiled / plain);
    }
    out.set(
        "obs.profile_overhead",
        median(&mut overheads),
        overheads.len(),
    );
    Ok(())
}

/// `core.secondary_speedup` (Tables III-IV), `query.flatten_share`,
/// `runtime.speedup_2w` and `runtime.morsel_imbalance`.
fn secondary_only(ctx: &Context<'_>, out: &mut Values) -> Result<(), String> {
    let shared = &ctx.fixture.shared;
    let with = exec_medians(shared, ctx.queries, 1)?;
    let without = exec_medians(ctx.reference, ctx.queries, 1)?;
    let mut speedups: Vec<f64> = without.iter().zip(&with).map(|(d, s)| d / s).collect();
    out.set(
        "core.secondary_speedup",
        median(&mut speedups),
        speedups.len(),
    );

    let (mut one_worker, mut two_workers) = (0.0, 0.0);
    let mut flatten = Vec::new();
    let mut imbalance = Vec::new();
    for q in ctx.queries {
        let p = sut::prepare(sut::pin(shared), &q.text)?;
        let count = median_secs(5, || {
            black_box(p.count(2));
        });
        let stream = median_secs(5, || {
            black_box(p.stream_count(usize::MAX, 2));
        });
        flatten.push(((stream - count) / stream).max(0.0));
        two_workers += stream;
        let sequential = median_secs(5, || {
            black_box(p.stream_count(usize::MAX, 1));
        });
        one_worker += sequential;
        eprintln!(
            "   {:<6} count {:>9.3} ms  stream {:>9.3} ms  stream on 1 worker {:>9.3} ms",
            q.name,
            count * 1e3,
            stream * 1e3,
            sequential * 1e3
        );
        let (_, profile) = sut::profile_count(shared, &q.text)?;
        let morsels: u64 = profile.morsels_per_worker.iter().sum();
        if let Some(&busiest) = profile.morsels_per_worker.first() {
            // 1 = both workers ran the same number of morsels; 2 = one
            // worker ran them all.
            imbalance.push(busiest as f64 / (morsels as f64 / 2.0));
        }
    }
    out.set("query.flatten_share", median(&mut flatten), flatten.len());
    out.set(
        "runtime.speedup_2w",
        one_worker / two_workers,
        ctx.queries.len(),
    );
    if !imbalance.is_empty() {
        let n = imbalance.len();
        out.set(
            "runtime.morsel_imbalance",
            imbalance.iter().sum::<f64>() / n as f64,
            n,
        );
    }
    Ok(())
}

/// `server.codec_us`, `server.wire_overhead_us`, `server.first_request_ms`
/// and `connect_ms`.
fn server(ctx: &Context<'_>, out: &mut Values) -> Result<(), String> {
    let shared = &ctx.fixture.shared;
    let addr = sut::server_addr(ctx.fixture.server.as_ref().expect("wire fixture serves"));
    let sample: Vec<&WireRequest> = ctx.requests.iter().take(16).collect();

    // `connect_ms`: a fresh connection, one ping, close. Every accept
    // waits out what is left of the accept loop's poll interval.
    let connects = 40;
    let mut connect_ms: Vec<f64> = Vec::new();
    for _ in 0..connects {
        let t = Instant::now();
        let mut client = sut::connect(addr)?;
        sut::ping(&mut client)?;
        drop(client);
        connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.set("connect_ms", median(&mut connect_ms), connects);

    let mut first_ms: Vec<f64> = Vec::new();
    for r in sample.iter().take(5) {
        let t = Instant::now();
        let mut client = sut::connect(addr)?;
        sut::wire_request(&mut client, r.verb, &r.text, r.limit)?;
        first_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let n = first_ms.len();
    out.set("server.first_request_ms", median(&mut first_ms), n);

    let mut client = sut::connect(addr)?;
    let mut codec_us = Vec::new();
    let mut overhead_us = Vec::new();
    for r in &sample {
        let rows = match r.verb {
            Verb::Count => Vec::new(),
            _ => sut::collect(shared, &r.text, r.limit)?,
        };
        sut::codec_roundtrip(r.verb, &r.text, r.limit, &rows)?;
        let codec = median_secs(51, || {
            black_box(sut::codec_roundtrip(r.verb, &r.text, r.limit, black_box(&rows)).ok());
        });
        codec_us.push(codec * 1e6);
        let wire = median_secs(21, || {
            black_box(sut::wire_request(&mut client, r.verb, &r.text, r.limit).ok());
        });
        let direct = median_secs(21, || {
            black_box(sut::direct_request(shared, r.verb, &r.text, r.limit).ok());
        });
        overhead_us.push((wire - direct) * 1e6);
    }
    out.set("server.codec_us", median(&mut codec_us), sample.len());
    out.set(
        "server.wire_overhead_us",
        median(&mut overhead_us),
        sample.len(),
    );
    Ok(())
}

/// `storage.*` (bare WAL appends, a manual checkpoint) and
/// `graph.commit_mem_us` (the same batches on an in-memory twin).
fn durable_only(ctx: &Context<'_>, rng: &mut Rng, out: &mut Values) -> Result<(), String> {
    let edges: Vec<(u32, u32)> = (0..BATCH_EDGES)
        .map(|i| (i as u32, (i + 1) as u32))
        .collect();
    let mut wal = sut::WalProbe::create(&ctx.scratch_dir, WRITE_LABEL, &edges)?;
    let (off_reps, on_reps) = (300, 100);
    let mut failure = None;
    let mut append = |fsync: bool| {
        if let Err(e) = wal.append(fsync) {
            failure = Some(e);
        }
    };
    let off = median_secs(off_reps, || append(false));
    let on = median_secs(on_reps, || append(true));
    if let Some(e) = failure {
        return Err(e);
    }
    out.set("storage.wal_append_us", off * 1e6, off_reps);
    out.set("storage.fsync_us", (on - off).max(0.0) * 1e6, on_reps);
    out.set("storage.wal_bytes_per_commit", wal.bytes_per_record()?, 0);
    drop(wal);
    let _ = std::fs::remove_dir_all(&ctx.scratch_dir);

    // A manual checkpoint needs something committed since the epoch-0 one.
    let shared = &ctx.fixture.shared;
    let mut writer =
        CommitStream::new(shared.clone(), ctx.scale.vertices, Rng::new(rng.next_u64()));
    for _ in 0..8 {
        if !writer.op(None) {
            return Err("a probe commit failed".to_owned());
        }
    }
    let t = Instant::now();
    sut::checkpoint(shared)?;
    out.set("storage.checkpoint_s", t.elapsed().as_secs_f64(), 1);
    let dir = ctx
        .fixture
        .data_dir
        .as_ref()
        .expect("durable fixture has a dir");
    out.set(
        "storage.checkpoint_bytes",
        sut::newest_checkpoint_bytes(dir)? as f64,
        0,
    );

    let (graph, _) = sut::generate_graph(&workloads::dataset(ctx.fixture.kind, ctx.scale));
    let twin = sut::share(sut::new_database(graph)?, 1);
    let mut twin_writer = CommitStream::new(twin, ctx.scale.vertices, Rng::new(rng.next_u64()));
    let commits = 200;
    let mut ok = true;
    let mem = median_secs(commits, || ok &= twin_writer.op(None));
    if !ok {
        return Err("an in-memory probe commit failed".to_owned());
    }
    out.set("graph.commit_mem_us", mem * 1e6, commits);
    Ok(())
}
