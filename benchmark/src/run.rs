//! One benchmark run: set-up, expected results, (layer probes,) warm-up,
//! the measured window, and the after-run checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::driver::{closed_loop, LoopStats};
use crate::metrics::Values;
use crate::probes;
use crate::stats::{median, summarize_stream, ClientSamples};
use crate::sut::{self, SharedDatabase};
use crate::trace::{self, NameTotals, Span, Tracer};
use crate::workloads::{
    self, CommitStream, Fixture, Kind, OpStream, Query, ReadMix, ReadMode, Rng, Scale, WireClient,
    WireRequest, WIRE_CLIENTS,
};

/// Untimed ops before the measured window, so caches and lazy set-up are
/// out of the way.
pub const WARMUP_S: f64 = 2.0;
/// Fewest set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-ups are repeated until they took this long in all...
const SETUP_FILL_S: f64 = 2.5;
/// ...but at most this often.
const SETUP_REPS_MAX: usize = 15;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window. A traced run splits it into an
    /// untraced and a traced half.
    pub seconds: f64,
    pub trace: bool,
    /// Where data directories and trace files go.
    pub out_dir: PathBuf,
    pub scale: Scale,
    pub warmup_s: f64,
    pub setup_reps: usize,
}

#[derive(Debug, Clone)]
pub struct RunResult {
    pub kind: Kind,
    pub trace: bool,
    pub seed: u64,
    /// Ops issued in every window (warm-up included) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed set-up or after-run checks; empty on a correct run.
    pub problems: Vec<String>,
    /// End-to-end values (untraced run) or per-layer values (traced run).
    pub values: Values,
    /// Whether the reported stream had the 200 samples p95 needs.
    pub p95_supported: bool,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// What one client did in the untraced and the traced window.
struct ClientRun {
    round_len: usize,
    plain: LoopStats,
    traced: Option<(LoopStats, Vec<Span>)>,
    warmup_attempted: u64,
    warmup_failed: u64,
}

impl ClientRun {
    fn plain_samples(&self) -> ClientSamples<'_> {
        samples(&self.plain, self.round_len)
    }

    fn traced_samples(&self) -> Option<ClientSamples<'_>> {
        let (stats, _) = self.traced.as_ref()?;
        Some(samples(stats, self.round_len))
    }
}

fn samples(stats: &LoopStats, round_len: usize) -> ClientSamples<'_> {
    ClientSamples {
        latencies_ns: &stats.latencies_ns,
        completions_ns: &stats.completions_ns,
        round_len,
    }
}

/// Runs every client for `window`, side by side, each on its own thread,
/// all released together. With `origin`, every client records spans.
fn run_window(
    clients: &mut [Box<dyn OpStream>],
    window: Duration,
    origin: Option<Instant>,
) -> Vec<(LoopStats, Vec<Span>)> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut tracer = origin.map(Tracer::new);
                    client.begin_window();
                    barrier.wait();
                    let stats = closed_loop(window, || client.op(tracer.as_mut()));
                    (stats, tracer.map(Tracer::into_spans).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn measure(clients: &mut [Box<dyn OpStream>], cfg: &RunConfig) -> Vec<ClientRun> {
    let round_lens: Vec<usize> = clients.iter().map(|c| c.round_len()).collect();
    let warm = run_window(clients, Duration::from_secs_f64(cfg.warmup_s), None);
    let plain_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain = run_window(clients, Duration::from_secs_f64(plain_s), None);
    let traced = cfg.trace.then(|| {
        run_window(
            clients,
            Duration::from_secs_f64(cfg.seconds - plain_s),
            Some(Instant::now()),
        )
    });
    let mut traced = traced.map(Vec::into_iter);
    warm.into_iter()
        .zip(plain)
        .zip(round_lens)
        .map(|(((w, _), (p, _)), round_len)| ClientRun {
            round_len,
            plain: p,
            traced: traced.as_mut().and_then(Iterator::next),
            warmup_attempted: w.attempted,
            warmup_failed: w.failed,
        })
        .collect()
}

fn data_dir(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir
        .join(format!("data-{}-{}", cfg.kind.name(), std::process::id()))
}

/// Sets the workload up repeatedly and keeps the last system; returns it
/// with every set-up's total time (`setup_s` is their median). A traced run
/// sets up once. An untraced run repeats at least `setup_reps` times, and
/// keeps going while the set-ups so far took less than [`SETUP_FILL_S`] in
/// all (a set-up of a fraction of a second needs more repetitions for a
/// steady median), up to [`SETUP_REPS_MAX`].
fn repeated_set_up(cfg: &RunConfig) -> Result<(Fixture, Vec<f64>), String> {
    let dir = data_dir(cfg);
    let mut totals: Vec<f64> = Vec::new();
    let mut fixture = None;
    loop {
        // Tear the previous system down first (server threads joined,
        // memory returned) so every repetition starts alike.
        drop(fixture.take());
        let f = workloads::set_up(cfg.kind, cfg.scale, &dir)?;
        totals.push(f.times.total);
        fixture = Some(f);
        let enough = totals.len() >= cfg.setup_reps
            && (totals.iter().sum::<f64>() >= SETUP_FILL_S || totals.len() >= SETUP_REPS_MAX);
        if cfg.trace || enough {
            break;
        }
    }
    Ok((fixture.expect("at least one set-up"), totals))
}

/// The after-run check of the durable workloads: every handle is dropped,
/// the directory reopened, and the recovered database must be at the last
/// acknowledged epoch with the live database's counts.
fn recover_and_check(
    dir: &Path,
    live: Vec<(String, u64)>,
    acknowledged_epoch: u64,
    problems: &mut Vec<String>,
) -> Result<f64, String> {
    let t = Instant::now();
    let reopened = sut::open_durable(dir, true, workloads::CHECKPOINT_EVERY, 1, None)?;
    let recover_s = t.elapsed().as_secs_f64();
    let epoch = sut::epoch(&reopened);
    if epoch != acknowledged_epoch {
        problems.push(format!(
            "recovered epoch {epoch}, last acknowledged {acknowledged_epoch}"
        ));
    }
    for (text, want) in live {
        let got = sut::count(&reopened, &text)?;
        if got != want {
            problems.push(format!("recovered {got}, live {want} for: {text}"));
        }
    }
    Ok(recover_s)
}

fn span_totals(runs: &[ClientRun]) -> BTreeMap<&'static str, NameTotals> {
    let mut totals = BTreeMap::new();
    for r in runs {
        if let Some((_, spans)) = &r.traced {
            trace::merge_totals(&mut totals, &trace::totals_by_name(spans));
        }
    }
    totals
}

/// Shares of an op's time, from the traced window's spans: the mean time of
/// a step over the mean time of the op it is part of. (Means, because the
/// wire workload replays only a sample of its requests.)
fn trace_shares(kind: Kind, totals: &BTreeMap<&'static str, NameTotals>, values: &mut Values) {
    let mean = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.count as f64)
    };
    let prepare = mean("query.pin") + mean("query.prepare");
    let exec = mean("query.exec") + mean("query.stream");
    // A wire request is explained by its in-process replay; every other
    // read op contains its own prepare/exec spans.
    let read_op = if kind == Kind::WirePoint {
        mean("op.request")
    } else {
        mean("op.read")
    };
    if read_op > 0.0 {
        values.set("trace.prepare_share", prepare / read_op, 0);
        values.set("trace.exec_share", exec / read_op, 0);
        if kind == Kind::WirePoint {
            let server = (read_op - prepare - exec).max(0.0);
            values.set("trace.server_share", server / read_op, 0);
        }
    }
    let commit_op = mean("op.commit");
    if commit_op > 0.0 {
        let cow = mean("graph.writer") + mean("graph.mutate");
        values.set("trace.cow_share", cow / commit_op, 0);
        values.set("trace.storage_share", mean("storage.commit") / commit_op, 0);
    }
}

/// Index of the durable workload's clients.
const READER: usize = 0;
const WRITER: usize = 1;

/// The clients whose ops are the workload's reported stream: the writer of
/// the durable workload (its reader's figures are per-layer metrics: beside
/// a writer they did not repeat within a tenth), every client otherwise.
fn reported(kind: Kind, runs: &[ClientRun]) -> &[ClientRun] {
    if kind.is_durable() {
        &runs[WRITER..]
    } else {
        runs
    }
}

/// Runs one workload once. `Err` means the run could not be set up at all.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let kind = cfg.kind;
    let mut problems = Vec::new();
    let mut values = Values::default();

    let (fixture, mut setup_totals) = repeated_set_up(cfg)?;
    let (reference, reconfigure_s) = workloads::reference_database(kind, cfg.scale)?;
    let mut rng = Rng::new(cfg.seed);

    let queries: Arc<Vec<Query>> = Arc::new(workloads::read_queries(&fixture, &reference)?);
    let requests: Arc<Vec<WireRequest>> = Arc::new(if kind == Kind::WirePoint {
        workloads::wire_requests(&fixture, &reference, cfg.scale, &mut rng)?
    } else {
        Vec::new()
    });

    if cfg.trace {
        let ctx = probes::Context {
            fixture: &fixture,
            reference: &reference,
            reconfigure_s,
            queries: &queries,
            requests: &requests,
            scale: cfg.scale,
            scratch_dir: cfg.out_dir.join(format!("probe-{}", std::process::id())),
        };
        let mut probe_rng = Rng::new(cfg.seed ^ 0x5EED);
        probes::run_all(&ctx, &mut probe_rng, &mut values, &mut problems)?;
    }
    drop(reference);

    let shared: &SharedDatabase = &fixture.shared;
    let workers = workloads::pool_workers(kind);
    let mut clients: Vec<Box<dyn OpStream>> = Vec::new();
    let mut writer_epoch = None;
    let mut solo_reader_p50_ms = None;
    match kind {
        Kind::PrimaryCount | Kind::SecondaryStream => {
            let mode = if kind == Kind::PrimaryCount {
                ReadMode::Count
            } else {
                ReadMode::Stream
            };
            clients.push(Box::new(ReadMix::new(
                shared.clone(),
                Arc::clone(&queries),
                mode,
                workers,
                Rng::new(rng.next_u64()),
            )));
        }
        Kind::WirePoint => {
            let addr = sut::server_addr(fixture.server.as_ref().expect("wire fixture serves"));
            for _ in 0..WIRE_CLIENTS {
                clients.push(Box::new(WireClient::new(
                    sut::connect(addr)?,
                    shared.clone(),
                    Arc::clone(&requests),
                    Rng::new(rng.next_u64()),
                )));
            }
        }
        Kind::DurableRw => {
            let mut reader = ReadMix::new(
                shared.clone(),
                Arc::clone(&queries),
                ReadMode::Count,
                workers,
                Rng::new(rng.next_u64()),
            );
            if cfg.trace {
                // The reader alone, for `query.reader_slowdown`.
                let solo = closed_loop(Duration::from_secs(1), || reader.op(None));
                solo_reader_p50_ms =
                    summarize_stream(&[samples(&solo, reader.round_len())]).map(|s| s.p50_ms);
            }
            let writer =
                CommitStream::new(shared.clone(), cfg.scale.vertices, Rng::new(rng.next_u64()));
            writer_epoch = Some(writer.acknowledged_epoch());
            clients.push(Box::new(reader)); // READER
            clients.push(Box::new(writer)); // WRITER
        }
    }

    let runs = measure(&mut clients, cfg);
    drop(clients); // wire connections and the writer's handle go first

    let mut attempted = 0;
    let mut failed = 0;
    for r in &runs {
        attempted += r.warmup_attempted + r.plain.attempted;
        failed += r.warmup_failed + r.plain.failed;
        if let Some((t, _)) = &r.traced {
            attempted += t.attempted;
            failed += t.failed;
        }
    }

    // After-run checks and the figures they yield.
    let index_bytes = fixture.index_bytes;
    if kind.is_durable() {
        let dir = fixture.data_dir.clone().expect("durable fixture has a dir");
        let acknowledged = writer_epoch
            .expect("durable runs have a writer")
            .load(Ordering::SeqCst);
        let mut live = Vec::new();
        for text in queries
            .iter()
            .map(|q| q.text.as_str())
            .chain([workloads::recovery_only_query()])
        {
            live.push((text.to_owned(), sut::count(shared, text)?));
        }
        drop(fixture); // every handle gone: the checkpointer thread joins
        let mut load_s = 0.0;
        if cfg.trace {
            let t = Instant::now();
            sut::storage_recover_only(&dir, true)?;
            load_s = t.elapsed().as_secs_f64();
        }
        let recover_s = recover_and_check(&dir, live, acknowledged, &mut problems)?;
        if cfg.trace {
            values.set("recover_s", recover_s, 1);
            values.set("storage.recover_load_s", load_s, 1);
            values.set("storage.recover_replay_s", (recover_s - load_s).max(0.0), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        drop(fixture);
    }

    let reported = reported(kind, &runs);
    let plain: Vec<_> = reported.iter().map(ClientRun::plain_samples).collect();
    let plain = summarize_stream(&plain).ok_or("no op of the reported stream succeeded")?;
    if cfg.trace {
        let traced: Vec<_> = reported
            .iter()
            .filter_map(ClientRun::traced_samples)
            .collect();
        let traced =
            summarize_stream(&traced).ok_or("no traced op of the reported stream succeeded")?;
        values.set("trace.overhead", plain.ops_per_s / traced.ops_per_s, 0);
        if kind.is_durable() {
            values.set("commits_per_s", plain.ops_per_s, plain.samples);
            if let Some(reader) = summarize_stream(&[runs[READER].plain_samples()]) {
                values.set("query.reader_ops_per_s", reader.ops_per_s, reader.samples);
                values.set("query.reader_p50_ms", reader.p50_ms, reader.samples);
                if let Some(solo) = solo_reader_p50_ms {
                    values.set(
                        "query.reader_slowdown",
                        reader.p50_ms / solo,
                        reader.samples,
                    );
                }
            }
        }
        let totals = span_totals(&runs);
        trace_shares(kind, &totals, &mut values);
        let threads: Vec<Vec<Span>> = runs
            .into_iter()
            .filter_map(|r| r.traced.map(|(_, spans)| spans))
            .collect();
        let path = cfg.out_dir.join(format!("trace-{}.json", kind.name()));
        std::fs::write(&path, trace::render_json(kind.name(), &totals, &threads))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        values.set("ops_per_s", plain.ops_per_s, plain.samples);
        values.set("p50_ms", plain.p50_ms, plain.samples);
        values.set("p95_ms", plain.p95_ms, plain.samples);
        let reps = setup_totals.len();
        values.set("setup_s", median(&mut setup_totals), reps);
        values.set("index_mb", index_bytes as f64 / (1024.0 * 1024.0), 0);
    }

    Ok(RunResult {
        kind,
        trace: cfg.trace,
        seed: cfg.seed,
        attempted,
        failed,
        problems,
        values,
        p95_supported: plain.p95_supported,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug-build unit test, large enough that every
    /// label of every query exists.
    const TINY: Scale = Scale {
        vertices: 400,
        edges: 6_000,
    };

    fn tiny(kind: Kind, trace: bool, test: &str) -> RunConfig {
        RunConfig {
            kind,
            seed: 11,
            seconds: 0.4,
            trace,
            // One directory per test: tests run on parallel threads.
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../target/benchmark/unit-tests")
                .join(test),
            scale: TINY,
            warmup_s: 0.05,
            setup_reps: 2,
        }
    }

    #[test]
    fn every_workload_runs_correctly_untraced_and_traced() {
        for kind in Kind::ALL {
            for trace in [false, true] {
                let result = run(&tiny(kind, trace, "smoke")).expect("the run sets up");
                assert!(
                    result.correct(),
                    "{kind:?} trace={trace}: {:?}",
                    result.problems
                );
                assert!(result.attempted > 0);
                let metric = if trace { "trace.overhead" } else { "ops_per_s" };
                assert!(result.values.get(metric).expect("reported").value > 0.0);
            }
        }
    }

    #[test]
    fn a_wrong_expected_count_is_a_failed_op() {
        let cfg = tiny(Kind::PrimaryCount, false, "corrupt");
        let fixture = workloads::set_up(cfg.kind, cfg.scale, &data_dir(&cfg)).unwrap();
        let (reference, _) = workloads::reference_database(cfg.kind, cfg.scale).unwrap();
        let mut queries = workloads::read_queries(&fixture, &reference).unwrap();
        queries[3].expected += 1;
        let n = queries.len() as u64;
        let mut mix = ReadMix::new(
            fixture.shared.clone(),
            Arc::new(queries),
            ReadMode::Count,
            1,
            Rng::new(1),
        );
        // Two full rounds meet the corrupted query exactly twice.
        let failures = (0..2 * n).filter(|_| !mix.op(None)).count();
        assert_eq!(failures, 2);
        let failed_run = RunResult {
            kind: cfg.kind,
            trace: false,
            seed: cfg.seed,
            attempted: 2 * n,
            failed: 2,
            problems: Vec::new(),
            values: Values::default(),
            p95_supported: false,
        };
        assert!(!failed_run.correct());
    }

    #[test]
    fn durable_runs_recover_to_the_acknowledged_epoch() {
        let result = run(&tiny(Kind::DurableRw, false, "durable")).unwrap();
        assert!(result.correct(), "{:?}", result.problems);
        // A recovery that lands on another epoch is reported.
        let cfg = tiny(Kind::DurableRw, false, "durable-wrong-epoch");
        let fixture = workloads::set_up(cfg.kind, cfg.scale, &data_dir(&cfg)).unwrap();
        let dir = fixture.data_dir.clone().unwrap();
        drop(fixture);
        let mut problems = Vec::new();
        recover_and_check(&dir, Vec::new(), 5, &mut problems).unwrap();
        assert_eq!(problems.len(), 1, "{problems:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
