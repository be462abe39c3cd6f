//! `table7_scaling` + the collect table: morsel-driven parallel scaling
//! (not paper tables).
//!
//! The paper's evaluation is single-threaded; these experiments measure
//! the `aplus_runtime` subsystem layered on top of it: [`run_table7`]
//! times SQ/MR *counts* at increasing worker counts (1-thread = baseline)
//! and [`run_collect_table`] times SQ row *materialization* — full
//! `collect_prepared_parallel` plus a streamed `RowSink` drain. Counts are asserted
//! identical across thread counts, and the collect table additionally
//! asserts the full row sequences are bit-identical to the sequential
//! ones — the morsel-order merge guarantee, checked end to end.
//!
//! Thread counts default to 1/2/4/8 and can be overridden with the
//! `APLUS_THREAD_COUNTS` environment variable (comma-separated, read at
//! binary startup only — library callers pass the list explicitly).

use aplus_datagen::presets::DatasetPreset;
use aplus_datagen::properties::{add_magicrecs_properties, time_threshold_for_selectivity};
use aplus_query::{Database, MorselPool};

use crate::datasets::dataset;
use crate::report::Reporter;
use crate::workloads::{mr, sq};

/// Thread counts measured when no override is given.
pub const DEFAULT_THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// The SQ shapes measured (triangle, diamond, 4-path, 4-clique): a mix of
/// intersection-heavy and extension-heavy pipelines.
pub const SQ_SHAPES: &[usize] = &[1, 3, 6, 9];

/// Parses a comma-separated thread-count list (`"1,2,4"`). `None` when the
/// string has no valid positive integer.
#[must_use]
pub fn parse_thread_counts(s: &str) -> Option<Vec<usize>> {
    let counts: Vec<usize> = s
        .split(',')
        .filter_map(|part| part.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .collect();
    if counts.is_empty() {
        None
    } else {
        Some(counts)
    }
}

/// Reads `APLUS_THREAD_COUNTS` (binary-level entry point only), falling
/// back to [`DEFAULT_THREAD_COUNTS`].
#[must_use]
pub fn thread_counts_from_env() -> Vec<usize> {
    std::env::var("APLUS_THREAD_COUNTS")
        .ok()
        .and_then(|s| parse_thread_counts(&s))
        .unwrap_or_else(|| DEFAULT_THREAD_COUNTS.to_vec())
}

/// Runs the scaling experiment: SQ workload on `Ork8,2` and MR workload on
/// `WT1,1`, each timed at every thread count in `thread_counts` via
/// [`Database::count_prepared_parallel`]. Also records a per-config
/// `total(s)` pseudo-metric per workload (the speedup denominator).
pub fn run_table7(scale: usize, thread_counts: &[usize]) -> Reporter {
    let mut r = Reporter::new(
        "table7_scaling",
        "Morsel-driven scaling: SQ/MR latency at 1/2/4/8 threads (T1 = sequential baseline)",
    );

    // SQ workload: labelled subgraph queries on the densest preset.
    let db = Database::new(dataset(DatasetPreset::Orkut, scale, 8, 2)).expect("index build");
    let sq_queries: Vec<(String, String)> = SQ_SHAPES
        .iter()
        .map(|&q| (format!("SQ{q}"), sq::query(q, 8, 2, true)))
        .collect();
    run_workload(&mut r, "SQ(Ork8,2)", &db, &sq_queries, thread_counts);

    // MR workload: MagicRecs patterns with the 5% time predicate.
    let mut g = dataset(DatasetPreset::WikiTopcats, scale, 1, 1);
    let props = add_magicrecs_properties(&mut g, 0xA11);
    let alpha = time_threshold_for_selectivity(&g, props, 0.05);
    let db = Database::new(g).expect("index build");
    let mr_queries: Vec<(String, String)> = (1..=2)
        .map(|k| (format!("MR{k}"), mr::query(k, alpha, None)))
        .collect();
    run_workload(&mut r, "MR(WT1,1)", &db, &mr_queries, thread_counts);

    // Thread count must never change query results.
    r.assert_counts_agree();
    r
}

/// [`run_table7`] with environment-derived thread counts (the
/// `all_experiments` entry point, matching the other drivers' signature).
#[must_use]
pub fn run_table7_env(scale: usize) -> Reporter {
    run_table7(scale, &thread_counts_from_env())
}

fn run_workload(
    r: &mut Reporter,
    dataset_name: &str,
    db: &Database,
    queries: &[(String, String)],
    thread_counts: &[usize],
) {
    let prepared: Vec<_> = queries
        .iter()
        .map(|(qname, q)| {
            let (bound, plan) = db.prepare(q).expect("plan");
            (qname.as_str(), bound, plan)
        })
        .collect();
    for &t in thread_counts {
        let pool = MorselPool::new(t);
        let config = format!("T{t}");
        let mut total = 0.0;
        for (qname, bound, plan) in &prepared {
            total += r.time(dataset_name, &config, qname, || {
                db.count_prepared_parallel(bound, plan, &pool)
            });
        }
        r.record_value(dataset_name, &config, "total(s)", total);
    }
}

/// Runs the `collect` scaling experiment: SQ-workload row materialization
/// (full `collect_prepared_parallel`) and streamed drain (`stream` into a
/// [`aplus_query::VecSink`]) at every thread count, on the densest preset.
/// Row *sequences* — not just counts — are asserted identical to the
/// 1-thread baseline for every cell, so the harness doubles as the
/// order-preservation check; the reported `count` is the row count, which
/// the CI baseline comparator pins across PRs.
pub fn run_collect_table(scale: usize, thread_counts: &[usize]) -> Reporter {
    let mut r = Reporter::new(
        "table8_collect",
        "Order-preserving parallel collect: SQ row materialization + streamed drain at 1/2/4/8 threads",
    );
    let db = Database::new(dataset(DatasetPreset::Orkut, scale, 8, 2)).expect("index build");
    let prepared: Vec<_> = SQ_SHAPES
        .iter()
        .map(|&q| {
            let (bound, plan) = db.prepare(&sq::query(q, 8, 2, true)).expect("plan");
            (format!("SQ{q}"), bound, plan)
        })
        .collect();
    let dataset_name = "SQcollect(Ork8,2)";
    let reference: Vec<_> = prepared
        .iter()
        .map(|(_, bound, plan)| {
            db.collect_prepared_parallel(bound, plan, usize::MAX, &MorselPool::sequential())
        })
        .collect();
    for &t in thread_counts {
        let pool = MorselPool::new(t);
        let config = format!("T{t}");
        for ((qname, bound, plan), expect) in prepared.iter().zip(&reference) {
            let mut rows = Vec::new();
            r.time(dataset_name, &config, qname, || {
                rows = db.collect_prepared_parallel(bound, plan, usize::MAX, &pool);
                rows.len() as u64
            });
            assert_eq!(
                &rows, expect,
                "collect rows diverged from sequential on {qname} at {t} threads"
            );
            let mut sink = aplus_query::VecSink::unbounded();
            r.time(dataset_name, &config, &format!("{qname}-stream"), || {
                db.stream_prepared(bound, plan, usize::MAX, &pool, &mut sink);
                sink.len() as u64
            });
            assert_eq!(
                &sink.into_rows(),
                expect,
                "streamed rows diverged from sequential on {qname} at {t} threads"
            );
        }
    }
    r.assert_counts_agree();
    r
}

/// The SQ-workload speedup of `T{threads}` relative to `T1`, from a
/// populated [`run_table7`] reporter. `None` when either total is missing.
#[must_use]
pub fn sq_speedup(r: &Reporter, threads: usize) -> Option<f64> {
    let total_of = |config: &str| {
        r.measurements
            .iter()
            .find(|m| m.dataset.starts_with("SQ") && m.config == config && m.query == "total(s)")
            .map(|m| m.value)
    };
    let t1 = total_of("T1")?;
    let tn = total_of(&format!("T{threads}"))?;
    (tn > 0.0).then(|| t1 / tn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_thread_counts_rules() {
        assert_eq!(parse_thread_counts("1,2,4"), Some(vec![1, 2, 4]));
        assert_eq!(parse_thread_counts(" 2 , 8 "), Some(vec![2, 8]));
        assert_eq!(parse_thread_counts("0"), None);
        assert_eq!(parse_thread_counts(""), None);
        assert_eq!(parse_thread_counts("a,b"), None);
        // Invalid entries are dropped, valid ones kept.
        assert_eq!(parse_thread_counts("1,x,4"), Some(vec![1, 4]));
    }

    /// End-to-end smoke at a tiny scale: every (dataset, query, config)
    /// cell is populated, counts agree across thread counts (enforced by
    /// `assert_counts_agree` inside), and the speedup accessor resolves.
    #[test]
    fn scaling_runs_at_tiny_scale() {
        let r = run_table7(20_000, &[1, 2]);
        for config in ["T1", "T2"] {
            for q in ["SQ1", "SQ3", "SQ6", "SQ9"] {
                assert!(
                    r.measurements
                        .iter()
                        .any(|m| m.config == config && m.query == q && m.count.is_some()),
                    "missing {config}/{q}"
                );
            }
            assert!(r
                .measurements
                .iter()
                .any(|m| m.config == config && m.query == "MR2"));
        }
        assert!(sq_speedup(&r, 2).is_some());
        assert!(sq_speedup(&r, 16).is_none());
    }

    /// The collect table populates every cell (materialized + streamed
    /// variants) and its internal row-identity assertions hold at 2
    /// threads (order preservation end to end).
    #[test]
    fn collect_table_runs_at_tiny_scale() {
        let r = run_collect_table(20_000, &[1, 2]);
        for config in ["T1", "T2"] {
            for q in ["SQ1", "SQ1-stream", "SQ9", "SQ9-stream"] {
                assert!(
                    r.measurements
                        .iter()
                        .any(|m| m.config == config && m.query == q && m.count.is_some()),
                    "missing {config}/{q}"
                );
            }
        }
    }
}
