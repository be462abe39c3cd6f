//! `table13_observability`: what does instrumentation cost? (not a
//! paper table).
//!
//! Counts the SQ workload and the high-fanout MR workload twice per
//! thread count — **plain** (`SharedDatabase::count`, no profiler
//! attached; metric handles are the only instrumentation, and nothing
//! reads them) and **profiled** (`SharedDatabase::profile_count`, a
//! [`QueryProfiler`] collecting per-level operator stats on every worker
//! thread). The two
//! paths must produce identical counts (enforced by
//! `assert_counts_agree` here, and pinned across PRs by the
//! `bench_compare` baseline gate); the latency cells — the profiling
//! overhead — are **informational**, like every other table's timings.
//!
//! Per query, a `{name}-fc-shortcut` pseudo-metric under the `profile`
//! config records whether the profiled run saw factorized-count shortcut
//! hits (1.0 when `fc_shortcut_hits > 0`) — so an engine change that
//! silently stops shortcutting the high-fanout frontier shows up in the
//! baseline diff. The shortcut takes any single-list tail extension
//! with no residual predicate whose list hangs off a vertex, labelled or
//! not: SQ shapes ending in one list (SQ6 here) take it, intersection
//! tails (SQ1, SQ3, SQ9) and the MR patterns (time predicates on their
//! edges) do not. The unlabelled 2-hop `PATH2` fan-out query is the cell
//! that must read 1.0.
//!
//! [`QueryProfiler`]: aplus_query::QueryProfiler

use aplus_datagen::presets::DatasetPreset;
use aplus_datagen::properties::{add_magicrecs_properties, time_threshold_for_selectivity};
use aplus_query::{Database, MorselPool, SharedDatabase};

use crate::datasets::dataset;
use crate::report::Reporter;
use crate::scaling::SQ_SHAPES;
use crate::workloads::{mr, sq};

/// Runs the instrumentation-overhead comparison: SQ on `Ork8,2` and MR
/// (MagicRecs, 5% time predicate) on `WT1,1`, counted plain and profiled
/// at every thread count in `thread_counts`.
pub fn run_observability_table(scale: usize, thread_counts: &[usize]) -> Reporter {
    let mut r = Reporter::new(
        "table13_observability",
        "Instrumentation overhead: plain count vs profiled count (per-level operator stats), \
         SQ + high-fanout MR, per thread count (counts gated, overhead informational)",
    );

    let db = Database::new(dataset(DatasetPreset::Orkut, scale, 8, 2)).expect("index build");
    let sq_queries: Vec<(String, String)> = SQ_SHAPES
        .iter()
        .map(|&q| (format!("SQ{q}"), sq::query(q, 8, 2, true)))
        .collect();
    run_paths(&mut r, "SQobs(Ork8,2)", &db, &sq_queries, thread_counts);

    // High-fanout MR is where the profiler has the most to record per
    // level (and where the fc-shortcut pseudo-metric matters).
    let mut g = dataset(DatasetPreset::WikiTopcats, scale, 1, 1);
    let props = add_magicrecs_properties(&mut g, 0xA11);
    let alpha = time_threshold_for_selectivity(&g, props, 0.05);
    let db = Database::new(g).expect("index build");
    let mut mr_queries: Vec<(String, String)> = (1..=2)
        .map(|k| (format!("MR{k}"), mr::query(k, alpha, None)))
        .collect();
    // Unlabelled predicate-free 2-hop: the tail extension is one list
    // counted in place, so the factorized-count shortcut fires on every
    // frontier entry.
    mr_queries.push((
        "PATH2".to_owned(),
        "MATCH a1-[e1]->a2, a2-[e2]->a3".to_owned(),
    ));
    run_paths(&mut r, "MRobs(WT1,1)", &db, &mr_queries, thread_counts);

    // Profiling must never change results.
    r.assert_counts_agree();
    r
}

fn run_paths(
    r: &mut Reporter,
    dataset_name: &str,
    db: &Database,
    queries: &[(String, String)],
    thread_counts: &[usize],
) {
    for &t in thread_counts {
        let shared = SharedDatabase::with_pool(db.clone(), MorselPool::new(t));
        for (qname, q) in queries {
            r.time(dataset_name, &format!("plain-T{t}"), qname, || {
                shared.count(q).expect("query valid")
            });
            let mut fc_hits = 0u64;
            r.time(dataset_name, &format!("profile-T{t}"), qname, || {
                let (n, profile) = shared.profile_count(q).expect("query valid");
                fc_hits = profile.fc_shortcut_hits;
                n
            });
            if t == thread_counts[0] {
                r.record_value(
                    dataset_name,
                    "profile",
                    &format!("{qname}-fc-shortcut"),
                    if fc_hits > 0 { 1.0 } else { 0.0 },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke at a tiny scale: both paths populate every cell
    /// with agreeing counts (enforced inside), and the single-list tails
    /// really exercise the factorized-count shortcut.
    #[test]
    fn observability_table_runs_at_tiny_scale() {
        let r = run_observability_table(20_000, &[1, 2]);
        for config in ["plain-T1", "plain-T2", "profile-T1", "profile-T2"] {
            for q in ["SQ1", "SQ9", "MR1", "MR2"] {
                assert!(
                    r.measurements
                        .iter()
                        .any(|m| m.config == config && m.query == q && m.count.is_some()),
                    "missing {config}/{q}"
                );
            }
        }
        // PATH2's tail is unlabelled, SQ6's labelled: both count in place.
        for q in ["PATH2-fc-shortcut", "SQ6-fc-shortcut"] {
            assert!(
                r.measurements
                    .iter()
                    .any(|m| m.config == "profile" && m.query == q && m.value == 1.0),
                "{q} should read 1.0"
            );
        }
    }
}
