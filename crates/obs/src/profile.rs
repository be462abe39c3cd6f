//! Per-query execution profiles.
//!
//! A [`QueryProfiler`] is created by the engine for one `PROFILE` run and
//! shared (by reference) with every worker executing that query's
//! morsels. All cells are atomics and every update is a commutative add,
//! so the totals a [`QueryProfile`] reports are **identical at every
//! thread count and morsel interleaving** — the parallel profile is the
//! sequential profile, the same way parallel counts are the sequential
//! counts. The one deliberately non-deterministic section is morsel
//! attribution per worker thread (which worker ran how many morsels
//! depends on stealing); it is reported sorted, as load-balance
//! information, and excluded from the determinism contract.
//!
//! Executors accumulate hot-loop statistics in locals and flush them with
//! one `add` per list/block, so profiling stays cheap enough to leave on
//! for production `PROFILE` statements.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::ThreadId;

/// Sentinel for "execution ran to completion" in the early-exit cell.
const NO_EARLY_EXIT: usize = usize::MAX;

/// Shared atomic counters for one operator level of one query.
///
/// At a level of a count's counted suffix these count the work of the
/// suffix's memo cells, each recorded once, by the write that lands (a hit
/// records nothing): one list and its label reads per (branch, owner
/// vertex) evaluated, and an inner branch's bound neighbours as emitted.
/// The last level's `emitted` is still the matches counted per frontier
/// entry.
#[derive(Debug, Default)]
pub struct LevelStats {
    /// Adjacency (or secondary-index) lists fetched at this level.
    pub lists_scanned: AtomicU64,
    /// Intersection candidates examined (elements of the probe list
    /// considered by the multiway intersection, or single-list entries
    /// scanned when no intersection was needed).
    pub candidates: AtomicU64,
    /// Bindings emitted past this level (entries of its factorized level,
    /// or the matches an in-place tail count folded).
    pub emitted: AtomicU64,
}

impl LevelStats {
    /// Flushes one batch of locally accumulated statistics.
    #[inline]
    pub fn record(&self, lists: u64, candidates: u64, emitted: u64) {
        if lists > 0 {
            self.lists_scanned.fetch_add(lists, Ordering::Relaxed);
        }
        if candidates > 0 {
            self.candidates.fetch_add(candidates, Ordering::Relaxed);
        }
        if emitted > 0 {
            self.emitted.fetch_add(emitted, Ordering::Relaxed);
        }
    }
}

/// Shared atomic counters for one hop (BFS level) of a variable-length
/// traversal. Hops are indexed from 0 (the first traversal level); all
/// var-length operators of one query share the same hop table, summing
/// commutatively.
#[derive(Debug, Default)]
pub struct HopStats {
    /// Frontier size before expanding this hop, summed over sources.
    pub frontier: AtomicU64,
    /// Vertices already visited before this hop, summed over sources.
    pub visited: AtomicU64,
    /// Targets newly reached at this hop (a property of the traversal,
    /// not of downstream row production — identical at any thread count).
    pub emitted: AtomicU64,
}

impl HopStats {
    /// Flushes one hop's locally accumulated statistics.
    #[inline]
    pub fn record(&self, frontier: u64, visited: u64, emitted: u64) {
        if frontier > 0 {
            self.frontier.fetch_add(frontier, Ordering::Relaxed);
        }
        if visited > 0 {
            self.visited.fetch_add(visited, Ordering::Relaxed);
        }
        if emitted > 0 {
            self.emitted.fetch_add(emitted, Ordering::Relaxed);
        }
    }
}

/// The live, shared profile of one executing query. Built by the engine
/// (one [`LevelStats`] per physical plan operator), referenced by every
/// worker, and snapshotted into a [`QueryProfile`] when the query ends.
#[derive(Debug)]
pub struct QueryProfiler {
    levels: Vec<LevelStats>,
    /// One cell per potential var-length hop (sized by the plan's largest
    /// hop bound; empty for plans without var-length operators).
    hops: Vec<HopStats>,
    /// Factorized blocks processed by the block engine.
    pub blocks: AtomicU64,
    /// Factorized-count shortcut hits: frontier entries whose tail
    /// extension was counted in place, without binding a candidate.
    pub fc_shortcut_hits: AtomicU64,
    /// Rows crossing the flatten boundary into the sink.
    pub flatten_rows: AtomicU64,
    /// Deepest operator level at which execution stopped early
    /// (`LIMIT` satisfied, client gone); [`NO_EARLY_EXIT`] = ran dry.
    early_exit_level: AtomicUsize,
    /// Morsels executed, attributed per worker thread.
    morsels_by_thread: Mutex<HashMap<ThreadId, u64>>,
}

impl QueryProfiler {
    /// A profiler for a plan with `levels` physical operators.
    #[must_use]
    pub fn new(levels: usize) -> Self {
        Self {
            levels: (0..levels).map(|_| LevelStats::default()).collect(),
            hops: Vec::new(),
            blocks: AtomicU64::new(0),
            fc_shortcut_hits: AtomicU64::new(0),
            flatten_rows: AtomicU64::new(0),
            early_exit_level: AtomicUsize::new(NO_EARLY_EXIT),
            morsels_by_thread: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches `hops` cells for variable-length hop statistics (the
    /// plan's largest hop bound). Trailing never-reached hops are trimmed
    /// from the frozen profile.
    #[must_use]
    pub fn with_hops(mut self, hops: usize) -> Self {
        self.hops = (0..hops).map(|_| HopStats::default()).collect();
        self
    }

    /// The counters of operator level `level` (plan-op index). Out-of-range
    /// levels return `None` so instrumentation can never panic a query.
    #[inline]
    #[must_use]
    pub fn level(&self, level: usize) -> Option<&LevelStats> {
        self.levels.get(level)
    }

    /// The counters of var-length hop `hop` (0-based). Out-of-range hops
    /// return `None` so instrumentation can never panic a query.
    #[inline]
    #[must_use]
    pub fn hop(&self, hop: usize) -> Option<&HopStats> {
        self.hops.get(hop)
    }

    /// Records that the calling worker thread executed one morsel.
    pub fn record_morsel(&self) {
        let id = std::thread::current().id();
        let mut map = self
            .morsels_by_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *map.entry(id).or_insert(0) += 1;
    }

    /// Records an early exit observed at operator `level` (the sink
    /// counts as `levels().len()`); the shallowest observation wins.
    pub fn record_early_exit(&self, level: usize) {
        self.early_exit_level.fetch_min(level, Ordering::Relaxed);
    }

    /// Number of operator levels.
    #[must_use]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Freezes the counters into a plain [`QueryProfile`]. `ops` are the
    /// operator descriptions (one per level, from the plan's rendering);
    /// missing descriptions fall back to the level index.
    #[must_use]
    pub fn finish(&self, ops: &[String]) -> QueryProfile {
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(i, l)| LevelProfile {
                op: ops.get(i).cloned().unwrap_or_else(|| format!("op{i}")),
                lists_scanned: l.lists_scanned.load(Ordering::Relaxed),
                candidates: l.candidates.load(Ordering::Relaxed),
                emitted: l.emitted.load(Ordering::Relaxed),
            })
            .collect();
        let mut hops: Vec<HopProfile> = self
            .hops
            .iter()
            .map(|h| HopProfile {
                frontier: h.frontier.load(Ordering::Relaxed),
                visited: h.visited.load(Ordering::Relaxed),
                emitted: h.emitted.load(Ordering::Relaxed),
            })
            .collect();
        // Hops past where every traversal ran dry carry no information.
        while hops
            .last()
            .is_some_and(|h| h.frontier == 0 && h.visited == 0 && h.emitted == 0)
        {
            hops.pop();
        }
        let early = self.early_exit_level.load(Ordering::Relaxed);
        let mut morsels_per_worker: Vec<u64> = self
            .morsels_by_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .copied()
            .collect();
        // Sorted descending: stable presentation independent of thread-id
        // assignment (the values themselves are scheduling-dependent).
        morsels_per_worker.sort_unstable_by(|a, b| b.cmp(a));
        QueryProfile {
            engine: String::new(),
            elapsed_us: 0,
            rows: 0,
            levels,
            hops,
            blocks: self.blocks.load(Ordering::Relaxed),
            fc_shortcut_hits: self.fc_shortcut_hits.load(Ordering::Relaxed),
            flatten_rows: self.flatten_rows.load(Ordering::Relaxed),
            early_exit_level: (early != NO_EARLY_EXIT).then_some(early),
            morsels_per_worker,
        }
    }
}

/// Frozen per-level statistics of one finished query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelProfile {
    /// Operator description (from the plan rendering).
    pub op: String,
    /// Adjacency lists fetched.
    pub lists_scanned: u64,
    /// Intersection candidates examined.
    pub candidates: u64,
    /// Bindings emitted past this level.
    pub emitted: u64,
}

/// Frozen statistics of one variable-length traversal hop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HopProfile {
    /// Frontier size before expanding this hop, summed over sources.
    pub frontier: u64,
    /// Vertices visited before this hop, summed over sources.
    pub visited: u64,
    /// Targets newly reached at this hop, summed over sources.
    pub emitted: u64,
}

/// The result of a `PROFILE` run: what the executors actually did.
///
/// Everything except `elapsed_us` and `morsels_per_worker` is
/// deterministic for a given (database, plan, limit) at any thread count.
/// A count records each memoised suffix branch once per owner vertex it
/// reaches (see [`LevelStats`]), so its levels report the work done, not
/// the work a memo-free run would do.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Which executor ran the plan: `"block"`, the factorized engine every
    /// plan runs on.
    pub engine: String,
    /// Wall-clock execution time, microseconds (scheduling-dependent).
    pub elapsed_us: u64,
    /// Rows (or count) the query produced.
    pub rows: u64,
    /// Per-operator statistics, in plan order.
    pub levels: Vec<LevelProfile>,
    /// Per-hop statistics of var-length traversals (hop 1 first; trailing
    /// never-reached hops trimmed). Empty for plans without them.
    pub hops: Vec<HopProfile>,
    /// Factorized blocks processed.
    pub blocks: u64,
    /// Factorized-count shortcut hits (frontier entries whose tail list
    /// was counted in place).
    pub fc_shortcut_hits: u64,
    /// Rows that crossed the flatten boundary into the sink.
    pub flatten_rows: u64,
    /// Operator level where execution stopped early (sink = number of
    /// levels); `None` when the query ran to completion.
    pub early_exit_level: Option<usize>,
    /// Morsels executed per worker thread, sorted descending
    /// (scheduling-dependent; load-balance information only).
    pub morsels_per_worker: Vec<u64>,
}

impl QueryProfile {
    /// The statistics covered by the determinism contract: everything
    /// except wall-clock time and morsel attribution. Two `PROFILE` runs
    /// of the same query on the same snapshot compare equal here at any
    /// thread count.
    #[must_use]
    pub fn deterministic_view(&self) -> QueryProfile {
        QueryProfile {
            elapsed_us: 0,
            // Block count follows morsel partitioning (each root morsel
            // seeds its own block), so it is execution-shaped, not
            // query-shaped.
            blocks: 0,
            morsels_per_worker: Vec::new(),
            ..self.clone()
        }
    }

    /// Renders the profile as an indented human-readable block (the shell
    /// and `PROFILE` docs use this exact shape).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "engine={} rows={} elapsed={:.3}ms blocks={} fc_shortcut_hits={} flatten_rows={}\n",
            self.engine,
            self.rows,
            self.elapsed_us as f64 / 1e3,
            self.blocks,
            self.fc_shortcut_hits,
            self.flatten_rows,
        );
        for (i, l) in self.levels.iter().enumerate() {
            out.push_str(&format!(
                "  L{i} {}: lists_scanned={} candidates={} emitted={}\n",
                l.op, l.lists_scanned, l.candidates, l.emitted
            ));
        }
        for (i, h) in self.hops.iter().enumerate() {
            out.push_str(&format!(
                "  hop{} frontier={} visited={} emitted={}\n",
                i + 1,
                h.frontier,
                h.visited,
                h.emitted
            ));
        }
        if let Some(level) = self.early_exit_level {
            out.push_str(&format!("  early_exit_level={level}\n"));
        }
        if !self.morsels_per_worker.is_empty() {
            out.push_str(&format!(
                "  morsels_per_worker={:?}\n",
                self.morsels_per_worker
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_sums_are_thread_count_invariant() {
        // The same logical work split across different "thread" layouts
        // must produce identical totals: adds are commutative.
        let totals: Vec<QueryProfile> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let p = QueryProfiler::new(2);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let p = &p;
                        s.spawn(move || {
                            // 12 units of work, block-partitioned.
                            for _ in (t..12).step_by(threads) {
                                p.level(0).unwrap().record(1, 10, 5);
                                p.level(1).unwrap().record(2, 7, 3);
                                p.record_morsel();
                            }
                        });
                    }
                });
                p.finish(&["SCAN".into(), "EI".into()])
            })
            .collect();
        for w in totals.windows(2) {
            assert_eq!(w[0].deterministic_view(), w[1].deterministic_view());
        }
        assert_eq!(totals[0].levels[0].candidates, 120);
        assert_eq!(totals[0].levels[1].emitted, 36);
        assert_eq!(totals[0].morsels_per_worker.iter().sum::<u64>(), 12);
    }

    #[test]
    fn early_exit_records_shallowest_level() {
        let p = QueryProfiler::new(3);
        p.record_early_exit(3);
        p.record_early_exit(1);
        p.record_early_exit(2);
        assert_eq!(p.finish(&[]).early_exit_level, Some(1));
        let q = QueryProfiler::new(3);
        assert_eq!(q.finish(&[]).early_exit_level, None);
    }

    #[test]
    fn render_mentions_every_section() {
        let p = QueryProfiler::new(1);
        p.level(0).unwrap().record(3, 20, 9);
        p.blocks.fetch_add(2, Ordering::Relaxed);
        let mut profile = p.finish(&["E/I b".into()]);
        profile.engine = "block".into();
        profile.rows = 9;
        let text = profile.render();
        assert!(text.contains("engine=block"), "{text}");
        assert!(text.contains("L0 E/I b: lists_scanned=3"), "{text}");
        assert!(text.contains("blocks=2"), "{text}");
    }

    #[test]
    fn out_of_range_levels_are_ignored() {
        let p = QueryProfiler::new(1);
        assert!(p.level(5).is_none());
        assert_eq!(p.num_levels(), 1);
    }
}
