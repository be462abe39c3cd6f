//! Plan execution: SCAN, EXTEND/INTERSECT, MULTI-EXTEND, VAR-LENGTH
//! EXPAND, FILTER.
//!
//! Every operator is a *binding producer* (`op_bindings`): given a row
//! holding one binding of the variables bound so far, it enumerates the
//! bindings it adds and hands each to a continuation. The factorized block
//! engine ([`crate::block`]) is the only consumer: it runs each operator
//! over a whole level of bindings at once and keeps the results factorized
//! until the sink. Adjacency lists are read through the A+ indexes; E/I
//! performs k-pointer sorted intersection on neighbour IDs (the WCOJ
//! building block), MULTI-EXTEND performs a k-pointer merge-group on a
//! property sort key and emits the cartesian product of each equal-key
//! group, and sorted-prefix prunes are applied by binary search (the
//! "fewer predicate evaluations" effect of VPt, §V-C1).
//!
//! Matching semantics follow openCypher: query vertices may bind the same
//! data vertex, but each data edge binds at most one query edge per match.
//!
//! # One driver: strategy × block body × output
//!
//! [`run`] is the only way a plan executes. It picks the one level of the
//! plan that is cut into contiguous morsels
//! ([`aplus_runtime::scan_morsel_size`]), hands every morsel to a block
//! body, and merges the bodies' results **in morsel order** into the
//! query's [`Output`]:
//!
//! * **Strategy** — which level partitions. *The root scan's ID range*
//!   (vertices or edges; a pinned vertex is the one-ID range) is the common
//!   case. When the root binds fewer vertices than there are workers (a
//!   pinned scan followed by huge intersections — the skewed-supernode
//!   case), *the first E/I level* partitions instead: per root binding,
//!   the operator's lists are fetched once and the leading list is cut by
//!   position, so the heavy intersections themselves fan out. Likewise a
//!   *first var-length expansion* partitions every BFS level: frontier
//!   expansion and the level's emission list both go through the pool.
//! * **Block body** — what one morsel runs: the block seeded from the
//!   morsel ([`crate::block`]), extended through the remaining operators
//!   with its own per-worker scratch row — no shared mutable state, no
//!   synchronization inside operators — then counted without flattening or
//!   flattened lazily.
//! * **Output** — a match count (per-morsel `u64`s summed), or up to
//!   `limit` rows (per-morsel buffers, each capped at the rows still
//!   missing, handed to the [`RowSink`]).
//!
//! Because the merge order is fixed, counts and row sequences are
//! **bit-identical** at any thread count, and a 1-thread pool runs the
//! *same* strategy code and block bodies inline on the caller's stack —
//! there is no separate sequential path. The one thing an inline morsel
//! skips is the buffer: it is next in morsel order while it runs, so its
//! rows go straight to the sink as they are flattened. Every row callback
//! returns a [`ControlFlow`]: `Break` stops the flatten at once, which is
//! how `LIMIT` or a sink that stopped consuming ends a morsel early;
//! outstanding pool morsels are cancelled through the cooperative
//! [`aplus_runtime::ExitSignal`].

use std::collections::HashSet;
use std::ops::{ControlFlow, Range};

use aplus_common::{EdgeId, VertexId};
use aplus_core::{CmpOp, Direction, IndexStore, List, OffsetList, SortKey};
use aplus_graph::Graph;
use aplus_obs::{HopStats, LevelStats, QueryProfiler};
use aplus_runtime::{scan_morsel_size, MorselPool};

use crate::block;
use crate::error::QueryError;
use crate::plan::{Ald, FromRef, IndexChoice, Operator, Plan, Prune, PruneValue};
use crate::query::{QueryGraph, QueryOperand, QueryPredicate, Row};
use crate::sink::{drain_flattened, RawRow, RowSink};

/// Everything an executing plan reads.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The data graph.
    pub graph: &'a Graph,
    /// The index store.
    pub store: &'a IndexStore,
    /// The per-query profiler of a `PROFILE` run — executors flush per-level
    /// statistics into it as they run; `None` (the overwhelmingly common
    /// case) keeps the hot paths at one branch per flush point.
    pub profiler: Option<&'a QueryProfiler>,
}

impl<'a> ExecContext<'a> {
    /// An unprofiled execution context.
    #[must_use]
    pub fn new(graph: &'a Graph, store: &'a IndexStore) -> Self {
        Self {
            graph,
            store,
            profiler: None,
        }
    }

    /// The stats cell of plan-operator level `level`, when profiling.
    #[inline]
    pub(crate) fn prof_level(self, level: usize) -> Option<&'a LevelStats> {
        self.profiler.and_then(|p| p.level(level))
    }

    /// The stats cell of variable-length hop `hop` (0-based: hop 0 is the
    /// first traversal level), when profiling.
    #[inline]
    pub(crate) fn prof_hop(self, hop: usize) -> Option<&'a HopStats> {
        self.profiler.and_then(|p| p.hop(hop))
    }

    /// Records one executed morsel for the calling worker, when profiling.
    #[inline]
    pub(crate) fn note_morsel(self) {
        if let Some(p) = self.profiler {
            p.record_morsel();
        }
    }

    /// Records an early exit observed at `level`, when profiling.
    #[inline]
    pub(crate) fn note_early_exit(self, level: usize) {
        if let Some(p) = self.profiler {
            p.record_early_exit(level);
        }
    }

    /// Records one processed factorized block, when profiling.
    #[inline]
    pub(crate) fn note_block(self) {
        if let Some(p) = self.profiler {
            p.blocks.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Records one factorized-count shortcut hit, when profiling.
    #[inline]
    pub(crate) fn note_fc_shortcut(self) {
        if let Some(p) = self.profiler {
            p.fc_shortcut_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Guards the executor's 32-bit vertex-ID domain: scans address vertices
/// as `0..vertex_count` and bind each as a `u32`, so a graph beyond
/// `u32::MAX + 1` vertices cannot execute without silently truncating IDs.
/// `Database::prepare` calls this before planning, surfacing the
/// structured error instead of ever letting a scan wrap around.
pub fn check_vertex_domain(vertex_count: usize) -> Result<(), QueryError> {
    // `vertex_count` may be exactly 2^32 (largest raw ID u32::MAX).
    if vertex_count as u64 > 1u64 << 32 {
        Err(QueryError::VertexDomainExceeded { vertex_count })
    } else {
        Ok(())
    }
}

/// Checked raw-index → [`VertexId`] conversion for scan loops. The u32
/// domain is verified up front by [`check_vertex_domain`]; an
/// out-of-domain index reaching this point is a logic error, and panicking
/// here beats the silent `as u32` truncation it replaces (which would
/// quietly alias high vertices onto low IDs).
pub(crate) fn vid(raw: usize) -> VertexId {
    VertexId(u32::try_from(raw).expect("vertex scan index exceeds the u32 vertex-ID domain"))
}

/// Largest vertex morsel for partitioned root scans; see
/// [`aplus_runtime::scan_morsel_size`] for how sizes adapt below the cap.
pub const VERTEX_MORSEL_CAP: usize = 256;
/// Largest edge morsel for partitioned root scans.
pub const EDGE_MORSEL_CAP: usize = 1024;
/// Largest first-E/I morsel (positions of the first fetched adjacency
/// list) for level-1 partitioned plans.
pub const EI_MORSEL_CAP: usize = 256;
/// Largest BFS-frontier morsel (positions of one level's frontier) for
/// first-var-length partitioned plans.
pub const VL_MORSEL_CAP: usize = 256;

/// Which level of a plan [`run`] cuts into morsels on a given pool.
enum Strategy {
    /// Partition the root scan's ID `range` (a pinned vertex scan is the
    /// one-ID range).
    RootRanges { range: Range<usize>, cap: usize },
    /// The root scan binds fewer vertices than there are workers and the
    /// next operator is an E/I: partition the first E/I level's adjacency
    /// lists instead (per root binding, in root order).
    FirstEi,
    /// The root scan binds fewer vertices than there are workers and the
    /// next operator is a var-length expansion: partition each BFS level's
    /// frontier instead (per root binding, in root order).
    FirstVarLength,
}

fn strategy(ctx: ExecContext<'_>, plan: &Plan, pool: &MorselPool) -> Strategy {
    match plan.ops.first() {
        Some(Operator::ScanVertices { var, preds, .. }) => {
            let range = vertex_scan_range(ctx, preds, *var);
            match plan.ops.get(1) {
                Some(Operator::ExtendIntersect { .. }) if range.len() < pool.threads() => {
                    return Strategy::FirstEi
                }
                // Check-mode expansions bind nothing, so they have no
                // emission list to fan out. A single root expands level by
                // level even on one worker, so a satisfied `LIMIT` stops
                // its BFS at the level that satisfied it.
                Some(Operator::VarLengthExpand { check: false, .. })
                    if range.len() < pool.threads().max(2) =>
                {
                    return Strategy::FirstVarLength
                }
                _ => {}
            }
            Strategy::RootRanges {
                range,
                cap: VERTEX_MORSEL_CAP,
            }
        }
        Some(Operator::ScanEdges { .. }) => Strategy::RootRanges {
            range: 0..ctx.graph.edge_count(),
            cap: EDGE_MORSEL_CAP,
        },
        _ => unreachable!("plans start with a scan"),
    }
}

/// The merge window for streaming morsel merges: enough in-flight morsels
/// to keep every worker busy while the merger drains, without unbounded
/// result buffering.
fn merge_window(pool: &MorselPool) -> usize {
    pool.threads().saturating_mul(4)
}

/// What a query run produces.
pub enum Output<'a> {
    /// The number of matches, folded on factorized blocks without
    /// flattening.
    Count,
    /// Up to `limit` rows pushed into `sink`, in sequential result order.
    /// Morsels that run inline (a 1-thread pool, a single-morsel level)
    /// push each row as it is flattened; pool workers buffer per morsel, and
    /// the buffers reach the sink as their morsel's turn comes, so memory
    /// stays bounded by the merge window, never the full result. The sink
    /// returning [`ControlFlow::Break`] stops an inline morsel at once and
    /// cancels outstanding pool morsels cooperatively.
    Rows {
        /// Rows to deliver before stopping the query.
        limit: usize,
        /// Where the rows go.
        sink: &'a mut dyn RowSink,
    },
}

/// What a morsel body does with the matches it finds.
pub(crate) enum Emit<'a> {
    /// Counts them.
    Count(&'a mut u64),
    /// Pushes them as rows, in result order; `Break` means the morsel can
    /// no longer contribute and should stop at once.
    Rows(&'a mut dyn FnMut(RawRow) -> ControlFlow<()>),
}

/// One pool-run morsel's contribution: `count` when the query counts,
/// `rows` when it produces rows (the other stays empty).
#[derive(Default)]
struct Part {
    count: u64,
    rows: Vec<RawRow>,
}

/// The merge side of [`run`]: cuts a level into morsels on the pool and
/// folds what they emit, in morsel order, into the output.
struct Driver<'a, 'o> {
    ctx: ExecContext<'a>,
    pool: &'a MorselPool,
    /// The level an early exit is attributed to: the sink, one past the
    /// last operator.
    sink_level: usize,
    out: Output<'o>,
    counted: u64,
    sent: usize,
}

impl Driver<'_, '_> {
    /// The row cap of a buffering morsel; `None` when the query counts.
    fn cap(&self) -> Option<usize> {
        match self.out {
            Output::Count => None,
            // A morsel contributes at most the rows still missing from the
            // global limit. `merge` breaks out of every strategy loop the
            // moment `sent` reaches `limit`, and `run` rejects `limit == 0`
            // up front, so `sent < limit` holds whenever morsels are cut —
            // the saturating subtraction keeps the invariant local instead
            // of trusting every caller forever.
            Output::Rows { limit, .. } => {
                debug_assert!(self.sent < limit, "merge must break before sent == limit");
                Some(limit.saturating_sub(self.sent))
            }
        }
    }

    /// Folds one morsel's `count` or `rows` into the output; `Break` means
    /// the output is complete (limit reached or the sink stopped
    /// consuming). Rows cross into the sink through [`drain_flattened`],
    /// which enforces the global limit: the `limit`-th row is delivered,
    /// then the query stops.
    fn merge(&mut self, count: u64, rows: impl Iterator<Item = RawRow>) -> ControlFlow<()> {
        match &mut self.out {
            Output::Count => {
                self.counted += count;
                ControlFlow::Continue(())
            }
            Output::Rows { limit, sink } => {
                let flow = drain_flattened(*sink, &mut self.sent, *limit, rows);
                if flow.is_break() {
                    self.ctx.note_early_exit(self.sink_level);
                }
                flow
            }
        }
    }

    /// Cuts `0..total` into morsels of `size`, runs `body` on each across
    /// the pool and merges what they emit in morsel order. `Break` means
    /// the output is complete.
    fn morsels(
        &mut self,
        total: usize,
        size: usize,
        body: impl Fn(Range<usize>, Emit<'_>) + Sync,
    ) -> ControlFlow<()> {
        let (ctx, pool, size) = (self.ctx, self.pool, size.max(1));
        if pool.threads().min(total.div_ceil(size)) <= 1 {
            // The morsels run inline, one after the other on this thread,
            // so each one *is* next in morsel order while it runs: its rows
            // go through `merge` one at a time instead of through a buffer.
            // A full-result stream then holds one block, not the result,
            // and a sink `Break` stops the flatten at once.
            for start in (0..total).step_by(size) {
                ctx.note_morsel();
                let range = start..(start + size).min(total);
                let mut flow = ControlFlow::Continue(());
                match self.out {
                    Output::Count => body(range, Emit::Count(&mut self.counted)),
                    Output::Rows { .. } => body(
                        range,
                        Emit::Rows(&mut |raw| {
                            flow = self.merge(0, std::iter::once(raw));
                            flow
                        }),
                    ),
                }
                flow?;
            }
            return ControlFlow::Continue(());
        }
        let cap = self.cap();
        let mut flow = ControlFlow::Continue(());
        pool.map_ranges(
            total,
            size,
            merge_window(pool),
            |range, exit| {
                ctx.note_morsel();
                let mut part = Part::default();
                match cap {
                    None => body(range, Emit::Count(&mut part.count)),
                    // A worker's morsel may finish before its turn in
                    // morsel order, so its rows wait in a buffer. It stops
                    // early once the buffer holds `cap` rows (the output
                    // takes at most that many from any morsel prefix) or
                    // the merger cancelled outstanding work.
                    Some(cap) => {
                        let rows = &mut part.rows;
                        body(
                            range,
                            Emit::Rows(&mut |raw| {
                                rows.push(raw);
                                if rows.len() >= cap || exit.is_stopped() {
                                    ControlFlow::Break(())
                                } else {
                                    ControlFlow::Continue(())
                                }
                            }),
                        );
                    }
                }
                part
            },
            |part| {
                flow = self.merge(part.count, part.rows.into_iter());
                flow
            },
        );
        flow
    }
}

/// Executes `plan` on `pool` and returns the number of matches
/// ([`Output::Count`]) or of rows delivered ([`Output::Rows`]). The only
/// entry into plan execution: every strategy and both output shapes go
/// through here, and the result is bit-identical at any thread
/// count — morsels merge in morsel order, and a 1-thread pool runs the same
/// code inline.
pub fn run(
    ctx: ExecContext<'_>,
    query: &QueryGraph,
    plan: &Plan,
    pool: &MorselPool,
    out: Output<'_>,
) -> u64 {
    // The one `limit == 0` guard on the execution path: nothing runs,
    // nothing reaches the sink, no early exit is recorded.
    if matches!(out, Output::Rows { limit: 0, .. }) {
        return 0;
    }
    let mut driver = Driver {
        ctx,
        pool,
        sink_level: plan.ops.len(),
        out,
        counted: 0,
        sent: 0,
    };
    let fresh_row = || Row::unbound(query.vertices.len(), query.edges.len());
    let threads = pool.threads();
    match strategy(ctx, plan, pool) {
        // Every root morsel is one block.
        Strategy::RootRanges { range, cap } => {
            let size = scan_morsel_size(range.len(), threads, cap);
            let _ = driver.morsels(range.len(), size, |r, emit| {
                let r = range.start + r.start..range.start + r.end;
                block::root_morsel(ctx, query, plan, r, emit);
            });
        }
        // Per root binding (in root order, so the overall row sequence
        // stays sequential): fetch the first E/I's lists once and morsel
        // over positions of the leading list.
        Strategy::FirstEi => {
            let ei = ei_op(&plan.ops[1]);
            let stats = ctx.prof_level(1);
            let _ = for_each_root_vertex(ctx, plan, &mut fresh_row(), &mut |base| {
                if let Some(s) = stats {
                    s.record(ei.alds.len() as u64, 0, 0);
                }
                let Some(lists) = fetch_ei_lists(ctx, ei.alds, base) else {
                    return ControlFlow::Continue(());
                };
                let (base, lists, ei) = (&*base, &lists, &ei);
                let n0 = lists[0].len();
                let size = scan_morsel_size(n0, threads, EI_MORSEL_CAP);
                driver.morsels(n0, size, |r, emit| {
                    block::ei_morsel(ctx, plan, ei, lists, r, &mut base.clone(), emit);
                })
            });
        }
        // Per root binding: BFS levels run in order with each frontier
        // expanded across the pool, and each level's emission list is
        // morselled with the parts merged in ascending-target order.
        Strategy::FirstVarLength => {
            let vl = var_length_op(&plan.ops[1]);
            let _ = for_each_root_vertex(ctx, plan, &mut fresh_row(), &mut |base| {
                if let Some(stats) = ctx.prof_level(1) {
                    stats.record(1, 0, 0);
                }
                let s = base
                    .vertex(vl.src)
                    .expect("root scan binds the traversal source");
                let (base, vl) = (&*base, &vl);
                var_length_bfs(ctx, vl, s, pool, &mut |level, candidates, s_new| {
                    if level < vl.min {
                        return ControlFlow::Continue(());
                    }
                    let emission = &vl_emission(candidates, s, s_new);
                    let size = scan_morsel_size(emission.len(), threads, VL_MORSEL_CAP);
                    let flow = driver.morsels(emission.len(), size, |r, emit| {
                        block::vl_morsel(ctx, plan, vl, &emission[r], &mut base.clone(), emit);
                    });
                    if flow.is_break() {
                        ControlFlow::Break(flow)
                    } else {
                        ControlFlow::Continue(())
                    }
                })
            });
        }
    }
    match driver.out {
        Output::Count => driver.counted,
        Output::Rows { .. } => driver.sent as u64,
    }
}

/// The root scan's bindings with its ID space restricted to `range` (a
/// root morsel): binds each vertex or edge that passes the scan's checks
/// and runs the continuation `k` on it.
pub(crate) fn root_range_bindings(
    ctx: ExecContext<'_>,
    plan: &Plan,
    range: Range<usize>,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match plan.ops.first().expect("caller checked the root operator") {
        Operator::ScanVertices { var, label, preds } => {
            scan_vertices_range(ctx, 0, *var, *label, preds, range, row, k)
        }
        op @ Operator::ScanEdges { .. } => scan_edges_range(ctx, 0, op, range, row, k),
        _ => unreachable!("plans start with a scan"),
    }
}

/// Enumerates the root vertex-scan's bindings without running deeper
/// operators: binds the scan variable, checks label + predicates, and
/// hands each surviving root row to `f`. The first-level strategies use
/// this to process root bindings one at a time, in root order.
fn for_each_root_vertex(
    ctx: ExecContext<'_>,
    plan: &Plan,
    row: &mut Row,
    f: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some(Operator::ScanVertices { var, label, preds }) = plan.ops.first() else {
        unreachable!("first-level strategies require a vertex-scan root")
    };
    let range = vertex_scan_range(ctx, preds, *var);
    scan_vertices_range(ctx, 0, *var, *label, preds, range, row, f)
}

/// An E/I operator's pieces, destructured once per use site.
pub(crate) struct EiOp<'p> {
    pub(crate) target: usize,
    pub(crate) target_label: Option<aplus_common::VertexLabelId>,
    pub(crate) alds: &'p [Ald],
    pub(crate) residual: &'p [QueryPredicate],
}

pub(crate) fn ei_op(op: &Operator) -> EiOp<'_> {
    let Operator::ExtendIntersect {
        target,
        target_label,
        alds,
        residual,
    } = op
    else {
        unreachable!("caller matched an ExtendIntersect")
    };
    EiOp {
        target: *target,
        target_label: *target_label,
        alds,
        residual,
    }
}

/// A [`Operator::VarLengthExpand`]'s pieces, destructured once per use
/// site.
pub(crate) struct VarLengthOp<'p> {
    src: usize,
    target: usize,
    target_label: Option<aplus_common::VertexLabelId>,
    edge_label: Option<aplus_common::EdgeLabelId>,
    dir: Direction,
    prefix: &'p [u32],
    label_enforced: bool,
    min: u32,
    max: u32,
    check: bool,
    residual: &'p [QueryPredicate],
}

pub(crate) fn var_length_op(op: &Operator) -> VarLengthOp<'_> {
    let Operator::VarLengthExpand {
        src,
        target,
        target_label,
        edge_label,
        dir,
        prefix,
        label_enforced,
        min,
        max,
        check,
        residual,
    } = op
    else {
        unreachable!("caller matched a VarLengthExpand")
    };
    VarLengthOp {
        src: *src,
        target: *target,
        target_label: *target_label,
        edge_label: *edge_label,
        dir: *dir,
        prefix,
        label_enforced: *label_enforced,
        min: *min,
        max: *max,
        check: *check,
        residual,
    }
}

/// One traversal step from `u`: every neighbour through the operator's
/// primary-index run, filtered by edge label when the partition prefix
/// does not already enforce it.
fn vl_neighbors(
    ctx: ExecContext<'_>,
    vl: &VarLengthOp<'_>,
    u: VertexId,
    f: &mut dyn FnMut(VertexId),
) {
    let primary = ctx.store.primary().index(vl.dir);
    let list = primary.list(u, vl.prefix);
    for (e, n) in list.iter() {
        if !vl.label_enforced {
            if let Some(want) = vl.edge_label {
                if !ctx.graph.edge_label(e).is_ok_and(|l| l == want) {
                    continue;
                }
            }
        }
        f(n);
    }
}

/// The ascending emission order of one BFS level: the newly reached
/// targets, with the source spliced in at its sorted position when this
/// level re-reached it for the first time (the shortest-cycle case).
fn vl_emission(candidates: &[u32], s: VertexId, s_new: bool) -> Vec<u32> {
    let mut v = candidates.to_vec();
    if s_new {
        let pos = v.partition_point(|&t| t < s.raw());
        v.insert(pos, s.raw());
    }
    v
}

/// One var-length target: re-checks the target label, binds the target
/// vertex (the edge variable, if any, stays unbound — a variable-length
/// pattern matches a walk, not a single edge), evaluates residuals and runs
/// the continuation `k`.
pub(crate) fn vl_target(
    ctx: ExecContext<'_>,
    vl: &VarLengthOp<'_>,
    t: VertexId,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if vl
        .target_label
        .is_some_and(|want| !ctx.graph.vertex_label(t).is_ok_and(|l| l == want))
    {
        return ControlFlow::Continue(());
    }
    row.bind_vertex(vl.target, t);
    let flow = if vl.residual.iter().all(|p| p.eval(ctx.graph, row)) {
        k(row)
    } else {
        ControlFlow::Continue(())
    };
    row.unbind_vertex(vl.target);
    flow
}

/// The bindings a [`Operator::VarLengthExpand`] adds to the current row,
/// traversed inline (the pinned-root second operator fans out through
/// [`run`] instead).
///
/// Semantics: target `t` matches iff the shortest walk of length ≥ 1 from
/// the source to `t` (over edges passing the label filter) has length
/// within `min..=max`. Each target is emitted exactly once, at its
/// shortest level, in ascending vertex-ID order per level — a canonical
/// order the morsel-parallel frontier reproduces bit-identically. The
/// source itself is a valid target when a cycle returns to it (`min ≤
/// shortest cycle ≤ max`). Check mode (both endpoints already bound)
/// verifies that distance instead of binding.
fn var_length_bindings(
    ctx: ExecContext<'_>,
    depth: usize,
    vl: &VarLengthOp<'_>,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let s = row.vertex(vl.src).expect("plan binds the traversal source");
    if let Some(stats) = ctx.prof_level(depth) {
        stats.record(1, 0, 0);
    }
    let check_target = vl.check.then(|| {
        row.vertex(vl.target)
            .expect("check mode binds both endpoints")
    });
    let inline = MorselPool::sequential();
    var_length_bfs(ctx, vl, s, &inline, &mut |level, candidates, s_new| {
        if let Some(t) = check_target {
            let found = if t == s {
                s_new
            } else {
                candidates.binary_search(&t.raw()).is_ok()
            };
            if !found {
                return ControlFlow::Continue(());
            }
            // `level` is the shortest distance; the pattern matches iff it
            // clears the minimum (it is ≤ max by the loop).
            let matched = level >= vl.min && vl.residual.iter().all(|p| p.eval(ctx.graph, row));
            return ControlFlow::Break(if matched {
                k(row)
            } else {
                ControlFlow::Continue(())
            });
        }
        if level >= vl.min {
            for &t in &vl_emission(candidates, s, s_new) {
                if let flow @ ControlFlow::Break(()) = vl_target(ctx, vl, VertexId(t), row, k) {
                    return ControlFlow::Break(flow);
                }
            }
        }
        ControlFlow::Continue(())
    })
}

/// A BFS level visitor's verdict: `Continue` descends a level,
/// `Break(flow)` ends the traversal and hands `flow` back to the pipeline.
type LevelFlow = ControlFlow<ControlFlow<()>>;

/// The level-synchronous BFS from `s` — the one traversal loop. `visited`
/// keeps every target at its shortest level only; the source is tracked
/// separately (`s_hit` / `s_refound`) so the shortest cycle back to it can
/// be reported without ever re-expanding it. Each level's frontier expands
/// across `pool`, then `on_level(level, newly reached targets, source
/// newly re-reached)` decides how to go on.
fn var_length_bfs(
    ctx: ExecContext<'_>,
    vl: &VarLengthOp<'_>,
    s: VertexId,
    pool: &MorselPool,
    on_level: &mut dyn FnMut(u32, &[u32], bool) -> LevelFlow,
) -> ControlFlow<()> {
    let mut visited: HashSet<u32> = HashSet::new();
    visited.insert(s.raw());
    let mut frontier: Vec<u32> = vec![s.raw()];
    let mut s_refound = false;
    for level in 1..=vl.max {
        if frontier.is_empty() {
            break;
        }
        let (candidates, s_hit) = expand_frontier(ctx, vl, s, &frontier, &visited, pool);
        let s_new = s_hit && !s_refound;
        record_hop(
            ctx,
            level,
            frontier.len(),
            visited.len(),
            &candidates,
            s_new,
        );
        if let ControlFlow::Break(flow) = on_level(level, &candidates, s_new) {
            return flow;
        }
        s_refound |= s_hit;
        visited.extend(candidates.iter().copied());
        frontier = candidates;
    }
    ControlFlow::Continue(())
}

/// Flushes one BFS level's statistics into the hop profile: frontier size
/// before expansion, vertices visited before this hop, and newly reached
/// targets. All three are properties of the traversal itself (not of
/// downstream row production), so they are identical at every thread
/// count and under any `LIMIT` that reaches this level.
fn record_hop(
    ctx: ExecContext<'_>,
    level: u32,
    frontier: usize,
    visited: usize,
    candidates: &[u32],
    s_new: bool,
) {
    if let Some(h) = ctx.prof_hop(level as usize - 1) {
        h.record(
            frontier as u64,
            visited as u64,
            (candidates.len() + usize::from(s_new)) as u64,
        );
    }
}

/// Expands one BFS level with the frontier partitioned across the pool:
/// each morsel scans a contiguous frontier range against the shared
/// (read-only) visited set; partial candidate lists concatenate in morsel
/// order and are then sorted + deduplicated, so the merged level is
/// bit-identical at any thread count (a 1-thread pool expands inline).
fn expand_frontier(
    ctx: ExecContext<'_>,
    vl: &VarLengthOp<'_>,
    s: VertexId,
    frontier: &[u32],
    visited: &HashSet<u32>,
    pool: &MorselPool,
) -> (Vec<u32>, bool) {
    let size = scan_morsel_size(frontier.len(), pool.threads(), VL_MORSEL_CAP);
    let parts: Vec<(Vec<u32>, bool)> = pool.run_ranges(frontier.len(), size, |r: Range<usize>| {
        // An inline expansion is part of the morsel that runs it.
        if !pool.is_sequential() {
            ctx.note_morsel();
        }
        let mut out: Vec<u32> = Vec::new();
        let mut s_hit = false;
        for &u in &frontier[r] {
            vl_neighbors(ctx, vl, VertexId(u), &mut |n| {
                if n == s {
                    s_hit = true;
                } else if !visited.contains(&n.raw()) {
                    out.push(n.raw());
                }
            });
        }
        (out, s_hit)
    });
    let mut candidates: Vec<u32> = Vec::new();
    let mut s_hit = false;
    for (part, hit) in parts {
        candidates.extend(part);
        s_hit |= hit;
    }
    candidates.sort_unstable();
    candidates.dedup();
    (candidates, s_hit)
}

/// Fetches an E/I operator's adjacency lists for the current row; `None`
/// when any list is empty (the extension produces nothing).
pub(crate) fn fetch_ei_lists<'a>(
    ctx: ExecContext<'a>,
    alds: &[Ald],
    row: &Row,
) -> Option<Vec<BoundList<'a>>> {
    let need = if alds.len() > 1 {
        Need::NbrSorted
    } else {
        Need::Any
    };
    let lists: Vec<BoundList<'a>> = alds.iter().map(|a| fetch_list(ctx, a, row, need)).collect();
    if lists.iter().any(|l| l.len() == 0) {
        None
    } else {
        Some(lists)
    }
}

/// The bindings operator `op` (plan level `depth`) adds to the binding
/// held in `row`: each is bound in `row` while the continuation `k` runs,
/// and unbound before the next. `Break` from `k` stops the enumeration.
/// FILTER adds no bindings; the block engine compacts its level instead.
pub(crate) fn op_bindings(
    ctx: ExecContext<'_>,
    op: &Operator,
    depth: usize,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    match op {
        Operator::ScanVertices { var, label, preds } => {
            let range = vertex_scan_range(ctx, preds, *var);
            scan_vertices_range(ctx, depth, *var, *label, preds, range, row, k)
        }
        Operator::ScanEdges { .. } => {
            let range = 0..ctx.graph.edge_count();
            scan_edges_range(ctx, depth, op, range, row, k)
        }
        Operator::ExtendIntersect { .. } => {
            // A single list needs no intersection (plain EXTEND); multiple
            // lists are each fetched neighbour-sorted and intersected with
            // a k-pointer leapfrog.
            let ei = ei_op(op);
            let stats = ctx.prof_level(depth);
            if let Some(s) = stats {
                s.record(ei.alds.len() as u64, 0, 0);
            }
            let Some(lists) = fetch_ei_lists(ctx, ei.alds, row) else {
                return ControlFlow::Continue(());
            };
            let range = 0..lists[0].len();
            ei_over_lists(ctx, &ei, &lists, range, row, stats, k)
        }
        Operator::MultiExtend { targets, residual } => {
            multi_extend(ctx, depth, targets, residual, row, k)
        }
        Operator::VarLengthExpand { .. } => {
            var_length_bindings(ctx, depth, &var_length_op(op), row, k)
        }
        Operator::Filter { .. } => unreachable!("FILTER compacts its level in place"),
    }
}

/// An ID-equality predicate that pins the scanned vertex directly (the
/// `a1.ID = v5` fast path).
fn pinned_vertex(preds: &[QueryPredicate], var: usize) -> Option<VertexId> {
    preds.iter().find_map(|p| match (p.lhs, p.op, p.rhs) {
        (QueryOperand::VertexIdOf(v), CmpOp::Eq, QueryOperand::Const(c))
            if v == var && p.rhs_add == 0 =>
        {
            u32::try_from(c).ok().map(VertexId)
        }
        _ => None,
    })
}

/// The vertex IDs a scan of `var` has to visit: the single pinned ID, or
/// every vertex. A pinned scan is a one-ID range, so it is never worth
/// partitioning into morsels.
fn vertex_scan_range(ctx: ExecContext<'_>, preds: &[QueryPredicate], var: usize) -> Range<usize> {
    match pinned_vertex(preds, var) {
        Some(v) => v.index()..v.index().saturating_add(1),
        None => 0..ctx.graph.vertex_count(),
    }
}

/// The vertex scan restricted to IDs in `range` (a morsel, a pinned ID, or
/// everything): binds each vertex passing the label + predicate checks and
/// runs the continuation `k` — a root-binding consumer of the first-level
/// strategies, or a block level collecting the bindings.
#[allow(clippy::too_many_arguments)]
fn scan_vertices_range(
    ctx: ExecContext<'_>,
    depth: usize,
    var: usize,
    label: Option<aplus_common::VertexLabelId>,
    preds: &[QueryPredicate],
    range: Range<usize>,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let stats = ctx.prof_level(depth);
    let (mut cand, mut emit) = (0u64, 0u64);
    let mut flow = ControlFlow::Continue(());
    for raw in range.start..range.end.min(ctx.graph.vertex_count()) {
        cand += 1;
        let f = visit_vertex(ctx, var, label, preds, vid(raw), row, &mut |row| {
            emit += 1;
            k(row)
        });
        if f.is_break() {
            flow = ControlFlow::Break(());
            break;
        }
    }
    if let Some(s) = stats {
        s.record(0, cand, emit);
    }
    flow
}

/// Binds `v` to the scan variable if it passes the label + predicate
/// checks, then runs the continuation `k`.
fn visit_vertex(
    ctx: ExecContext<'_>,
    var: usize,
    label: Option<aplus_common::VertexLabelId>,
    preds: &[QueryPredicate],
    v: VertexId,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if let Some(want) = label {
        match ctx.graph.vertex_label(v) {
            Ok(l) if l == want => {}
            _ => return ControlFlow::Continue(()),
        }
    }
    row.bind_vertex(var, v);
    let flow = if preds.iter().all(|p| p.eval(ctx.graph, row)) {
        k(row)
    } else {
        ControlFlow::Continue(())
    };
    row.unbind_vertex(var);
    flow
}

/// The edge scan `op` restricted to IDs in `range` (a morsel, or
/// everything): binds each edge passing the label + predicate checks and
/// both its endpoints, and runs the continuation `k`.
fn scan_edges_range(
    ctx: ExecContext<'_>,
    depth: usize,
    op: &Operator,
    range: Range<usize>,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Operator::ScanEdges {
        edge_var,
        src_var,
        dst_var,
        label,
        src_label,
        dst_label,
        preds,
    } = op
    else {
        unreachable!("caller matched a ScanEdges")
    };
    let stats = ctx.prof_level(depth);
    let (mut cand, mut emit) = (0u64, 0u64);
    let mut out = ControlFlow::Continue(());
    for (e, s, d, l) in ctx.graph.edges_in(range) {
        cand += 1;
        if label.is_some_and(|want| want != l) {
            continue;
        }
        if src_label.is_some_and(|want| !ctx.graph.vertex_label(s).is_ok_and(|l| l == want)) {
            continue;
        }
        if dst_label.is_some_and(|want| !ctx.graph.vertex_label(d).is_ok_and(|l| l == want)) {
            continue;
        }
        row.bind_edge(*edge_var, e);
        row.bind_vertex(*src_var, s);
        row.bind_vertex(*dst_var, d);
        let flow = if preds.iter().all(|p| p.eval(ctx.graph, row)) {
            emit += 1;
            k(row)
        } else {
            ControlFlow::Continue(())
        };
        row.unbind_edge(*edge_var);
        row.unbind_vertex(*src_var);
        row.unbind_vertex(*dst_var);
        if flow.is_break() {
            out = ControlFlow::Break(());
            break;
        }
    }
    if let Some(s) = stats {
        s.record(0, cand, emit);
    }
    out
}

/// What ordering the consuming operator requires of a fetched list.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Any order (single-list extends).
    Any,
    /// Ordered by neighbour ID (E/I intersections).
    NbrSorted,
    /// Ordered by the ALD's leading effective sort key (MULTI-EXTEND).
    KeySorted,
}

/// A fetched, prune-restricted adjacency list.
pub(crate) struct BoundList<'a> {
    list: List<'a>,
    start: usize,
    end: usize,
    pub(crate) edge_var: usize,
    /// Leading sort key after pruning, for merge operations.
    merge_key: Option<SortKey>,
}

impl BoundList<'_> {
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    pub(crate) fn get(&self, i: usize) -> (EdgeId, VertexId) {
        self.list.get(self.start + i)
    }

    /// Counts the positions in `range` whose neighbour passes `keep`, in
    /// one pass over the neighbour column: the representation is matched
    /// once, outside the loop.
    pub(crate) fn count_nbrs(&self, range: Range<usize>, keep: impl Fn(VertexId) -> bool) -> u64 {
        let at = self.start + range.start..self.start + range.end;
        let n = match &self.list {
            List::Slice { nbrs, .. } => nbrs[at].iter().filter(|&&n| keep(VertexId(n))).count(),
            List::Owned(pairs) => pairs[at]
                .iter()
                .filter(|&&(_, n)| keep(VertexId(n)))
                .count(),
        };
        n as u64
    }

    /// Counts the positions in `range` holding exactly `(e, nbr)`. When
    /// the list is `nbr_sorted`, only `nbr`'s parallel-edge run is read,
    /// found by binary search; otherwise the whole range is scanned.
    pub(crate) fn count_entry(
        &self,
        range: Range<usize>,
        e: EdgeId,
        nbr: VertexId,
        nbr_sorted: bool,
    ) -> u64 {
        let from = if nbr_sorted {
            partition_idx(range.start, range.end, |i| self.get(i).1 < nbr)
        } else {
            range.start
        };
        let mut n = 0u64;
        for i in from..range.end {
            let (ei, ni) = self.get(i);
            if nbr_sorted && ni != nbr {
                break;
            }
            n += u64::from(ei == e && ni == nbr);
        }
        n
    }
}

/// What an index read hands [`fetch_list`]: an ID list (primary) or an
/// offset list (secondary). A trait, not an enum, so the primary path
/// compiles to the plain slice code it always was.
trait Fetched<'a> {
    fn len(&self) -> usize;
    fn get(&self, i: usize) -> (EdgeId, VertexId);
    /// The run `[start, end)` as a kernel-ready list plus its bounds in it.
    fn into_run(self, start: usize, end: usize) -> (List<'a>, usize, usize);
}

impl<'a> Fetched<'a> for List<'a> {
    fn len(&self) -> usize {
        List::len(self)
    }

    fn get(&self, i: usize) -> (EdgeId, VertexId) {
        List::get(self, i)
    }

    /// An ID list stays as it is, borrowed or owned.
    fn into_run(self, start: usize, end: usize) -> (List<'a>, usize, usize) {
        (self, start, end)
    }
}

impl<'a> Fetched<'a> for OffsetList<'a> {
    fn len(&self) -> usize {
        OffsetList::len(self)
    }

    fn get(&self, i: usize) -> (EdgeId, VertexId) {
        OffsetList::get(self, i)
    }

    /// An offset list is dereferenced here — after the prune, so only the
    /// survivors are copied.
    fn into_run(self, start: usize, end: usize) -> (List<'a>, usize, usize) {
        (self.into_list(start, end), 0, end - start)
    }
}

/// Resolves an ALD against the current row into a pruned list satisfying
/// `need`: one index read, then [`restrict`].
fn fetch_list<'a>(ctx: ExecContext<'a>, ald: &Ald, row: &Row, need: Need) -> BoundList<'a> {
    match (&ald.index, ald.from) {
        (IndexChoice::Primary(dir), FromRef::Vertex(v)) => {
            let owner = row.vertex(v).expect("plan binds FROM before use");
            let list = ctx.store.primary().index(*dir).list(owner, &ald.prefix);
            restrict(ctx, ald, row, need, list)
        }
        (IndexChoice::VertexIdx { name, direction }, FromRef::Vertex(v)) => {
            let owner = row.vertex(v).expect("plan binds FROM before use");
            let idx = ctx
                .store
                .vertex_index(name, *direction)
                .expect("plan references existing index");
            let primary = ctx.store.primary().index(*direction);
            restrict(ctx, ald, row, need, idx.list(primary, owner, &ald.prefix))
        }
        (IndexChoice::EdgeIdx { name }, FromRef::BoundEdge(e)) => {
            let eb = row.edge(e).expect("plan binds FROM edge before use");
            let idx = ctx
                .store
                .edge_index(name)
                .expect("plan references existing index");
            let dir = idx.view().orientation.primary_direction();
            let primary = ctx.store.primary().index(dir);
            let list = idx.list(ctx.graph, primary, eb, &ald.prefix);
            restrict(ctx, ald, row, need, list)
        }
        (choice, from) => unreachable!("invalid ALD combination {choice:?} / {from:?}"),
    }
}

/// Applies the ALD's prune to a fetched list and enforces `need`. Ranges
/// that are not globally sorted (multi-slot spans) get materialized and
/// sorted here — the executor stays correct for any plan, and the extra
/// work is exactly the penalty the optimizer's cost model charges such
/// plans.
fn restrict<'a>(
    ctx: ExecContext<'a>,
    ald: &Ald,
    row: &Row,
    need: Need,
    fetched: impl Fetched<'a>,
) -> BoundList<'a> {
    let merge_key = ald.effective_sort().first().copied();
    let bound = |list, start, end| BoundList {
        list,
        start,
        end,
        edge_var: ald.edge_var,
        merge_key,
    };
    let prune = match ald.prune {
        Some(Prune { op, value }) => match resolve_prune_value(ctx, value, row) {
            Some(v) => Some((op, v)),
            // A NULL comparison value satisfies nothing.
            None => return bound(List::empty(), 0, 0),
        },
        None => None,
    };
    let leading = ald.sort.first().copied();
    let (mut list, mut start, mut end) = match prune {
        // Unsorted range: fall back to a filtering scan (NULL never
        // satisfies the restriction).
        Some((op, value)) if !ald.sorted_range => {
            let kept: Vec<(u64, u32)> = (0..fetched.len())
                .map(|i| fetched.get(i))
                .filter(|&(e, n)| {
                    sort_key(ctx.graph, leading, e, n).is_some_and(|key| op.eval(key, value))
                })
                .map(|(e, n)| (e.raw(), n.raw()))
                .collect();
            let len = kept.len();
            (List::Owned(kept), 0, len)
        }
        // Binary search on the leading sort key: a lazy offset list
        // dereferences O(log n) entries here — the access pattern that
        // makes VPt's time-sorted prefix reads cheap (§V-C1).
        sorted => {
            let (start, end) = sorted.map_or((0, fetched.len()), |(op, value)| {
                prune_bounds(op, value, fetched.len(), |i| {
                    let (e, n) = fetched.get(i);
                    sort_key(ctx.graph, leading, e, n).map_or(i128::MAX, i128::from)
                })
            });
            fetched.into_run(start, end)
        }
    };
    // Enforce the consumer's ordering requirement.
    let satisfied = match need {
        Need::Any => true,
        Need::NbrSorted => ald.nbr_sorted() && ald.sorted_range,
        Need::KeySorted => ald.sorted_range,
    };
    if !satisfied {
        // An already-owned run (every offset list) is sorted in place.
        let mut owned = match list {
            List::Owned(mut v) => {
                v.truncate(end);
                v.drain(..start);
                v
            }
            borrowed => (start..end)
                .map(|i| {
                    let (e, n) = borrowed.get(i);
                    (e.raw(), n.raw())
                })
                .collect(),
        };
        match need {
            Need::NbrSorted => owned.sort_unstable_by_key(|&(e, n)| (n, e)),
            Need::KeySorted => owned.sort_by_cached_key(|&(e, n)| {
                let key = sort_key(ctx.graph, merge_key, EdgeId(e), VertexId(n));
                (key.map_or(i128::MAX, i128::from), n, e)
            }),
            Need::Any => {}
        }
        (start, end) = (0, owned.len());
        list = List::Owned(owned);
    }
    bound(list, start, end)
}

/// Resolves a prune's comparison value against the current row; `None`
/// means the prune value is NULL (nothing can satisfy the restriction).
fn resolve_prune_value(ctx: ExecContext<'_>, value: PruneValue, row: &Row) -> Option<i64> {
    match value {
        PruneValue::Const(c) => Some(c),
        PruneValue::VertexProp(var, pid) => {
            row.vertex(var).and_then(|v| ctx.graph.vertex_prop(v, pid))
        }
        PruneValue::EdgeProp(var, pid) => row.edge(var).and_then(|e| ctx.graph.edge_prop(e, pid)),
    }
}

/// Computes the `[start, end)` subrange surviving a prune over a sorted
/// random-access list of `len` entries, with `key(i)` the leading sort key
/// (`i128::MAX` encodes NULL, which sorts last and satisfies nothing — so
/// `Gt`/`Ge` suffixes must stop at the NULL boundary).
fn prune_bounds(op: CmpOp, value: i64, len: usize, key: impl Fn(usize) -> i128) -> (usize, usize) {
    let lower = partition_idx(0, len, |i| key(i) < i128::from(value));
    let nulls_at = |from: usize| partition_idx(from, len, |i| key(i) < i128::MAX);
    match op {
        CmpOp::Lt => (0, lower),
        CmpOp::Ge => (lower, nulls_at(lower)),
        CmpOp::Le | CmpOp::Gt | CmpOp::Eq => {
            let upper = partition_idx(lower, len, |i| key(i) <= i128::from(value));
            match op {
                CmpOp::Le => (0, upper),
                CmpOp::Gt => (upper, nulls_at(upper)),
                _ => (lower, upper),
            }
        }
        CmpOp::Ne => (0, len),
    }
}

/// Binary search: first index in `[start, end)` where `pred` is false.
fn partition_idx(start: usize, end: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut a = start;
    let mut b = end;
    while a < b {
        let mid = (a + b) / 2;
        if pred(mid) {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    a
}

/// The value of sort criterion `key` (no criterion: the neighbour-ID
/// tiebreak) for one entry; `None` is NULL, which sorts last.
fn sort_key(graph: &Graph, key: Option<SortKey>, edge: EdgeId, nbr: VertexId) -> Option<i64> {
    match key {
        None | Some(SortKey::NbrId) => Some(i64::from(nbr.raw())),
        Some(SortKey::NbrLabel) => graph.vertex_label(nbr).ok().map(|l| i64::from(l.raw())),
        Some(SortKey::EdgeProp(pid)) => graph.edge_prop(edge, pid),
        Some(SortKey::NbrProp(pid)) => graph.vertex_prop(nbr, pid),
    }
}

/// The merge key of position `i` in `list` (for MULTI-EXTEND): the leading
/// *effective* sort key.
fn merge_key_at(graph: &Graph, list: &BoundList<'_>, i: usize) -> Option<i64> {
    let (e, n) = list.get(i);
    sort_key(graph, list.merge_key, e, n)
}

/// Runs the E/I `ei` over pre-fetched lists with the *first* list
/// restricted to the position `range` — the unit of first-level
/// partitioned execution. Because list 0 is neighbour-sorted
/// (intersections) or arbitrary but positionally stable (single-list
/// extends), concatenating the outputs of contiguous ranges in order
/// reproduces the unrestricted output exactly, even when a range boundary
/// splits a run of parallel edges.
///
/// The continuation `k` runs per produced binding with the target vertex
/// and all edge variables bound (and is unwound before the next binding):
/// the block engine ([`crate::block`]) appends one entry to the next level
/// or counts it.
///
/// `stats` (a `PROFILE` run's cell for this operator level) accrues
/// candidates examined — single-list entries scanned, or leapfrog head
/// groups considered — and bindings emitted, accumulated in locals and
/// flushed with one atomic add per call.
pub(crate) fn ei_over_lists(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    lists: &[BoundList<'_>],
    range: Range<usize>,
    row: &mut Row,
    stats: Option<&LevelStats>,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut cand = 0u64;
    let mut emit = 0u64;
    let flow = ei_over_lists_counted(ctx, ei, lists, range, row, &mut cand, &mut emit, k);
    if let Some(s) = stats {
        s.record(0, cand, emit);
    }
    flow
}

#[allow(clippy::too_many_arguments)]
fn ei_over_lists_counted(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    lists: &[BoundList<'_>],
    range: Range<usize>,
    row: &mut Row,
    cand: &mut u64,
    emit: &mut u64,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let (target, residual) = (ei.target, ei.residual);
    // Compares the label alone: `== Ok(want)` would compare whole
    // `Result`s, dragging the error type's equality into the hot loop.
    let label_ok = |n: VertexId| {
        ei.target_label
            .is_none_or(|want| ctx.graph.vertex_label(n).is_ok_and(|l| l == want))
    };
    if lists.len() == 1 {
        let l = &lists[0];
        for i in range {
            *cand += 1;
            let (e, n) = l.get(i);
            if row.uses_edge(e) || !label_ok(n) {
                continue;
            }
            row.bind_vertex(target, n);
            row.bind_edge(l.edge_var, e);
            let flow = if residual.iter().all(|p| p.eval(ctx.graph, row)) {
                *emit += 1;
                k(row)
            } else {
                ControlFlow::Continue(())
            };
            row.unbind_edge(l.edge_var);
            row.unbind_vertex(target);
            flow?;
        }
        return ControlFlow::Continue(());
    }
    let nl = lists.len();
    // List 0 is clamped to `range`; the other lists run in full (the
    // leapfrog fast-forwards them to list 0's neighbour span).
    let len_of = |i: usize| if i == 0 { range.end } else { lists[i].len() };
    let mut ptr: Vec<usize> = vec![0; nl];
    ptr[0] = range.start;
    // Run buffers are reused across neighbour groups to avoid per-group
    // allocations in the hot intersection loop.
    let mut edge_choices: Vec<Vec<EdgeId>> = vec![Vec::new(); nl];
    'outer: loop {
        // Find the maximum head neighbour.
        let mut max_nbr = 0u32;
        for i in 0..nl {
            if ptr[i] >= len_of(i) {
                break 'outer;
            }
            max_nbr = max_nbr.max(lists[i].get(ptr[i]).1.raw());
        }
        *cand += 1;
        // Advance every list to >= max_nbr (leapfrog step).
        let mut aligned = true;
        for i in 0..nl {
            while ptr[i] < len_of(i) && lists[i].get(ptr[i]).1.raw() < max_nbr {
                ptr[i] += 1;
            }
            if ptr[i] >= len_of(i) {
                break 'outer;
            }
            if lists[i].get(ptr[i]).1.raw() != max_nbr {
                aligned = false;
            }
        }
        if !aligned {
            continue;
        }
        let nbr = VertexId(max_nbr);
        // Collect the run of entries per list (parallel edges).
        for (i, choices) in edge_choices.iter_mut().enumerate() {
            choices.clear();
            let mut j = ptr[i];
            while j < len_of(i) && lists[i].get(j).1 == nbr {
                choices.push(lists[i].get(j).0);
                j += 1;
            }
            ptr[i] = j;
        }
        if !label_ok(nbr) {
            continue;
        }
        row.bind_vertex(target, nbr);
        let flow = bind_edges_product(ctx, lists, &edge_choices, 0, residual, row, &mut |r| {
            *emit += 1;
            k(r)
        });
        row.unbind_vertex(target);
        flow?;
    }
    ControlFlow::Continue(())
}

/// Binds one edge choice per list (cartesian product, with relationship
/// uniqueness), then evaluates residuals and runs the continuation.
fn bind_edges_product(
    ctx: ExecContext<'_>,
    lists: &[BoundList<'_>],
    choices: &[Vec<EdgeId>],
    li: usize,
    residual: &[QueryPredicate],
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if li == lists.len() {
        if residual.iter().all(|p| p.eval(ctx.graph, row)) {
            return k(row);
        }
        return ControlFlow::Continue(());
    }
    for &e in &choices[li] {
        if row.uses_edge(e) {
            continue;
        }
        row.bind_edge(lists[li].edge_var, e);
        let flow = bind_edges_product(ctx, lists, choices, li + 1, residual, row, k);
        row.unbind_edge(lists[li].edge_var);
        flow?;
    }
    ControlFlow::Continue(())
}

/// The bindings a MULTI-EXTEND adds to the current row: every combination
/// of one entry per target list within each equal-key group, with
/// relationship uniqueness and the targets' label checks.
fn multi_extend(
    ctx: ExecContext<'_>,
    depth: usize,
    targets: &[(usize, Option<aplus_common::VertexLabelId>, Ald)],
    residual: &[QueryPredicate],
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if let Some(s) = ctx.prof_level(depth) {
        s.record(targets.len() as u64, 0, 0);
    }
    let lists: Vec<BoundList<'_>> = targets
        .iter()
        .map(|(_, _, a)| fetch_list(ctx, a, row, Need::KeySorted))
        .collect();
    if lists.iter().any(|l| l.len() == 0) {
        return ControlFlow::Continue(());
    }
    let n = lists.len();
    let mut ptr = vec![0usize; n];
    'outer: loop {
        // Heads; NULL keys terminate their list (NULL == NULL is false).
        let mut max_key = i64::MIN;
        for i in 0..n {
            if ptr[i] >= lists[i].len() {
                break 'outer;
            }
            match merge_key_at(ctx.graph, &lists[i], ptr[i]) {
                Some(key) => max_key = max_key.max(key),
                // NULLs sort last: the rest of this list is NULL too.
                None => break 'outer,
            }
        }
        let mut aligned = true;
        for i in 0..n {
            while ptr[i] < lists[i].len() {
                match merge_key_at(ctx.graph, &lists[i], ptr[i]) {
                    Some(key) if key < max_key => ptr[i] += 1,
                    Some(key) => {
                        if key != max_key {
                            aligned = false;
                        }
                        break;
                    }
                    None => break 'outer,
                }
            }
            if ptr[i] >= lists[i].len() {
                break 'outer;
            }
        }
        if !aligned {
            continue;
        }
        // Collect the equal-key run per target.
        let mut runs: Vec<Vec<(EdgeId, VertexId)>> = vec![Vec::new(); n];
        for i in 0..n {
            let mut j = ptr[i];
            while j < lists[i].len() && merge_key_at(ctx.graph, &lists[i], j) == Some(max_key) {
                runs[i].push(lists[i].get(j));
                j += 1;
            }
            ptr[i] = j;
        }
        bind_targets_product(ctx, targets, &lists, &runs, 0, residual, row, k)?;
    }
    ControlFlow::Continue(())
}

#[allow(clippy::too_many_arguments)]
fn bind_targets_product(
    ctx: ExecContext<'_>,
    targets: &[(usize, Option<aplus_common::VertexLabelId>, Ald)],
    lists: &[BoundList<'_>],
    runs: &[Vec<(EdgeId, VertexId)>],
    ti: usize,
    residual: &[QueryPredicate],
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    if ti == targets.len() {
        if residual.iter().all(|p| p.eval(ctx.graph, row)) {
            return k(row);
        }
        return ControlFlow::Continue(());
    }
    let (tvar, tlabel, _) = targets[ti];
    for &(e, n) in &runs[ti] {
        if row.uses_edge(e)
            || tlabel.is_some_and(|want| !ctx.graph.vertex_label(n).is_ok_and(|l| l == want))
        {
            continue;
        }
        row.bind_vertex(tvar, n);
        row.bind_edge(lists[ti].edge_var, e);
        let flow = bind_targets_product(ctx, targets, lists, runs, ti + 1, residual, row, k);
        row.unbind_edge(lists[ti].edge_var);
        row.unbind_vertex(tvar);
        flow?;
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::VecSink;
    use aplus_core::{Direction, IndexSpec, SortKey};
    use aplus_datagen::build_financial_graph;
    use aplus_graph::PropertyEntity;

    // The result shapes the tests below ask of the one driver.
    fn count_on(ctx: ExecContext<'_>, query: &QueryGraph, plan: &Plan, pool: &MorselPool) -> u64 {
        run(ctx, query, plan, pool, Output::Count)
    }

    fn count(ctx: ExecContext<'_>, query: &QueryGraph, plan: &Plan) -> u64 {
        count_on(ctx, query, plan, &MorselPool::sequential())
    }

    fn stream(
        ctx: ExecContext<'_>,
        query: &QueryGraph,
        plan: &Plan,
        limit: usize,
        pool: &MorselPool,
        sink: &mut dyn RowSink,
    ) {
        run(ctx, query, plan, pool, Output::Rows { limit, sink });
    }

    fn collect_on(
        ctx: ExecContext<'_>,
        query: &QueryGraph,
        plan: &Plan,
        limit: usize,
        pool: &MorselPool,
    ) -> Vec<RawRow> {
        let mut sink = VecSink::with_limit(limit);
        stream(ctx, query, plan, limit, pool, &mut sink);
        sink.into_rows()
    }

    fn collect(ctx: ExecContext<'_>, query: &QueryGraph, plan: &Plan, limit: usize) -> Vec<RawRow> {
        collect_on(ctx, query, plan, limit, &MorselPool::sequential())
    }

    fn fixture() -> (
        aplus_graph::Graph,
        IndexStore,
        aplus_datagen::FinancialGraph,
    ) {
        let fg = build_financial_graph();
        let g = fg.graph.clone();
        let store = IndexStore::build(&g).unwrap();
        (g, store, fg)
    }

    /// 2-hop query: c -[O]-> a1 -[W]-> a2 anchored at Alice's customer
    /// vertex, executed with hand-built plan (Example 2's access pattern).
    #[test]
    fn hand_plan_two_hop() {
        let (g, store, fg) = fixture();
        let owns = u32::from(g.catalog().edge_label("O").unwrap().raw());
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        let alice = fg.customers[1];
        let query = QueryGraph {
            vertices: (0..3)
                .map(|i| crate::query::QueryVertex {
                    name: format!("x{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 1,
                    label: None,
                    var_length: None,
                },
                crate::query::QueryEdge {
                    name: None,
                    src: 1,
                    dst: 2,
                    label: None,
                    var_length: None,
                },
            ],
            predicates: vec![],
        };
        let plan = Plan {
            ops: vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![QueryPredicate::new(
                        QueryOperand::VertexIdOf(0),
                        CmpOp::Eq,
                        QueryOperand::Const(i64::from(alice.raw())),
                    )],
                },
                Operator::ExtendIntersect {
                    target: 1,
                    target_label: None,
                    alds: vec![Ald {
                        from: FromRef::Vertex(0),
                        index: IndexChoice::Primary(Direction::Fwd),
                        prefix: vec![owns],
                        edge_var: 0,
                        sort: vec![SortKey::NbrId],
                        prune: None,
                        sorted_range: true,
                    }],
                    residual: vec![],
                },
                Operator::ExtendIntersect {
                    target: 2,
                    target_label: None,
                    alds: vec![Ald {
                        from: FromRef::Vertex(1),
                        index: IndexChoice::Primary(Direction::Fwd),
                        prefix: vec![wire],
                        edge_var: 1,
                        sort: vec![SortKey::NbrId],
                        prune: None,
                        sorted_range: true,
                    }],
                    residual: vec![],
                },
            ],
            est_cost: 0.0,
        };
        let ctx = ExecContext::new(&g, &store);
        // Alice owns v1 (3 wires) and v2 (1 wire: t8) -> 4 matches.
        assert_eq!(count(ctx, &query, &plan), 4);
        // A pinned root scan cannot be partitioned, but its first E/I
        // level can: the parallel entry point must still answer.
        assert_eq!(count_on(ctx, &query, &plan, &MorselPool::new(4)), 4);
        // And parallel collect must return the identical row sequence.
        let seq = collect(ctx, &query, &plan, usize::MAX);
        assert_eq!(seq.len(), 4);
        for threads in [1, 2, 4, 8] {
            let pool = MorselPool::new(threads);
            for limit in [0, 1, 2, 3, 4, usize::MAX] {
                let par = collect_on(ctx, &query, &plan, limit, &pool);
                assert_eq!(
                    par,
                    seq[..limit.min(seq.len())],
                    "pinned-root collect at {threads} threads, limit {limit}"
                );
            }
        }
    }

    /// A sink `Break` stops execution immediately: the sink is never
    /// pushed to again (the `LIMIT` early-exit contract).
    #[test]
    fn execute_break_stops_immediately() {
        let (g, store, _) = fixture();
        let query = QueryGraph {
            vertices: (0..2)
                .map(|i| crate::query::QueryVertex {
                    name: format!("x{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![crate::query::QueryEdge {
                name: None,
                src: 0,
                dst: 1,
                label: None,
                var_length: None,
            }],
            predicates: vec![],
        };
        let plan = Plan {
            ops: vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![],
                },
                Operator::ExtendIntersect {
                    target: 1,
                    target_label: None,
                    alds: vec![Ald {
                        from: FromRef::Vertex(0),
                        index: IndexChoice::Primary(Direction::Fwd),
                        prefix: vec![],
                        edge_var: 0,
                        sort: vec![SortKey::NbrId],
                        prune: None,
                        sorted_range: false,
                    }],
                    residual: vec![],
                },
            ],
            est_cost: 0.0,
        };
        let ctx = ExecContext::new(&g, &store);
        assert!(count(ctx, &query, &plan) > 3, "fixture has enough edges");
        // `collect` gathers exactly the first `limit` rows.
        let all = collect(ctx, &query, &plan, usize::MAX);
        assert_eq!(collect(ctx, &query, &plan, 3), all[..3]);
        assert_eq!(collect(ctx, &query, &plan, 0), vec![]);
        // An inline morsel hands rows straight to the sink as it flattens
        // them, so a sink `Break` — no `LIMIT` involved — stops the flatten
        // at the third row and no row is pushed after it.
        let profiler = QueryProfiler::new(plan.ops.len());
        let profiled = ExecContext {
            profiler: Some(&profiler),
            ..ctx
        };
        let mut pushed = Vec::new();
        let pool = MorselPool::sequential();
        stream(profiled, &query, &plan, usize::MAX, &pool, &mut |r| {
            pushed.push(r);
            if pushed.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(pushed, all[..3]);
        let profile = profiler.finish(&plan.op_descriptions());
        assert_eq!(profile.early_exit_level, Some(plan.ops.len()));
        assert_eq!(profile.flatten_rows, 3, "flattened past the break");
    }

    /// Parallel collect (root-partitioned and streamed) returns the
    /// bit-identical row sequence as sequential collect on an
    /// intersection-heavy plan, at every thread count and limit.
    #[test]
    fn parallel_collect_and_stream_match_sequential() {
        let (g, store, _) = fixture();
        let query = QueryGraph {
            vertices: (0..3)
                .map(|i| crate::query::QueryVertex {
                    name: format!("x{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 1,
                    label: None,
                    var_length: None,
                },
                crate::query::QueryEdge {
                    name: None,
                    src: 1,
                    dst: 2,
                    label: None,
                    var_length: None,
                },
            ],
            predicates: vec![],
        };
        let mk_ald = |from: usize, edge_var: usize| Ald {
            from: FromRef::Vertex(from),
            index: IndexChoice::Primary(Direction::Fwd),
            prefix: vec![],
            edge_var,
            sort: vec![SortKey::NbrId],
            prune: None,
            sorted_range: false,
        };
        let plan = Plan {
            ops: vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![],
                },
                Operator::ExtendIntersect {
                    target: 1,
                    target_label: None,
                    alds: vec![mk_ald(0, 0)],
                    residual: vec![],
                },
                Operator::ExtendIntersect {
                    target: 2,
                    target_label: None,
                    alds: vec![mk_ald(1, 1)],
                    residual: vec![],
                },
            ],
            est_cost: 0.0,
        };
        let ctx = ExecContext::new(&g, &store);
        let seq = collect(ctx, &query, &plan, usize::MAX);
        assert!(!seq.is_empty());
        for threads in [1, 2, 4] {
            let pool = MorselPool::new(threads);
            for limit in [1, 5, seq.len(), usize::MAX] {
                let par = collect_on(ctx, &query, &plan, limit, &pool);
                assert_eq!(par, seq[..limit.min(seq.len())], "{threads}t limit {limit}");
                let mut streamed = Vec::new();
                stream(ctx, &query, &plan, limit, &pool, &mut |r: RawRow| {
                    streamed.push(r);
                    ControlFlow::Continue(())
                });
                assert_eq!(streamed, par, "streamed rows at {threads}t limit {limit}");
            }
        }
    }

    /// WCOJ triangle count on the financial graph via 2-way intersection.
    #[test]
    fn hand_plan_triangle_intersection() {
        let (g, store, _) = fixture();
        let query = QueryGraph {
            vertices: (0..3)
                .map(|i| crate::query::QueryVertex {
                    name: format!("x{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 1,
                    label: None,
                    var_length: None,
                },
                crate::query::QueryEdge {
                    name: None,
                    src: 1,
                    dst: 2,
                    label: None,
                    var_length: None,
                },
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 2,
                    label: None,
                    var_length: None,
                },
            ],
            predicates: vec![],
        };
        let plan = Plan {
            ops: vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![],
                },
                Operator::ExtendIntersect {
                    target: 1,
                    target_label: None,
                    alds: vec![Ald {
                        from: FromRef::Vertex(0),
                        index: IndexChoice::Primary(Direction::Fwd),
                        prefix: vec![],
                        edge_var: 0,
                        sort: vec![SortKey::NbrId],
                        prune: None,
                        sorted_range: false,
                    }],
                    residual: vec![],
                },
                Operator::ExtendIntersect {
                    target: 2,
                    target_label: None,
                    alds: vec![
                        Ald {
                            from: FromRef::Vertex(1),
                            index: IndexChoice::Primary(Direction::Fwd),
                            prefix: vec![],
                            edge_var: 1,
                            sort: vec![SortKey::NbrId],
                            prune: None,
                            sorted_range: false,
                        },
                        Ald {
                            from: FromRef::Vertex(0),
                            index: IndexChoice::Primary(Direction::Fwd),
                            prefix: vec![],
                            edge_var: 2,
                            sort: vec![SortKey::NbrId],
                            prune: None,
                            sorted_range: false,
                        },
                    ],
                    residual: vec![],
                },
            ],
            est_cost: 0.0,
        };
        let ctx = ExecContext::new(&g, &store);
        let wcoj = count(ctx, &query, &plan);
        // Morsel-driven execution must agree at every thread count.
        for threads in [1, 2, 4, 8] {
            assert_eq!(
                count_on(ctx, &query, &plan, &MorselPool::new(threads)),
                wcoj,
                "parallel count diverged at {threads} threads"
            );
        }
        // Reference count by brute force.
        let mut brute = 0u64;
        let edges: Vec<_> = g.edges().collect();
        for &(e1, a, b, _) in &edges {
            for &(e2, b2, c, _) in &edges {
                if b2 != b || e2 == e1 {
                    continue;
                }
                for &(e3, a2, c2, _) in &edges {
                    if a2 == a && c2 == c && e3 != e1 && e3 != e2 {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(wcoj, brute);
        assert!(wcoj > 0, "financial graph has directed open triangles");
    }

    /// Range prune on a time-sorted list must equal post-filtering.
    #[test]
    fn prune_equals_filter() {
        let (g, mut store, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        store
            .create_vertex_index(
                &g,
                "VPt",
                aplus_core::store::IndexDirections::Fw,
                aplus_core::view::OneHopView::new(aplus_core::ViewPredicate::always_true())
                    .unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::EdgeProp(date)]),
            )
            .unwrap();
        let query = QueryGraph {
            vertices: (0..2)
                .map(|i| crate::query::QueryVertex {
                    name: format!("x{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![crate::query::QueryEdge {
                name: None,
                src: 0,
                dst: 1,
                label: None,
                var_length: None,
            }],
            predicates: vec![],
        };
        let mk_plan = |use_prune: bool| Plan {
            ops: vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![QueryPredicate::new(
                        QueryOperand::VertexIdOf(0),
                        CmpOp::Eq,
                        QueryOperand::Const(i64::from(fg.account(5).raw())),
                    )],
                },
                Operator::ExtendIntersect {
                    target: 1,
                    target_label: None,
                    alds: vec![Ald {
                        from: FromRef::Vertex(0),
                        index: IndexChoice::VertexIdx {
                            name: "VPt".into(),
                            direction: Direction::Fwd,
                        },
                        prefix: vec![],
                        edge_var: 0,
                        sort: vec![SortKey::EdgeProp(date)],
                        prune: use_prune.then_some(Prune {
                            op: CmpOp::Lt,
                            value: PruneValue::Const(6),
                        }),
                        sorted_range: false,
                    }],
                    residual: if use_prune {
                        vec![]
                    } else {
                        vec![QueryPredicate::new(
                            QueryOperand::EdgeProp(0, date),
                            CmpOp::Lt,
                            QueryOperand::Const(6),
                        )]
                    },
                },
            ],
            est_cost: 0.0,
        };
        let ctx = ExecContext::new(&g, &store);
        let pruned = count(ctx, &query, &mk_plan(true));
        let filtered = count(ctx, &query, &mk_plan(false));
        assert_eq!(pruned, filtered);
        // v5's out-edges with date < 6: t1, t2, t3, t5 -> 4.
        assert_eq!(pruned, 4);
    }

    /// MULTI-EXTEND on city equality matches the brute-force pair count.
    #[test]
    fn multi_extend_city_pairs() {
        let (g, mut store, fg) = fixture();
        let city = g
            .catalog()
            .property(PropertyEntity::Vertex, "city")
            .unwrap();
        store
            .create_vertex_index(
                &g,
                "VPc",
                aplus_core::store::IndexDirections::FwBw,
                aplus_core::view::OneHopView::new(aplus_core::ViewPredicate::always_true())
                    .unwrap(),
                IndexSpec::default_primary().with_sort(vec![SortKey::NbrProp(city)]),
            )
            .unwrap();
        // Pattern: a2 <- a1 -> a3 with a2.city = a3.city (both forward).
        let query = QueryGraph {
            vertices: (0..3)
                .map(|i| crate::query::QueryVertex {
                    name: format!("x{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 1,
                    label: None,
                    var_length: None,
                },
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 2,
                    label: None,
                    var_length: None,
                },
            ],
            predicates: vec![QueryPredicate::new(
                QueryOperand::VertexProp(1, city),
                CmpOp::Eq,
                QueryOperand::VertexProp(2, city),
            )],
        };
        let mk_ald = |edge_var: usize| Ald {
            from: FromRef::Vertex(0),
            index: IndexChoice::VertexIdx {
                name: "VPc".into(),
                direction: Direction::Fwd,
            },
            prefix: vec![],
            edge_var,
            sort: vec![SortKey::NbrProp(city)],
            prune: None,
            sorted_range: false,
        };
        let plan = Plan {
            ops: vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![],
                },
                Operator::MultiExtend {
                    targets: vec![(1, None, mk_ald(0)), (2, None, mk_ald(1))],
                    residual: vec![],
                },
            ],
            est_cost: 0.0,
        };
        let ctx = ExecContext::new(&g, &store);
        let got = count(ctx, &query, &plan);
        // Brute force: ordered pairs of distinct out-edges of the same
        // vertex whose head cities are equal (and non-NULL).
        let edges: Vec<_> = g.edges().collect();
        let mut brute = 0u64;
        for &(e1, s1, d1, _) in &edges {
            for &(e2, s2, d2, _) in &edges {
                if e1 == e2 || s1 != s2 {
                    continue;
                }
                let (Some(c1), Some(c2)) = (g.vertex_prop(d1, city), g.vertex_prop(d2, city))
                else {
                    continue;
                };
                if c1 == c2 {
                    brute += 1;
                }
            }
        }
        assert_eq!(got, brute);
        assert!(got > 0);
        let _ = fg;
    }

    /// A dynamic Eq-prune on a city-sorted list must equal the filtered
    /// baseline (MF2's consecutive-city mechanism), via both the lazy
    /// clean-range path and the materializing fallback.
    #[test]
    fn dynamic_prune_equals_filter() {
        let (g, mut store, fg) = fixture();
        let city = g
            .catalog()
            .property(PropertyEntity::Vertex, "city")
            .unwrap();
        store
            .create_vertex_index(
                &g,
                "VPc",
                aplus_core::store::IndexDirections::Fw,
                aplus_core::view::OneHopView::new(aplus_core::ViewPredicate::always_true())
                    .unwrap(),
                // No partitioning: whole regions are globally city-sorted.
                IndexSpec::default().with_sort(vec![SortKey::NbrProp(city)]),
            )
            .unwrap();
        let query = QueryGraph {
            vertices: (0..3)
                .map(|i| crate::query::QueryVertex {
                    name: format!("x{i}"),
                    label: None,
                })
                .collect(),
            edges: vec![
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 1,
                    label: None,
                    var_length: None,
                },
                crate::query::QueryEdge {
                    name: None,
                    src: 0,
                    dst: 2,
                    label: None,
                    var_length: None,
                },
            ],
            predicates: vec![QueryPredicate::new(
                QueryOperand::VertexProp(1, city),
                CmpOp::Eq,
                QueryOperand::VertexProp(2, city),
            )],
        };
        let mk_plan = |use_prune: bool| Plan {
            ops: vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![],
                },
                Operator::ExtendIntersect {
                    target: 1,
                    target_label: None,
                    alds: vec![Ald {
                        from: FromRef::Vertex(0),
                        index: IndexChoice::VertexIdx {
                            name: "VPc".into(),
                            direction: Direction::Fwd,
                        },
                        prefix: vec![],
                        edge_var: 0,
                        sort: vec![SortKey::NbrProp(city)],
                        prune: None,
                        sorted_range: true,
                    }],
                    residual: vec![],
                },
                Operator::ExtendIntersect {
                    target: 2,
                    target_label: None,
                    alds: vec![Ald {
                        from: FromRef::Vertex(0),
                        index: IndexChoice::VertexIdx {
                            name: "VPc".into(),
                            direction: Direction::Fwd,
                        },
                        prefix: vec![],
                        edge_var: 1,
                        sort: vec![SortKey::NbrProp(city)],
                        prune: use_prune.then_some(Prune {
                            op: CmpOp::Eq,
                            value: PruneValue::VertexProp(1, city),
                        }),
                        sorted_range: true,
                    }],
                    residual: if use_prune {
                        vec![]
                    } else {
                        vec![QueryPredicate::new(
                            QueryOperand::VertexProp(1, city),
                            CmpOp::Eq,
                            QueryOperand::VertexProp(2, city),
                        )]
                    },
                },
            ],
            est_cost: 0.0,
        };
        let ctx = ExecContext::new(&g, &store);
        let pruned = count(ctx, &query, &mk_plan(true));
        let filtered = count(ctx, &query, &mk_plan(false));
        assert_eq!(pruned, filtered);
        assert!(pruned > 0, "financial graph has same-city fan-outs");
        let _ = fg;
    }

    /// Pruned fetches agree with a brute-force filter of the graph on every
    /// vertex, operator and threshold (the VPt access path, §V-C1): over
    /// lazy `Clean` lists, over a `Dirty` one (a buffered insert and a
    /// tombstone inside v1's range), and again once `flush` folded both in.
    #[test]
    fn lazy_and_materializing_prunes_agree() {
        let (mut g, mut store, fg) = fixture();
        let date = g.catalog().property(PropertyEntity::Edge, "date").unwrap();
        store
            .create_vertex_index(
                &g,
                "VPt",
                aplus_core::store::IndexDirections::Fw,
                aplus_core::view::OneHopView::new(aplus_core::ViewPredicate::always_true())
                    .unwrap(),
                IndexSpec::default().with_sort(vec![SortKey::EdgeProp(date)]),
            )
            .unwrap();
        let v1 = fg.account(1);
        let check = |g: &Graph, store: &IndexStore, v1_dirty: bool| {
            let ctx = ExecContext::new(g, store);
            let idx = store.vertex_index("VPt", Direction::Fwd).unwrap();
            let v1_list = idx.list(store.primary().index(Direction::Fwd), v1, &[]);
            assert_eq!(matches!(v1_list, OffsetList::Dirty(_)), v1_dirty);
            for v in g.vertices() {
                for threshold in [0i64, 3, 10, 21, 100] {
                    for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq] {
                        let ald = Ald {
                            from: FromRef::Vertex(0),
                            index: IndexChoice::VertexIdx {
                                name: "VPt".into(),
                                direction: Direction::Fwd,
                            },
                            prefix: vec![],
                            edge_var: 0,
                            sort: vec![SortKey::EdgeProp(date)],
                            prune: Some(Prune {
                                op,
                                value: PruneValue::Const(threshold),
                            }),
                            sorted_range: true,
                        };
                        let mut row = Row::unbound(1, 1);
                        row.bind_vertex(0, v);
                        let fetched = fetch_list(ctx, &ald, &row, Need::Any);
                        let got: Vec<u64> =
                            (0..fetched.len()).map(|i| fetched.get(i).0.raw()).collect();
                        // Reference: v's live out-edges in index order
                        // (date, then the neighbour / edge tiebreaks).
                        let mut expect: Vec<(i64, u32, u64)> = g
                            .edges()
                            .filter(|&(_, s, ..)| s == v)
                            .filter_map(|(e, _, d, _)| {
                                Some((g.edge_prop(e, date)?, d.raw(), e.raw()))
                            })
                            .filter(|&(d, ..)| op.eval(d, threshold))
                            .collect();
                        expect.sort_unstable();
                        let expect: Vec<u64> = expect.into_iter().map(|(.., e)| e).collect();
                        assert_eq!(got, expect, "v={v} {op:?} {threshold}");
                    }
                }
            }
        };
        check(&g, &store, false);
        let e = g.add_edge(v1, fg.account(3), "W").unwrap();
        g.set_edge_prop(e, date, aplus_graph::Value::Int(10))
            .unwrap();
        store.insert_edge(&g, e);
        g.delete_edge(fg.transfer(17)).unwrap();
        store.delete_edge(&g, fg.transfer(17));
        check(&g, &store, true);
        store.flush(&g);
        check(&g, &store, false);
    }

    /// Satellite of the `VertexId(raw as u32)` truncation fix: the domain
    /// guard accepts exactly up to 2^32 vertices (largest raw ID fits a
    /// u32) and rejects the first population past it with the structured
    /// error instead of letting a scan silently alias IDs.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn vertex_domain_boundary() {
        let max = 1usize << 32;
        assert_eq!(check_vertex_domain(0), Ok(()));
        assert_eq!(check_vertex_domain(max - 1), Ok(()));
        assert_eq!(check_vertex_domain(max), Ok(()));
        assert_eq!(
            check_vertex_domain(max + 1),
            Err(QueryError::VertexDomainExceeded {
                vertex_count: max + 1
            })
        );
        let msg = QueryError::VertexDomainExceeded {
            vertex_count: max + 1,
        }
        .to_string();
        assert!(msg.contains("4294967297"), "error names the count: {msg}");
    }

    /// Every optimizer-built plan shape — vertex- and edge-scan roots, E/I
    /// chains and intersections, pinned roots and var-length expansions —
    /// runs on factorized blocks, and its count equals its flattened rows
    /// at every thread count, with limited rows an exact prefix (the
    /// proptest suites check random graphs against the oracle; this is the
    /// fast unit gate).
    #[test]
    fn every_plan_shape_counts_its_flattened_rows() {
        let db = crate::engine::Database::new(build_financial_graph().graph).unwrap();
        let queries = [
            "MATCH a-[r:W]->b",
            "MATCH a-[r1:O]->b-[r2:W]->c",
            "MATCH a-[r1:W]->b-[r2:W]->c, a-[r3:W]->c",
            "MATCH a-[r:W]->b WHERE a.ID = 4",
            "MATCH a-[r1]->b WHERE r1.eID = 3",
            "MATCH a-[r1]->b-[r2]->c WHERE r1.eID = 3",
            "MATCH a-[:W*1..3]->b",
            "MATCH a-[:W*1..3]->b WHERE a.ID = 4",
            "MATCH c-[r:O]->a-[:W*2..3]->b",
        ];
        let mut shapes = Vec::new();
        for q in queries {
            let (bound, plan) = db.prepare(q).unwrap();
            shapes.extend(plan.ops.iter().map(std::mem::discriminant));
            let ctx = ExecContext::new(db.graph(), db.store());
            let rows = collect(ctx, &bound, &plan, usize::MAX);
            assert!(!rows.is_empty(), "{q}");
            for threads in [1, 2, 4] {
                let pool = MorselPool::new(threads);
                assert_eq!(
                    count_on(ctx, &bound, &plan, &pool),
                    rows.len() as u64,
                    "{q} threads={threads}"
                );
                for limit in [0, 1, 3, usize::MAX] {
                    assert_eq!(
                        collect_on(ctx, &bound, &plan, limit, &pool),
                        rows[..limit.min(rows.len())],
                        "{q} threads={threads} limit={limit}"
                    );
                }
            }
        }
        let edge_scan = Operator::ScanEdges {
            edge_var: 0,
            src_var: 0,
            dst_var: 0,
            label: None,
            src_label: None,
            dst_label: None,
            preds: vec![],
        };
        assert!(
            shapes.contains(&std::mem::discriminant(&edge_scan)),
            "an edge-scan root is covered"
        );
    }
}
