//! Plan execution: SCAN, EXTEND/INTERSECT, MULTI-EXTEND and VAR-LENGTH
//! EXPAND.
//!
//! Every operator is a *binding producer* (`op_bindings`): given a row
//! holding one binding of the variables bound so far, it enumerates the
//! bindings it adds and hands each to a continuation. The factorized block
//! engine ([`crate::block`]) is the only consumer: it runs each operator
//! over a whole level of bindings at once and keeps the results factorized
//! until the sink. Adjacency lists are read through the A+ indexes as two
//! borrowed columns (edge IDs, neighbour IDs); E/I performs a k-pointer
//! leapfrog intersection on the neighbour columns, seeking by galloping
//! search (the WCOJ building block), and applies its list filter to list
//! entries before binding them. A list that depends on its owner alone is
//! read *pre-checked* — only the entries that pass the operator's checks
//! (target label, target conjuncts and its own edge's conjuncts), as
//! `Checked` columns — where its owner repeats: a filtered single list
//! (`Plan::list_memo`) once per owner vertex and query, into the query's
//! memo (`block::OwnerMemo`), and a list hanging off a vertex bound two or
//! more levels up, an *outer* list (`Plan::outer`), once per (root entry,
//! owner) run into the morsel's `Scratch`, where each call's lists and
//! cursors live too, so no E/I call allocates a vector of its own. Both
//! are plan data, not derived here. VAR-LENGTH EXPAND is a BFS over vertex
//! bitsets, MULTI-EXTEND performs a k-pointer merge-group on a property
//! sort key and emits the cartesian product of each equal-key group, and
//! sorted-prefix prunes are applied by binary search (the "fewer predicate
//! evaluations" effect of VPt, §V-C1).
//!
//! Matching semantics follow openCypher: query vertices may bind the same
//! data vertex, but each data edge binds at most one query edge per match.
//!
//! # One driver: root morsels × block body × output
//!
//! [`run`] is the only way a plan executes. It cuts the root scan's ID
//! range (vertices or edges) into contiguous morsels
//! ([`aplus_runtime::scan_morsel_size`]), hands every morsel to a block
//! body, and merges the bodies' results **in morsel order** into the
//! query's [`Output`]:
//!
//! * **Root morsels** — the one partitioning strategy. A pinned vertex is
//!   the one-ID range, so it is one morsel, which the pool runs inline on
//!   the caller at any pool size; its block builds every level.
//! * **Block body** — what one morsel runs: the block seeded from the
//!   morsel ([`crate::block`]), extended through the remaining operators
//!   with its own per-worker scratch row — no synchronization inside
//!   operators — then counted without flattening, or built and handed
//!   over unflattened. A query's one shared state is its memo of
//!   owner-only work (`block::OwnerMemo`, built here once per query):
//!   cells per (slot, owner vertex) for a count's memoised suffix branches
//!   and for every `list_memo` operator, whose first write wins. When
//!   built, every level but the last is built whole, and the last goes to
//!   the merge in parts of at most [`LEVEL_PART_CAP`] entries that share
//!   the levels below, each as soon as it fills.
//! * **Output** — a match count (per-morsel `u64`s summed), or up to
//!   `limit` rows. Blocks wait; rows are flattened once, at the merge: the
//!   merging thread flattens each part straight into the [`RowSink`] when
//!   its turn in (morsel, part) order comes, while the worker builds the
//!   next part.
//!
//! Because the merge order is fixed, counts and row sequences are
//! **bit-identical** at any thread count, and a 1-thread pool runs the
//! *same* block bodies and merge inline on the caller's stack — there is
//! no separate sequential path. The sink returns a
//! [`ControlFlow`]: `Break` — a satisfied `LIMIT` or a sink that stopped
//! consuming — stops the flatten at once, so no row past the last one
//! delivered is built, and the pool's [`aplus_runtime::Parts`] tells every
//! morsel still building, at its next part, to stop.

use std::ops::{ControlFlow, Range};

use aplus_common::{Bitmap, EdgeId, VertexId};
use aplus_core::{CmpOp, Direction, IndexStore, List, OffsetList, SortKey};
use aplus_graph::Graph;
use aplus_obs::{HopStats, LevelStats, QueryProfiler};
use aplus_runtime::{scan_morsel_size, MorselPool};

use crate::block;
use crate::error::QueryError;
use crate::plan::{Ald, FromRef, IndexChoice, ListFilter, Operator, Plan, Prune, PruneValue};
use crate::query::{QueryGraph, QueryOperand, QueryPredicate, Row};
use crate::sink::{drain_flattened, RowSink};

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
/// Most entries of a streamed block's last level in one part: a morsel
/// whose last level outgrows it hands that level to the merger in parts of
/// this many entries, each flattened while the next is built.
pub const LEVEL_PART_CAP: usize = 4096;

/// The root scan's ID range (a pinned vertex scan is the one-ID range) and
/// the largest morsel [`run`] cuts it into.
fn root_range(ctx: ExecContext<'_>, plan: &Plan) -> (Range<usize>, usize) {
    match plan.ops.first() {
        Some(Operator::ScanVertices { var, preds, .. }) => {
            (vertex_scan_range(ctx, preds, *var), VERTEX_MORSEL_CAP)
        }
        Some(Operator::ScanEdges { .. }) => (0..ctx.graph.edge_count(), EDGE_MORSEL_CAP),
        _ => unreachable!("plans start with a scan"),
    }
}

/// The merge window for streaming morsel merges: enough in-flight morsels
/// to keep every worker busy while the merger drains, without unbounded
/// buffering of built blocks.
fn merge_window(pool: &MorselPool) -> usize {
    pool.threads().saturating_mul(4)
}

/// What a query run produces.
pub enum Output<'a> {
    /// The number of matches, folded on factorized blocks without
    /// flattening. It saturates at `u64::MAX`: a counted suffix multiplies
    /// branch counts, so a count can outgrow any result one could list.
    Count,
    /// Up to `limit` rows pushed into `sink`, in sequential result order.
    /// Every morsel's block waits unflattened until its turn in morsel
    /// order comes, then is flattened row by row into the sink, so memory
    /// stays bounded by the merge window's blocks, never the full result.
    /// The sink returning [`ControlFlow::Break`] stops the flatten at once
    /// and cancels outstanding pool morsels cooperatively.
    Rows {
        /// Rows to deliver before stopping the query.
        limit: usize,
        /// Where the rows go.
        sink: &'a mut dyn RowSink,
    },
}

/// What a morsel body does with the matches it finds.
pub(crate) enum Emit<'a> {
    /// Counts them into the `u64`.
    Count(&'a mut u64),
    /// Builds their block and hands it, unflattened, to the merge in parts
    /// of at most [`LEVEL_PART_CAP`] last-level entries; `Break` means the
    /// output is complete, so the body stops building.
    Parts(&'a mut dyn FnMut(block::Built) -> ControlFlow<()>),
}

/// What a root morsel hands the merge: its count, or one part of its
/// built block.
enum Part {
    Count(u64),
    Rows(block::Built),
}

/// The merge side of [`run`]: folds what the root morsels emit, in morsel
/// order, into the output.
struct Driver<'a, 'o> {
    ctx: ExecContext<'a>,
    /// The level an early exit is attributed to: the sink, one past the
    /// last operator.
    sink_level: usize,
    out: Output<'o>,
    counted: u64,
    sent: usize,
}

impl Driver<'_, '_> {
    /// Folds one part into the output; `Break` means the output is
    /// complete (limit reached or the sink stopped consuming). A block part
    /// is flattened here, lazily, straight into the sink through
    /// [`drain_flattened`], which enforces the global limit: the
    /// `limit`-th row is delivered, then the query stops, and no row past
    /// it is built.
    fn merge(&mut self, part: Part) -> ControlFlow<()> {
        match (part, &mut self.out) {
            (Part::Count(n), _) => {
                self.counted = self.counted.saturating_add(n);
                ControlFlow::Continue(())
            }
            (Part::Rows(mut built), Output::Rows { limit, sink }) => {
                let flow = drain_flattened(*sink, &mut self.sent, *limit, built.rows(self.ctx));
                if flow.is_break() {
                    self.ctx.note_early_exit(self.sink_level);
                }
                flow
            }
            (Part::Rows(_), Output::Count) => unreachable!("a count emits no rows"),
        }
    }
}

/// Executes `plan` on `pool` and returns the number of matches
/// ([`Output::Count`]) or of rows delivered ([`Output::Rows`]). The only
/// entry into plan execution: both output shapes go through here, every
/// root morsel is one block, and the result is bit-identical at any thread
/// count — morsels merge in morsel order, and a 1-thread pool (or a
/// one-morsel root, such as a pinned vertex) runs the same code inline.
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
    let counting = matches!(out, Output::Count);
    let memo = block::OwnerMemo::new(plan, counting, ctx.graph.vertex_count());
    let mut driver = Driver {
        ctx,
        sink_level: plan.ops.len(),
        out,
        counted: 0,
        sent: 0,
    };
    let (range, cap) = root_range(ctx, plan);
    let size = scan_morsel_size(range.len(), pool.threads(), cap);
    pool.map_ranges(
        range.len(),
        size,
        merge_window(pool),
        |r, parts| {
            ctx.note_morsel();
            let r = range.start + r.start..range.start + r.end;
            if counting {
                let mut n = 0u64;
                block::root_morsel(ctx, query, plan, r, &memo, Emit::Count(&mut n));
                let _ = parts.push(Part::Count(n));
            } else {
                let mut hand = |built| parts.push(Part::Rows(built));
                block::root_morsel(ctx, query, plan, r, &memo, Emit::Parts(&mut hand));
            }
        },
        |part| driver.merge(part),
    );
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
            scan_vertices_range(ctx, *var, *label, preds, range, row, k)
        }
        op @ Operator::ScanEdges { .. } => scan_edges_range(ctx, op, range, row, k),
        _ => unreachable!("plans start with a scan"),
    }
}

/// An E/I operator's pieces, destructured once per use site.
struct EiOp<'p> {
    target: usize,
    target_label: Option<aplus_common::VertexLabelId>,
    alds: &'p [Ald],
    filter: &'p ListFilter,
    residual: &'p [QueryPredicate],
}

fn ei_op(op: &Operator) -> EiOp<'_> {
    let Operator::ExtendIntersect {
        target,
        target_label,
        alds,
        filter,
        residual,
    } = op
    else {
        unreachable!("caller matched an ExtendIntersect")
    };
    EiOp {
        target: *target,
        target_label: *target_label,
        alds,
        filter,
        residual,
    }
}

/// A [`Operator::VarLengthExpand`]'s pieces, destructured once per use
/// site.
struct VarLengthOp<'p> {
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

fn var_length_op(op: &Operator) -> VarLengthOp<'_> {
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
/// does not already enforce it. The list is read as its columns; the edge
/// column is read only when the label must be checked.
fn vl_neighbors(ctx: ExecContext<'_>, vl: &VarLengthOp<'_>, u: VertexId, mut f: impl FnMut(u32)) {
    let list = ctx.store.primary().index(vl.dir).list(u, vl.prefix);
    let (edges, nbrs) = list.columns();
    match vl.edge_label.filter(|_| !vl.label_enforced) {
        None => nbrs.iter().for_each(|&n| f(n)),
        Some(want) => {
            for (&e, &n) in edges.iter().zip(nbrs) {
                if ctx.graph.edge_label(EdgeId(e)).is_ok_and(|l| l == want) {
                    f(n);
                }
            }
        }
    }
}

/// The ascending emission order of one BFS level: the newly reached
/// targets, with the source spliced in at its sorted position when this
/// level re-reached it for the first time (the shortest-cycle case).
fn vl_emission(candidates: &[u32], s: VertexId, s_new: bool) -> impl Iterator<Item = u32> + '_ {
    let at = if s_new {
        candidates.partition_point(|&t| t < s.raw())
    } else {
        candidates.len()
    };
    let (below, above) = candidates.split_at(at);
    below
        .iter()
        .copied()
        .chain(s_new.then_some(s.raw()))
        .chain(above.iter().copied())
}

/// One var-length target: re-checks the target label, binds the target
/// vertex (the edge variable, if any, stays unbound — a variable-length
/// pattern matches a walk, not a single edge), evaluates residuals and runs
/// the continuation `k`.
fn vl_target(
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

/// The bindings a [`Operator::VarLengthExpand`] adds to the current row.
///
/// Semantics: target `t` matches iff the shortest walk of length ≥ 1 from
/// the source to `t` (over edges passing the label filter) has length
/// within `min..=max`. Each target is emitted exactly once, at its
/// shortest level, in ascending vertex-ID order per level. The
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
    var_length_bfs(ctx, vl, s, &mut |level, candidates, s_new| {
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
            for t in vl_emission(candidates, s, s_new) {
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

/// The level-synchronous BFS from `s` — the one traversal loop, over two
/// dense bitsets of `vertex_count` bits. `visited` holds every target from
/// its shortest level on; the source is tracked separately (`s_hit` /
/// `s_refound`) so the shortest cycle back to it can be reported without
/// ever re-expanding it. `next` collects one level's unvisited neighbours;
/// reading its set bits out yields the level ascending and duplicate-free
/// by construction, and unsetting exactly those bits leaves it clear for
/// the next level. After each level, `on_level(level, newly reached
/// targets, source newly re-reached)` decides how to go on.
fn var_length_bfs(
    ctx: ExecContext<'_>,
    vl: &VarLengthOp<'_>,
    s: VertexId,
    on_level: &mut dyn FnMut(u32, &[u32], bool) -> LevelFlow,
) -> ControlFlow<()> {
    let vertices = ctx.graph.vertex_count();
    let mut visited = Bitmap::with_len(vertices, false);
    let mut next = Bitmap::with_len(vertices, false);
    visited.set(s.index(), true);
    let mut frontier: Vec<u32> = vec![s.raw()];
    let mut candidates: Vec<u32> = Vec::new();
    let mut s_refound = false;
    for level in 1..=vl.max {
        if frontier.is_empty() {
            break;
        }
        let s_hit = expand_frontier(ctx, vl, s, &frontier, &visited, &mut next);
        let s_new = s_hit && !s_refound;
        let visited_before = visited.count_ones();
        candidates.clear();
        candidates.extend(next.iter_ones().map(|t| t as u32));
        for &t in &candidates {
            next.set(t as usize, false);
            visited.set(t as usize, true);
        }
        record_hop(
            ctx,
            level,
            frontier.len(),
            visited_before,
            &candidates,
            s_new,
        );
        if let ControlFlow::Break(flow) = on_level(level, &candidates, s_new) {
            return flow;
        }
        s_refound |= s_hit;
        std::mem::swap(&mut frontier, &mut candidates);
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

/// Expands one BFS level: sets in `next` every neighbour of the frontier
/// that is neither visited nor the source (a neighbour reached twice is one
/// bit), and returns whether the source was re-reached.
fn expand_frontier(
    ctx: ExecContext<'_>,
    vl: &VarLengthOp<'_>,
    s: VertexId,
    frontier: &[u32],
    visited: &Bitmap,
    next: &mut Bitmap,
) -> bool {
    let mut s_hit = false;
    for &u in frontier {
        vl_neighbors(ctx, vl, VertexId(u), |n| {
            if n == s.raw() {
                s_hit = true;
            } else if !visited.get(n as usize) {
                next.set(n as usize, true);
            }
        });
    }
    s_hit
}

/// Fetches a single-list extension's list for the current row, in any
/// order.
pub(crate) fn fetch_one<'a>(ctx: ExecContext<'a>, ald: &Ald, row: &Row) -> BoundList<'a> {
    fetch_list(ctx, ald, row, Need::Any)
}

/// The bindings operator `depth` of `plan`, an extension, adds to the
/// binding held in `row`, a path under the block's root entry `root`: each
/// is bound in `row` while the continuation `k` runs, and unbound before
/// the next. `Break` from `k` stops the enumeration. `scratch` is the
/// calling morsel's [`Scratch`]. The root scan binds through
/// [`root_range_bindings`] instead.
pub(crate) fn op_bindings<'a>(
    ctx: ExecContext<'a>,
    plan: &Plan,
    depth: usize,
    root: usize,
    row: &mut Row,
    scratch: &mut Scratch<'a>,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let op = &plan.ops[depth];
    match op {
        Operator::ExtendIntersect { .. } => {
            scratch.extend_intersect(ctx, plan, depth, root, &ei_op(op), row, k)
        }
        Operator::MultiExtend { targets, residual } => {
            multi_extend(ctx, depth, targets, residual, row, k)
        }
        Operator::VarLengthExpand { .. } => {
            var_length_bindings(ctx, depth, &var_length_op(op), row, k)
        }
        Operator::ScanVertices { .. } | Operator::ScanEdges { .. } => {
            unreachable!("a scan is the root operator")
        }
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

/// The root vertex scan restricted to IDs in `range` (a morsel; a pinned ID
/// is a one-ID morsel): binds each vertex passing the label + predicate
/// checks and runs the continuation `k` — a block level collecting the
/// bindings.
fn scan_vertices_range(
    ctx: ExecContext<'_>,
    var: usize,
    label: Option<aplus_common::VertexLabelId>,
    preds: &[QueryPredicate],
    range: Range<usize>,
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let stats = ctx.prof_level(0);
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

/// The root edge scan `op` restricted to IDs in `range` (a morsel): binds
/// each edge passing the label + predicate checks and both its endpoints,
/// and runs the continuation `k`.
fn scan_edges_range(
    ctx: ExecContext<'_>,
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
    let stats = ctx.prof_level(0);
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

    /// The run's edge-ID and neighbour-ID columns, borrowed once: kernels
    /// read neighbour IDs as a plain `u32` slice.
    pub(crate) fn columns(&self) -> (&[u64], &[u32]) {
        let (edges, nbrs) = self.list.columns();
        (&edges[self.start..self.end], &nbrs[self.start..self.end])
    }

    /// Counts the entries whose neighbour passes `keep`, in one pass over
    /// the neighbour column.
    pub(crate) fn count_nbrs(&self, keep: impl Fn(VertexId) -> bool) -> u64 {
        self.columns()
            .1
            .iter()
            .filter(|&&n| keep(VertexId(n)))
            .count() as u64
    }

    /// Counts the entries holding exactly `(e, nbr)`. When the list is
    /// `nbr_sorted`, only `nbr`'s parallel-edge run is read, found by binary
    /// search on the neighbour column; otherwise the whole list is scanned.
    pub(crate) fn count_entry(&self, e: EdgeId, nbr: VertexId, nbr_sorted: bool) -> u64 {
        let (edges, nbrs) = self.columns();
        let from = if nbr_sorted {
            nbrs.partition_point(|&n| n < nbr.raw())
        } else {
            0
        };
        edges[from..]
            .iter()
            .zip(&nbrs[from..])
            .take_while(|&(_, &n)| !nbr_sorted || n == nbr.raw())
            .filter(|&(&ei, &n)| ei == e.raw() && n == nbr.raw())
            .count() as u64
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
    // Enforce the consumer's ordering requirement: a run that does not
    // satisfy it is re-sorted (`order`); one that does is kept as it is.
    let satisfied = match need {
        Need::Any => true,
        Need::NbrSorted => ald.nbr_sorted() && ald.sorted_range,
        Need::KeySorted => ald.sorted_range,
    };
    let order = if satisfied { Need::Any } else { need };
    let (list, start, end) = match prune {
        // Unsorted range: fall back to a filtering scan (NULL never
        // satisfies the restriction).
        Some((op, value)) if !ald.sorted_range => owned_run(
            ctx,
            order,
            merge_key,
            (0..fetched.len())
                .map(|i| fetched.get(i))
                .filter(|&(e, n)| {
                    sort_key(ctx.graph, leading, e, n).is_some_and(|key| op.eval(key, value))
                }),
        ),
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
            if satisfied {
                fetched.into_run(start, end)
            } else {
                owned_run(ctx, order, merge_key, (start..end).map(|i| fetched.get(i)))
            }
        }
    };
    bound(list, start, end)
}

/// Materializes `pairs` as an owned run sorted by `order`: split into
/// columns as they come (`Need::Any`), or collected as pairs once, sorted,
/// and split once.
fn owned_run(
    ctx: ExecContext<'_>,
    order: Need,
    merge_key: Option<SortKey>,
    pairs: impl Iterator<Item = (EdgeId, VertexId)>,
) -> (List<'static>, usize, usize) {
    let pairs = pairs.map(|(e, n)| (e.raw(), n.raw()));
    let list = match order {
        Need::Any => List::from_pairs(pairs),
        Need::NbrSorted => {
            let mut pairs: Vec<(u64, u32)> = pairs.collect();
            pairs.sort_unstable_by_key(|&(e, n)| (n, e));
            List::from_pairs(pairs)
        }
        Need::KeySorted => {
            let mut pairs: Vec<(u64, u32)> = pairs.collect();
            pairs.sort_by_cached_key(|&(e, n)| {
                let key = sort_key(ctx.graph, merge_key, EdgeId(e), VertexId(n));
                (key.map_or(i128::MAX, i128::from), n, e)
            });
            List::from_pairs(pairs)
        }
    };
    let len = list.len();
    (list, 0, len)
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

/// Runs the E/I `ei` over its lists' cursors, in list order: a single list
/// is scanned in list order, several are intersected on neighbour ID by the
/// one leapfrog kernel, [`leapfrog`]. An operator without a list filter
/// runs both on the target label alone ([`LabelOnly`]); one with a filter
/// applies it too ([`Filtered`]) — two monomorphised instantiations, so the
/// filter-free loop is exactly the loop it was before filters existed. A
/// single list that is `prechecked` (an outer or memoised list, whose
/// entries passed the operator's checks when it was read) is scanned with
/// no check.
///
/// The continuation `k` runs per produced binding with the target vertex
/// and all edge variables bound (and is unwound before the next binding):
/// the block engine ([`crate::block`]) appends one entry to the next level
/// or counts it.
///
/// `stats` (a `PROFILE` run's cell for this operator level) accrues
/// candidates examined — single-list entries scanned, or leapfrog rounds —
/// and bindings emitted, accumulated in locals and flushed with one atomic
/// add per call.
fn ei_over_lists(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    cursors: &mut [Cursor<'_>],
    prechecked: bool,
    row: &mut Row,
    stats: Option<&LevelStats>,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let mut cand = 0u64;
    let mut emit = 0u64;
    let label = LabelOnly(ei.target_label);
    let flow = match (cursors, ei.filter.is_empty()) {
        ([c], _) if prechecked => {
            scan_list(ctx, ei, c, &LabelOnly(None), row, &mut cand, &mut emit, k)
        }
        ([c], true) => scan_list(ctx, ei, c, &label, row, &mut cand, &mut emit, k),
        ([c], false) => {
            let check = Filtered(label, ei.filter);
            scan_list(ctx, ei, c, &check, row, &mut cand, &mut emit, k)
        }
        (cs, true) => leapfrog(ctx, ei, cs, &label, row, &mut cand, &mut emit, k),
        (cs, false) => {
            let check = Filtered(label, ei.filter);
            leapfrog(ctx, ei, cs, &check, row, &mut cand, &mut emit, k)
        }
    };
    if let Some(s) = stats {
        s.record(0, cand, emit);
    }
    flow
}

/// What a list entry must pass, beyond relationship uniqueness, before it
/// is bound. Each implementation is one monomorphised instantiation of the
/// E/I loops, so no enum is matched per entry.
trait EntryCheck {
    /// Whether neighbour `n` may bind the target.
    fn target(&self, ctx: ExecContext<'_>, n: VertexId) -> bool;
    /// Whether `e` may bind query edge `edge_var`.
    fn edge(&self, ctx: ExecContext<'_>, edge_var: usize, e: EdgeId) -> bool;
}

/// An operator without a list filter: the target label check alone.
struct LabelOnly(Option<aplus_common::VertexLabelId>);

impl EntryCheck for LabelOnly {
    /// Compares the label alone: `== Ok(want)` would compare whole
    /// `Result`s, dragging the error type's equality into the hot loop.
    #[inline]
    fn target(&self, ctx: ExecContext<'_>, n: VertexId) -> bool {
        self.0
            .is_none_or(|want| ctx.graph.vertex_label(n).is_ok_and(|l| l == want))
    }

    #[inline]
    fn edge(&self, _: ExecContext<'_>, _: usize, _: EdgeId) -> bool {
        true
    }
}

/// The target label check and the operator's [`ListFilter`]: an entry's
/// neighbour passes the target conjuncts, and its edge the conjuncts on
/// the query edge its list binds.
struct Filtered<'p>(LabelOnly, &'p ListFilter);

impl EntryCheck for Filtered<'_> {
    fn target(&self, ctx: ExecContext<'_>, n: VertexId) -> bool {
        let g = ctx.graph;
        self.0.target(ctx, n)
            && self
                .1
                .target_ids
                .iter()
                .all(|t| t.op.eval(i64::from(n.raw()), t.value))
            && self.1.target_props.iter().all(|t| {
                g.vertex_prop(n, t.at)
                    .is_some_and(|x| t.op.eval(x, t.value))
            })
    }

    fn edge(&self, ctx: ExecContext<'_>, edge_var: usize, e: EdgeId) -> bool {
        let g = ctx.graph;
        self.1.edge_labels.iter().all(|t| {
            t.at != edge_var
                || g.edge_label(e)
                    .is_ok_and(|l| t.op.eval(i64::from(l.raw()), t.value))
        }) && self.1.edge_props.iter().all(|t| {
            t.at.0 != edge_var
                || g.edge_prop(e, t.at.1)
                    .is_some_and(|x| t.op.eval(x, t.value))
        })
    }
}

/// A morsel's reusable E/I state, owned by its block body
/// ([`crate::block`]) and handed to every [`op_bindings`] call of the
/// morsel: the query's memo, the buffers one call's lists and cursors live
/// in, and one slot per outer list of the plan ([`Plan`]'s `outer`).
///
/// A list is read pre-checked — only its entries that pass the operator's
/// checks, the target label and, with a [`ListFilter`], its target
/// conjuncts and the conjuncts on the list's own edge, as [`Checked`]
/// columns — in two cases. A filtered single list that depends on its
/// owner alone (one of the plan's `list_memo` operators) is read once per
/// owner vertex and query, into the query's memo
/// ([`block::OwnerMemo`]). An outer list is read once per owner run: its
/// slot here keeps the list for the (root entry, owner vertex) it was read
/// under, every call with the same key reads the slot, and the first call
/// under another root entry or owner reads the list again. Keying on the
/// root entry means a slot is never reused across root entries, so what a
/// run reads does not depend on where the pool cuts the root range into
/// morsels. `PROFILE` records work done: a list counts as scanned when it
/// is fetched (a memo cell's by its one fill), a reused list counts
/// nothing, and the scan or leapfrog runs over the checked entries, so its
/// candidates fall.
pub(crate) struct Scratch<'a> {
    memo: &'a block::OwnerMemo,
    /// The lists one call fetched, in list order, pre-checked ones aside.
    lists: Vec<BoundList<'a>>,
    /// The buffer one call's cursors live in; empty between calls.
    cursors: Vec<Cursor<'static>>,
    /// Per outer list, the (root entry, owner vertex) its slot was read
    /// under and its checked entries.
    hoisted: Vec<(Option<(usize, u32)>, Checked)>,
}

/// The entries of one list that pass an operator's checks, with
/// parallel-edge runs intact, as an edge and a neighbour column: the one
/// layout of a pre-checked list, outer or memoised.
#[derive(Default)]
pub(crate) struct Checked {
    edges: Vec<u64>,
    nbrs: Vec<u32>,
}

impl Checked {
    /// The entries of `list` that pass `ei`'s checks.
    fn of(ctx: ExecContext<'_>, ei: &EiOp<'_>, list: &BoundList<'_>) -> Self {
        let mut checked = Self::default();
        checked.refill(ctx, ei, list);
        checked
    }

    /// Refills the columns with the entries of `list` that pass `ei`'s
    /// checks on a neighbour and on the list's own edge. Parallel-edge runs
    /// stay contiguous, so the leapfrog reads them as it reads the list.
    fn refill(&mut self, ctx: ExecContext<'_>, ei: &EiOp<'_>, list: &BoundList<'_>) {
        self.edges.clear();
        self.nbrs.clear();
        let label = LabelOnly(ei.target_label);
        match (ei.target_label, ei.filter.is_empty()) {
            (None, true) => {
                let (edges, nbrs) = list.columns();
                self.edges.extend_from_slice(edges);
                self.nbrs.extend_from_slice(nbrs);
            }
            (_, true) => self.keep(ctx, &label, list),
            (_, false) => self.keep(ctx, &Filtered(label, ei.filter), list),
        }
    }

    /// Keeps the entries of `list` that pass `check`, checking each
    /// neighbour once per run of equal neighbours.
    fn keep<C: EntryCheck>(&mut self, ctx: ExecContext<'_>, check: &C, list: &BoundList<'_>) {
        let (edges, nbrs) = list.columns();
        let mut last: Option<(u32, bool)> = None;
        for (&e, &n) in edges.iter().zip(nbrs) {
            let target = match last {
                Some((m, pass)) if m == n => pass,
                _ => {
                    let pass = check.target(ctx, VertexId(n));
                    last = Some((n, pass));
                    pass
                }
            };
            if target && check.edge(ctx, list.edge_var, EdgeId(e)) {
                self.edges.push(e);
                self.nbrs.push(n);
            }
        }
    }

    fn columns(&self) -> (&[u64], &[u32]) {
        (&self.edges, &self.nbrs)
    }
}

/// `v`'s buffer, emptied, as a vector of `U`, a type of the same layout —
/// here a [`Cursor`] of another lifetime, so the cursors' buffer outlives
/// the borrows of each call. Collecting a mapped `vec::IntoIter` into a
/// vector of an element type of the same size and alignment reuses its
/// buffer, so no call allocates one (`tests/ei_allocations.rs` checks it).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

impl<'a> Scratch<'a> {
    /// The scratch of one morsel of `plan`, whose query keeps `memo`.
    pub(crate) fn new(plan: &Plan, memo: &'a block::OwnerMemo) -> Self {
        Self {
            memo,
            lists: Vec::new(),
            cursors: Vec::new(),
            hoisted: plan.outer.iter().map(|_| Default::default()).collect(),
        }
    }

    /// The bindings E/I `ei`, the operator at plan-op index `depth` of
    /// `plan`, adds to `row`, a path under root entry `root`: its lists
    /// are read in list order — a `list_memo` operator's from the query's
    /// memo, an outer list from its slot, read again only for a new (root
    /// entry, owner vertex), any other fetched — until one comes up empty,
    /// then run through [`ei_over_lists`].
    #[allow(clippy::too_many_arguments)]
    fn extend_intersect(
        &mut self,
        ctx: ExecContext<'a>,
        plan: &Plan,
        depth: usize,
        root: usize,
        ei: &EiOp<'_>,
        row: &mut Row,
        k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // A single list needs no intersection (plain EXTEND); multiple
        // lists are each fetched neighbour-sorted and intersected.
        let need = if ei.alds.len() > 1 {
            Need::NbrSorted
        } else {
            Need::Any
        };
        let memo_slot = plan.list_memo.binary_search(&depth).ok();
        let (first, outer) = plan.outer_at(depth);
        let slot = |i: usize| outer.iter().position(|&(_, o)| o == i).map(|p| first + p);
        let mut memoised = None;
        let mut fetched = 0u64;
        let mut all = true;
        for (i, ald) in ei.alds.iter().enumerate() {
            let len = match (memo_slot, slot(i)) {
                (Some(m), _) => {
                    let kept = self.memo.list(m, owner(ald, row), || {
                        fetched += 1;
                        Checked::of(ctx, ei, &fetch_list(ctx, ald, row, need))
                    });
                    memoised = Some(kept);
                    kept.nbrs.len()
                }
                (None, Some(s)) => {
                    let key = Some((root, owner(ald, row).raw()));
                    let (read_under, h) = &mut self.hoisted[s];
                    if *read_under != key {
                        fetched += 1;
                        h.refill(ctx, ei, &fetch_list(ctx, ald, row, need));
                        *read_under = key;
                    }
                    h.nbrs.len()
                }
                (None, None) => {
                    fetched += 1;
                    self.lists.push(fetch_list(ctx, ald, row, need));
                    self.lists.last().map_or(0, BoundList::len)
                }
            };
            if len == 0 {
                all = false;
                break;
            }
        }
        let stats = ctx.prof_level(depth);
        if let Some(s) = stats {
            s.record(fetched, 0, 0);
        }
        let mut flow = ControlFlow::Continue(());
        if all {
            let mut cursors = recycle(std::mem::take(&mut self.cursors));
            let mut lists = self.lists.iter();
            for (i, ald) in ei.alds.iter().enumerate() {
                let columns = match (memoised, slot(i)) {
                    (Some(kept), _) => kept.columns(),
                    (None, Some(s)) => self.hoisted[s].1.columns(),
                    (None, None) => lists.next().expect("fetched above").columns(),
                };
                cursors.push(Cursor::new(columns, ald.edge_var));
            }
            let prechecked = memoised.is_some() || !outer.is_empty();
            flow = ei_over_lists(ctx, ei, &mut cursors, prechecked, row, stats, k);
            self.cursors = recycle(cursors);
        }
        self.lists.clear();
        flow
    }
}

/// The vertex bound in `row` that the owner-only list `ald` hangs off.
fn owner(ald: &Ald, row: &Row) -> VertexId {
    let FromRef::Vertex(v) = ald.from else {
        unreachable!("an owner-only list hangs off a vertex")
    };
    row.vertex(v).expect("plan binds FROM before use")
}

/// A single-list extension over the list under `c`, in list order: every
/// entry whose edge is not already bound and which passes `check`. The
/// candidates are the entries up to the last one looked at: the whole
/// list, or up to the one at which `k` broke off.
#[allow(clippy::too_many_arguments)]
fn scan_list<C: EntryCheck>(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    c: &Cursor<'_>,
    check: &C,
    row: &mut Row,
    cand: &mut u64,
    emit: &mut u64,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    for (i, (&e, &n)) in c.edges.iter().zip(c.nbrs).enumerate() {
        let (e, n) = (EdgeId(e), VertexId(n));
        if row.uses_edge(e) || !check.target(ctx, n) || !check.edge(ctx, c.edge_var, e) {
            continue;
        }
        row.bind_vertex(ei.target, n);
        row.bind_edge(c.edge_var, e);
        let flow = if ei.residual.iter().all(|p| p.eval(ctx.graph, row)) {
            *emit += 1;
            k(row)
        } else {
            ControlFlow::Continue(())
        };
        row.unbind_edge(c.edge_var);
        row.unbind_vertex(ei.target);
        if flow.is_break() {
            *cand += i as u64 + 1;
            return flow;
        }
    }
    *cand += c.nbrs.len() as u64;
    ControlFlow::Continue(())
}

/// One list's place in an E/I: its borrowed columns, the query edge it
/// binds, and for a [`leapfrog`] the position of its head and — once the
/// heads align — the end of the head's parallel-edge run.
struct Cursor<'l> {
    edges: &'l [u64],
    nbrs: &'l [u32],
    edge_var: usize,
    at: usize,
    run_end: usize,
}

impl<'l> Cursor<'l> {
    /// A cursor at the head of the columns `(edges, nbrs)`.
    fn new((edges, nbrs): (&'l [u64], &'l [u32]), edge_var: usize) -> Self {
        Self {
            edges,
            nbrs,
            edge_var,
            at: 0,
            run_end: 0,
        }
    }
}

/// The first position at or after `from` whose neighbour is `>= target`
/// (`nbrs.len()` when none is; `from` itself when it is already at or past
/// the end): a galloping search, probing `from + 1, + 2, + 4, …` until it
/// overshoots, then binary-searching the last gap. Skipping `d` entries
/// reads O(log d) of them, so a short list intersected with a hub list
/// touches O(short · log hub) hub entries, not all of them.
fn seek(nbrs: &[u32], from: usize, target: u32) -> usize {
    if from >= nbrs.len() || nbrs[from] >= target {
        return from;
    }
    // Invariant: `nbrs[lo] < target`, and the answer lies in `lo + 1..=hi`.
    let (mut lo, mut step) = (from, 1usize);
    let hi = loop {
        let probe = lo.saturating_add(step);
        if probe >= nbrs.len() {
            break nbrs.len();
        }
        if nbrs[probe] >= target {
            break probe;
        }
        lo = probe;
        step = step.saturating_mul(2);
    };
    lo + 1 + nbrs[lo + 1..hi].partition_point(|&n| n < target)
}

/// The one intersection kernel: a k-pointer leapfrog over the lists'
/// neighbour columns (each neighbour-sorted, borrowed once per call). A
/// round takes the largest head and seeks every list to it by galloping
/// ([`seek`]); when all heads agree and the aligned neighbour passes
/// `check`, its parallel-edge run is read from each edge column and the
/// cartesian product of the runs is bound ([`bind_edges_product`]). Each
/// round is one candidate.
#[allow(clippy::too_many_arguments)]
fn leapfrog<C: EntryCheck>(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    cursors: &mut [Cursor<'_>],
    check: &C,
    row: &mut Row,
    cand: &mut u64,
    emit: &mut u64,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    loop {
        let mut max_nbr = 0u32;
        for c in cursors.iter() {
            let Some(&head) = c.nbrs.get(c.at) else {
                return ControlFlow::Continue(());
            };
            max_nbr = max_nbr.max(head);
        }
        *cand += 1;
        let mut aligned = true;
        for c in cursors.iter_mut() {
            c.at = seek(c.nbrs, c.at, max_nbr);
            let Some(&head) = c.nbrs.get(c.at) else {
                return ControlFlow::Continue(());
            };
            aligned &= head == max_nbr;
        }
        if !aligned {
            continue;
        }
        for c in cursors.iter_mut() {
            c.run_end = c.at + c.nbrs[c.at..].iter().take_while(|&&n| n == max_nbr).count();
        }
        let nbr = VertexId(max_nbr);
        if check.target(ctx, nbr) {
            row.bind_vertex(ei.target, nbr);
            let flow = bind_edges_product(ctx, cursors, check, ei.residual, row, &mut |r| {
                *emit += 1;
                k(r)
            });
            row.unbind_vertex(ei.target);
            flow?;
        }
        for c in cursors.iter_mut() {
            c.at = c.run_end;
        }
    }
}

/// Binds one edge of each cursor's aligned run (cartesian product, with
/// relationship uniqueness and `check`'s edge conjuncts), then evaluates
/// residuals and runs the continuation.
fn bind_edges_product<C: EntryCheck>(
    ctx: ExecContext<'_>,
    cursors: &[Cursor<'_>],
    check: &C,
    residual: &[QueryPredicate],
    row: &mut Row,
    k: &mut dyn FnMut(&mut Row) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some((c, rest)) = cursors.split_first() else {
        if residual.iter().all(|p| p.eval(ctx.graph, row)) {
            return k(row);
        }
        return ControlFlow::Continue(());
    };
    for &e in &c.edges[c.at..c.run_end] {
        let e = EdgeId(e);
        if row.uses_edge(e) || !check.edge(ctx, c.edge_var, e) {
            continue;
        }
        row.bind_edge(c.edge_var, e);
        let flow = bind_edges_product(ctx, rest, check, residual, row, k);
        row.unbind_edge(c.edge_var);
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
    use crate::sink::{RawRow, VecSink};
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
        let plan = Plan::new(
            &query,
            vec![
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
                    filter: ListFilter::default(),
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
                    filter: ListFilter::default(),
                    residual: vec![],
                },
            ],
            0.0,
        );
        let ctx = ExecContext::new(&g, &store);
        // Alice owns v1 (3 wires) and v2 (1 wire: t8) -> 4 matches.
        assert_eq!(count(ctx, &query, &plan), 4);
        // A pinned root scan is one morsel, run inline on any pool.
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
        let plan = Plan::new(
            &query,
            vec![
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
                    filter: ListFilter::default(),
                    residual: vec![],
                },
            ],
            0.0,
        );
        let ctx = ExecContext::new(&g, &store);
        assert!(count(ctx, &query, &plan) > 3, "fixture has enough edges");
        // `collect` gathers exactly the first `limit` rows.
        let all = collect(ctx, &query, &plan, usize::MAX);
        assert_eq!(collect(ctx, &query, &plan, 3), all[..3]);
        assert_eq!(collect(ctx, &query, &plan, 0), vec![]);
        // Blocks are flattened once, at the merge, straight into the sink,
        // so a sink `Break` — no `LIMIT` involved — stops the flatten at the
        // third row and no row is pushed or flattened after it: inline and
        // on pools whose root range cuts into several morsels.
        let n = g.vertex_count();
        for threads in [1, 2, 4] {
            let size = scan_morsel_size(n, threads, VERTEX_MORSEL_CAP);
            assert!(threads == 1 || n.div_ceil(size) >= 2, "one morsel");
            let profiler = QueryProfiler::new(plan.ops.len());
            let profiled = ExecContext {
                profiler: Some(&profiler),
                ..ctx
            };
            let mut pushed = Vec::new();
            let pool = MorselPool::new(threads);
            stream(profiled, &query, &plan, usize::MAX, &pool, &mut |r| {
                pushed.push(r);
                if pushed.len() == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(pushed, all[..3], "threads {threads}");
            let profile = profiler.finish(&plan.op_descriptions());
            assert_eq!(profile.early_exit_level, Some(plan.ops.len()));
            assert_eq!(profile.flatten_rows, 3, "flattened past the break");
        }
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
        let plan = Plan::new(
            &query,
            vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![],
                },
                Operator::ExtendIntersect {
                    target: 1,
                    target_label: None,
                    alds: vec![mk_ald(0, 0)],
                    filter: ListFilter::default(),
                    residual: vec![],
                },
                Operator::ExtendIntersect {
                    target: 2,
                    target_label: None,
                    alds: vec![mk_ald(1, 1)],
                    filter: ListFilter::default(),
                    residual: vec![],
                },
            ],
            0.0,
        );
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
        let plan = Plan::new(
            &query,
            vec![
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
                    filter: ListFilter::default(),
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
                    filter: ListFilter::default(),
                    residual: vec![],
                },
            ],
            0.0,
        );
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
        let mk_plan = |use_prune: bool| {
            Plan::new(
                &query,
                vec![
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
                        filter: ListFilter::default(),
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
                0.0,
            )
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
        let plan = Plan::new(
            &query,
            vec![
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
            0.0,
        );
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
        let mk_plan = |use_prune: bool| {
            Plan::new(
                &query,
                vec![
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
                        filter: ListFilter::default(),
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
                        filter: ListFilter::default(),
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
                0.0,
            )
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
            assert_eq!(matches!(v1_list, OffsetList::Dirty { .. }), v1_dirty);
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

    /// The galloping seek agrees with a linear scan on every list length up
    /// to 70 (past one probe doubling round of a 64-entry word), for every
    /// start position — at and past the end included — and for targets
    /// below the head, between and on entries, and past the last entry,
    /// over lists with runs of equal neighbours (parallel edges).
    #[test]
    fn galloping_seek_equals_linear_scan() {
        let linear = |nbrs: &[u32], from: usize, target: u32| {
            let mut p = from;
            while p < nbrs.len() && nbrs[p] < target {
                p += 1;
            }
            p
        };
        for len in 0..=70usize {
            // Ascending with runs: entry i holds 3 * (i / 2) + 5, so every
            // neighbour appears twice and gaps of 3 separate the runs; a
            // length-divisible-by-7 list also gets a long run at its tail.
            let mut nbrs: Vec<u32> = (0..len).map(|i| 3 * (i as u32 / 2) + 5).collect();
            if len % 7 == 0 && len > 0 {
                let last = *nbrs.last().unwrap();
                nbrs.extend(std::iter::repeat_n(last, 5));
            }
            let top = nbrs.last().map_or(0, |&n| n + 3);
            for from in 0..=nbrs.len() + 2 {
                for target in 0..=top {
                    assert_eq!(
                        seek(&nbrs, from, target),
                        linear(&nbrs, from, target),
                        "len {len} from {from} target {target}"
                    );
                }
            }
        }
    }
}
