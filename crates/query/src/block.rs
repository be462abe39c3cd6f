//! Block-at-a-time factorized execution.
//!
//! The row engine ([`crate::exec`]) enumerates matches one row at a time,
//! re-walking the whole binding prefix for every result. This module
//! processes **blocks** of bindings per operator instead, and keeps
//! intermediate results **factorized** (the list-based processing of the
//! companion "Columnar Storage and List-based Processing for GDBMSs" work):
//!
//! * The root vertex scan seeds a block of up to
//!   [`crate::plan::BlockPolicy::block_size`] root bindings.
//! * Each E/I operator extends the whole frontier level at once into a new
//!   `Level`: one `(parent, neighbour, edges)` entry per produced
//!   binding, where `parent` points at the frontier entry it extends. The
//!   root binding is stored **once**, never repeated per downstream row —
//!   the factorized representation whose flat expansion is exactly the
//!   cross product the row engine would enumerate.
//! * FILTER operators compact the top level in place.
//!
//! Entries are appended in frontier order, and within one frontier entry in
//! the order `exec::ei_over_lists` produces them — the same
//! k-pointer leapfrog the row engine runs (both engines literally share
//! that function, so per-level semantics cannot drift). Consequently the
//! **flat order of the last level is the sequential DFS row order**, and
//! flattening is a lazy walk (`FlattenIter`) that rebinds only the path
//! suffix that changed between consecutive entries (amortized O(1) per
//! row). Flattened rows reach sinks through the same morsel-order merge as
//! the row engine's, so streamed and collected rows are bit-identical to
//! it at any thread count and limit.
//!
//! Counting never flattens at all: the last E/I level is consumed as a
//! **multiplicity** per frontier entry, and a single-list tail extension
//! with no residual work is counted as the adjacency-list *length* without
//! touching a single entry (the classic factorized-count win on high-fanout
//! queries).
//!
//! This module owns no driver: [`crate::exec::run`] picks the morsel
//! strategy and merges the output for both engines, and calls in here only
//! for the *morsel body* — `root_morsel` (one block seeded from a
//! root-ID range; root morsels are capped at the block size,
//! [`aplus_runtime::block_morsel_size`], so each morsel is one block) or
//! `ei_morsel` (one root binding's first E/I restricted to a range of
//! its leading list). Either body then counts its levels or flattens them
//! row by row into whatever the driver hands it (`exec::Emit`): the
//! morsel's buffer on a pool worker, the sink itself when it runs inline.
//!
//! Plans opt in via [`FlattenPolicy::AtSink`] (the optimizer's default for
//! supported shapes); [`use_block`] is the single dispatch predicate.
//! Unsupported shapes — edge-scan roots, MULTI-EXTEND, var-length
//! expansions — keep the row engine.

use std::ops::{ControlFlow, Range};

use aplus_common::{EdgeId, VertexId};
use aplus_core::Direction;

use crate::exec::{
    ei_op, ei_over_lists, fetch_ei_lists, scan_vertices_range, BoundList, EiOp, Emit, ExecContext,
};
use crate::plan::{FlattenPolicy, FromRef, IndexChoice, Operator, Plan};
use crate::query::{QueryGraph, QueryPredicate, Row};
use crate::sink::RawRow;

/// Whether `plan` executes on the block engine: the plan asks for lazy
/// flattening *and* its shape is supported. [`crate::exec::run`]
/// dispatches on this; forcing [`FlattenPolicy::Eager`] (see
/// [`Plan::with_flatten`]) pins the row engine regardless of shape.
#[must_use]
pub fn use_block(plan: &Plan) -> bool {
    plan.block.flatten == FlattenPolicy::AtSink && eligible(&plan.ops)
}

/// Shape support: a vertex-scan root followed by nothing but E/I and
/// FILTER operators. Edge-scan roots and MULTI-EXTEND fall back to the
/// row engine.
#[must_use]
pub fn eligible(ops: &[Operator]) -> bool {
    matches!(ops.first(), Some(Operator::ScanVertices { .. }))
        && ops[1..].iter().all(|op| {
            matches!(
                op,
                Operator::ExtendIntersect { .. } | Operator::Filter { .. }
            )
        })
}

/// One factorized level: entry `i` is the binding `(nbr[i],
/// edges[i*stride..][..stride])` extending frontier entry `parent[i]` of
/// the level below. The root level has no parents and no edges.
struct Level {
    parent: Vec<usize>,
    nbr: Vec<u32>,
    edges: Vec<u64>,
    stride: usize,
    vertex_var: usize,
    edge_vars: Vec<usize>,
}

impl Level {
    fn root(vertex_var: usize, roots: Vec<u32>) -> Self {
        Self {
            parent: Vec::new(),
            nbr: roots,
            edges: Vec::new(),
            stride: 0,
            vertex_var,
            edge_vars: Vec::new(),
        }
    }

    fn for_ei(ei: &EiOp<'_>) -> Self {
        let edge_vars: Vec<usize> = ei.alds.iter().map(|a| a.edge_var).collect();
        Self {
            parent: Vec::new(),
            nbr: Vec::new(),
            edges: Vec::new(),
            stride: edge_vars.len(),
            vertex_var: ei.target,
            edge_vars,
        }
    }

    fn len(&self) -> usize {
        self.nbr.len()
    }

    /// Appends the binding currently held by `row` as an entry extending
    /// frontier entry `parent`.
    fn push_from_row(&mut self, parent: usize, row: &Row) {
        self.parent.push(parent);
        self.nbr.push(
            row.vertex(self.vertex_var)
                .expect("E/I binds its target")
                .raw(),
        );
        for &ev in &self.edge_vars {
            self.edges
                .push(row.edge(ev).expect("E/I binds its edge vars").raw());
        }
    }
}

/// A factorized block: the level stack plus a memo of which entry per
/// level the scratch [`Row`] currently holds. [`Blocks::bind_path`] uses
/// the memo to rebind only the ancestors that changed since the last call
/// — entries are parent-ordered, so walking a level front to back rebinds
/// each ancestor level entry exactly once (amortized O(1) per entry).
struct Blocks {
    levels: Vec<Level>,
    cursor: Vec<Option<usize>>,
}

impl Blocks {
    /// Seeds the root level with a block of root bindings (raw vertex IDs
    /// that already passed the scan's label + predicate checks).
    fn seeded(plan: &Plan, roots: Vec<u32>) -> Self {
        Self {
            levels: vec![Level::root(root_var(plan), roots)],
            cursor: vec![None],
        }
    }

    fn top_len(&self) -> usize {
        self.levels.last().expect("seeded with a root level").len()
    }

    /// Materializes the path of level-`li` entry `ei` into `row`,
    /// rebinding only levels whose memoized entry differs.
    ///
    /// Invariant: `cursor[l] == Some(e)` implies `row` holds entry `e`'s
    /// bindings for level `l` *and* `cursor[l-1]` memoizes its parent.
    /// Only this method binds level variables ([`ei_over_lists`]'s
    /// transient bindings are unwound before it returns), and compaction
    /// invalidates the memo, so the invariant is local to this struct.
    fn bind_path(&mut self, row: &mut Row, li: usize, ei: usize) {
        if self.cursor[li] == Some(ei) {
            return;
        }
        if li > 0 {
            let parent = self.levels[li].parent[ei];
            self.bind_path(row, li - 1, parent);
        }
        let lvl = &self.levels[li];
        row.bind_vertex(lvl.vertex_var, VertexId(lvl.nbr[ei]));
        for (j, &ev) in lvl.edge_vars.iter().enumerate() {
            row.bind_edge(ev, EdgeId(lvl.edges[ei * lvl.stride + j]));
        }
        self.cursor[li] = Some(ei);
    }

    /// Extends the whole top level through an E/I operator at plan-op
    /// index `level`, pushing the produced level. Returns `false` when
    /// nothing was produced.
    fn extend(&mut self, ctx: ExecContext<'_>, ei: &EiOp<'_>, level: usize, row: &mut Row) -> bool {
        let stats = ctx.prof_level(level);
        let top = self.levels.len() - 1;
        let mut out = Level::for_ei(ei);
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            if let Some(s) = stats {
                s.record(ei.alds.len() as u64, 0, 0);
            }
            let Some(lists) = fetch_ei_lists(ctx, ei.alds, row) else {
                continue;
            };
            let range = 0..lists[0].len();
            let _ = ei_over_lists(ctx, ei, &lists, range, row, stats, &mut |r| {
                out.push_from_row(fi, r);
                ControlFlow::Continue(())
            });
        }
        let produced = out.len() > 0;
        self.levels.push(out);
        self.cursor.push(None);
        produced
    }

    /// Extends a **single-entry** frontier through an E/I whose lists were
    /// fetched by the caller, with list 0 restricted to `range` — the
    /// first-E/I morsel unit. `row` must already hold the frontier path.
    fn extend_from_lists(
        &mut self,
        ctx: ExecContext<'_>,
        ei: &EiOp<'_>,
        lists: &[BoundList<'_>],
        range: Range<usize>,
        row: &mut Row,
    ) -> bool {
        debug_assert_eq!(self.top_len(), 1, "first-E/I morsels extend one root");
        let mut out = Level::for_ei(ei);
        let _ = ei_over_lists(ctx, ei, lists, range, row, ctx.prof_level(1), &mut |r| {
            out.push_from_row(0, r);
            ControlFlow::Continue(())
        });
        let produced = out.len() > 0;
        self.levels.push(out);
        self.cursor.push(None);
        produced
    }

    /// FILTER at plan-op index `level`: compacts the top level in place,
    /// keeping entries whose path satisfies every predicate. Returns
    /// `false` when none survive.
    fn filter_top(
        &mut self,
        ctx: ExecContext<'_>,
        preds: &[QueryPredicate],
        level: usize,
        row: &mut Row,
    ) -> bool {
        let top = self.levels.len() - 1;
        let n = self.levels[top].len();
        let mut keep = Vec::with_capacity(n);
        for fi in 0..n {
            self.bind_path(row, top, fi);
            keep.push(preds.iter().all(|p| p.eval(ctx.graph, row)));
        }
        if let Some(s) = ctx.prof_level(level) {
            s.record(0, n as u64, keep.iter().filter(|&&k| k).count() as u64);
        }
        let lvl = &mut self.levels[top];
        let mut w = 0usize;
        for (r, &kept) in keep.iter().enumerate() {
            if kept {
                if w != r {
                    if !lvl.parent.is_empty() {
                        lvl.parent[w] = lvl.parent[r];
                    }
                    lvl.nbr[w] = lvl.nbr[r];
                    for j in 0..lvl.stride {
                        lvl.edges[w * lvl.stride + j] = lvl.edges[r * lvl.stride + j];
                    }
                }
                w += 1;
            }
        }
        if !lvl.parent.is_empty() {
            lvl.parent.truncate(w);
        }
        lvl.nbr.truncate(w);
        lvl.edges.truncate(w * lvl.stride);
        // Entries moved: the memoized row bindings may describe a removed
        // entry.
        self.cursor[top] = None;
        w > 0
    }

    /// Counts the matches a final E/I operator (at plan-op index `level`)
    /// would produce, **without building its level**: per frontier entry,
    /// the extension count is a multiplicity folded straight into the
    /// total.
    fn tail_count(
        &mut self,
        ctx: ExecContext<'_>,
        ei: &EiOp<'_>,
        level: usize,
        row: &mut Row,
    ) -> u64 {
        let stats = ctx.prof_level(level);
        let top = self.levels.len() - 1;
        let mut total = 0u64;
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            if let Some(s) = stats {
                s.record(ei.alds.len() as u64, 0, 0);
            }
            let Some(lists) = fetch_ei_lists(ctx, ei.alds, row) else {
                continue;
            };
            let range = 0..lists[0].len();
            total += count_ei(ctx, ei, &lists, range, level, row);
        }
        total
    }
}

/// Counts one E/I extension of the binding in `row` over pre-fetched
/// lists. Takes the pure-list-length fast path when sound, else runs the
/// shared leapfrog with a counting continuation. A `PROFILE` run records
/// the fast path as a factorized-count shortcut hit with zero candidates
/// examined — exactly the work it saves.
fn count_ei(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    lists: &[BoundList<'_>],
    range: Range<usize>,
    level: usize,
    row: &mut Row,
) -> u64 {
    let stats = ctx.prof_level(level);
    if let Some(n) = tail_count_fast(ctx, ei, lists, &range, row) {
        ctx.note_fc_shortcut();
        if let Some(s) = stats {
            s.record(0, 0, n);
        }
        return n;
    }
    let mut n = 0u64;
    let _ = ei_over_lists(ctx, ei, lists, range, row, stats, &mut |_| {
        n += 1;
        ControlFlow::Continue(())
    });
    n
}

/// The factorized-count fast path: a single-list extension with no label
/// check and no residuals contributes exactly its list length — *provided*
/// relationship uniqueness cannot reject any entry. Every candidate edge
/// has the list's owner as its direction-side endpoint (primary and
/// secondary vertex-partitioned lists are 1-hop views of the owner's
/// adjacency), so it suffices that no already-bound path edge has the
/// owner there too. Edge-partitioned lists hang off an edge, not a vertex,
/// and get no such guarantee — they always iterate.
fn tail_count_fast(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    lists: &[BoundList<'_>],
    range: &Range<usize>,
    row: &Row,
) -> Option<u64> {
    if lists.len() != 1 || !ei.residual.is_empty() || ei.target_label.is_some() {
        return None;
    }
    let ald = &ei.alds[0];
    let dir = match &ald.index {
        IndexChoice::Primary(d) => *d,
        IndexChoice::VertexIdx { direction, .. } => *direction,
        IndexChoice::EdgeIdx { .. } => return None,
    };
    let FromRef::Vertex(fv) = ald.from else {
        return None;
    };
    let owner = row.vertex(fv).expect("plan binds FROM before use");
    for slot in 0..row.edge_slots().len() {
        let Some(e) = row.edge(slot) else { continue };
        let Ok((s, d)) = ctx.graph.edge_endpoints(e) else {
            return None;
        };
        let endpoint = match dir {
            Direction::Fwd => s,
            Direction::Bwd => d,
        };
        if endpoint == owner {
            return None;
        }
    }
    Some(range.len() as u64)
}

fn root_var(plan: &Plan) -> usize {
    let Some(Operator::ScanVertices { var, .. }) = plan.ops.first() else {
        unreachable!("block-eligible plans have a vertex-scan root")
    };
    *var
}

/// Runs `plan.ops[from..]` over a seeded block, building every level.
/// Returns `false` as soon as a level comes up empty.
fn apply_ops(
    ctx: ExecContext<'_>,
    plan: &Plan,
    st: &mut Blocks,
    row: &mut Row,
    from: usize,
) -> bool {
    for (i, op) in plan.ops.iter().enumerate().skip(from) {
        let ok = match op {
            Operator::ExtendIntersect { .. } => st.extend(ctx, &ei_op(op), i, row),
            Operator::Filter { preds } => st.filter_top(ctx, preds, i, row),
            _ => unreachable!("block-eligible plans contain only E/I and FILTER past the root"),
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Runs `plan.ops[from..]` over a seeded block for counting: a trailing
/// E/I is consumed as per-entry multiplicities ([`Blocks::tail_count`])
/// instead of building its level.
fn count_ops(
    ctx: ExecContext<'_>,
    plan: &Plan,
    st: &mut Blocks,
    row: &mut Row,
    from: usize,
) -> u64 {
    for (i, op) in plan.ops.iter().enumerate().skip(from) {
        let last = i + 1 == plan.ops.len();
        match op {
            Operator::ExtendIntersect { .. } if last => {
                return st.tail_count(ctx, &ei_op(op), i, row);
            }
            Operator::ExtendIntersect { .. } => {
                if !st.extend(ctx, &ei_op(op), i, row) {
                    return 0;
                }
            }
            Operator::Filter { preds } => {
                if !st.filter_top(ctx, preds, i, row) {
                    return 0;
                }
            }
            _ => unreachable!("block-eligible plans contain only E/I and FILTER past the root"),
        }
    }
    st.top_len() as u64
}

/// Lazily flattens the last level into [`RawRow`]s, in flat storage order
/// — which is exactly the sequential DFS row order. Each step rebinds only
/// the changed path suffix via the cursor memo. A `PROFILE` run counts the
/// rows actually pulled across this flatten boundary (flushed on drop, so
/// early-exited drains report only what they materialized).
struct FlattenIter<'a> {
    st: &'a mut Blocks,
    row: &'a mut Row,
    total: usize,
    next: usize,
    profiler: Option<&'a aplus_obs::QueryProfiler>,
}

impl<'a> FlattenIter<'a> {
    fn new(st: &'a mut Blocks, row: &'a mut Row, ctx: ExecContext<'a>) -> Self {
        let total = st.top_len();
        Self {
            st,
            row,
            total,
            next: 0,
            profiler: ctx.profiler,
        }
    }
}

impl Iterator for FlattenIter<'_> {
    type Item = RawRow;

    fn next(&mut self) -> Option<RawRow> {
        if self.next >= self.total {
            return None;
        }
        let top = self.st.levels.len() - 1;
        self.st.bind_path(self.row, top, self.next);
        self.next += 1;
        Some((
            self.row.vertex_slots().to_vec(),
            self.row.edge_slots().to_vec(),
        ))
    }
}

impl Drop for FlattenIter<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.profiler {
            p.flatten_rows
                .fetch_add(self.next as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Seeds a block with the root bindings in ID `range` that pass the scan's
/// label + predicate checks (the row engine's own root scan, so pinned
/// vertices and label/predicate semantics are shared) and consumes it — the
/// morsel body of root-range partitioning.
pub(crate) fn root_morsel(
    ctx: ExecContext<'_>,
    query: &QueryGraph,
    plan: &Plan,
    range: Range<usize>,
    emit: Emit<'_>,
) {
    let Some(Operator::ScanVertices { var, label, preds }) = plan.ops.first() else {
        unreachable!("block-eligible plans have a vertex-scan root")
    };
    // A fresh scratch row per block: `bind_path` materializes exactly the
    // path variables, and unbound slots must stay the sentinel (stale
    // bindings from another block would corrupt `uses_edge` checks).
    let mut row = Row::unbound(query.vertices.len(), query.edges.len());
    let mut roots: Vec<u32> = Vec::new();
    let _ = scan_vertices_range(ctx, 0, *var, *label, preds, range, &mut row, &mut |r| {
        roots.push(r.vertex(*var).expect("scan binds root").raw());
        ControlFlow::Continue(())
    });
    if roots.is_empty() {
        return;
    }
    ctx.note_block();
    consume(ctx, plan, Blocks::seeded(plan, roots), &mut row, 1, emit);
}

/// Extends the single root binding held by `row` through the first E/I
/// `ei` over pre-fetched `lists`, with list 0 restricted to `range`, and
/// consumes the resulting sub-block — the morsel body of first-E/I
/// partitioning.
pub(crate) fn ei_morsel(
    ctx: ExecContext<'_>,
    plan: &Plan,
    ei: &EiOp<'_>,
    lists: &[BoundList<'_>],
    range: Range<usize>,
    row: &mut Row,
    emit: Emit<'_>,
) {
    let emit = match emit {
        // The first E/I is also the last: count its morsel range directly
        // as a multiplicity.
        Emit::Count(n) if plan.ops.len() == 2 => {
            *n += count_ei(ctx, ei, lists, range, 1, row);
            return;
        }
        emit => emit,
    };
    let root = row.vertex(root_var(plan)).expect("scan binds root").raw();
    ctx.note_block();
    let mut st = Blocks::seeded(plan, vec![root]);
    if st.extend_from_lists(ctx, ei, lists, range, row) {
        consume(ctx, plan, st, row, 2, emit);
    }
}

/// Runs `plan.ops[from..]` over a seeded block and emits it: a count folded
/// on the factorized levels, or the lazy flatten pushed row by row — the
/// only place factorized intermediates become rows.
fn consume(
    ctx: ExecContext<'_>,
    plan: &Plan,
    mut st: Blocks,
    row: &mut Row,
    from: usize,
    emit: Emit<'_>,
) {
    match emit {
        Emit::Count(n) => *n += count_ops(ctx, plan, &mut st, row, from),
        Emit::Rows(push) => {
            if apply_ops(ctx, plan, &mut st, row, from) {
                for raw in FlattenIter::new(&mut st, row, ctx) {
                    if push(raw).is_break() {
                        break;
                    }
                }
            }
        }
    }
}
