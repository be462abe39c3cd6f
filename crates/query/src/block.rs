//! Block-at-a-time factorized execution: the one engine.
//!
//! Every plan runs here. Instead of enumerating matches one row at a time
//! and re-walking the whole binding prefix for every result, each operator
//! processes a **block** of bindings at once, and intermediate results stay
//! **factorized** (the list-based processing of the companion "Columnar
//! Storage and List-based Processing for GDBMSs" work):
//!
//! * The root scan (vertices or edges) seeds a block from one morsel of
//!   its ID range.
//! * Every other operator — E/I, MULTI-EXTEND, var-length expansion —
//!   extends the whole top level at once into a new `Level`: one entry per
//!   produced binding, holding the variables the operator binds and a
//!   `parent` pointer to the entry it extends. A binding is stored
//!   **once**, never repeated per downstream row — the factorized
//!   representation whose flat expansion is the cross product of its
//!   levels.
//! * FILTER operators compact the top level in place.
//!
//! Entries are appended in frontier order, and within one frontier entry in
//! the order the operator's binding producer (`exec::op_bindings`)
//! yields them. Consequently the **flat order of the last level is the
//! depth-first row order**, and flattening is a lazy walk (`FlattenIter`)
//! that rebinds only the path suffix that changed between consecutive
//! entries (amortized O(1) per row). Flattened rows reach sinks through the
//! driver's morsel-order merge, so streamed and collected rows are
//! bit-identical at any thread count and limit.
//!
//! Counting never flattens at all: the last operator is consumed as a
//! **multiplicity** per frontier entry. A single-list tail extension with
//! no residual whose list hangs off a vertex is counted **in place**,
//! without binding a single candidate: the entries whose neighbour passes
//! the target label, read in one tight pass over the list's neighbour
//! column (no pass at all when unlabelled), minus the path edges already
//! bound that relationship uniqueness would reject (found by binary search
//! on a neighbour-sorted list). Consecutive frontier entries with the same
//! list owner share one fetch and one label pass, so only the subtraction
//! runs per entry — the factorized-count win on high-fanout tails.
//!
//! This module owns no driver: [`crate::exec::run`] picks the morsel
//! strategy and merges the output, and calls in here only for the *block
//! body* — `root_morsel` (one block seeded from a root-ID range),
//! `ei_morsel` (one root binding's first E/I restricted to a range of its
//! leading list) or `vl_morsel` (one root binding's first var-length
//! expansion restricted to a range of one BFS level's targets). Each body
//! then counts its levels or flattens them row by row into whatever the
//! driver hands it (`exec::Emit`): the morsel's buffer on a pool worker,
//! the sink itself when it runs inline.

use std::ops::{ControlFlow, Range};

use aplus_common::{EdgeId, VertexId, VertexLabelId};
use aplus_core::Direction;
use aplus_obs::LevelStats;

use crate::exec::{
    ei_op, ei_over_lists, fetch_ei_lists, op_bindings, root_range_bindings, vl_target, BoundList,
    EiOp, Emit, ExecContext, VarLengthOp,
};
use crate::plan::{FromRef, IndexChoice, Operator, Plan, Prune, PruneValue};
use crate::query::{QueryGraph, QueryPredicate, Row};
use crate::sink::RawRow;

/// One factorized level: entry `i` binds the operator's vertex variables to
/// `verts[i*vertex_vars.len()..]` and its edge variables to
/// `edges[i*edge_vars.len()..]`, extending entry `parent[i]` of the level
/// below (the root level's parents are unused).
struct Level {
    parent: Vec<usize>,
    vertex_vars: Vec<usize>,
    verts: Vec<u32>,
    edge_vars: Vec<usize>,
    edges: Vec<u64>,
}

impl Level {
    /// An empty level for the variables `op` binds. A check-mode var-length
    /// expansion binds none: its entries only record which parents passed.
    fn for_op(op: &Operator) -> Self {
        let (vertex_vars, edge_vars): (Vec<usize>, Vec<usize>) = match op {
            Operator::ScanVertices { var, .. } => (vec![*var], vec![]),
            Operator::ScanEdges {
                edge_var,
                src_var,
                dst_var,
                ..
            } => (vec![*src_var, *dst_var], vec![*edge_var]),
            Operator::ExtendIntersect { target, alds, .. } => {
                (vec![*target], alds.iter().map(|a| a.edge_var).collect())
            }
            Operator::MultiExtend { targets, .. } => {
                targets.iter().map(|(v, _, ald)| (*v, ald.edge_var)).unzip()
            }
            Operator::VarLengthExpand { target, check, .. } => {
                (if *check { vec![] } else { vec![*target] }, vec![])
            }
            Operator::Filter { .. } => unreachable!("FILTER compacts its level in place"),
        };
        Self {
            parent: Vec::new(),
            vertex_vars,
            verts: Vec::new(),
            edge_vars,
            edges: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    /// Appends the binding currently held by `row` as an entry extending
    /// frontier entry `parent`.
    fn push_from_row(&mut self, parent: usize, row: &Row) {
        self.parent.push(parent);
        for &v in &self.vertex_vars {
            self.verts
                .push(row.vertex(v).expect("operator binds its vertices").raw());
        }
        for &e in &self.edge_vars {
            self.edges
                .push(row.edge(e).expect("operator binds its edges").raw());
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
    /// A block whose root level is `root` (bindings that already passed the
    /// root scan's checks).
    fn seeded(root: Level) -> Self {
        Self {
            levels: vec![root],
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
    /// Only this method binds level variables (a binding producer's
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
        let (nv, ne) = (lvl.vertex_vars.len(), lvl.edge_vars.len());
        for (j, &v) in lvl.vertex_vars.iter().enumerate() {
            row.bind_vertex(v, VertexId(lvl.verts[ei * nv + j]));
        }
        for (j, &e) in lvl.edge_vars.iter().enumerate() {
            row.bind_edge(e, EdgeId(lvl.edges[ei * ne + j]));
        }
        self.cursor[li] = Some(ei);
    }

    /// Pushes `out` as the new top level. Returns `false` when it is empty.
    fn push_level(&mut self, out: Level) -> bool {
        let produced = out.len() > 0;
        self.levels.push(out);
        self.cursor.push(None);
        produced
    }

    /// Extends the whole top level through `op` at plan-op index `level`,
    /// pushing the produced level. Returns `false` when nothing was
    /// produced.
    fn extend(&mut self, ctx: ExecContext<'_>, op: &Operator, level: usize, row: &mut Row) -> bool {
        let top = self.levels.len() - 1;
        let mut out = Level::for_op(op);
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            let _ = op_bindings(ctx, op, level, row, &mut |r| {
                out.push_from_row(fi, r);
                ControlFlow::Continue(())
            });
        }
        self.push_level(out)
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
        let (nv, ne) = (lvl.vertex_vars.len(), lvl.edge_vars.len());
        let mut w = 0usize;
        for (r, &kept) in keep.iter().enumerate() {
            if kept {
                if w != r {
                    lvl.parent[w] = lvl.parent[r];
                    lvl.verts.copy_within(r * nv..(r + 1) * nv, w * nv);
                    lvl.edges.copy_within(r * ne..(r + 1) * ne, w * ne);
                }
                w += 1;
            }
        }
        lvl.parent.truncate(w);
        lvl.verts.truncate(w * nv);
        lvl.edges.truncate(w * ne);
        // Entries moved: the memoized row bindings may describe a removed
        // entry.
        self.cursor[top] = None;
        w > 0
    }

    /// Counts the matches a final operator `op` (at plan-op index `level`)
    /// would produce, **without building its level**: per frontier entry,
    /// the extension count is a multiplicity folded straight into the
    /// total. A [`FastTail`] whose list depends on its owner alone is
    /// fetched and label-counted once per run of consecutive entries with
    /// the same owner (entries come in depth-first order, so a run is every
    /// extension of one owner binding); only the uniqueness subtraction
    /// runs per entry. A run never spans two root bindings, so where block
    /// boundaries fall — which varies with the thread count — cannot change
    /// the label reads a `PROFILE` run reports. Any other tail counts the
    /// bindings its producer yields.
    fn tail_count(
        &mut self,
        ctx: ExecContext<'_>,
        op: &Operator,
        level: usize,
        row: &mut Row,
    ) -> u64 {
        let top = self.levels.len() - 1;
        let mut total = 0u64;
        let fast = match op {
            Operator::ExtendIntersect { .. } => {
                let ei = ei_op(op);
                FastTail::of(&ei).map(|tail| (tail, ei))
            }
            _ => None,
        };
        let Some((tail, ei)) = fast else {
            for fi in 0..self.levels[top].len() {
                self.bind_path(row, top, fi);
                let _ = op_bindings(ctx, op, level, row, &mut |_| {
                    total += 1;
                    ControlFlow::Continue(())
                });
            }
            return total;
        };
        let stats = ctx.prof_level(level);
        let mut run: Option<OwnerRun<'_>> = None;
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            if let Some(s) = stats {
                s.record(ei.alds.len() as u64, 0, 0);
            }
            let owner = row
                .vertex(tail.owner_var)
                .expect("plan binds FROM before use");
            // `bind_path` left the entry's root in the level-0 memo.
            let key = (self.cursor[0], owner);
            if !(tail.per_owner && run.as_ref().is_some_and(|r| r.key == key)) {
                let list = fetch_ei_lists(ctx, ei.alds, row).map(|mut lists| lists.swap_remove(0));
                let matching = list
                    .as_ref()
                    .map_or(0, |l| tail.matching(ctx, l, 0..l.len(), stats));
                run = Some(OwnerRun {
                    key,
                    list,
                    matching,
                });
            }
            let Some(OwnerRun {
                list: Some(list),
                matching,
                ..
            }) = &run
            else {
                continue;
            };
            let n = matching - tail.already_bound(ctx, list, 0..list.len(), row);
            total += served(ctx, stats, n);
        }
        total
    }
}

/// Consecutive frontier entries of one root binding whose tail list has the
/// same owner: the owner's list (`None` when empty) and how many of its
/// entries pass the label check, fetched and counted once for the run.
struct OwnerRun<'a> {
    /// The root entry and the owner.
    key: (Option<usize>, VertexId),
    list: Option<BoundList<'a>>,
    matching: u64,
}

/// Counts one E/I extension of the binding in `row` over pre-fetched
/// lists: through the [`FastTail`] when the extension has one, else the
/// shared leapfrog with a counting continuation.
fn count_ei(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    lists: &[BoundList<'_>],
    range: Range<usize>,
    level: usize,
    row: &mut Row,
) -> u64 {
    let stats = ctx.prof_level(level);
    match FastTail::of(ei) {
        Some(tail) => {
            let list = &lists[0];
            let n = tail.matching(ctx, list, range.clone(), stats)
                - tail.already_bound(ctx, list, range, row);
            served(ctx, stats, n)
        }
        None => leapfrog_count(ctx, ei, lists, range, row, stats),
    }
}

/// Counts an extension by running the shared leapfrog with a counting
/// continuation: every candidate is bound, checked and unbound.
fn leapfrog_count(
    ctx: ExecContext<'_>,
    ei: &EiOp<'_>,
    lists: &[BoundList<'_>],
    range: Range<usize>,
    row: &mut Row,
    stats: Option<&LevelStats>,
) -> u64 {
    let mut n = 0u64;
    let _ = ei_over_lists(ctx, ei, lists, range, row, stats, &mut |_| {
        n += 1;
        ControlFlow::Continue(())
    });
    n
}

/// Records `n` matches counted by the [`FastTail`] as one
/// factorized-count shortcut hit, and returns `n`.
fn served(ctx: ExecContext<'_>, stats: Option<&LevelStats>, n: u64) -> u64 {
    ctx.note_fc_shortcut();
    if let Some(s) = stats {
        s.record(0, 0, n);
    }
    n
}

/// The factorized-count fast path: a single-list extension with no
/// residual whose list hangs off a bound vertex (a primary or
/// vertex-partitioned list). Its count is the number of list entries whose
/// neighbour passes the target label ([`FastTail::matching`]) minus those
/// relationship uniqueness rejects ([`FastTail::already_bound`]) — nothing
/// is bound, checked or unbound per entry. Edge-partitioned lists hang off
/// an edge, not a vertex, and always iterate.
struct FastTail {
    /// The query vertex whose list this is.
    owner_var: usize,
    dir: Direction,
    /// The E/I's target label check, if any.
    label: Option<VertexLabelId>,
    /// Whether the fetched range is ordered by neighbour ID, so a bound
    /// edge is found by binary search rather than by a scan.
    nbr_sorted: bool,
    /// Whether the list depends on its owner alone (no prune, or a
    /// constant one), so consecutive entries with the same owner share it.
    per_owner: bool,
}

impl FastTail {
    fn of(ei: &EiOp<'_>) -> Option<Self> {
        let [ald] = ei.alds else { return None };
        if !ei.residual.is_empty() {
            return None;
        }
        let dir = match &ald.index {
            IndexChoice::Primary(d) => *d,
            IndexChoice::VertexIdx { direction, .. } => *direction,
            IndexChoice::EdgeIdx { .. } => return None,
        };
        let FromRef::Vertex(owner_var) = ald.from else {
            return None;
        };
        Some(Self {
            owner_var,
            dir,
            label: ei.target_label,
            nbr_sorted: ald.nbr_sorted() && ald.sorted_range,
            per_owner: matches!(
                ald.prune,
                None | Some(Prune {
                    value: PruneValue::Const(_),
                    ..
                })
            ),
        })
    }

    /// The entries of `list` in `range` whose neighbour passes the target
    /// label: the range length when unlabelled, else one tight pass over
    /// the neighbour column. A `PROFILE` run records each label read as a
    /// candidate.
    fn matching(
        &self,
        ctx: ExecContext<'_>,
        list: &BoundList<'_>,
        range: Range<usize>,
        stats: Option<&LevelStats>,
    ) -> u64 {
        let Some(want) = self.label else {
            return range.len() as u64;
        };
        if let Some(s) = stats {
            s.record(0, range.len() as u64, 0);
        }
        list.count_nbrs(range, |n| {
            ctx.graph.vertex_label(n).is_ok_and(|l| l == want)
        })
    }

    /// The entries [`Self::matching`] counted that relationship uniqueness
    /// rejects: path edges already bound in `row`. Every entry of the list
    /// is an edge with the owner as its direction-side endpoint and the
    /// entry's neighbour as the other, so only a bound edge with the owner
    /// on that side can occur, and only where the other endpoint is. Bound
    /// edges are pairwise distinct (every level enforced uniqueness), so no
    /// position is subtracted twice.
    fn already_bound(
        &self,
        ctx: ExecContext<'_>,
        list: &BoundList<'_>,
        range: Range<usize>,
        row: &Row,
    ) -> u64 {
        let owner = row
            .vertex(self.owner_var)
            .expect("plan binds FROM before use");
        let mut n = 0u64;
        for slot in 0..row.edge_slots().len() {
            let Some(e) = row.edge(slot) else { continue };
            // Every list entry is an edge of the graph.
            let Ok((s, d)) = ctx.graph.edge_endpoints(e) else {
                continue;
            };
            let (side, nbr) = match self.dir {
                Direction::Fwd => (s, d),
                Direction::Bwd => (d, s),
            };
            if side != owner {
                continue;
            }
            if self
                .label
                .is_none_or(|want| ctx.graph.vertex_label(nbr).is_ok_and(|l| l == want))
            {
                n += list.count_entry(range.clone(), e, nbr, self.nbr_sorted);
            }
        }
        n
    }
}

/// The root level of a block seeded from the single root binding `row`
/// holds (the first-level strategies' morsels).
fn root_level(plan: &Plan, row: &Row) -> Level {
    let mut root = Level::for_op(&plan.ops[0]);
    root.push_from_row(0, row);
    root
}

/// Runs `plan.ops[ops]` over a seeded block, building every level.
/// Returns `false` as soon as a level comes up empty.
fn apply_ops(
    ctx: ExecContext<'_>,
    plan: &Plan,
    st: &mut Blocks,
    row: &mut Row,
    ops: Range<usize>,
) -> bool {
    let start = ops.start;
    plan.ops[ops].iter().enumerate().all(|(i, op)| match op {
        Operator::Filter { preds } => st.filter_top(ctx, preds, start + i, row),
        _ => st.extend(ctx, op, start + i, row),
    })
}

/// Runs `plan.ops[from..]` over a seeded block for counting: the last
/// operator is consumed as per-entry multiplicities
/// ([`Blocks::tail_count`]) instead of building its level.
fn count_ops(
    ctx: ExecContext<'_>,
    plan: &Plan,
    st: &mut Blocks,
    row: &mut Row,
    from: usize,
) -> u64 {
    let last = plan.ops.len() - 1;
    if from > last {
        return st.top_len() as u64;
    }
    if !apply_ops(ctx, plan, st, row, from..last) {
        return 0;
    }
    match &plan.ops[last] {
        Operator::Filter { preds } => {
            st.filter_top(ctx, preds, last, row);
            st.top_len() as u64
        }
        op => st.tail_count(ctx, op, last, row),
    }
}

/// Lazily flattens the last level into [`RawRow`]s, in flat storage order
/// — which is exactly the depth-first row order. Each step rebinds only
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

/// Seeds a block with the root bindings in ID `range` that pass the root
/// scan's checks (pinned vertices and label/predicate semantics included)
/// and consumes it — the block body of root-range partitioning.
pub(crate) fn root_morsel(
    ctx: ExecContext<'_>,
    query: &QueryGraph,
    plan: &Plan,
    range: Range<usize>,
    emit: Emit<'_>,
) {
    // A fresh scratch row per block: `bind_path` materializes exactly the
    // path variables, and unbound slots must stay the sentinel (stale
    // bindings from another block would corrupt `uses_edge` checks).
    let mut row = Row::unbound(query.vertices.len(), query.edges.len());
    let mut root = Level::for_op(&plan.ops[0]);
    let _ = root_range_bindings(ctx, plan, range, &mut row, &mut |r| {
        root.push_from_row(0, r);
        ControlFlow::Continue(())
    });
    if root.len() == 0 {
        return;
    }
    ctx.note_block();
    consume(ctx, plan, Blocks::seeded(root), &mut row, 1, emit);
}

/// Extends the single root binding held by `row` through the first E/I
/// `ei` over pre-fetched `lists`, with list 0 restricted to `range`, and
/// consumes the resulting sub-block — the block body of first-E/I
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
    ctx.note_block();
    let mut st = Blocks::seeded(root_level(plan, row));
    let mut out = Level::for_op(&plan.ops[1]);
    let _ = ei_over_lists(ctx, ei, lists, range, row, ctx.prof_level(1), &mut |r| {
        out.push_from_row(0, r);
        ControlFlow::Continue(())
    });
    if st.push_level(out) {
        consume(ctx, plan, st, row, 2, emit);
    }
}

/// Binds the root binding held by `row` to each of `targets` (a range of
/// one BFS level's newly reached vertices) through the first var-length
/// expansion `vl`, and consumes the resulting sub-block — the block body
/// of first-var-length partitioning.
pub(crate) fn vl_morsel(
    ctx: ExecContext<'_>,
    plan: &Plan,
    vl: &VarLengthOp<'_>,
    targets: &[u32],
    row: &mut Row,
    emit: Emit<'_>,
) {
    let emit = match emit {
        // The expansion is also the last operator: count its targets.
        Emit::Count(n) if plan.ops.len() == 2 => {
            for &t in targets {
                let _ = vl_target(ctx, vl, VertexId(t), row, &mut |_| {
                    *n += 1;
                    ControlFlow::Continue(())
                });
            }
            return;
        }
        emit => emit,
    };
    ctx.note_block();
    let mut st = Blocks::seeded(root_level(plan, row));
    let mut out = Level::for_op(&plan.ops[1]);
    for &t in targets {
        let _ = vl_target(ctx, vl, VertexId(t), row, &mut |r| {
            out.push_from_row(0, r);
            ControlFlow::Continue(())
        });
    }
    if st.push_level(out) {
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
            if apply_ops(ctx, plan, &mut st, row, from..plan.ops.len()) {
                for raw in FlattenIter::new(&mut st, row, ctx) {
                    if push(raw).is_break() {
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use aplus_common::VertexId;
    use aplus_core::{IndexSpec, PartitionKey, SortKey};
    use aplus_graph::Graph;
    use aplus_runtime::MorselPool;

    use crate::exec::Output;
    use crate::{profiled, Database};

    /// v0:A, v1:B, v2:B with E edges e0, e1: v0->v1 (a parallel pair),
    /// e2: v1->v1 and e5: v2->v2 (self-loops), e3: v1->v2 and e4: v0->v2.
    fn graph() -> Graph {
        let mut g = Graph::new();
        for label in ["A", "B", "B"] {
            g.add_vertex(label);
        }
        for (s, d) in [(0, 1), (0, 1), (1, 1), (1, 2), (0, 2), (2, 2)] {
            g.add_edge(VertexId(s), VertexId(d), "E").unwrap();
        }
        g
    }

    /// Tail counts worked out by hand. All but the fourth and the last are
    /// too high without the uniqueness subtraction.
    const CASES: &[(&str, u64)] = &[
        // Star on v0, same-label siblings: ordered pairs of distinct
        // out-edges among {e0, e1, e4}.
        ("MATCH (a:A)-[r:E]->(b:B), (a:A)-[s:E]->(c:B)", 6),
        // Tree: b = v1 (out {e2, e3}): r in {e0, e1} leaves both for the
        // ordered pair (s, t); r = e2, the self-loop, leaves only e3. b =
        // v2 has one out-edge.
        (
            "MATCH (a)-[r:E]->(b:B), (b:B)-[s:E]->(c:B), (b:B)-[t:E]->(d:B)",
            4,
        ),
        // The same tree from a pinned root a = v0, so the tail's owner b is
        // neither the root nor the newest binding c. The frontier entry
        // (b = v2, c = v2) follows (b = v1, c = v2): the owner run must
        // restart there although c and a repeat.
        (
            "MATCH (a)-[r:E]->(b:B), (b:B)-[s:E]->(c:B), (b:B)-[t:E]->(d:B) WHERE a.ID = 0",
            4,
        ),
        // Backward tail: ordered pairs of distinct in-edges from B. v1 has
        // only e2; v2 has {e3, e5}.
        ("MATCH (a:B)-[r:E]->(b:B), (c:B)-[s:E]->(b:B)", 2),
        // The bound edge at the tail's owner comes from A, so the label
        // check keeps it out of the subtraction: v1: {e0, e1} x {e2}; v2:
        // {e4} x {e3, e5}.
        ("MATCH (a:A)-[r:E]->(b:B), (c:B)-[s:E]->(b:B)", 4),
        // Unlabelled 2-hop: in * out per middle vertex (v1: 3 * 2, v2:
        // 3 * 1) minus each self-loop used twice.
        ("MATCH a-[r]->b, b-[s]->c", 7),
        // Labelled path, the tail of SQ6's 4-path: b = v1 (via e0 or e1)
        // has out {e2, e3}, b = v2 (via e4) has out {e5}; r leaves the A
        // vertex, so no bound edge is ever in the tail list.
        ("MATCH (a:A)-[r:E]->(b:B), (b:B)-[s:E]->(c:B)", 5),
    ];

    #[test]
    fn in_place_tail_counts_match_hand_counts() {
        let specs = [
            IndexSpec::default_primary(),
            IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::NbrLabel])
                .with_sort(vec![SortKey::NbrId]),
        ];
        let pool = MorselPool::sequential();
        for spec in specs {
            let db = Database::with_primary_spec(graph(), spec).unwrap();
            for &(q, want) in CASES {
                let (bound, plan) = db.prepare(q).unwrap();
                // The flattened rows bind every candidate the count skips.
                assert_eq!(
                    db.collect_prepared_parallel(&bound, &plan, usize::MAX, &pool)
                        .len() as u64,
                    want,
                    "{q}"
                );
                let profile = profiled(&plan, |p| {
                    db.run(&bound, &plan, &pool, Some(p), Output::Count)
                });
                assert_eq!(profile.engine, "block", "{q}");
                assert_eq!(profile.rows, want, "{q}");
                assert!(
                    profile.fc_shortcut_hits > 0,
                    "{q} should count its tail in place"
                );
            }
        }
    }
}
