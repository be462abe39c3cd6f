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

use aplus_common::{EdgeId, VertexId, VertexLabelId};
use aplus_core::Direction;
use aplus_obs::LevelStats;

use crate::exec::{
    ei_op, ei_over_lists, fetch_ei_lists, scan_vertices_range, BoundList, EiOp, Emit, ExecContext,
};
use crate::plan::{FlattenPolicy, FromRef, IndexChoice, Operator, Plan, Prune, PruneValue};
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
    /// total. A [`FastTail`] whose list depends on its owner alone is
    /// fetched and label-counted once per run of consecutive entries with
    /// the same owner (entries come in DFS order, so a run is every
    /// extension of one owner binding); only the uniqueness subtraction
    /// runs per entry. A run never spans two root bindings, so where block
    /// boundaries fall — which varies with the thread count — cannot change
    /// the label reads a `PROFILE` run reports.
    fn tail_count(
        &mut self,
        ctx: ExecContext<'_>,
        ei: &EiOp<'_>,
        level: usize,
        row: &mut Row,
    ) -> u64 {
        let stats = ctx.prof_level(level);
        let top = self.levels.len() - 1;
        let fast = FastTail::of(ei);
        let mut run: Option<OwnerRun<'_>> = None;
        let mut total = 0u64;
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            if let Some(s) = stats {
                s.record(ei.alds.len() as u64, 0, 0);
            }
            let Some(tail) = &fast else {
                if let Some(lists) = fetch_ei_lists(ctx, ei.alds, row) {
                    total += leapfrog_count(ctx, ei, &lists, 0..lists[0].len(), row, stats);
                }
                continue;
            };
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

#[cfg(test)]
mod tests {
    use aplus_common::VertexId;
    use aplus_core::{IndexSpec, PartitionKey, SortKey};
    use aplus_graph::Graph;
    use aplus_runtime::MorselPool;

    use crate::exec::Output;
    use crate::{profiled, Database, FlattenPolicy};

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
                let row_plan = plan.clone().with_flatten(FlattenPolicy::Eager);
                assert_eq!(
                    db.count_prepared_parallel(&bound, &row_plan, &pool),
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
