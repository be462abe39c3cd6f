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
//! depth-first row order**, and flattening is a lazy walk (`Built::rows`)
//! that rebinds only the path suffix that changed between consecutive
//! entries (amortized O(1) per row). Flattened rows reach sinks through the
//! driver's morsel-order merge, so streamed and collected rows are
//! bit-identical at any thread count and limit.
//!
//! Counting never flattens at all, and never builds the levels of the
//! plan's counted `Suffix`: its trailing single-list extensions with no
//! residual whose list hangs off a vertex. They form a forest of branches,
//! and each frontier entry's count is the product of its root branches. A
//! leaf branch is counted **in place**, without binding a single
//! candidate: the entries whose neighbour passes the target label, read in
//! one tight pass over the list's neighbour column (no pass at all when
//! unlabelled), minus the path edges already bound that relationship
//! uniqueness would reject (found by binary search on a neighbour-sorted
//! list). An inner branch sums its children's product over its
//! label-passing neighbours. A plan-time proof from the query's declared
//! labels, which every operator enforces, that no two suffix edges can
//! bind the same graph edge makes the product exact; the suffix is the
//! longest tail it holds for, at least the last operator. Consecutive
//! frontier entries under the same owner entry share one evaluation of a
//! branch, so for a leaf only the subtraction runs per entry — the
//! factorized-count win on high-fanout tails. A plan without a suffix
//! counts its last operator's bindings per frontier entry.
//!
//! An E/I's list filter (`plan::ListFilter`) is applied to list entries
//! before they are bound, and a filtered list that depends on its owner
//! alone is read once per owner and morsel (`exec::ListMemo`), so a level
//! holds only bindings that pass.
//!
//! This module owns no driver: [`crate::exec::run`] cuts the root scan's ID
//! range into morsels and merges the output, and calls in here only for
//! the *block body*, `root_morsel`: one block seeded from a root-ID range
//! (a pinned root is the one-ID range). The body then counts its levels,
//! or builds every level but the last whole and extends the frontier into
//! the last level in parts of at most `exec::LEVEL_PART_CAP` entries
//! (`Built`, through `exec::Emit`). The parts share the levels below
//! them, and each goes to the merge as soon as it fills, so one root with
//! a huge last level never sits built in full before its first row is
//! flattened. Parts wait; rows are flattened once, at the merge: the
//! driver flattens a part on the merging thread when its turn in (morsel,
//! part) order comes, straight into the sink, while the worker builds the
//! next part — so a satisfied limit or a sink `Break` stops the flatten at
//! the last row anybody sees, and the build at the next part.

use std::ops::{ControlFlow, Range};
use std::sync::Arc;

use aplus_common::{EdgeId, VertexId, VertexLabelId};
use aplus_core::Direction;
use aplus_obs::LevelStats;

use crate::exec::{
    ei_op, fetch_one, op_bindings, root_range_bindings, BoundList, EiOp, Emit, ExecContext,
    ListMemo, LEVEL_PART_CAP,
};
use crate::plan::{Ald, FromRef, IndexChoice, Operator, Plan};
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
/// Levels are shared, so the parts of a streamed last level hold the
/// levels below it without copying them.
struct Blocks {
    levels: Vec<Arc<Level>>,
    cursor: Vec<Option<usize>>,
}

impl Blocks {
    /// A block whose root level is `root` (bindings that already passed the
    /// root scan's checks).
    fn seeded(root: Level) -> Self {
        Self {
            levels: vec![Arc::new(root)],
            cursor: vec![None],
        }
    }

    /// A block of `lower`, shared, under `top`: one part of a streamed
    /// last level, with its own cursor memo.
    fn part(lower: &[Arc<Level>], top: Level) -> Self {
        let mut levels = lower.to_vec();
        levels.push(Arc::new(top));
        Self {
            cursor: vec![None; levels.len()],
            levels,
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
        self.levels.push(Arc::new(out));
        self.cursor.push(None);
        produced
    }

    /// Extends the whole top level through `op` at plan-op index `level`,
    /// pushing the produced level. Returns `false` when nothing was
    /// produced.
    fn extend(
        &mut self,
        ctx: ExecContext<'_>,
        op: &Operator,
        level: usize,
        row: &mut Row,
        memo: &mut ListMemo,
    ) -> bool {
        let top = self.levels.len() - 1;
        let mut out = Level::for_op(op);
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            let _ = op_bindings(ctx, op, level, row, memo, &mut |r| {
                out.push_from_row(fi, r);
                ControlFlow::Continue(())
            });
        }
        self.push_level(out)
    }

    /// Extends the whole top level through `plan.ops[level]`, the plan's
    /// last extension, into parts of at most [`LEVEL_PART_CAP`] entries.
    /// Each part shares this block's levels, takes the plan's trailing
    /// FILTERs, and goes to `hand` as soon as it fills — mid frontier entry
    /// if need be, since an entry's bindings come in order. `hand`
    /// returning `Break` stops the build.
    fn extend_in_parts(
        &mut self,
        ctx: ExecContext<'_>,
        plan: &Plan,
        level: usize,
        row: &mut Row,
        memo: &mut ListMemo,
        hand: &mut dyn FnMut(Built) -> ControlFlow<()>,
    ) {
        let op = &plan.ops[level];
        let lower = self.levels.clone();
        let vars = (row.vertex_slots().len(), row.edge_slots().len());
        let mut flush = |out: Level| {
            let mut st = Blocks::part(&lower, out);
            let mut row = Row::unbound(vars.0, vars.1);
            if apply_ops(
                ctx,
                plan,
                &mut st,
                &mut row,
                &mut ListMemo::default(),
                level + 1..plan.ops.len(),
            ) {
                hand(Built { st, row })
            } else {
                ControlFlow::Continue(())
            }
        };
        let top = self.levels.len() - 1;
        let mut out = Level::for_op(op);
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            let flow = op_bindings(ctx, op, level, row, memo, &mut |r| {
                out.push_from_row(fi, r);
                if out.len() < LEVEL_PART_CAP {
                    return ControlFlow::Continue(());
                }
                flush(std::mem::replace(&mut out, Level::for_op(op)))
            });
            if flow.is_break() {
                return;
            }
        }
        if out.len() > 0 {
            let _ = flush(out);
        }
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
        let lvl = Arc::get_mut(&mut self.levels[top]).expect("only built levels are shared");
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

    /// Counts the matches of the operators the block did not build, **without
    /// building their levels**: per frontier entry, the plan's counted
    /// [`Suffix`] product, or — when the last operator has no in-place count
    /// — the bindings its producer yields, folded straight into the total.
    fn tail_count<'a>(
        &mut self,
        ctx: ExecContext<'a>,
        plan: &Plan,
        suffix: Option<&Suffix<'_>>,
        row: &mut Row,
        memo: &mut ListMemo,
    ) -> u64 {
        let top = self.levels.len() - 1;
        let last = plan.ops.len() - 1;
        let stats = ctx.prof_level(last);
        let mut runs: Vec<Run<'a>> = suffix.map_or_else(Vec::new, |s| {
            s.roots
                .iter()
                .map(|&r| Run {
                    level: self.level_binding(s.branches[r].tail.owner_var),
                    memo: None,
                })
                .collect()
        });
        let mut total = 0u64;
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            let n = match suffix {
                Some(s) => s
                    .count_entry(ctx, &self.cursor, &mut runs, row)
                    .map_or(0, |n| served(ctx, stats, n)),
                None => {
                    let mut n = 0u64;
                    let _ = op_bindings(ctx, &plan.ops[last], last, row, memo, &mut |_| {
                        n += 1;
                        ControlFlow::Continue(())
                    });
                    n
                }
            };
            total = total.saturating_add(n);
        }
        total
    }

    /// The index of the level that binds query vertex `var`.
    fn level_binding(&self, var: usize) -> usize {
        self.levels
            .iter()
            .position(|l| l.vertex_vars.contains(&var))
            .expect("the suffix's owners are bound before it")
    }
}

/// One root branch's reuse within a block: the level binding its owner,
/// and the memo computed for the owner entry it names. Frontier entries
/// come in depth-first order, so every entry under one owner entry is
/// consecutive, and they all lie in the block that holds that entry —
/// wherever the thread count cuts the morsels.
struct Run<'a> {
    level: usize,
    memo: Option<(usize, Memo<'a>)>,
}

/// Records `n` matches counted in place by a [`Suffix`] as one
/// factorized-count shortcut hit at the last level, and returns `n`.
fn served(ctx: ExecContext<'_>, stats: Option<&LevelStats>, n: u64) -> u64 {
    ctx.note_fc_shortcut();
    if let Some(s) = stats {
        s.record(0, 0, n);
    }
    n
}

/// The factorized-count fast path: a single-list extension with no
/// residual and no list filter whose list hangs off a bound vertex (a
/// primary or vertex-partitioned list). Counted last, its count is the number of list
/// entries whose neighbour passes the target label ([`FastTail::matching`])
/// minus those relationship uniqueness rejects ([`FastTail::already_bound`])
/// — nothing is bound, checked or unbound per entry. Every operator of a
/// counted [`Suffix`] is one. Edge-partitioned lists hang off an edge, not
/// a vertex, and always iterate.
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
        if !ei.residual.is_empty() || !ei.filter.is_empty() {
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
            per_owner: ald.per_owner(),
        })
    }

    /// The entries of `list` whose neighbour passes the target label: the
    /// list length when unlabelled, else one tight pass over the neighbour
    /// column. A `PROFILE` run records each label read as a candidate.
    fn matching(
        &self,
        ctx: ExecContext<'_>,
        list: &BoundList<'_>,
        stats: Option<&LevelStats>,
    ) -> u64 {
        if self.label.is_none() {
            return list.len() as u64;
        }
        if let Some(s) = stats {
            s.record(0, list.len() as u64, 0);
        }
        list.count_nbrs(|n| self.passes(ctx, n))
    }

    /// Whether neighbour `n` passes the target label check.
    fn passes(&self, ctx: ExecContext<'_>, n: VertexId) -> bool {
        self.label
            .is_none_or(|want| ctx.graph.vertex_label(n).is_ok_and(|l| l == want))
    }

    /// The entries [`Self::matching`] counted that relationship uniqueness
    /// rejects: path edges already bound in `row`. Every entry of the list
    /// is an edge with the owner as its direction-side endpoint and the
    /// entry's neighbour as the other, so only a bound edge with the owner
    /// on that side can occur, and only where the other endpoint is. Bound
    /// edges are pairwise distinct (every level enforced uniqueness), so no
    /// position is subtracted twice.
    fn already_bound(&self, ctx: ExecContext<'_>, list: &BoundList<'_>, row: &Row) -> u64 {
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
            if self.passes(ctx, nbr) {
                n += list.count_entry(e, nbr, self.nbr_sorted);
            }
        }
        n
    }
}

/// The operators a count takes **without building their levels**: the
/// longest plan suffix of [`FastTail`] extensions whose prune is absent or
/// constant, after the root scan — else the last operator alone, if it is
/// a [`FastTail`] with any prune. A suffix operator reads only its
/// owner, so the suffix is a forest: a *root* branch hangs off a vertex
/// bound before the suffix, any other off the target of an earlier suffix
/// operator. Per frontier entry, the count is the product of the root
/// branches' counts, where
///
/// * a leaf branch counts like a last [`FastTail`]: label matches minus the
///   path edges already bound;
/// * an inner branch sums, over the label-passing neighbours of its owner
///   whose edge no path edge holds, the product of its children's counts.
///   Each neighbour is bound in the row only while its children count; no
///   suffix edge is ever bound.
///
/// Multiplying is exact only if no two suffix edges can bind the same graph
/// edge, which [`Suffix::of`] proves from the labels the query declares and
/// every operator enforces (see [`edge_shapes`] and [`disjoint`]). Where
/// the proof fails, the suffix shrinks to the longest tail it holds for,
/// down to the last operator alone.
pub(crate) struct Suffix<'p> {
    /// The plan-op index of the first suffix operator; every earlier
    /// operator builds a level.
    start: usize,
    /// One per operator of the suffix, in plan order.
    branches: Vec<Branch<'p>>,
    /// The branches hanging off a vertex bound before the suffix.
    roots: Vec<usize>,
}

/// One suffix operator.
struct Branch<'p> {
    /// Its plan-op index, which is also its `PROFILE` level.
    level: usize,
    ald: &'p Ald,
    tail: FastTail,
    /// The vertex it binds, transiently, for its children.
    target: usize,
    /// The branches hanging off `target`.
    children: Vec<usize>,
    /// Whether no path edge bound before the suffix can be its edge or a
    /// descendant's: then its count depends on its owner alone, and no
    /// uniqueness check or subtraction is needed under it.
    prefix_disjoint: bool,
}

impl Branch<'_> {
    /// Whether consecutive frontier entries with the same owner entry may
    /// share one evaluation: a leaf with a per-owner list (the subtraction
    /// stays per entry), or an inner branch that is `prefix_disjoint`.
    fn reusable(&self) -> bool {
        self.tail.per_owner && (self.children.is_empty() || self.prefix_disjoint)
    }
}

/// What evaluating a branch leaves for later entries with the same owner.
enum Memo<'a> {
    /// A leaf's list and how many of its entries pass the label check;
    /// each entry subtracts its own bound edges from `matching`.
    Leaf { list: BoundList<'a>, matching: u64 },
    /// An inner branch's count.
    Count(u64),
    /// The owner's list is empty.
    Empty,
}

impl Memo<'_> {
    /// The count branch `br` contributes to the entry bound in `row`.
    fn value(&self, ctx: ExecContext<'_>, br: &Branch<'_>, row: &Row) -> u64 {
        match self {
            Self::Count(n) => *n,
            Self::Empty => 0,
            Self::Leaf { matching, .. } if br.prefix_disjoint => *matching,
            Self::Leaf { list, matching } => matching - br.tail.already_bound(ctx, list, row),
        }
    }
}

impl<'p> Suffix<'p> {
    /// The counted suffix of `plan`, or `None` when its last operator is
    /// not a [`FastTail`].
    pub(crate) fn of(query: &QueryGraph, plan: &'p Plan) -> Option<Self> {
        let fast = |i: usize| match &plan.ops[i] {
            op @ Operator::ExtendIntersect { .. } => {
                let ei = ei_op(op);
                FastTail::of(&ei).map(|tail| (tail, ei))
            }
            _ => None,
        };
        let last = plan.ops.len() - 1;
        let mut start = last;
        if fast(last)?.0.per_owner {
            while start > 1 && fast(start - 1).is_some_and(|(t, _)| t.per_owner) {
                start -= 1;
            }
        }
        let shapes = edge_shapes(query);
        let edge = |i: usize| shapes[ei_op(&plan.ops[i]).alds[0].edge_var];
        // The longest such tail whose edges are pairwise disjoint.
        let proven =
            |s: usize| (s..=last).all(|i| (i + 1..=last).all(|j| disjoint(edge(i), edge(j))));
        while !proven(start) {
            start += 1;
        }
        let prefix: Vec<Shape> = plan.ops[..start]
            .iter()
            .filter(|op| !matches!(op, Operator::Filter { .. }))
            .flat_map(|op| Level::for_op(op).edge_vars)
            .map(|e| shapes[e])
            .collect();
        let (mut branches, mut roots) = (Vec::<Branch<'p>>::new(), Vec::new());
        for level in start..=last {
            let (tail, ei) = fast(level).expect("every suffix operator is a fast tail");
            let b = branches.len();
            match branches.iter().position(|p| p.target == tail.owner_var) {
                Some(p) => branches[p].children.push(b),
                None => roots.push(b),
            }
            branches.push(Branch {
                level,
                ald: &ei.alds[0],
                target: ei.target,
                children: Vec::new(),
                prefix_disjoint: prefix.iter().all(|&p| disjoint(p, edge(level))),
                tail,
            });
        }
        // Children follow their parent, so one back-to-front pass sees every
        // descendant settled first.
        for b in (0..branches.len()).rev() {
            let clear = branches[b]
                .children
                .iter()
                .all(|&c| branches[c].prefix_disjoint);
            branches[b].prefix_disjoint &= clear;
        }
        Some(Self {
            start,
            branches,
            roots,
        })
    }

    /// The count of the frontier entry bound in `row`: the product of the
    /// root branches, or `None` when a root branch's list is empty (the
    /// entry is not served). A reusable root branch is evaluated once per
    /// owner entry (`runs`, keyed by the owner level's `cursor`).
    fn count_entry<'a>(
        &self,
        ctx: ExecContext<'a>,
        cursor: &[Option<usize>],
        runs: &mut [Run<'a>],
        row: &mut Row,
    ) -> Option<u64> {
        let mut n = 1u64;
        for (&r, run) in self.roots.iter().zip(runs.iter_mut()) {
            let br = &self.branches[r];
            let fresh;
            let memo = if br.reusable() {
                let key = cursor[run.level].expect("bind_path memoizes the whole path");
                if run.memo.as_ref().is_none_or(|(k, _)| *k != key) {
                    run.memo = Some((key, self.evaluate(ctx, r, row)));
                }
                &run.memo.as_ref().expect("filled above").1
            } else {
                fresh = self.evaluate(ctx, r, row);
                &fresh
            };
            if matches!(memo, Memo::Empty) {
                return None;
            }
            n = n.saturating_mul(memo.value(ctx, br, row));
            if n == 0 {
                break;
            }
        }
        Some(n)
    }

    /// The product of `branches`' counts, each evaluated afresh, for the
    /// neighbour an inner branch bound in `row`.
    fn product(&self, ctx: ExecContext<'_>, branches: &[usize], row: &mut Row) -> u64 {
        let mut n = 1u64;
        for &c in branches {
            n = n.saturating_mul(
                self.evaluate(ctx, c, row)
                    .value(ctx, &self.branches[c], row),
            );
            if n == 0 {
                break;
            }
        }
        n
    }

    /// Evaluates branch `b` with its owner bound in `row`. A `PROFILE` run
    /// records at the branch's level the list fetched, each label read as a
    /// candidate, and each neighbour an inner branch binds as emitted.
    fn evaluate<'a>(&self, ctx: ExecContext<'a>, b: usize, row: &mut Row) -> Memo<'a> {
        let br = &self.branches[b];
        let stats = ctx.prof_level(br.level);
        if let Some(s) = stats {
            s.record(1, 0, 0);
        }
        let list = fetch_one(ctx, br.ald, row);
        if list.len() == 0 {
            return Memo::Empty;
        }
        if br.children.is_empty() {
            let matching = br.tail.matching(ctx, &list, stats);
            return Memo::Leaf { list, matching };
        }
        let (mut sum, mut visited) = (0u64, 0u64);
        let (edges, nbrs) = list.columns();
        for (&e, &n) in edges.iter().zip(nbrs) {
            let (e, n) = (EdgeId(e), VertexId(n));
            if !br.tail.passes(ctx, n) || (!br.prefix_disjoint && row.uses_edge(e)) {
                continue;
            }
            visited += 1;
            row.bind_vertex(br.target, n);
            sum = sum.saturating_add(self.product(ctx, &br.children, row));
            row.unbind_vertex(br.target);
        }
        if let Some(s) = stats {
            let label_reads = if br.tail.label.is_some() {
                list.len()
            } else {
                0
            };
            s.record(0, label_reads as u64, visited);
        }
        Memo::Count(sum)
    }
}

/// The labels one query edge declares: the edge's own label code, then its
/// source's and its destination's label — each `None` where the query
/// declares none.
type Shape = [Option<u32>; 3];

/// Whether no graph edge can match both shapes: some label they both fix
/// differs (edge labels, or both source labels, or both destination
/// labels).
fn disjoint(a: Shape, b: Shape) -> bool {
    a.iter()
        .zip(&b)
        .any(|pair| matches!(pair, (Some(x), Some(y)) if x != y))
}

/// Every query edge's [`Shape`]. The declared labels hold of every binding,
/// because every operator enforces the declared labels of what it binds:
/// scans, E/I and MULTI-EXTEND targets and var-length targets check vertex
/// labels, and an edge label is either pinned by its list's partition
/// prefix or re-checked as a residual (edge scans check it directly).
fn edge_shapes(query: &QueryGraph) -> Vec<Shape> {
    let vertex = |v: usize| query.vertices[v].label.map(|l| u32::from(l.raw()));
    query
        .edges
        .iter()
        .map(|qe| {
            let label = qe.label.map(|l| u32::from(l.raw()));
            [label, vertex(qe.src), vertex(qe.dst)]
        })
        .collect()
}

/// Runs `plan.ops[ops]` over a seeded block, building every level.
/// Returns `false` as soon as a level comes up empty.
fn apply_ops(
    ctx: ExecContext<'_>,
    plan: &Plan,
    st: &mut Blocks,
    row: &mut Row,
    memo: &mut ListMemo,
    ops: Range<usize>,
) -> bool {
    let start = ops.start;
    plan.ops[ops].iter().enumerate().all(|(i, op)| match op {
        Operator::Filter { preds } => st.filter_top(ctx, preds, start + i, row),
        _ => st.extend(ctx, op, start + i, row, memo),
    })
}

/// Runs the operators after the root scan over a root-seeded block for
/// counting: the operators of the counted suffix — or the last operator,
/// when there is none — are consumed as per-entry multiplicities
/// ([`Blocks::tail_count`]) instead of building their levels.
fn count_ops(
    ctx: ExecContext<'_>,
    plan: &Plan,
    suffix: Option<&Suffix<'_>>,
    st: &mut Blocks,
    row: &mut Row,
    memo: &mut ListMemo,
) -> u64 {
    let last = plan.ops.len() - 1;
    if last == 0 {
        return st.top_len() as u64;
    }
    let built = suffix.map_or(last, |s| s.start);
    if !apply_ops(ctx, plan, st, row, memo, 1..built) {
        return 0;
    }
    match &plan.ops[last] {
        Operator::Filter { preds } => {
            st.filter_top(ctx, preds, last, row);
            st.top_len() as u64
        }
        _ => st.tail_count(ctx, plan, suffix, row, memo),
    }
}

/// Runs the operators after the root scan over a root-seeded block for
/// rows: every level up to the plan's last extension is built whole, and
/// the last extension's level goes to `hand` in parts
/// ([`Blocks::extend_in_parts`]). A plan that extends nothing hands its
/// root block over as one part.
fn build_ops(
    ctx: ExecContext<'_>,
    plan: &Plan,
    mut st: Blocks,
    mut row: Row,
    memo: &mut ListMemo,
    hand: &mut dyn FnMut(Built) -> ControlFlow<()>,
) {
    let last = plan
        .ops
        .iter()
        .rposition(|op| !matches!(op, Operator::Filter { .. }))
        .expect("plans start with a scan");
    if last == 0 {
        if apply_ops(ctx, plan, &mut st, &mut row, memo, 1..plan.ops.len()) {
            let _ = hand(Built { st, row });
        }
        return;
    }
    if apply_ops(ctx, plan, &mut st, &mut row, memo, 1..last) {
        st.extend_in_parts(ctx, plan, last, &mut row, memo, hand);
    }
}

/// One part of a morsel's block with every operator applied, waiting
/// unflattened for its turn in (morsel, part) order: the levels — the
/// lower ones shared with the morsel's other parts — plus the scratch row
/// its flatten rebinds. Built on a pool worker, flattened on the merging
/// thread.
pub(crate) struct Built {
    st: Blocks,
    row: Row,
}

impl Built {
    /// Lazily flattens the last level into [`RawRow`]s, in flat storage
    /// order — which is exactly the depth-first row order. Each step
    /// rebinds only the changed path suffix via the cursor memo. A
    /// `PROFILE` run counts the rows actually pulled across this flatten
    /// boundary (flushed on drop, so early-exited drains report only what
    /// they materialized).
    pub(crate) fn rows<'a>(
        &'a mut self,
        ctx: ExecContext<'a>,
    ) -> impl Iterator<Item = RawRow> + 'a {
        FlattenIter {
            total: self.st.top_len(),
            built: self,
            next: 0,
            profiler: ctx.profiler,
        }
    }
}

/// The iterator of [`Built::rows`].
struct FlattenIter<'a> {
    built: &'a mut Built,
    total: usize,
    next: usize,
    profiler: Option<&'a aplus_obs::QueryProfiler>,
}

impl Iterator for FlattenIter<'_> {
    type Item = RawRow;

    fn next(&mut self) -> Option<RawRow> {
        if self.next >= self.total {
            return None;
        }
        let Built { st, row } = &mut *self.built;
        st.bind_path(row, st.levels.len() - 1, self.next);
        self.next += 1;
        Some((row.vertex_slots().to_vec(), row.edge_slots().to_vec()))
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
/// and consumes it — the one block body. A count takes `suffix`, the plan's
/// counted suffix, without building its levels.
pub(crate) fn root_morsel(
    ctx: ExecContext<'_>,
    query: &QueryGraph,
    plan: &Plan,
    suffix: Option<&Suffix<'_>>,
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
    let mut st = Blocks::seeded(root);
    let mut memo = ListMemo::default();
    match emit {
        Emit::Count(n) => {
            *n = n.saturating_add(count_ops(ctx, plan, suffix, &mut st, &mut row, &mut memo));
        }
        Emit::Parts(hand) => build_ops(ctx, plan, st, row, &mut memo, hand),
    }
}

#[cfg(test)]
mod tests {
    use aplus_common::VertexId;
    use aplus_core::{IndexSpec, PartitionKey, SortKey};
    use aplus_graph::Graph;
    use aplus_runtime::MorselPool;

    use super::Suffix;
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

    fn specs() -> [IndexSpec; 2] {
        [
            IndexSpec::default_primary(),
            IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::NbrLabel])
                .with_sort(vec![SortKey::NbrId]),
        ]
    }

    /// The number of operators `q`'s count takes as one suffix.
    fn suffix_len(db: &Database, q: &str) -> usize {
        let (bound, plan) = db.prepare(q).unwrap();
        Suffix::of(&bound, &plan).map_or(0, |s| s.branches.len())
    }

    #[test]
    fn in_place_tail_counts_match_hand_counts() {
        let pool = MorselPool::sequential();
        for spec in specs() {
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

    /// v0:A, v1:B, v2:B, v3:A. E edges: e0, e1: v0->v1 (a parallel pair),
    /// e3: v1->v3, e6: v2->v3 and e7: v0->v3. F edges: e2: v1->v2, e4:
    /// v1->v1 (a self-loop) and e5: v0->v2.
    fn two_label_graph() -> Graph {
        let mut g = Graph::new();
        for label in ["A", "B", "B", "A"] {
            g.add_vertex(label);
        }
        let edges = [
            (0, 1, "E"),
            (0, 1, "E"),
            (1, 2, "F"),
            (1, 3, "E"),
            (1, 1, "F"),
            (0, 2, "F"),
            (2, 3, "E"),
            (0, 3, "E"),
        ];
        for (s, d, label) in edges {
            g.add_edge(VertexId(s), VertexId(d), label).unwrap();
        }
        g
    }

    /// Suffix counts worked out by hand, with how many operators each
    /// count takes as one suffix and how many entries of the level before
    /// it the suffix serves (those whose root branches all have a list).
    /// b = v1 is reached from a = v0 by two parallel edges. The first four
    /// count every operator after the root scan as one suffix.
    const SUFFIX_CASES: &[(&str, u64, usize, u64)] = &[
        // Tree: b = v1 has two F-neighbours in B (v2, and itself by the
        // self-loop) and one E-neighbour in A (v3): 2 x 1 per r. The root
        // b = v2 has no F-neighbour, so it is not served.
        (
            "MATCH (a:A)-[r:E]->(b:B), (b:B)-[s:F]->(c:B), (b:B)-[t:E]->(d:A)",
            4,
            3,
            1,
        ),
        // Path: c = v2 goes on to v3 by e6, c = v1 by e3: 2 per r. Again
        // b = v2 is not served.
        (
            "MATCH (a:A)-[r:E]->(b:B), (b:B)-[s:F]->(c:B), (c:B)-[t:E]->(d:A)",
            4,
            3,
            1,
        ),
        // Star: a = v0 has two E-neighbours in B (v1 twice), one
        // F-neighbour in B (v2) and one E-neighbour in A (v3). The root
        // a = v3 has no out-edge.
        (
            "MATCH (a:A)-[r:E]->(b:B), (a:A)-[s:F]->(c:B), (a:A)-[t:E]->(d:A)",
            2,
            3,
            1,
        ),
        // An inner branch owned by the pinned root: c = v2 goes on to v3 by
        // e6, once per r.
        (
            "MATCH (a)-[r:E]->(b:B), (a)-[s:F]->(c:B), (c:B)-[t:E]->(d:A) WHERE a.ID = 0",
            2,
            3,
            1,
        ),
        // An inner branch whose list can hold the path edge r: ordered
        // pairs of distinct F-edges out of v1 ({e2, e4}), each continued by
        // one E-edge. Visiting s = r too would count 5. The same-label r
        // and s cannot share a suffix, so the suffix is s and u, and it
        // serves all three F-edges r.
        (
            "MATCH (a)-[r:F]->(b), (a)-[s:F]->(c), (c)-[u:E]->(d)",
            2,
            2,
            3,
        ),
    ];

    #[test]
    fn suffix_counts_match_hand_counts() {
        let pool = MorselPool::sequential();
        for spec in specs() {
            // Same-label siblings may bind one graph edge: no proof, so
            // the suffix is the last operator alone.
            let same_label = Database::with_primary_spec(graph(), spec.clone()).unwrap();
            let q = "MATCH (a)-[r:E]->(b:B), (b:B)-[s:E]->(c:B), (b:B)-[t:E]->(d:B)";
            assert_eq!(suffix_len(&same_label, q), 1, "{q}");
            let db = Database::with_primary_spec(two_label_graph(), spec).unwrap();
            for &(q, want, len, served) in SUFFIX_CASES {
                assert_eq!(suffix_len(&db, q), len, "{q}");
                let (bound, plan) = db.prepare(q).unwrap();
                assert_eq!(
                    db.collect_prepared_parallel(&bound, &plan, usize::MAX, &pool)
                        .len() as u64,
                    want,
                    "{q}"
                );
                let profile = profiled(&plan, |p| {
                    db.run(&bound, &plan, &pool, Some(p), Output::Count)
                });
                assert_eq!(profile.rows, want, "{q}");
                let levels = &profile.levels;
                assert_eq!(levels[levels.len() - 1].emitted, want, "{q}");
                assert_eq!(profile.fc_shortcut_hits, served, "{q}");
            }
        }
    }

    /// A plan whose last extension is followed by a FILTER streams that
    /// extension in parts and filters each part: the rows are the
    /// unfiltered plan's rows that pass, in order, at every pool and limit.
    #[test]
    fn parts_take_the_trailing_filter() {
        use crate::exec::LEVEL_PART_CAP;
        use crate::plan::Operator;
        use crate::query::{QueryOperand, QueryPredicate};
        use aplus_core::CmpOp;
        let mut g = Graph::new();
        let fan = 100u32;
        for _ in 0..=2 * fan {
            g.add_vertex("A");
        }
        for b in 1..=fan {
            g.add_edge(VertexId(0), VertexId(b), "E").unwrap();
            for c in fan + 1..=2 * fan {
                g.add_edge(VertexId(b), VertexId(c), "E").unwrap();
            }
        }
        let db = Database::new(g).unwrap();
        let (bound, plan) = db.prepare("MATCH a-[r]->b-[s]->c WHERE a.ID = 0").unwrap();
        let cut = i64::from(fan + fan / 2);
        let mut filtered = plan.clone();
        filtered.ops.push(Operator::Filter {
            preds: vec![QueryPredicate::new(
                QueryOperand::VertexIdOf(2),
                CmpOp::Lt,
                QueryOperand::Const(cut),
            )],
        });
        let all = db.collect_prepared_parallel(&bound, &plan, usize::MAX, &MorselPool::new(1));
        assert!(all.len() > 2 * LEVEL_PART_CAP);
        let want: Vec<_> = all
            .into_iter()
            .filter(|(v, _)| i64::from(v[2]) < cut)
            .collect();
        for threads in [1, 2, 4] {
            let pool = MorselPool::new(threads);
            for limit in [1, LEVEL_PART_CAP, want.len(), usize::MAX] {
                let got = db.collect_prepared_parallel(&bound, &filtered, limit, &pool);
                assert_eq!(got, want[..limit.min(want.len())], "{threads} {limit}");
            }
        }
    }

    /// A star of eight differently labelled edges off one vertex, each
    /// label on 256 parallel edges: 256^8 = 2^64 matches, one more than
    /// `u64::MAX`. The suffix multiplies that out in milliseconds, and the
    /// count saturates instead of wrapping to 0.
    #[test]
    fn counts_beyond_u64_saturate() {
        let mut g = Graph::new();
        g.add_vertex("A");
        g.add_vertex("A");
        for label in 0..8 {
            for _ in 0..256 {
                g.add_edge(VertexId(0), VertexId(1), &format!("L{label}"))
                    .unwrap();
            }
        }
        let db = Database::new(g).unwrap();
        let star: Vec<String> = (0..8).map(|i| format!("(a)-[r{i}:L{i}]->(b{i})")).collect();
        let q = format!("MATCH {}", star.join(", "));
        assert_eq!(suffix_len(&db, &q), 8);
        let (bound, plan) = db.prepare(&q).unwrap();
        for threads in [1, 2] {
            let pool = MorselPool::new(threads);
            assert_eq!(db.count_prepared_parallel(&bound, &plan, &pool), u64::MAX);
        }
    }
}
