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
//! plan's counted suffix (`plan::Counted`, planned once per prepare): its
//! trailing single-list extensions with no residual whose list hangs off a
//! vertex. They form a forest of branches, and each frontier entry's count
//! is the product of its root branches. A leaf branch is counted **in
//! place**, without binding a single candidate: the entries whose
//! neighbour passes the target label, read in one tight pass over the
//! list's neighbour column (no pass at all when unlabelled), minus the path
//! edges already bound that relationship uniqueness would reject (found by
//! binary search on a neighbour-sorted list). An inner branch sums its
//! children's product over its label-passing neighbours.
//!
//! Every query keeps one memo of owner-only work (`OwnerMemo`), shared by
//! every morsel and worker, with a cell per (slot, owner vertex) whose
//! first write wins. A count's slots are its memoised branches: a leaf's
//! label-passing count whenever its list depends on its owner alone, and
//! an inner branch's count when no path edge can enter it either
//! (`prefix_disjoint`). So each such branch is evaluated once per owner
//! vertex and query — Yannakakis-style counting over the factorized levels
//! — and for a leaf only the subtraction runs per entry. A plan without a
//! suffix counts its last operator's bindings per frontier entry. Counts
//! and rows alike have a slot per `Plan::list_memo` operator, a filtered
//! single list that depends on its owner alone: its cell keeps the owner's
//! entries that pass the operator's checks, so the list is read once per
//! owner vertex and query, and a level holds only bindings that pass. A
//! `PROFILE` run records a cell's own work once, by the write that lands;
//! a hit records nothing.
//!
//! An E/I's list filter (`plan::ListFilter`) is applied to list entries
//! before they are bound. An E/I's *outer* lists (`Plan::outer`:
//! owner-only lists hanging off a vertex bound two or more levels up) are
//! fetched and pre-checked once per run of frontier entries that share
//! their root entry and owner, into the morsel's scratch (`exec::Scratch`,
//! made once per block body, which also holds each call's lists and
//! cursors). The body tells the binding producer each entry's root entry —
//! the root level's cursor once the entry's path is bound — so a list is
//! never carried from one root entry to the next, and what runs does not
//! depend on where the pool cuts the root range.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use aplus_common::{EdgeId, FxHashMap, VertexId};
use aplus_core::Direction;
use aplus_obs::LevelStats;

use crate::exec::{
    fetch_one, op_bindings, root_range_bindings, BoundList, Checked, Emit, ExecContext, Scratch,
    LEVEL_PART_CAP,
};
use crate::plan::{Branch, Counted, Operator, Plan};
use crate::query::{QueryGraph, Row};
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
        let (vertex_vars, edge_vars) = op.bound_vars();
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
    /// transient bindings are unwound before it returns), and built levels
    /// never change, so the invariant is local to this struct.
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

    /// The root entry of the path [`Self::bind_path`] bound last.
    fn root(&self) -> usize {
        self.cursor[0].expect("a path is bound")
    }

    /// Extends the whole top level through the operator at plan-op index
    /// `level` of `plan`, pushing the produced level. Returns `false` when
    /// nothing was produced.
    fn extend<'a>(
        &mut self,
        ctx: ExecContext<'a>,
        plan: &Plan,
        level: usize,
        row: &mut Row,
        scratch: &mut Scratch<'a>,
    ) -> bool {
        let top = self.levels.len() - 1;
        let mut out = Level::for_op(&plan.ops[level]);
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            let root = self.root();
            let _ = op_bindings(ctx, plan, level, root, row, scratch, &mut |r| {
                out.push_from_row(fi, r);
                ControlFlow::Continue(())
            });
        }
        self.push_level(out)
    }

    /// Extends the whole top level through the plan's last operator, at
    /// plan-op index `level`, into parts of at most [`LEVEL_PART_CAP`]
    /// entries. Each part shares this block's levels and goes to `hand` as
    /// soon as it fills — mid frontier entry if need be, since an entry's
    /// bindings come in order. `hand` returning `Break` stops the build.
    fn extend_in_parts<'a>(
        &mut self,
        ctx: ExecContext<'a>,
        plan: &Plan,
        level: usize,
        row: &mut Row,
        scratch: &mut Scratch<'a>,
        hand: &mut dyn FnMut(Built) -> ControlFlow<()>,
    ) {
        let op = &plan.ops[level];
        let lower = self.levels.clone();
        let vars = (row.vertex_slots().len(), row.edge_slots().len());
        let mut flush = |out: Level| {
            hand(Built {
                st: Blocks::part(&lower, out),
                row: Row::unbound(vars.0, vars.1),
            })
        };
        let top = self.levels.len() - 1;
        let mut out = Level::for_op(op);
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            let root = self.root();
            let flow = op_bindings(ctx, plan, level, root, row, scratch, &mut |r| {
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

    /// Counts the matches of the operators the block did not build, **without
    /// building their levels**: per frontier entry, the plan's counted
    /// suffix product, or — when it has none — the bindings the last
    /// operator's producer yields, folded straight into the total.
    fn tail_count<'a>(
        &mut self,
        ctx: ExecContext<'a>,
        plan: &Plan,
        row: &mut Row,
        scratch: &mut Scratch<'a>,
        memo: &OwnerMemo,
    ) -> u64 {
        let top = self.levels.len() - 1;
        let last = plan.ops.len() - 1;
        let stats = ctx.prof_level(last);
        let mut total = 0u64;
        for fi in 0..self.levels[top].len() {
            self.bind_path(row, top, fi);
            let n = match &plan.counted {
                Some(s) => s
                    .product(ctx, memo, &s.roots, row)
                    .map_or(0, |n| served(ctx, stats, n)),
                None => {
                    let mut n = 0u64;
                    let root = self.root();
                    let _ = op_bindings(ctx, plan, last, root, row, scratch, &mut |_| {
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
}

/// Records `n` matches counted in place by a counted suffix as one
/// factorized-count shortcut hit at the last level, and returns `n`.
fn served(ctx: ExecContext<'_>, stats: Option<&LevelStats>, n: u64) -> u64 {
    ctx.note_fc_shortcut();
    if let Some(s) = stats {
        s.record(0, 0, n);
    }
    n
}

/// What a branch contributes for one owner vertex: its count, or `None`
/// when the owner's list is empty (a root branch's entry is then not
/// served).
type Served = Option<u64>;

/// The work one evaluation of a branch did itself, besides its one list
/// fetch: the labels it read and the neighbours an inner branch bound. It
/// is recorded only once it is known that the evaluation's cell write
/// landed.
struct Work {
    label_reads: u64,
    visited: u64,
}

impl Work {
    /// Records the evaluation at `level`: one list, each label read as a
    /// candidate, each bound neighbour as emitted.
    fn record(self, ctx: ExecContext<'_>, level: usize) {
        if let Some(s) = ctx.prof_level(level) {
            s.record(1, self.label_reads, self.visited);
        }
    }
}

/// Counting one suffix branch.
impl Branch {
    /// The entries of `list` whose neighbour passes the target label: the
    /// list length when unlabelled, else one tight pass over the neighbour
    /// column.
    fn matching(&self, ctx: ExecContext<'_>, list: &BoundList<'_>) -> u64 {
        if self.label.is_none() {
            return list.len() as u64;
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
    /// position is subtracted twice. The list is fetched again only when
    /// such an edge is bound, and a `PROFILE` run records that fetch.
    fn already_bound(&self, ctx: ExecContext<'_>, row: &Row) -> u64 {
        let owner = row.vertex(self.owner).expect("plan binds FROM before use");
        let mut list = None;
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
            if side != owner || !self.passes(ctx, nbr) {
                continue;
            }
            let list = list.get_or_insert_with(|| {
                if let Some(s) = ctx.prof_level(self.level) {
                    s.record(1, 0, 0);
                }
                fetch_one(ctx, &self.ald, row)
            });
            n += list.count_entry(e, nbr, self.nbr_sorted);
        }
        n
    }
}

/// One query's memo of owner-only work, shared by every morsel and worker
/// of the query: a cell per (slot, owner vertex), holding what the slot's
/// list yields for that owner. A cell's value is a pure function of its
/// key, so the first write wins; a `PROFILE` run records a cell's work
/// once, by the write that lands, so a profile depends only on the cells a
/// query reaches — the same at every thread count and wherever the pool
/// cuts the root range.
///
/// Its slots are plan data:
///
/// * **Count slots**, one per memoised counted-suffix branch of a count
///   (`Branch::memoised`: a branch whose list depends on its owner alone
///   that is a leaf, whose cell is the label-passing count before any
///   uniqueness subtraction, or an inner branch that is `prefix_disjoint`,
///   whose count then depends on its owner alone — but not one owned by the
///   scanned vertex right after the scan). On a path each memoised
///   (branch, vertex) is evaluated once per query: Yannakakis-style
///   counting. A cell is 0 until written, 1 for an empty list, and `n + 3`
///   for a count `n`; a count within 2 of `u64::MAX` does not fit beside
///   those and is kept in `big`, behind a cell of 2.
/// * **List slots**, one per `Plan::list_memo` operator of any run: the
///   owner's list entries that pass the operator's checks, as edge and
///   neighbour columns (`exec::Checked`). The key holds the slot because
///   two operators may read one vertex's list under different filters. A
///   cell is filled once: its first reader fills it while any racer waits.
///
/// Each slot has a cell per graph vertex, in pages of [`MEMO_PAGE`] cells
/// allocated on their first write, so a page no owner reaches is never
/// allocated (a pinned query allocates a few pages, not a cell per vertex),
/// and a plan with no slot allocates nothing.
pub(crate) struct OwnerMemo {
    counts: Cells<AtomicU64>,
    lists: Cells<OnceLock<Checked>>,
    big: Mutex<FxHashMap<usize, u64>>,
}

/// The cells of a memo's slots of one kind: per slot, the index of its
/// cell for vertex 0 when it keeps cells (each slot's cells start on a page
/// of their own), and the pages, each allocated on its first write.
struct Cells<T> {
    first: Vec<Option<usize>>,
    pages: Box<[OnceLock<Box<[T]>>]>,
}

/// Cells per memo page: 4 KiB of count cells.
const MEMO_PAGE: usize = 512;

const UNSET: u64 = 0;
const EMPTY: u64 = 1;
const BIG: u64 = 2;
const OFFSET: u64 = 3;

impl<T: Default> Cells<T> {
    /// Cells for one slot per `kept` flag that is set, over a graph of
    /// `vertices` vertices.
    fn new(kept: impl Iterator<Item = bool>, vertices: usize) -> Self {
        let stride = vertices.div_ceil(MEMO_PAGE) * MEMO_PAGE;
        let mut cells = 0;
        let first = kept
            .map(|k| {
                k.then(|| {
                    cells += stride;
                    cells - stride
                })
            })
            .collect();
        Self {
            first,
            pages: (0..cells / MEMO_PAGE).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The cell of slot `slot` for owner `v`, when the slot keeps cells.
    fn at(&self, slot: usize, v: VertexId) -> Option<usize> {
        self.first
            .get(slot)
            .copied()
            .flatten()
            .map(|at| at + v.index())
    }

    /// Cell `at`, or `None` while its page is not allocated.
    fn get(&self, at: usize) -> Option<&T> {
        Some(&self.pages[at / MEMO_PAGE].get()?[at % MEMO_PAGE])
    }

    /// Cell `at`, allocating its page on first use.
    fn get_or_alloc(&self, at: usize) -> &T {
        let page = self.pages[at / MEMO_PAGE]
            .get_or_init(|| (0..MEMO_PAGE).map(|_| T::default()).collect());
        &page[at % MEMO_PAGE]
    }
}

impl OwnerMemo {
    /// The memo of one run of `plan` over a graph of `vertices` vertices:
    /// count slots when `counting`, and list slots either way.
    pub(crate) fn new(plan: &Plan, counting: bool, vertices: usize) -> Self {
        let branches = plan.counted.as_ref().filter(|_| counting);
        let counted = branches.into_iter().flat_map(|c| &c.branches);
        Self {
            counts: Cells::new(counted.map(|b| b.memoised), vertices),
            lists: Cells::new(plan.list_memo.iter().map(|_| true), vertices),
            big: Mutex::default(),
        }
    }

    /// The count cell of branch `b` for owner `v`, when `b` is memoised.
    fn cell(&self, b: usize, v: VertexId) -> Option<usize> {
        self.counts.at(b, v)
    }

    /// What count cell `at` holds, or `None` before its first write.
    fn get(&self, at: usize) -> Option<Served> {
        match self.counts.get(at)?.load(Ordering::Acquire) {
            UNSET => None,
            EMPTY => Some(None),
            BIG => Some(Some(self.big_counts()[&at])),
            raw => Some(Some(raw - OFFSET)),
        }
    }

    /// Writes `value` into count cell `at` unless a value landed there
    /// first. Returns whether this write landed.
    fn put(&self, at: usize, value: Served) -> bool {
        let raw = match value {
            None => EMPTY,
            Some(n) if n > u64::MAX - OFFSET => {
                self.big_counts().entry(at).or_insert(n);
                BIG
            }
            Some(n) => n + OFFSET,
        };
        // The release pairs with `get`'s acquire: a reader that sees
        // `BIG` sees its entry in `big` too.
        self.counts
            .get_or_alloc(at)
            .compare_exchange(UNSET, raw, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn big_counts(&self) -> std::sync::MutexGuard<'_, FxHashMap<usize, u64>> {
        self.big.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The checked list of list slot `slot` for owner `v`: its cell's value,
    /// which `fill` computes on the cell's first use. `fill` runs once per
    /// cell and query, so whatever it records is recorded once.
    pub(crate) fn list(
        &self,
        slot: usize,
        v: VertexId,
        fill: impl FnOnce() -> Checked,
    ) -> &Checked {
        let at = self.lists.at(slot, v).expect("every list slot keeps cells");
        self.lists.get_or_alloc(at).get_or_init(fill)
    }
}

/// Counting the suffix.
impl Counted {
    /// The product of `branches`' counts with their owners bound in `row`,
    /// or `None` when one of their lists is empty: for the roots, the
    /// count of the frontier entry bound in `row`, which is then not
    /// served.
    fn product(
        &self,
        ctx: ExecContext<'_>,
        memo: &OwnerMemo,
        branches: &[usize],
        row: &mut Row,
    ) -> Served {
        let mut n = 1u64;
        for &b in branches {
            n = n.saturating_mul(self.value(ctx, memo, b, row)?);
            if n == 0 {
                break;
            }
        }
        Some(n)
    }

    /// What branch `b` contributes with its owner bound in `row`: its
    /// memo cell's value once written, else its evaluation, which a
    /// `PROFILE` run records only when it is the write that landed (or
    /// when `b` is not memoised), so a hit records nothing. A leaf that
    /// is not `prefix_disjoint` then subtracts the path edges bound in
    /// `row` from its cell's count.
    fn value(&self, ctx: ExecContext<'_>, memo: &OwnerMemo, b: usize, row: &mut Row) -> Served {
        let br = &self.branches[b];
        let owner = row.vertex(br.owner).expect("plan binds FROM before use");
        let cell = memo.cell(b, owner);
        let served = match cell.and_then(|at| memo.get(at)) {
            Some(served) => served,
            None => {
                let (served, work) = self.evaluate(ctx, memo, b, row);
                if cell.is_none_or(|at| memo.put(at, served)) {
                    work.record(ctx, br.level);
                }
                served
            }
        };
        if br.children.is_empty() && !br.prefix_disjoint {
            return served.map(|n| n - br.already_bound(ctx, row));
        }
        served
    }

    /// Evaluates branch `b` with its owner bound in `row`: a leaf's
    /// label-passing entries, or an inner branch's sum of its children's
    /// product over its label-passing neighbours (skipping an edge a path
    /// edge holds, unless the branch is `prefix_disjoint`).
    fn evaluate(
        &self,
        ctx: ExecContext<'_>,
        memo: &OwnerMemo,
        b: usize,
        row: &mut Row,
    ) -> (Served, Work) {
        let br = &self.branches[b];
        let list = fetch_one(ctx, &br.ald, row);
        let label_reads = if br.label.is_some() {
            list.len() as u64
        } else {
            0
        };
        let mut work = Work {
            label_reads,
            visited: 0,
        };
        if list.len() == 0 {
            return (None, work);
        }
        if br.children.is_empty() {
            return (Some(br.matching(ctx, &list)), work);
        }
        let mut sum = 0u64;
        let (edges, nbrs) = list.columns();
        for (&e, &n) in edges.iter().zip(nbrs) {
            let (e, n) = (EdgeId(e), VertexId(n));
            if !br.passes(ctx, n) || (!br.prefix_disjoint && row.uses_edge(e)) {
                continue;
            }
            work.visited += 1;
            row.bind_vertex(br.target, n);
            let children = self.product(ctx, memo, &br.children, row);
            sum = sum.saturating_add(children.unwrap_or(0));
            row.unbind_vertex(br.target);
        }
        (Some(sum), work)
    }
}

/// Runs the operators at plan-op indexes `levels` over a seeded block,
/// building every level. Returns `false` as soon as a level comes up
/// empty.
fn apply_ops<'a>(
    ctx: ExecContext<'a>,
    plan: &Plan,
    st: &mut Blocks,
    row: &mut Row,
    scratch: &mut Scratch<'a>,
    mut levels: Range<usize>,
) -> bool {
    levels.all(|level| st.extend(ctx, plan, level, row, scratch))
}

/// Runs the operators after the root scan over a root-seeded block for
/// counting: the operators of the plan's counted suffix — or the last
/// operator, when there is none — are consumed as per-entry multiplicities
/// ([`Blocks::tail_count`]) instead of building their levels.
fn count_ops<'a>(
    ctx: ExecContext<'a>,
    plan: &Plan,
    st: &mut Blocks,
    row: &mut Row,
    scratch: &mut Scratch<'a>,
    memo: &OwnerMemo,
) -> u64 {
    let last = plan.ops.len() - 1;
    if last == 0 {
        return st.top_len() as u64;
    }
    let built = plan.counted.as_ref().map_or(last, |s| s.start);
    if !apply_ops(ctx, plan, st, row, scratch, 1..built) {
        return 0;
    }
    st.tail_count(ctx, plan, row, scratch, memo)
}

/// Runs the operators after the root scan over a root-seeded block for
/// rows: every level up to the plan's last operator is built whole, and
/// the last operator's level goes to `hand` in parts
/// ([`Blocks::extend_in_parts`]). A plan that extends nothing hands its
/// root block over as one part.
fn build_ops<'a>(
    ctx: ExecContext<'a>,
    plan: &Plan,
    mut st: Blocks,
    mut row: Row,
    scratch: &mut Scratch<'a>,
    hand: &mut dyn FnMut(Built) -> ControlFlow<()>,
) {
    let last = plan.ops.len() - 1;
    if last == 0 {
        let _ = hand(Built { st, row });
        return;
    }
    if apply_ops(ctx, plan, &mut st, &mut row, scratch, 1..last) {
        st.extend_in_parts(ctx, plan, last, &mut row, scratch, hand);
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
/// and consumes it — the one block body. A count takes the plan's counted
/// suffix without building its levels. `memo` is the query's one memo.
pub(crate) fn root_morsel<'a>(
    ctx: ExecContext<'a>,
    query: &QueryGraph,
    plan: &Plan,
    range: Range<usize>,
    memo: &'a OwnerMemo,
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
    let mut scratch = Scratch::new(plan, memo);
    match emit {
        Emit::Count(n) => {
            let counted = count_ops(ctx, plan, &mut st, &mut row, &mut scratch, memo);
            *n = n.saturating_add(counted);
        }
        Emit::Parts(hand) => build_ops(ctx, plan, st, row, &mut scratch, hand),
    }
}

#[cfg(test)]
mod tests {
    use aplus_common::VertexId;
    use aplus_core::{IndexSpec, PartitionKey, SortKey};
    use aplus_graph::Graph;
    use aplus_runtime::MorselPool;

    use super::OwnerMemo;
    use crate::exec::Output;
    use crate::plan::Operator;
    use crate::{profiled, Database, QueryError};

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
        let plan = db.prepare(q).unwrap().1;
        plan.counted.map_or(0, |s| s.branches.len())
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

    /// No operator binds a single-hop self-loop, so such a query is refused
    /// (a plan that ran would count 3 and 6 here, not the 2 and 1 self-loop
    /// matches); a variable-length self-loop is verified in check mode.
    #[test]
    fn self_loops_are_refused_and_rings_checked() {
        let db = Database::new(graph()).unwrap();
        for q in ["MATCH a-[e]->a", "MATCH a-[e]->a, a-[f]->b"] {
            assert_eq!(db.count(q), Err(QueryError::SelfLoop("a".into())), "{q}");
        }
        // v1 and v2 reach themselves in one hop, v0 never; from those two
        // the out-edges are {e2, e3} and {e5}.
        for (q, want) in [
            ("MATCH a-[:E*1..2]->a", 2),
            ("MATCH a-[:E*1..2]->a, a-[f:E]->b", 3),
        ] {
            let plan = db.prepare(q).unwrap().1;
            assert!(
                plan.ops
                    .iter()
                    .any(|op| matches!(op, Operator::VarLengthExpand { check: true, .. })),
                "{q}: {plan}"
            );
            assert_eq!(db.count(q).unwrap(), want, "{q}");
        }
    }

    /// A memo cell keeps every count apart from "not written yet" and from
    /// an empty list, a saturated count and the two below it included, and
    /// the first write to a cell wins.
    #[test]
    fn memo_cells_keep_counts_apart_from_unset_and_empty() {
        let db = Database::new(graph()).unwrap();
        // The leaf c hangs off b, which repeats across frontier entries.
        let plan = db.prepare("MATCH a-[r]->b, b-[s]->c").unwrap().1;
        let values = [Some(0), Some(1), Some(u64::MAX - 1), Some(u64::MAX), None];
        let memo = OwnerMemo::new(&plan, true, values.len());
        for (v, &value) in values.iter().enumerate() {
            let at = memo
                .cell(0, VertexId(v as u32))
                .expect("a leaf is memoised");
            assert_eq!(memo.get(at), None, "{value:?}");
            assert!(memo.put(at, value), "{value:?}");
            assert_eq!(memo.get(at), Some(value));
            assert!(!memo.put(at, Some(7)), "{value:?}");
            assert_eq!(memo.get(at), Some(value));
        }
        // Rows runs keep no count cell, and a plan without a counted suffix
        // or a list slot allocates nothing.
        assert_eq!(OwnerMemo::new(&plan, false, 3).cell(0, VertexId(0)), None);
        let plan = db.prepare("MATCH a-[r:E]->b-[s:E]->c-[t:E]->a").unwrap().1;
        let memo = OwnerMemo::new(&plan, true, 3);
        assert_eq!(memo.cell(0, VertexId(0)), None);
        assert!(memo.counts.pages.is_empty() && memo.lists.pages.is_empty());
    }

    /// SQ5 is three leaves off the scanned vertex, so its count keeps no
    /// memo cell and allocates no page: each cell would be written once
    /// and never read. SQ6's chain memoises every branch below its root.
    #[test]
    fn root_branches_off_the_scanned_vertex_allocate_no_memo_page() {
        use aplus_datagen::{generate, GeneratorConfig};
        let sq = |name: &str| {
            include_str!("../../../benchmark/queries/primary_count.txt")
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .unwrap()
        };
        let graph = generate(&GeneratorConfig::social(2_000, 78_000, 8, 2).with_seed(2));
        let vertices = graph.vertex_count();
        let db = Database::new(graph).unwrap();
        let pool = MorselPool::sequential();
        for (name, memoised) in [("SQ5", 0), ("SQ6", 3)] {
            let (bound, plan) = db.prepare(sq(name)).unwrap();
            let counted = plan.counted.as_ref().expect("a counted suffix");
            let cells = counted.branches.iter().filter(|b| b.memoised).count();
            assert_eq!(cells, memoised, "{name}");
            let memo = OwnerMemo::new(&plan, true, vertices);
            assert_eq!(memo.counts.pages.is_empty(), memoised == 0, "{name}");
            // The count is the same with or without cells.
            let flat = db.collect_prepared_parallel(&bound, &plan, usize::MAX, &pool);
            assert_eq!(
                db.count_prepared_parallel(&bound, &plan, &pool),
                flat.len() as u64,
                "{name}"
            );
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
