//! Physical plans.
//!
//! A plan is a pipeline of operators, each binding more query variables:
//!
//! * [`Operator::ScanVertices`] — binds the first query vertex.
//! * [`Operator::ScanEdges`] — binds a query edge and both endpoints (used
//!   by edge-anchored queries such as Example 7's `r1.eID = t13`).
//! * [`Operator::ExtendIntersect`] — E/I (§IV-A): binds one query vertex by
//!   intersecting `z ≥ 1` adjacency lists sorted on neighbour IDs; this is
//!   the WCOJ building block.
//! * [`Operator::MultiExtend`] — binds one *or more* query vertices by
//!   intersecting lists sorted on a property (e.g. `vnbr.city`), emitting
//!   all combinations per equal-property group.
//! * [`Operator::VarLengthExpand`] — binds a query vertex by a BFS over
//!   matching edges, or checks the distance between two bound ones.
//!
//! The optimizer places every predicate on the operator whose bindings
//! complete it (a scan's `preds`, an extension's list filter or
//! `residual`), so a plan is exactly what runs: no operator only filters.
//!
//! Each adjacency-list access is described by an [`Ald`] (adjacency list
//! descriptor): which index, from which bound variable, restricted to which
//! partition-code prefix, with an optional sorted-prefix [`Prune`]. The
//! conjuncts of an E/I's predicates that read only a list entry — its edge
//! and its neighbour — against constants form the operator's
//! [`ListFilter`], applied to the list's columns before anything is bound.
//!
//! A plan also carries what its executor would otherwise derive per run,
//! derived once when the plan is made: what a count may take without
//! building levels, its counted suffix (`Counted`), and how the E/I lists
//! that depend on their owner alone are read — once per owner run, its
//! *outer* lists (`Plan::outer`), or once per owner vertex and query, a
//! filtered single list (`Plan::list_memo`). The per-query memo keeps a
//! cell only where owners repeat across root entries: a list owned by the
//! root vertex scan's variable never gets one (`scanned_owner`).

use std::fmt;

use aplus_common::{EdgeLabelId, PropertyId, VertexLabelId};
use aplus_core::{CmpOp, Direction, SortKey};

use crate::query::{QueryGraph, QueryOperand, QueryPredicate};

/// Which index an ALD reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexChoice {
    /// The primary A+ index in a direction.
    Primary(Direction),
    /// A secondary vertex-partitioned index.
    VertexIdx {
        /// Index name in the store.
        name: String,
        /// Direction of the physical index.
        direction: Direction,
    },
    /// A secondary edge-partitioned index.
    EdgeIdx {
        /// Index name in the store.
        name: String,
    },
}

impl IndexChoice {
    /// Short label for plan rendering.
    fn label(&self) -> String {
        match self {
            Self::Primary(Direction::Fwd) => "primary:fwd".into(),
            Self::Primary(Direction::Bwd) => "primary:bwd".into(),
            Self::VertexIdx { name, direction } => match direction {
                Direction::Fwd => format!("{name}:fwd"),
                Direction::Bwd => format!("{name}:bwd"),
            },
            Self::EdgeIdx { name } => format!("{name}:ep"),
        }
    }
}

/// The variable an ALD hangs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FromRef {
    /// A bound query vertex (vertex-partitioned access).
    Vertex(usize),
    /// A bound query edge (edge-partitioned access).
    BoundEdge(usize),
}

/// Where a prune comparison value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneValue {
    /// A plan-time constant (`time < α`).
    Const(i64),
    /// A bound query vertex's property, resolved per input tuple
    /// (`a2.city = a1.city` with `a1` bound — MF2's city chain).
    VertexProp(usize, aplus_common::PropertyId),
    /// A bound query edge's property, resolved per input tuple.
    EdgeProp(usize, aplus_common::PropertyId),
}

/// A restriction applied to the leading sort key of a sorted list via
/// binary search (e.g. `time < α` on a time-sorted list, or pinning the
/// neighbour-label run in a `[NbrLabel, NbrId]`-sorted list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prune {
    /// Restriction operator (Eq / Lt / Le / Gt / Ge).
    pub op: CmpOp,
    /// Value compared against the leading sort-key value.
    pub value: PruneValue,
}

/// An adjacency list descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ald {
    /// The bound variable the list hangs off.
    pub from: FromRef,
    /// Which index to read.
    pub index: IndexChoice,
    /// Partition codes fixed at plan time (e.g. edge label, currency).
    pub prefix: Vec<u32>,
    /// The query edge this list matches; entries bind it.
    pub edge_var: usize,
    /// Sort criteria of the innermost lists as seen by this access
    /// (after any `prune` on the leading key, the *remaining* keys order
    /// the pruned run).
    pub sort: Vec<SortKey>,
    /// Optional leading-key restriction.
    pub prune: Option<Prune>,
    /// Whether the selected range is *globally* ordered by `sort`: the
    /// prefix pins at most one non-empty innermost slot. Multi-slot ranges
    /// are only per-slot sorted; the executor materializes and sorts them
    /// when a sorted access is required.
    pub sorted_range: bool,
}

impl Ald {
    /// The effective sort after the prune: an `Eq` prune fixes the leading
    /// key, so the remaining keys order the run.
    #[must_use]
    pub fn effective_sort(&self) -> &[SortKey] {
        if matches!(self.prune, Some(Prune { op: CmpOp::Eq, .. })) && !self.sort.is_empty() {
            &self.sort[1..]
        } else {
            &self.sort
        }
    }

    /// Whether the list depends on its owner vertex alone: it hangs off a
    /// vertex, and its prune, if any, compares with a constant. Then every
    /// frontier entry with the same owner reads the same list.
    #[must_use]
    pub fn per_owner(&self) -> bool {
        matches!(self.from, FromRef::Vertex(_))
            && matches!(
                self.prune,
                None | Some(Prune {
                    value: PruneValue::Const(_),
                    ..
                })
            )
    }

    /// Whether entries come out ordered by neighbour ID (E/I requirement).
    /// True when the effective sort is empty (tiebreaks are `(nbr, edge)`)
    /// or leads with [`SortKey::NbrId`].
    #[must_use]
    pub fn nbr_sorted(&self) -> bool {
        let s = self.effective_sort();
        s.is_empty() || s[0] == SortKey::NbrId
    }

    fn render(&self) -> String {
        let from = match self.from {
            FromRef::Vertex(v) => format!("v{v}"),
            FromRef::BoundEdge(e) => format!("e{e}"),
        };
        let mut s = format!("{from}→{}", self.index.label());
        if !self.prefix.is_empty() {
            s.push_str(&format!("{:?}", self.prefix));
        }
        if let Some(p) = self.prune {
            s.push_str(&format!(" prune({:?} {:?})", p.op, p.value));
        }
        s
    }
}

/// One list-filter conjunct: the value read at `at` compared with a
/// constant, `value(at) op value`. A NULL (missing) value passes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Test<A> {
    /// What the conjunct reads.
    pub at: A,
    /// Comparison operator.
    pub op: CmpOp,
    /// The constant compared against.
    pub value: i64,
}

/// The conjuncts of an E/I's predicates that read only a list entry — the
/// edge a list binds and its neighbour, the operator's target — against
/// constants, grouped by what they read. The executor applies them to the
/// list's columns before an entry is bound; the operator's `residual` keeps
/// every other conjunct. An empty filter leaves the executor's loops as they
/// are without one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ListFilter {
    /// `edge.prop op c`, with `at` = (the query edge, the property).
    pub edge_props: Vec<Test<(usize, PropertyId)>>,
    /// `edge.label op c` on the label code, with `at` = the query edge (a
    /// label the list's partition does not enforce).
    pub edge_labels: Vec<Test<usize>>,
    /// `target.prop op c`.
    pub target_props: Vec<Test<PropertyId>>,
    /// `target.ID op c`.
    pub target_ids: Vec<Test<()>>,
}

impl ListFilter {
    /// Whether the filter holds no conjunct.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of conjuncts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edge_props.len()
            + self.edge_labels.len()
            + self.target_props.len()
            + self.target_ids.len()
    }

    /// Splits `preds`, the predicates an E/I binding `target` through lists
    /// binding `edges` evaluates, into the conjuncts that read one of them
    /// against a constant (the filter) and the rest (the residual).
    #[must_use]
    pub fn split(
        preds: Vec<QueryPredicate>,
        target: usize,
        edges: &[usize],
    ) -> (Self, Vec<QueryPredicate>) {
        let mut filter = Self::default();
        let residual = preds
            .into_iter()
            .filter(|p| !filter.take(p, target, edges))
            .collect();
        (filter, residual)
    }

    /// Adds `p` as a conjunct if it compares an entry read with a constant;
    /// returns whether it did. `c op x` is taken as `x flip(op) c`; an
    /// additive constant is folded into the constant side exactly as
    /// [`QueryPredicate::eval`] applies it (saturating, on the right).
    fn take(&mut self, p: &QueryPredicate, target: usize, edges: &[usize]) -> bool {
        let (read, op, value) = match (p.lhs, p.rhs) {
            (x, QueryOperand::Const(c)) => (x, p.op, c.saturating_add(p.rhs_add)),
            (QueryOperand::Const(c), x) if p.rhs_add == 0 => (x, p.op.flip(), c),
            _ => return false,
        };
        match read {
            QueryOperand::EdgeProp(e, pid) if edges.contains(&e) => {
                self.edge_props.push(Test {
                    at: (e, pid),
                    op,
                    value,
                });
            }
            QueryOperand::EdgeLabelOf(e) if edges.contains(&e) => {
                self.edge_labels.push(Test { at: e, op, value });
            }
            QueryOperand::VertexProp(v, pid) if v == target => {
                self.target_props.push(Test { at: pid, op, value });
            }
            QueryOperand::VertexIdOf(v) if v == target => {
                self.target_ids.push(Test { at: (), op, value });
            }
            _ => return false,
        }
        true
    }
}

/// One plan operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// Binds `var` by scanning vertices.
    ScanVertices {
        /// Target query vertex.
        var: usize,
        /// Required label.
        label: Option<VertexLabelId>,
        /// Predicates evaluable with only `var` bound.
        preds: Vec<QueryPredicate>,
    },
    /// Binds `edge_var` + both endpoints by scanning edges (edge-anchored
    /// queries).
    ScanEdges {
        /// Target query edge.
        edge_var: usize,
        /// Source query vertex of that edge.
        src_var: usize,
        /// Destination query vertex of that edge.
        dst_var: usize,
        /// Required edge label.
        label: Option<EdgeLabelId>,
        /// Required label of the source vertex.
        src_label: Option<VertexLabelId>,
        /// Required label of the destination vertex.
        dst_label: Option<VertexLabelId>,
        /// Predicates evaluable after this binding.
        preds: Vec<QueryPredicate>,
    },
    /// E/I: binds `target` by intersecting the ALDs on neighbour IDs.
    ExtendIntersect {
        /// Target query vertex.
        target: usize,
        /// Required label of the target vertex (always re-checked at bind
        /// time, even when a partition prefix already pins it).
        target_label: Option<VertexLabelId>,
        /// Adjacency lists to intersect (one per connecting query edge).
        alds: Vec<Ald>,
        /// Conjuncts applied to list entries before they are bound.
        filter: ListFilter,
        /// Residual predicates evaluated per produced match.
        residual: Vec<QueryPredicate>,
    },
    /// MULTI-EXTEND: binds several query vertices by intersecting
    /// property-sorted lists on their leading sort-key value.
    MultiExtend {
        /// `(target query vertex, required label, its list)` triples.
        targets: Vec<(usize, Option<VertexLabelId>, Ald)>,
        /// Residual predicates evaluated per produced match.
        residual: Vec<QueryPredicate>,
    },
    /// Variable-length expand (`-[:L*min..max]->`): binds `target` to
    /// every vertex whose shortest directed walk (length ≥ 1) from the
    /// bound `src` via matching edges lies within `min..=max`. In check
    /// mode (both endpoints already bound) it verifies that distance
    /// instead of binding. The edge variable, if any, binds no edge.
    VarLengthExpand {
        /// Bound query vertex the traversal starts from (the pattern's
        /// source when `dir` is forward, its destination when backward).
        src: usize,
        /// Query vertex bound by the expansion (ignored as a target in
        /// check mode — it is already bound).
        target: usize,
        /// Required label of the target vertex, re-checked per emission.
        target_label: Option<VertexLabelId>,
        /// Required label of every traversed edge.
        edge_label: Option<EdgeLabelId>,
        /// Which primary-index direction the traversal follows.
        dir: Direction,
        /// Partition-code prefix selecting the edge-label run of the
        /// primary index, when its leading partition key covers it.
        prefix: Vec<u32>,
        /// Whether `prefix` already enforces `edge_label`; when false and
        /// a label is required, the executor filters traversed edges.
        label_enforced: bool,
        /// Minimum hops (≥ 1).
        min: u32,
        /// Maximum hops (≤ the hop cap).
        max: u32,
        /// Check mode: verify the distance between two bound vertices.
        check: bool,
        /// Residual predicates evaluated per produced match.
        residual: Vec<QueryPredicate>,
    },
}

impl Operator {
    /// The query vertices and the query edges this operator binds, in the
    /// order its level stores them. A check-mode var-length expansion binds
    /// no vertex, and a var-length expansion binds no edge.
    pub(crate) fn bound_vars(&self) -> (Vec<usize>, Vec<usize>) {
        match self {
            Self::ScanVertices { var, .. } => (vec![*var], vec![]),
            Self::ScanEdges {
                edge_var,
                src_var,
                dst_var,
                ..
            } => (vec![*src_var, *dst_var], vec![*edge_var]),
            Self::ExtendIntersect { target, alds, .. } => {
                (vec![*target], alds.iter().map(|a| a.edge_var).collect())
            }
            Self::MultiExtend { targets, .. } => {
                targets.iter().map(|(v, _, ald)| (*v, ald.edge_var)).unzip()
            }
            Self::VarLengthExpand { target, check, .. } => {
                (if *check { vec![] } else { vec![*target] }, vec![])
            }
        }
    }
}

/// A complete physical plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Operators in pipeline order.
    pub ops: Vec<Operator>,
    /// Estimated i-cost (total adjacency-list entries accessed).
    pub est_cost: f64,
    /// The operators a count takes without building their levels, derived
    /// from `ops` when the plan is made; `None` when the last operator is
    /// not a [`Branch`].
    pub(crate) counted: Option<Counted>,
    /// The *outer* E/I lists, as `(plan-op index, list index)` pairs in
    /// plan order: lists that depend on their owner alone
    /// ([`Ald::per_owner`]) and whose owner an operator at least two before
    /// theirs binds. Frontier entries come in parent order, so consecutive
    /// entries under one root share such an owner, and the executor reads
    /// the list once per run of them. A pair's position is its slot in the
    /// executor's per-morsel scratch.
    pub(crate) outer: Vec<(usize, usize)>,
    /// The plan-op indexes, ascending, of the single-list E/Is whose list
    /// depends on its owner alone and has a [`ListFilter`], and whose owner
    /// is not the root vertex scan's variable: the executor keeps such a
    /// list's checked entries once per owner vertex and query, in the
    /// query's memo (`block::OwnerMemo`), so none of them is outer. A
    /// position here is the operator's list slot in that memo.
    pub(crate) list_memo: Vec<usize>,
}

impl Plan {
    /// A plan running `ops` for `query`, with its counted suffix and how it
    /// reads its owner-only lists.
    pub(crate) fn new(query: &QueryGraph, ops: Vec<Operator>, est_cost: f64) -> Self {
        let (outer, list_memo) = list_reads(&ops);
        Self {
            counted: Counted::of(query, &ops),
            outer,
            list_memo,
            ops,
            est_cost,
        }
    }

    /// The outer lists of the operator at plan-op index `depth`, and the
    /// slot of the first of them.
    pub(crate) fn outer_at(&self, depth: usize) -> (usize, &[(usize, usize)]) {
        let from = self.outer.partition_point(|&(d, _)| d < depth);
        let to = from + self.outer[from..].partition_point(|&(d, _)| d == depth);
        (from, &self.outer[from..to])
    }

    /// Whether any operator is a MULTI-EXTEND (used by plan-shape tests).
    #[must_use]
    pub fn uses_multi_extend(&self) -> bool {
        self.ops
            .iter()
            .any(|o| matches!(o, Operator::MultiExtend { .. }))
    }

    /// Whether any ALD reads an edge-partitioned index.
    #[must_use]
    pub fn uses_edge_partitioned_index(&self) -> bool {
        self.all_alds()
            .any(|a| matches!(a.index, IndexChoice::EdgeIdx { .. }))
    }

    /// Whether any ALD reads the named secondary index.
    #[must_use]
    pub fn uses_index(&self, name: &str) -> bool {
        self.all_alds().any(|a| match &a.index {
            IndexChoice::VertexIdx { name: n, .. } | IndexChoice::EdgeIdx { name: n } => n == name,
            IndexChoice::Primary(_) => false,
        })
    }

    /// One-line description per operator (the per-op lines of the plan's
    /// [`fmt::Display`] rendering, without indentation). `PROFILE` labels
    /// its per-level statistics with these.
    #[must_use]
    pub fn op_descriptions(&self) -> Vec<String> {
        (0..self.ops.len())
            .map(|d| self.op_description(d))
            .collect()
    }

    /// The line describing the operator at plan-op index `depth`.
    fn op_description(&self, depth: usize) -> String {
        op_description(&self.ops[depth], self.outer_at(depth).1)
    }

    fn all_alds(&self) -> impl Iterator<Item = &Ald> {
        self.ops
            .iter()
            .flat_map(|o| -> Box<dyn Iterator<Item = &Ald>> {
                match o {
                    Operator::ExtendIntersect { alds, .. } => Box::new(alds.iter()),
                    Operator::MultiExtend { targets, .. } => {
                        Box::new(targets.iter().map(|(_, _, a)| a))
                    }
                    _ => Box::new(std::iter::empty()),
                }
            })
    }
}

/// One line for `op`, whose outer lists are `outer` (each marked `outer`).
fn op_description(op: &Operator, outer: &[(usize, usize)]) -> String {
    match op {
        Operator::ScanVertices { var, label, preds } => {
            let mut s = format!("Scan v{var}");
            if let Some(l) = label {
                s.push_str(&format!(" label={l}"));
            }
            if !preds.is_empty() {
                s.push_str(&format!(" preds={}", preds.len()));
            }
            s
        }
        Operator::ScanEdges {
            edge_var,
            src_var,
            dst_var,
            ..
        } => format!("ScanEdges e{edge_var} (v{src_var}→v{dst_var})"),
        Operator::ExtendIntersect {
            target,
            alds,
            filter,
            residual,
            ..
        } => {
            let lists: Vec<String> = alds
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let mut s = a.render();
                    if outer.iter().any(|&(_, o)| o == i) {
                        s.push_str(" outer");
                    }
                    s
                })
                .collect();
            let mut s = format!("E/I v{target} ⋂[{}]", lists.join(" ∩ "));
            if !filter.is_empty() {
                s.push_str(&format!(" list-filter={}", filter.len()));
            }
            if !residual.is_empty() {
                s.push_str(&format!(" filter={}", residual.len()));
            }
            s
        }
        Operator::MultiExtend { targets, residual } => {
            let lists: Vec<String> = targets
                .iter()
                .map(|(v, _, a)| format!("v{v}:{}", a.render()))
                .collect();
            let mut s = format!("Multi-Extend [{}]", lists.join(" ∩ "));
            if !residual.is_empty() {
                s.push_str(&format!(" filter={}", residual.len()));
            }
            s
        }
        Operator::VarLengthExpand {
            src,
            target,
            edge_label,
            dir,
            min,
            max,
            check,
            residual,
            ..
        } => {
            let arrow = match dir {
                Direction::Fwd => format!("v{src}-[*{min}..{max}]->v{target}"),
                Direction::Bwd => format!("v{src}<-[*{min}..{max}]-v{target}"),
            };
            let mut s = format!("VarLength {arrow} bfs");
            if let Some(l) = edge_label {
                s.push_str(&format!(" label={l}"));
            }
            if *check {
                s.push_str(" check");
            }
            if !residual.is_empty() {
                s.push_str(&format!(" filter={}", residual.len()));
            }
            s
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Plan (est i-cost {:.1}):", self.est_cost)?;
        for depth in 0..self.ops.len() {
            writeln!(f, "  {}", self.op_description(depth))?;
        }
        Ok(())
    }
}

/// The outer lists of `ops` and the operators whose list the query's memo
/// keeps (see [`Plan::outer`] and [`Plan::list_memo`]). Every query vertex
/// is bound by one operator before any list hangs off it, so an owner the
/// operator just before the list's does not bind was bound two or more
/// operators before. A filtered list owned by the scanned vertex is not
/// memoised ([`scanned_owner`]): two or more levels down it is outer, read
/// once per root entry, and right after the scan each entry reads its own.
fn list_reads(ops: &[Operator]) -> (Vec<(usize, usize)>, Vec<usize>) {
    let (mut outer, mut list_memo) = (Vec::new(), Vec::new());
    for (depth, op) in ops.iter().enumerate().skip(1) {
        let Operator::ExtendIntersect { alds, filter, .. } = op else {
            continue;
        };
        if let [ald @ Ald {
            from: FromRef::Vertex(owner),
            ..
        }] = alds.as_slice()
        {
            if !filter.is_empty() && ald.per_owner() && !scanned_owner(ops, *owner) {
                list_memo.push(depth);
                continue;
            }
        }
        for (i, ald) in alds.iter().enumerate() {
            if let FromRef::Vertex(owner) = ald.from {
                if ald.per_owner() && !ops[depth - 1].bound_vars().0.contains(&owner) {
                    outer.push((depth, i));
                }
            }
        }
    }
    (outer, list_memo)
}

/// Whether `owner` is the variable of `ops`' root vertex scan. Each root
/// entry binds it to a vertex of its own, so a per-query memo cell of a
/// list it owns is only ever read under the root entry that filled it:
/// right after the scan, never.
fn scanned_owner(ops: &[Operator], owner: usize) -> bool {
    matches!(ops[0], Operator::ScanVertices { var, .. } if var == owner)
}

/// The operators a count takes **without building their levels**: the
/// longest plan suffix of [`Branch`]es whose prune is absent or constant,
/// after the root scan — else the last operator alone, if it is a
/// [`Branch`] with any prune. A suffix operator reads only its owner, so
/// the suffix is a forest: a *root* branch hangs off a vertex bound before
/// the suffix, any other off the target of an earlier suffix operator. The
/// block engine counts each frontier entry as the product of its root
/// branches, binding no suffix edge.
///
/// Multiplying is exact only if no two suffix edges can bind the same graph
/// edge, which [`Counted::of`] proves from the labels the query declares
/// and every operator enforces (see [`edge_shapes`] and [`disjoint`]).
/// Where the proof fails, the suffix shrinks to the longest tail it holds
/// for, down to the last operator alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Counted {
    /// The plan-op index of the first suffix operator; every earlier
    /// operator builds a level.
    pub(crate) start: usize,
    /// One per operator of the suffix, in plan order.
    pub(crate) branches: Vec<Branch>,
    /// The branches hanging off a vertex bound before the suffix.
    pub(crate) roots: Vec<usize>,
}

/// One counted-suffix operator: a single-list E/I with no residual and no
/// list filter whose list hangs off a bound vertex (a primary or
/// vertex-partitioned list), so that its count needs no binding.
/// Edge-partitioned lists hang off an edge, not a vertex, and always
/// iterate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Branch {
    /// Its plan-op index, which is also its `PROFILE` level.
    pub(crate) level: usize,
    /// The list it reads.
    pub(crate) ald: Ald,
    /// The query vertex whose list this is.
    pub(crate) owner: usize,
    /// The direction of the list's index.
    pub(crate) dir: Direction,
    /// The E/I's target label check, if any.
    pub(crate) label: Option<VertexLabelId>,
    /// Whether the fetched range is ordered by neighbour ID, so a bound
    /// edge is found by binary search rather than by a scan.
    pub(crate) nbr_sorted: bool,
    /// Whether the list depends on its owner alone (no prune, or a
    /// constant one), so every entry with the same owner vertex shares it.
    pub(crate) per_owner: bool,
    /// The vertex it binds, transiently, for its children.
    pub(crate) target: usize,
    /// The branches hanging off `target`.
    pub(crate) children: Vec<usize>,
    /// Whether no path edge bound before the suffix can be its edge or a
    /// descendant's: then its count depends on its owner alone, and no
    /// uniqueness check or subtraction is needed under it.
    pub(crate) prefix_disjoint: bool,
    /// Whether a count keeps a memo cell per owner vertex for it: its list
    /// depends on its owner alone, and it is a leaf or `prefix_disjoint`
    /// (then its count does too) — unless the suffix starts right after a
    /// vertex scan and the branch is owned by the scan's variable, whose
    /// owners are distinct per frontier entry, so no cell would be read.
    pub(crate) memoised: bool,
}

impl Branch {
    /// `op`, at plan-op index `level`, as a branch with no children, or
    /// `None` when it is not one.
    fn of(level: usize, op: &Operator) -> Option<Self> {
        let Operator::ExtendIntersect {
            target,
            target_label,
            alds,
            filter,
            residual,
        } = op
        else {
            return None;
        };
        let [ald] = alds.as_slice() else { return None };
        if !residual.is_empty() || !filter.is_empty() {
            return None;
        }
        let dir = match &ald.index {
            IndexChoice::Primary(d) => *d,
            IndexChoice::VertexIdx { direction, .. } => *direction,
            IndexChoice::EdgeIdx { .. } => return None,
        };
        let FromRef::Vertex(owner) = ald.from else {
            return None;
        };
        Some(Self {
            level,
            ald: ald.clone(),
            owner,
            dir,
            label: *target_label,
            nbr_sorted: ald.nbr_sorted() && ald.sorted_range,
            per_owner: ald.per_owner(),
            target: *target,
            children: Vec::new(),
            prefix_disjoint: true,
            memoised: false,
        })
    }
}

impl Counted {
    /// The counted suffix of `ops`, a plan for `query`, or `None` when its
    /// last operator is not a [`Branch`].
    fn of(query: &QueryGraph, ops: &[Operator]) -> Option<Self> {
        let last = ops.len() - 1;
        let mut branches = vec![Branch::of(last, &ops[last])?];
        if branches[0].per_owner {
            for level in (1..last).rev() {
                match Branch::of(level, &ops[level]) {
                    Some(b) if b.per_owner => branches.insert(0, b),
                    _ => break,
                }
            }
        }
        let shapes = edge_shapes(query);
        let shape = |b: &Branch| shapes[b.ald.edge_var];
        // The longest such tail whose edges are pairwise disjoint.
        while !branches.iter().enumerate().all(|(i, a)| {
            branches[i + 1..]
                .iter()
                .all(|b| disjoint(shape(a), shape(b)))
        }) {
            branches.remove(0);
        }
        let start = branches[0].level;
        let prefix: Vec<Shape> = ops[..start]
            .iter()
            .flat_map(|op| op.bound_vars().1)
            .map(|e| shapes[e])
            .collect();
        let mut roots = Vec::new();
        for b in 0..branches.len() {
            match branches[..b]
                .iter()
                .position(|p| p.target == branches[b].owner)
            {
                Some(p) => branches[p].children.push(b),
                None => roots.push(b),
            }
            let own = shape(&branches[b]);
            branches[b].prefix_disjoint = prefix.iter().all(|&p| disjoint(p, own));
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
        // Right after a vertex scan, a branch owned by the scan's variable
        // (a root branch) would write each of its cells once and never read
        // one.
        for br in &mut branches {
            br.memoised = br.per_owner
                && (br.children.is_empty() || br.prefix_disjoint)
                && !(start == 1 && scanned_owner(ops, br.owner));
        }
        Some(Self {
            start,
            branches,
            roots,
        })
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
/// prefix or re-checked per entry — in an E/I's list filter, a
/// MULTI-EXTEND's residual — and edge scans check it directly.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ald(nbr_sorted: bool) -> Ald {
        Ald {
            from: FromRef::Vertex(0),
            index: IndexChoice::Primary(Direction::Fwd),
            prefix: vec![],
            edge_var: 0,
            sort: if nbr_sorted {
                vec![SortKey::NbrId]
            } else {
                vec![SortKey::NbrLabel, SortKey::NbrId]
            },
            prune: None,
            sorted_range: true,
        }
    }

    #[test]
    fn effective_sort_after_eq_prune() {
        let mut a = ald(false);
        assert!(!a.nbr_sorted());
        a.prune = Some(Prune {
            op: CmpOp::Eq,
            value: PruneValue::Const(2),
        });
        // Pinning the NbrLabel run leaves NbrId ordering.
        assert!(a.nbr_sorted());
    }

    #[test]
    fn range_prune_does_not_change_sort() {
        let mut a = ald(false);
        a.prune = Some(Prune {
            op: CmpOp::Lt,
            value: PruneValue::Const(2),
        });
        assert!(!a.nbr_sorted());
    }

    #[test]
    fn list_filter_takes_entry_conjuncts_against_constants() {
        use aplus_common::PropertyId;
        use QueryOperand::{Const, EdgeLabelOf, EdgeProp, VertexIdOf, VertexProp};
        let p = |lhs, op, rhs, rhs_add| QueryPredicate {
            lhs,
            op,
            rhs,
            rhs_add,
        };
        let (time, acc) = (PropertyId(0), PropertyId(1));
        // Target 2, new edge 1; vertex 0 and edge 0 were bound before.
        let preds = vec![
            p(EdgeProp(1, time), CmpOp::Lt, Const(50), 0),
            p(Const(7), CmpOp::Lt, VertexProp(2, acc), 0),
            p(VertexIdOf(2), CmpOp::Ge, Const(i64::MAX), 1),
            p(EdgeLabelOf(1), CmpOp::Eq, Const(3), 0),
            // Residual: a bound variable, two entry reads, and a constant
            // on the left with an additive constant on the right.
            p(EdgeProp(0, time), CmpOp::Lt, Const(50), 0),
            p(VertexProp(0, acc), CmpOp::Eq, VertexProp(2, acc), 0),
            p(EdgeProp(1, time), CmpOp::Lt, VertexProp(2, acc), 0),
            p(Const(7), CmpOp::Lt, VertexProp(2, acc), 1),
        ];
        let (filter, residual) = ListFilter::split(preds.clone(), 2, &[1]);
        assert_eq!(residual, preds[4..]);
        assert_eq!(filter.len(), 4);
        fn test<A>(at: A, op: CmpOp, value: i64) -> Test<A> {
            Test { at, op, value }
        }
        assert_eq!(filter.edge_props, [test((1, time), CmpOp::Lt, 50)]);
        // `7 < x` is `x > 7`.
        assert_eq!(filter.target_props, [test(acc, CmpOp::Gt, 7)]);
        // The additive constant saturates as `QueryPredicate::eval` adds it.
        assert_eq!(filter.target_ids, [test((), CmpOp::Ge, i64::MAX)]);
        assert_eq!(filter.edge_labels, [test(1, CmpOp::Eq, 3)]);
    }

    /// The counted suffix of SQ1–SQ13 (the `primary_count` workload) on a
    /// `G_{8,2}` graph of the workload's density, under the primary
    /// configurations D and Dp: per query, `(start, branch levels, roots,
    /// children, prefix_disjoint)`, or `None` when the last operator is not
    /// a branch. Recorded from the per-run derivation the plan data
    /// replaced; D and Dp agree.
    #[test]
    fn sq_plans_carry_their_counted_suffix() {
        use aplus_datagen::{generate, GeneratorConfig};
        type Want = Option<(
            usize,
            &'static [usize],
            &'static [usize],
            &'static [&'static [usize]],
        )>;
        const CHAIN: &[&[usize]] = &[&[1], &[2], &[3], &[4], &[]];
        let want: [Want; 13] = [
            None,
            None,
            None,
            Some((3, &[3], &[0], &[&[]])),
            Some((1, &[1, 2, 3], &[0, 1, 2], &[&[], &[], &[]])),
            Some((1, &[1, 2, 3, 4], &[0], &[&[1], &[2], &[3], &[]])),
            Some((1, &[1, 2, 3, 4], &[0, 1], &[&[2, 3], &[], &[], &[]])),
            None,
            None,
            None,
            None,
            None,
            Some((1, &[1, 2, 3, 4, 5], &[0], CHAIN)),
        ];
        let queries: Vec<(&str, &str)> =
            include_str!("../../../benchmark/queries/primary_count.txt")
                .lines()
                .filter(|l| l.starts_with("SQ"))
                .map(|l| l.split_once(' ').unwrap())
                .collect();
        assert_eq!(queries.len(), want.len());
        let graph = generate(&GeneratorConfig::social(2_000, 78_000, 8, 2).with_seed(2));
        let mut db = crate::Database::new(graph).unwrap();
        for config in ["D", "Dp"] {
            if config == "Dp" {
                db.ddl(
                    "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label \
                     SORT BY vnbr.ID",
                )
                .unwrap();
            }
            for (&(name, q), want) in queries.iter().zip(want) {
                let counted = db.prepare(q).unwrap().1.counted;
                let got = counted.as_ref().map(|c| {
                    let levels: Vec<usize> = c.branches.iter().map(|b| b.level).collect();
                    let children: Vec<&[usize]> =
                        c.branches.iter().map(|b| b.children.as_slice()).collect();
                    (c.start, levels, c.roots.clone(), children)
                });
                let want = want.map(|(start, levels, roots, children)| {
                    (start, levels.to_vec(), roots.to_vec(), children.to_vec())
                });
                assert_eq!(got, want, "{config} {name}");
                // Each SQ vertex has a label of its own and no two SQ edges
                // join the same pair, so no branch can meet a prefix edge.
                if let Some(c) = counted {
                    assert!(
                        c.branches.iter().all(|b| b.prefix_disjoint),
                        "{config} {name}"
                    );
                }
            }
        }
    }

    /// SQ8 and SQ11 close their cycle by intersecting the newest vertex's
    /// list with `v0`'s backward list, which is the same for every entry
    /// under one root: the plan marks it outer, under D and Dp alike. SQ8's
    /// diamond chord reads `v0`'s forward list two levels down, outer too.
    #[test]
    fn sq8_and_sq11_mark_their_outer_lists() {
        use aplus_datagen::{generate, GeneratorConfig};
        let sq = |name: &str| {
            include_str!("../../../benchmark/queries/primary_count.txt")
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .unwrap()
        };
        let graph = generate(&GeneratorConfig::social(2_000, 78_000, 8, 2).with_seed(2));
        let mut db = crate::Database::new(graph).unwrap();
        // Per query: its outer lists and the plan lines that mark them.
        type Want = (
            &'static str,
            &'static [(usize, usize)],
            &'static [&'static str],
        );
        let want: [Want; 2] = [
            (
                "SQ8",
                &[(2, 1), (4, 1)],
                &[
                    "  E/I v2 ⋂[v1→primary:fwd[1] ∩ v0→primary:fwd[1] outer]",
                    "  E/I v4 ⋂[v3→primary:fwd[1] ∩ v0→primary:bwd[1] outer]",
                ],
            ),
            (
                "SQ11",
                &[(4, 1)],
                &["  E/I v4 ⋂[v3→primary:fwd[0] ∩ v0→primary:bwd[0] outer]"],
            ),
        ];
        for (name, outer, lines) in want {
            let plan = db.prepare(sq(name)).unwrap().1;
            assert_eq!(plan.outer, outer, "D {name}");
            let rendered = plan.to_string();
            for line in lines {
                assert!(rendered.lines().any(|l| l == *line), "{name}: {rendered}");
            }
            assert_eq!(rendered.matches(" outer").count(), outer.len(), "{name}");
        }
        db.ddl("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID")
            .unwrap();
        for (name, outer, _) in want {
            let plan = db.prepare(sq(name)).unwrap().1;
            assert_eq!(plan.outer, outer, "Dp {name}: {plan}");
            assert!(plan.list_memo.is_empty(), "Dp {name}");
        }
    }

    /// MR1's backward hop reads `v1`'s list under a list filter, and every
    /// owner `v1` can recur under other roots: the query's memo keeps it.
    /// MF1's first hop reads the scanned `v0`'s filtered list, which no other
    /// root entry reads: it is read inline, neither memoised nor outer.
    #[test]
    fn filtered_lists_are_memoised_only_where_owners_repeat() {
        use aplus_datagen::properties::{
            add_fraud_properties, add_magicrecs_properties, time_threshold_for_selectivity,
        };
        use aplus_datagen::{generate, GeneratorConfig};
        let mut graph = generate(&GeneratorConfig::social(10_000, 100_000, 1, 1).with_seed(1));
        let time = add_magicrecs_properties(&mut graph, 7);
        add_fraud_properties(&mut graph, 8);
        let alpha = time_threshold_for_selectivity(&graph, time, 0.05).to_string();
        let mut db = crate::Database::new(graph).unwrap();
        db.ddl(
            "CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd INDEX AS FW \
             PARTITION BY eadj.label SORT BY eadj.time",
        )
        .unwrap();
        let mr = |name: &str| {
            include_str!("../../../benchmark/queries/secondary_stream.txt")
                .lines()
                .find_map(|l| Some(l.strip_prefix(name)?.split_once("MATCH")?.1))
                .map(|q| format!("MATCH{}", q.replace("{time_alpha}", &alpha)))
                .unwrap()
        };
        let plan = db.prepare(&mr("MR1")).unwrap().1;
        assert_eq!(plan.list_memo, [2], "{plan}");
        assert!(plan.outer.is_empty(), "{plan}");
        assert!(
            plan.to_string()
                .lines()
                .any(|l| l == "  E/I v2 ⋂[v1→primary:bwd] list-filter=1"),
            "{plan}"
        );
        let plan = db.prepare(&mr("MF1")).unwrap().1;
        assert!(
            plan.to_string()
                .lines()
                .any(|l| l == "  E/I v1 ⋂[v0→primary:fwd] list-filter=1"),
            "{plan}"
        );
        assert!(matches!(plan.ops[0], Operator::ScanVertices { var: 0, .. }));
        assert!(!plan.list_memo.contains(&1), "{plan}");
        assert!(plan.outer_at(1).1.is_empty(), "{plan}");
    }

    #[test]
    fn plan_introspection() {
        let plan = Plan::new(
            &QueryGraph::default(),
            vec![
                Operator::ScanVertices {
                    var: 0,
                    label: None,
                    preds: vec![],
                },
                Operator::MultiExtend {
                    targets: vec![(
                        1,
                        None,
                        Ald {
                            from: FromRef::BoundEdge(0),
                            index: IndexChoice::EdgeIdx { name: "EPc".into() },
                            prefix: vec![],
                            edge_var: 1,
                            sort: vec![],
                            prune: None,
                            sorted_range: true,
                        },
                    )],
                    residual: vec![],
                },
            ],
            12.0,
        );
        assert!(plan.uses_multi_extend());
        assert!(plan.uses_edge_partitioned_index());
        assert!(plan.uses_index("EPc"));
        assert!(!plan.uses_index("VPt"));
        let rendered = plan.to_string();
        assert!(rendered.contains("Multi-Extend"));
        assert!(rendered.contains("EPc:ep"));
    }
}
