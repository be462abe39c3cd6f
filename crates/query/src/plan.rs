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
//! * [`Operator::Filter`] — residual predicates not subsumed by any index.
//!
//! Each adjacency-list access is described by an [`Ald`] (adjacency list
//! descriptor): which index, from which bound variable, restricted to which
//! partition-code prefix, with an optional sorted-prefix [`Prune`].

use std::fmt;

use aplus_common::{EdgeLabelId, VertexLabelId};
use aplus_core::{CmpOp, Direction, SortKey};

use crate::query::QueryPredicate;

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
    /// Residual filter.
    Filter {
        /// Predicates to evaluate.
        preds: Vec<QueryPredicate>,
    },
}

/// A complete physical plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Operators in pipeline order.
    pub ops: Vec<Operator>,
    /// Estimated i-cost (total adjacency-list entries accessed).
    pub est_cost: f64,
}

impl Plan {
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
        self.ops.iter().map(op_description).collect()
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

fn op_description(op: &Operator) -> String {
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
            residual,
            ..
        } => {
            let lists: Vec<String> = alds.iter().map(Ald::render).collect();
            let mut s = format!("E/I v{target} ⋂[{}]", lists.join(" ∩ "));
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
        Operator::Filter { preds } => format!("Filter ({} predicates)", preds.len()),
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Plan (est i-cost {:.1}):", self.est_cost)?;
        for op in &self.ops {
            writeln!(f, "  {}", op_description(op))?;
        }
        Ok(())
    }
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
    fn plan_introspection() {
        let plan = Plan {
            ops: vec![
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
            est_cost: 12.0,
        };
        assert!(plan.uses_multi_extend());
        assert!(plan.uses_edge_partitioned_index());
        assert!(plan.uses_index("EPc"));
        assert!(!plan.uses_index("VPt"));
        let rendered = plan.to_string();
        assert!(rendered.contains("Multi-Extend"));
        assert!(rendered.contains("EPc:ep"));
    }
}
