//! The raw (unbound) syntax tree and its binder.
//!
//! The parser produces [`Statement`]s; [`bind_query`] and the DDL binders
//! resolve names through the catalog into the executable forms
//! ([`crate::query::QueryGraph`], [`aplus_core::IndexSpec`], view
//! definitions). Constants are encoded into the stored `i64`
//! representation during binding; a constant the catalog has never seen
//! (e.g. an unknown categorical value) binds to a sentinel that matches
//! nothing, mirroring how an equality against an absent dictionary code can
//! never be satisfied.

use aplus_common::FxHashMap;
use aplus_core::store::IndexDirections;
use aplus_core::view::OneHopView;
use aplus_core::view::{TwoHopOrientation, TwoHopView};
use aplus_core::{
    CmpOp, IndexSpec, PartitionKey, SortKey, ViewComparison, ViewEntity, ViewOperand, ViewPredicate,
};
use aplus_graph::{Graph, PropertyEntity, PropertyKind};

use crate::error::QueryError;
use crate::query::{
    QueryEdge, QueryGraph, QueryOperand, QueryPredicate, QueryVertex, VarLength, HOP_CAP,
};

/// A constant that can never equal a stored value (codes are non-negative,
/// and user integers are compared as-is so this only backstops unknown
/// dictionary constants).
pub const IMPOSSIBLE_CONST: i64 = i64::MIN;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `MATCH ... WHERE ...`
    Query(QueryAst),
    /// `PROFILE MATCH ...` — run the query with per-operator
    /// instrumentation and return a [`aplus_obs::QueryProfile`] alongside
    /// the results.
    Profile(QueryAst),
    /// `RECONFIGURE PRIMARY INDEXES PARTITION BY ... SORT BY ...`
    ReconfigurePrimary {
        /// Nested partitioning keys.
        partition_by: Vec<KeyAst>,
        /// Sort keys.
        sort_by: Vec<KeyAst>,
    },
    /// `CREATE 1-HOP VIEW name MATCH vs-[eadj]->vd WHERE ... INDEX AS ...`
    CreateOneHop {
        /// Index name.
        name: String,
        /// View predicate conditions.
        wheres: Vec<CondAst>,
        /// FW / BW / FW-BW.
        directions: IndexDirections,
        /// Nested partitioning keys.
        partition_by: Vec<KeyAst>,
        /// Sort keys.
        sort_by: Vec<KeyAst>,
    },
    /// `CREATE 2-HOP VIEW name MATCH <2-hop pattern> WHERE ... INDEX AS ...`
    CreateTwoHop {
        /// Index name.
        name: String,
        /// Orientation derived from the pattern shape.
        orientation: TwoHopOrientation,
        /// View predicate conditions.
        wheres: Vec<CondAst>,
        /// Nested partitioning keys.
        partition_by: Vec<KeyAst>,
        /// Sort keys.
        sort_by: Vec<KeyAst>,
    },
}

/// A parsed `MATCH`/`WHERE` query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryAst {
    /// Edge patterns, each `src -[edge]-> dst` after direction
    /// normalization.
    pub edges: Vec<EdgePatternAst>,
    /// Conditions.
    pub wheres: Vec<CondAst>,
}

/// One edge of the pattern (already normalized to source → destination).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePatternAst {
    /// Source vertex variable.
    pub src: VertexPatternAst,
    /// Edge variable name, if given.
    pub edge_name: Option<String>,
    /// Edge label, if given.
    pub edge_label: Option<String>,
    /// Variable-length spec (`*min..max` / `+`), if given.
    pub var_length: Option<VarLengthAst>,
    /// Destination vertex variable.
    pub dst: VertexPatternAst,
}

/// An unresolved variable-length spec: `max` is `None` for open upper
/// bounds (`*`, `+`, `*n..`), resolved to the hop cap at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarLengthAst {
    /// Minimum number of hops (≥ 1, enforced by the parser).
    pub min: u32,
    /// Maximum number of hops, if written explicitly.
    pub max: Option<u32>,
    /// Byte offset of the `*`/`+` token (for error frames).
    pub offset: usize,
}

/// A vertex occurrence in a pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexPatternAst {
    /// Variable name.
    pub name: String,
    /// Label, if given at this occurrence.
    pub label: Option<String>,
}

/// An operand in a condition.
#[derive(Debug, Clone, PartialEq)]
pub enum OperandAst {
    /// `var.prop`; `prop` may be the pseudo-properties `ID` / `eID`.
    Prop(String, String),
    /// Integer literal.
    Int(i64),
    /// String literal (quoted) or bare identifier constant (e.g. `USD`).
    Str(String),
}

/// A condition `lhs op rhs (+ add)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CondAst {
    /// Left operand.
    pub lhs: OperandAst,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: OperandAst,
    /// Additive constant on the right.
    pub rhs_add: i64,
}

/// A partitioning / sorting key in DDL (`eadj.label`, `vnbr.city`,
/// `vnbr.ID`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyAst {
    /// `eadj.label`
    EdgeLabel,
    /// `vnbr.label`
    NbrLabel,
    /// `vnbr.ID`
    NbrId,
    /// `eadj.<prop>`
    EdgeProp(String),
    /// `vnbr.<prop>`
    NbrProp(String),
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

/// Binds a parsed query against the catalog.
pub fn bind_query(graph: &Graph, ast: &QueryAst) -> Result<QueryGraph, QueryError> {
    let mut vertices: Vec<QueryVertex> = Vec::new();
    let mut v_by_name: FxHashMap<String, usize> = FxHashMap::default();
    let mut edges: Vec<QueryEdge> = Vec::new();
    let mut e_by_name: FxHashMap<String, usize> = FxHashMap::default();

    // A label the catalog has never seen matches nothing (openCypher
    // semantics); bind it to an unused sentinel code so plans simply
    // produce empty results instead of erroring.
    let vertex_label_of = |name: &str| -> aplus_common::VertexLabelId {
        graph
            .catalog()
            .vertex_label(name)
            .unwrap_or(aplus_common::VertexLabelId(u16::MAX))
    };
    let intern_vertex = |pat: &VertexPatternAst,
                         vertices: &mut Vec<QueryVertex>,
                         v_by_name: &mut FxHashMap<String, usize>|
     -> Result<usize, QueryError> {
        if let Some(&idx) = v_by_name.get(&pat.name) {
            if let Some(label) = &pat.label {
                let lid = vertex_label_of(label);
                match vertices[idx].label {
                    None => vertices[idx].label = Some(lid),
                    Some(existing) if existing == lid => {}
                    Some(_) => {
                        return Err(QueryError::VariableRoleConflict(pat.name.clone()));
                    }
                }
            }
            return Ok(idx);
        }
        let label = pat.label.as_deref().map(vertex_label_of);
        let idx = vertices.len();
        vertices.push(QueryVertex {
            name: pat.name.clone(),
            label,
        });
        v_by_name.insert(pat.name.clone(), idx);
        Ok(idx)
    };

    for ep in &ast.edges {
        let src = intern_vertex(&ep.src, &mut vertices, &mut v_by_name)?;
        let dst = intern_vertex(&ep.dst, &mut vertices, &mut v_by_name)?;
        let label = ep.edge_label.as_deref().map(|l| {
            graph
                .catalog()
                .edge_label(l)
                .unwrap_or(aplus_common::EdgeLabelId(u16::MAX))
        });
        let var_length = match &ep.var_length {
            None => None,
            Some(vl) => {
                let cap = HOP_CAP;
                if vl.min > cap {
                    return Err(QueryError::HopCapExceeded {
                        requested: vl.min,
                        cap,
                        offset: vl.offset,
                    });
                }
                let max = match vl.max {
                    Some(m) if m > cap => {
                        return Err(QueryError::HopCapExceeded {
                            requested: m,
                            cap,
                            offset: vl.offset,
                        });
                    }
                    Some(m) => m,
                    None => cap,
                };
                Some(VarLength { min: vl.min, max })
            }
        };
        let idx = edges.len();
        if let Some(name) = &ep.edge_name {
            if v_by_name.contains_key(name) {
                return Err(QueryError::VariableRoleConflict(name.clone()));
            }
            e_by_name.insert(name.clone(), idx);
        }
        edges.push(QueryEdge {
            name: ep.edge_name.clone(),
            src,
            dst,
            label,
            var_length,
        });
    }

    let mut predicates = Vec::new();
    for cond in &ast.wheres {
        predicates.push(bind_condition(graph, cond, &v_by_name, &e_by_name)?);
    }
    // A variable-length edge binds no single data edge, so predicates over
    // its edge variable have nothing to evaluate against.
    for p in &predicates {
        for e in p.edge_vars() {
            if edges[e].var_length.is_some() {
                let name = edges[e].name.clone().unwrap_or_else(|| format!("e{e}"));
                return Err(QueryError::VarLengthPredicate(name));
            }
        }
    }
    let q = QueryGraph {
        vertices,
        edges,
        predicates,
    };
    q.validate()?;
    Ok(q)
}

fn bind_condition(
    graph: &Graph,
    cond: &CondAst,
    v_by_name: &FxHashMap<String, usize>,
    e_by_name: &FxHashMap<String, usize>,
) -> Result<QueryPredicate, QueryError> {
    // First bind the property sides so constants can be encoded with the
    // right kind.
    let lhs = bind_operand_shallow(cond.lhs.clone(), v_by_name, e_by_name)?;
    let rhs = bind_operand_shallow(cond.rhs.clone(), v_by_name, e_by_name)?;
    let (lhs, rhs) = match (lhs, rhs) {
        (Shallow::Op(l), Shallow::Op(r)) => {
            let l = resolve_prop(graph, l)?;
            let r = resolve_prop(graph, r)?;
            (l, r)
        }
        (Shallow::Op(l), Shallow::ConstStr(s)) => {
            let l = resolve_prop(graph, l)?;
            let c = encode_const_for(graph, &l, &s);
            (l, QueryOperand::Const(c))
        }
        (Shallow::ConstStr(s), Shallow::Op(r)) => {
            let r = resolve_prop(graph, r)?;
            let c = encode_const_for(graph, &r, &s);
            (QueryOperand::Const(c), r)
        }
        (Shallow::Op(l), Shallow::ConstInt(c)) => (resolve_prop(graph, l)?, QueryOperand::Const(c)),
        (Shallow::ConstInt(c), Shallow::Op(r)) => (QueryOperand::Const(c), resolve_prop(graph, r)?),
        (l, r) => {
            // Constant-vs-constant: evaluate eagerly into TRUE/FALSE via
            // impossible/trivial predicate encodings.
            let lv = match l {
                Shallow::ConstInt(c) => c,
                Shallow::ConstStr(s) => i64::from(graph.catalog().string_code(&s).unwrap_or(0)),
                Shallow::Op(_) => unreachable!("op handled above"),
            };
            let rv = match r {
                Shallow::ConstInt(c) => c,
                Shallow::ConstStr(s) => i64::from(graph.catalog().string_code(&s).unwrap_or(0)),
                Shallow::Op(_) => unreachable!("op handled above"),
            };
            (QueryOperand::Const(lv), QueryOperand::Const(rv))
        }
    };
    Ok(QueryPredicate {
        lhs,
        op: cond.op,
        rhs,
        rhs_add: cond.rhs_add,
    })
}

enum Shallow {
    Op(UnresolvedProp),
    ConstInt(i64),
    ConstStr(String),
}

struct UnresolvedProp {
    var_kind: VarKind,
    var_idx: usize,
    prop: String,
}

enum VarKind {
    Vertex,
    Edge,
}

fn bind_operand_shallow(
    op: OperandAst,
    v_by_name: &FxHashMap<String, usize>,
    e_by_name: &FxHashMap<String, usize>,
) -> Result<Shallow, QueryError> {
    match op {
        OperandAst::Int(i) => Ok(Shallow::ConstInt(i)),
        OperandAst::Str(s) => Ok(Shallow::ConstStr(s)),
        OperandAst::Prop(var, prop) => {
            if let Some(&v) = v_by_name.get(&var) {
                Ok(Shallow::Op(UnresolvedProp {
                    var_kind: VarKind::Vertex,
                    var_idx: v,
                    prop,
                }))
            } else if let Some(&e) = e_by_name.get(&var) {
                Ok(Shallow::Op(UnresolvedProp {
                    var_kind: VarKind::Edge,
                    var_idx: e,
                    prop,
                }))
            } else {
                Err(QueryError::UnknownVariable(var))
            }
        }
    }
}

fn resolve_prop(graph: &Graph, u: UnresolvedProp) -> Result<QueryOperand, QueryError> {
    match u.var_kind {
        VarKind::Vertex => {
            if u.prop.eq_ignore_ascii_case("id") {
                return Ok(QueryOperand::VertexIdOf(u.var_idx));
            }
            let pid = graph.catalog().property(PropertyEntity::Vertex, &u.prop)?;
            Ok(QueryOperand::VertexProp(u.var_idx, pid))
        }
        VarKind::Edge => {
            if u.prop.eq_ignore_ascii_case("eid") || u.prop.eq_ignore_ascii_case("id") {
                return Ok(QueryOperand::EdgeIdOf(u.var_idx));
            }
            let pid = graph.catalog().property(PropertyEntity::Edge, &u.prop)?;
            Ok(QueryOperand::EdgeProp(u.var_idx, pid))
        }
    }
}

/// Encodes a string constant against the kind of the property it is
/// compared with.
fn encode_const_for(graph: &Graph, prop_side: &QueryOperand, s: &str) -> i64 {
    let (entity, pid) = match prop_side {
        QueryOperand::VertexProp(_, pid) => (PropertyEntity::Vertex, *pid),
        QueryOperand::EdgeProp(_, pid) => (PropertyEntity::Edge, *pid),
        // Comparing an ID against a string makes no sense; bind to the
        // impossible constant.
        _ => return IMPOSSIBLE_CONST,
    };
    let meta = graph.catalog().property_meta(entity, pid);
    match meta.kind {
        PropertyKind::Categorical => graph
            .catalog()
            .categorical_code(entity, pid, s)
            .map_or(IMPOSSIBLE_CONST, i64::from),
        PropertyKind::Text => graph
            .catalog()
            .string_code(s)
            .map_or(IMPOSSIBLE_CONST, i64::from),
        PropertyKind::Int => s.parse::<i64>().unwrap_or(IMPOSSIBLE_CONST),
    }
}

// ---------------------------------------------------------------------------
// DDL binding
// ---------------------------------------------------------------------------

/// Binds DDL key lists into an [`IndexSpec`].
pub fn bind_spec(
    graph: &Graph,
    partition_by: &[KeyAst],
    sort_by: &[KeyAst],
) -> Result<IndexSpec, QueryError> {
    let mut partitioning = Vec::with_capacity(partition_by.len());
    for k in partition_by {
        partitioning.push(match k {
            KeyAst::EdgeLabel => PartitionKey::EdgeLabel,
            KeyAst::NbrLabel => PartitionKey::NbrLabel,
            KeyAst::EdgeProp(name) => {
                PartitionKey::EdgeProp(graph.catalog().property(PropertyEntity::Edge, name)?)
            }
            KeyAst::NbrProp(name) => {
                PartitionKey::NbrProp(graph.catalog().property(PropertyEntity::Vertex, name)?)
            }
            KeyAst::NbrId => {
                return Err(QueryError::Syntax {
                    message: "vnbr.ID cannot be a partitioning key".into(),
                    offset: 0,
                })
            }
        });
    }
    let mut sort = Vec::with_capacity(sort_by.len());
    for k in sort_by {
        sort.push(match k {
            KeyAst::NbrId => SortKey::NbrId,
            KeyAst::NbrLabel => SortKey::NbrLabel,
            KeyAst::EdgeProp(name) => {
                SortKey::EdgeProp(graph.catalog().property(PropertyEntity::Edge, name)?)
            }
            KeyAst::NbrProp(name) => {
                SortKey::NbrProp(graph.catalog().property(PropertyEntity::Vertex, name)?)
            }
            KeyAst::EdgeLabel => {
                return Err(QueryError::Syntax {
                    message: "eadj.label cannot be a sort key (partition on it instead)".into(),
                    offset: 0,
                })
            }
        });
    }
    Ok(IndexSpec { partitioning, sort })
}

/// Binds 1-hop view conditions (`vs`/`vd`/`eadj` variables) into an
/// [`OneHopView`].
pub fn bind_one_hop_view(graph: &Graph, wheres: &[CondAst]) -> Result<OneHopView, QueryError> {
    let comparisons = bind_view_conditions(graph, wheres, false)?;
    Ok(OneHopView::new(ViewPredicate::all_of(comparisons))?)
}

/// Binds 2-hop view conditions (`eb`/`eadj`/`vnbr` variables) into a
/// [`TwoHopView`].
pub fn bind_two_hop_view(
    graph: &Graph,
    orientation: TwoHopOrientation,
    wheres: &[CondAst],
) -> Result<TwoHopView, QueryError> {
    let comparisons = bind_view_conditions(graph, wheres, true)?;
    Ok(TwoHopView::new(
        orientation,
        ViewPredicate::all_of(comparisons),
    )?)
}

fn bind_view_conditions(
    graph: &Graph,
    wheres: &[CondAst],
    two_hop: bool,
) -> Result<Vec<ViewComparison>, QueryError> {
    let entity_of = |var: &str| -> Result<ViewEntity, QueryError> {
        match var {
            "vs" => Ok(ViewEntity::SrcVertex),
            "vd" => Ok(ViewEntity::DstVertex),
            "eadj" => Ok(ViewEntity::AdjEdge),
            "eb" if two_hop => Ok(ViewEntity::BoundEdge),
            "vnbr" if two_hop => Ok(ViewEntity::NbrVertex),
            other => Err(QueryError::UnknownVariable(other.to_owned())),
        }
    };
    let prop_entity = |e: ViewEntity| match e {
        ViewEntity::AdjEdge | ViewEntity::BoundEdge => PropertyEntity::Edge,
        _ => PropertyEntity::Vertex,
    };
    let mut out = Vec::with_capacity(wheres.len());
    for cond in wheres {
        let bind_side =
            |op: &OperandAst| -> Result<(Option<ViewOperand>, Option<String>), QueryError> {
                match op {
                    OperandAst::Int(i) => Ok((Some(ViewOperand::Const(*i)), None)),
                    OperandAst::Str(s) => Ok((None, Some(s.clone()))),
                    OperandAst::Prop(var, prop) => {
                        let e = entity_of(var)?;
                        let pid = graph.catalog().property(prop_entity(e), prop)?;
                        Ok((Some(ViewOperand::Prop(e, pid)), None))
                    }
                }
            };
        let (lhs, lstr) = bind_side(&cond.lhs)?;
        let (rhs, rstr) = bind_side(&cond.rhs)?;
        // Encode string constants against the opposite side's property.
        let encode = |prop: &ViewOperand, s: &str| -> i64 {
            if let ViewOperand::Prop(e, pid) = prop {
                let meta = graph.catalog().property_meta(prop_entity(*e), *pid);
                return match meta.kind {
                    PropertyKind::Categorical => graph
                        .catalog()
                        .categorical_code(prop_entity(*e), *pid, s)
                        .map_or(IMPOSSIBLE_CONST, i64::from),
                    PropertyKind::Text => graph
                        .catalog()
                        .string_code(s)
                        .map_or(IMPOSSIBLE_CONST, i64::from),
                    PropertyKind::Int => s.parse().unwrap_or(IMPOSSIBLE_CONST),
                };
            }
            IMPOSSIBLE_CONST
        };
        let (lhs, rhs) = match (lhs, rhs, lstr, rstr) {
            (Some(l), Some(r), None, None) => (l, r),
            (Some(l), None, None, Some(s)) => {
                let c = encode(&l, &s);
                (l, ViewOperand::Const(c))
            }
            (None, Some(r), Some(s), None) => {
                let c = encode(&r, &s);
                (ViewOperand::Const(c), r)
            }
            _ => {
                return Err(QueryError::Syntax {
                    message: "view condition must reference at least one property".into(),
                    offset: 0,
                })
            }
        };
        out.push(ViewComparison {
            lhs,
            op: cond.op,
            rhs,
            rhs_add: cond.rhs_add,
        });
    }
    Ok(out)
}

/// Test-only helpers shared across the crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use aplus_core::store::IndexDirections;

    /// Forward-only index directions.
    pub(crate) fn fw() -> IndexDirections {
        IndexDirections::Fw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aplus_datagen::build_financial_graph;

    fn vpat(name: &str) -> VertexPatternAst {
        VertexPatternAst {
            name: name.into(),
            label: None,
        }
    }

    #[test]
    fn bind_simple_query() {
        let fg = build_financial_graph();
        let ast = QueryAst {
            edges: vec![EdgePatternAst {
                src: vpat("a"),
                edge_name: Some("r".into()),
                edge_label: Some("W".into()),
                var_length: None,
                dst: vpat("b"),
            }],
            wheres: vec![CondAst {
                lhs: OperandAst::Prop("r".into(), "amt".into()),
                op: CmpOp::Gt,
                rhs: OperandAst::Int(50),
                rhs_add: 0,
            }],
        };
        let q = bind_query(&fg.graph, &ast).unwrap();
        assert_eq!(q.vertices.len(), 2);
        assert_eq!(q.edges.len(), 1);
        assert!(q.edges[0].label.is_some());
        assert_eq!(q.predicates.len(), 1);
    }

    #[test]
    fn shared_vertex_variable_unifies() {
        let fg = build_financial_graph();
        let ast = QueryAst {
            edges: vec![
                EdgePatternAst {
                    src: vpat("a"),
                    edge_name: None,
                    edge_label: None,
                    var_length: None,
                    dst: vpat("b"),
                },
                EdgePatternAst {
                    src: vpat("b"),
                    edge_name: None,
                    edge_label: None,
                    var_length: None,
                    dst: vpat("c"),
                },
            ],
            wheres: vec![],
        };
        let q = bind_query(&fg.graph, &ast).unwrap();
        assert_eq!(q.vertices.len(), 3);
        assert_eq!(q.edges[0].dst, q.edges[1].src);
    }

    #[test]
    fn categorical_constant_encodes_to_code() {
        let fg = build_financial_graph();
        let g = &fg.graph;
        let ast = QueryAst {
            edges: vec![EdgePatternAst {
                src: vpat("a"),
                edge_name: Some("r".into()),
                edge_label: None,
                var_length: None,
                dst: vpat("b"),
            }],
            wheres: vec![CondAst {
                lhs: OperandAst::Prop("r".into(), "currency".into()),
                op: CmpOp::Eq,
                rhs: OperandAst::Str("USD".into()),
                rhs_add: 0,
            }],
        };
        let q = bind_query(g, &ast).unwrap();
        let curr = g
            .catalog()
            .property(PropertyEntity::Edge, "currency")
            .unwrap();
        let code = g
            .catalog()
            .categorical_code(PropertyEntity::Edge, curr, "USD")
            .unwrap();
        assert_eq!(q.predicates[0].rhs, QueryOperand::Const(i64::from(code)));
    }

    #[test]
    fn unknown_categorical_constant_is_impossible() {
        let fg = build_financial_graph();
        let ast = QueryAst {
            edges: vec![EdgePatternAst {
                src: vpat("a"),
                edge_name: Some("r".into()),
                edge_label: None,
                var_length: None,
                dst: vpat("b"),
            }],
            wheres: vec![CondAst {
                lhs: OperandAst::Prop("r".into(), "currency".into()),
                op: CmpOp::Eq,
                rhs: OperandAst::Str("JPY".into()),
                rhs_add: 0,
            }],
        };
        let q = bind_query(&fg.graph, &ast).unwrap();
        assert_eq!(q.predicates[0].rhs, QueryOperand::Const(IMPOSSIBLE_CONST));
    }

    #[test]
    fn id_pseudo_property() {
        let fg = build_financial_graph();
        let ast = QueryAst {
            edges: vec![EdgePatternAst {
                src: vpat("a"),
                edge_name: Some("r".into()),
                edge_label: None,
                var_length: None,
                dst: vpat("b"),
            }],
            wheres: vec![
                CondAst {
                    lhs: OperandAst::Prop("a".into(), "ID".into()),
                    op: CmpOp::Lt,
                    rhs: OperandAst::Int(3),
                    rhs_add: 0,
                },
                CondAst {
                    lhs: OperandAst::Prop("r".into(), "eID".into()),
                    op: CmpOp::Eq,
                    rhs: OperandAst::Int(17),
                    rhs_add: 0,
                },
            ],
        };
        let q = bind_query(&fg.graph, &ast).unwrap();
        assert_eq!(q.predicates[0].lhs, QueryOperand::VertexIdOf(0));
        assert_eq!(q.predicates[1].lhs, QueryOperand::EdgeIdOf(0));
    }

    #[test]
    fn unknown_variable_is_error() {
        let fg = build_financial_graph();
        let ast = QueryAst {
            edges: vec![EdgePatternAst {
                src: vpat("a"),
                edge_name: None,
                edge_label: None,
                var_length: None,
                dst: vpat("b"),
            }],
            wheres: vec![CondAst {
                lhs: OperandAst::Prop("zzz".into(), "amt".into()),
                op: CmpOp::Eq,
                rhs: OperandAst::Int(1),
                rhs_add: 0,
            }],
        };
        assert!(matches!(
            bind_query(&fg.graph, &ast),
            Err(QueryError::UnknownVariable(_))
        ));
    }

    #[test]
    fn bind_spec_roundtrip() {
        let fg = build_financial_graph();
        let spec = bind_spec(
            &fg.graph,
            &[KeyAst::EdgeLabel, KeyAst::EdgeProp("currency".into())],
            &[KeyAst::NbrProp("city".into()), KeyAst::NbrId],
        )
        .unwrap();
        assert_eq!(spec.partitioning.len(), 2);
        assert_eq!(spec.sort.len(), 2);
        assert!(matches!(spec.partitioning[0], PartitionKey::EdgeLabel));
        assert!(matches!(spec.sort[1], SortKey::NbrId));
    }

    #[test]
    fn bind_spec_rejects_nbr_id_partition() {
        let fg = build_financial_graph();
        assert!(bind_spec(&fg.graph, &[KeyAst::NbrId], &[]).is_err());
    }

    #[test]
    fn bind_two_hop_view_money_flow() {
        let fg = build_financial_graph();
        let wheres = vec![
            CondAst {
                lhs: OperandAst::Prop("eb".into(), "date".into()),
                op: CmpOp::Lt,
                rhs: OperandAst::Prop("eadj".into(), "date".into()),
                rhs_add: 0,
            },
            CondAst {
                lhs: OperandAst::Prop("eadj".into(), "amt".into()),
                op: CmpOp::Lt,
                rhs: OperandAst::Prop("eb".into(), "amt".into()),
                rhs_add: 0,
            },
        ];
        let view = bind_two_hop_view(&fg.graph, TwoHopOrientation::DestFw, &wheres).unwrap();
        assert_eq!(view.predicate.conjuncts.len(), 2);
    }

    #[test]
    fn bind_one_hop_rejects_eb() {
        let fg = build_financial_graph();
        let wheres = vec![CondAst {
            lhs: OperandAst::Prop("eb".into(), "amt".into()),
            op: CmpOp::Gt,
            rhs: OperandAst::Int(1),
            rhs_add: 0,
        }];
        assert!(bind_one_hop_view(&fg.graph, &wheres).is_err());
    }
}
