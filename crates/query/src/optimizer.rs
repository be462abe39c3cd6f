//! The DP join optimizer (§IV-A).
//!
//! "GraphflowDB has a DP-based join optimizer that enumerates queries one
//! query vertex at a time. … For each k = 1..m, in order, the optimizer
//! finds the lowest-cost plan for each sub-query Qk in two ways: (i) by
//! considering extending every possible sub-query Qk−1's plan by an E/I
//! operator; and (ii) if Q has an equality predicate involving z ≥ 2 query
//! edges, by considering extending smaller sub-queries Qk−z by a
//! MULTI-EXTEND operator."
//!
//! Sub-queries are bitmasks over query vertices. For each extension the
//! optimizer asks the INDEX STORE for candidate access paths — primary
//! lists under a resolvable partition prefix, secondary vertex-partitioned
//! indexes whose view predicate is *subsumed* by the query's predicates,
//! and edge-partitioned indexes reachable from an already-bound query edge
//! — then prices them with **i-cost**: the estimated number of adjacency
//! list entries every operator will touch across all its invocations
//! (list size × estimated input cardinality). Query predicates implied by a
//! chosen index's view predicate or enforced by its partition prefix /
//! sorted-prefix prune are dropped from the residual FILTER.

use aplus_common::EdgeLabelId;
use aplus_common::FxHashMap;
use aplus_core::view::TwoHopOrientation;
use aplus_core::{CmpOp, Direction, IndexStore, PartitionKey, SortKey, ViewPredicate};
use aplus_graph::{Graph, PropertyEntity, PropertyKind};

use crate::error::QueryError;
use crate::plan::{Ald, FromRef, IndexChoice, Operator, Plan, Prune, PruneValue};
use crate::query::{QueryGraph, QueryOperand, QueryPredicate};

/// Cost-model constants. Deliberately simple and fully deterministic: the
/// model only needs to rank the paper's alternatives correctly (sorted
/// prefix < full list, offset-list view < unfiltered list, WCOJ multiway
/// intersection < binary expand-then-filter).
mod consts {
    /// Multiplier charged when the executor must materialize + sort an
    /// unsorted range before a sorted operation.
    pub const SORT_PENALTY: f64 = 2.0;
    /// Selectivity of a range prune on a sorted list (`time < α`).
    pub const RANGE_PRUNE_SEL: f64 = 0.5;
    /// Selectivity of a residual equality / range predicate.
    pub const RESIDUAL_EQ_SEL: f64 = 0.1;
    /// Selectivity of a residual non-equality predicate.
    pub const RESIDUAL_RANGE_SEL: f64 = 0.5;
    /// Assumed domain when a sort/partition property is not categorical.
    pub const DEFAULT_DOMAIN: f64 = 20.0;
}

/// The catalog numbers the cost model prices plans from (§IV-A): |V|, the
/// live |E|, and the live edges per label. [`optimize`] reads them off the
/// graph, which maintains them on its write path — planning never scans
/// the graph, so its cost depends on the query, not on |E|.
#[derive(Debug, Clone, Copy)]
pub struct PlannerStats<'a> {
    /// Number of vertices.
    pub vertex_count: usize,
    /// Number of live edges.
    pub edge_count: usize,
    /// Live edges per label, indexed by `EdgeLabelId` (missing = 0).
    pub edges_per_label: &'a [usize],
}

impl<'a> PlannerStats<'a> {
    /// The statistics `graph` maintains.
    #[must_use]
    pub fn of(graph: &'a Graph) -> Self {
        Self {
            vertex_count: graph.vertex_count(),
            edge_count: graph.live_edge_count(),
            edges_per_label: graph.live_edges_per_label(),
        }
    }

    /// Average out-degree (`edge_count / vertex_count`).
    fn avg_degree(&self) -> f64 {
        self.avg(self.edge_count)
    }

    /// Average number of edges per (vertex, edge-label) list — the base
    /// cardinality estimate for label-partitioned adjacency lists.
    fn avg_label_degree(&self, label: EdgeLabelId) -> f64 {
        self.avg(
            self.edges_per_label
                .get(label.index())
                .copied()
                .unwrap_or(0),
        )
    }

    fn avg(&self, edges: usize) -> f64 {
        if self.vertex_count == 0 {
            0.0
        } else {
            edges as f64 / self.vertex_count as f64
        }
    }
}

/// Optimizes `query` into an executable plan.
pub fn optimize(graph: &Graph, store: &IndexStore, query: &QueryGraph) -> Result<Plan, QueryError> {
    optimize_with(graph, store, query, PlannerStats::of(graph))
}

/// [`optimize`] priced from caller-supplied statistics instead of the
/// graph's maintained ones — the seam the plan-equivalence tests use to
/// feed independently recounted numbers.
pub fn optimize_with(
    graph: &Graph,
    store: &IndexStore,
    query: &QueryGraph,
    stats: PlannerStats<'_>,
) -> Result<Plan, QueryError> {
    query.validate()?;
    let opt = Optimizer {
        graph,
        store,
        query,
        stats,
    };
    opt.run()
}

#[derive(Clone)]
struct Partial {
    cost: f64,
    card: f64,
    ops: Vec<Operator>,
    /// Bitmask of query predicates already applied (consumed or filtered).
    applied: u64,
}

struct Optimizer<'a> {
    graph: &'a Graph,
    store: &'a IndexStore,
    query: &'a QueryGraph,
    stats: PlannerStats<'a>,
}

/// A candidate access path for one connecting query edge.
#[derive(Clone)]
struct Candidate {
    ald: Ald,
    est_size: f64,
    /// Predicate indices enforced by this access path (prefix, prune, or
    /// view-predicate implication).
    consumed: u64,
    /// Whether the edge-label constraint of the query edge is enforced.
    label_enforced: bool,
}

impl Optimizer<'_> {
    fn run(&self) -> Result<Plan, QueryError> {
        let n = self.query.vertices.len();
        if n == 0 {
            return Err(QueryError::NoPlan("query has no vertices".into()));
        }
        let full: u32 = (1u32 << n) - 1;
        let mut best: FxHashMap<u32, Partial> = FxHashMap::default();

        self.seed_scans(&mut best);
        self.seed_edge_scans(&mut best);

        // DP over subsets ordered by population count.
        let mut masks: Vec<u32> = (1..=full).collect();
        masks.sort_by_key(|m| m.count_ones());
        for mask in masks {
            let Some(partial) = best.get(&mask).cloned() else {
                continue;
            };
            if mask == full {
                continue;
            }
            self.extend_ei(mask, &partial, &mut best);
            self.extend_multi(mask, &partial, &mut best);
            self.extend_varlength(mask, &partial, &mut best);
        }

        let mut final_plan = best
            .remove(&full)
            .ok_or_else(|| QueryError::NoPlan("no connected extension order found".into()))?;
        // Safety net: apply any predicate not yet applied.
        let leftovers: Vec<QueryPredicate> = self
            .query
            .predicates
            .iter()
            .enumerate()
            .filter(|(i, _)| final_plan.applied & (1 << i) == 0)
            .map(|(_, p)| *p)
            .collect();
        if !leftovers.is_empty() {
            final_plan.ops.push(Operator::Filter { preds: leftovers });
        }
        Ok(Plan {
            ops: final_plan.ops,
            est_cost: final_plan.cost,
        })
    }

    // ----- seeds ----------------------------------------------------------

    fn seed_scans(&self, best: &mut FxHashMap<u32, Partial>) {
        for v in 0..self.query.vertices.len() {
            let mask = 1u32 << v;
            let (preds, applied) = self.single_vertex_preds(v);
            let mut card = self.est_scan_card(v, &preds);
            let mut cost = if self.is_pinned(v, &preds) {
                1.0
            } else {
                self.stats.vertex_count as f64
            };
            let mut ops = vec![Operator::ScanVertices {
                var: v,
                label: self.query.vertices[v].label,
                preds,
            }];
            // Variable-length self-loops (`a-[:W*2..4]->a`, the ring
            // pattern) are internal to the single-vertex mask; verify them
            // in check mode right after the scan.
            for (ei, edge) in self.query.edges.iter().enumerate() {
                if edge.var_length.is_some() && edge.src == v && edge.dst == v {
                    let (op, work) = self.varlength_check_op(ei);
                    cost += card * work;
                    card = (card * consts::RESIDUAL_RANGE_SEL).max(0.001);
                    ops.push(op);
                }
            }
            let plan = Partial {
                cost,
                card,
                ops,
                applied,
            };
            offer(best, mask, plan);
        }
    }

    /// Edge-anchored seeds for queries pinning a query edge by ID
    /// (Example 7: `r1.eID = t13`).
    fn seed_edge_scans(&self, best: &mut FxHashMap<u32, Partial>) {
        for (ei, edge) in self.query.edges.iter().enumerate() {
            let pinned = self.query.predicates.iter().any(|p| {
                matches!(
                    (p.lhs, p.op, p.rhs),
                    (QueryOperand::EdgeIdOf(e), CmpOp::Eq, QueryOperand::Const(_)) if e == ei
                ) && p.rhs_add == 0
            });
            if !pinned || edge.src == edge.dst || edge.var_length.is_some() {
                continue;
            }
            let mask = (1u32 << edge.src) | (1u32 << edge.dst);
            // Conservatively leave masks containing variable-length edges
            // to the vertex-seeded transitions, which append the required
            // distance checks.
            if self.varlength_internal(mask) != 0 {
                continue;
            }
            let bound_edges = self.bound_edges(mask);
            let mut applied = 0u64;
            let mut preds = Vec::new();
            for (i, p) in self.query.predicates.iter().enumerate() {
                if self.pred_bound(p, mask, bound_edges) {
                    preds.push(*p);
                    applied |= 1 << i;
                }
            }
            let plan = Partial {
                cost: self.stats.edge_count as f64,
                card: 1.0,
                ops: vec![Operator::ScanEdges {
                    edge_var: ei,
                    src_var: edge.src,
                    dst_var: edge.dst,
                    label: edge.label,
                    src_label: self.query.vertices[edge.src].label,
                    dst_label: self.query.vertices[edge.dst].label,
                    preds,
                }],
                applied,
            };
            offer(best, mask, plan);
        }
    }

    // ----- E/I extensions --------------------------------------------------

    fn extend_ei(&self, mask: u32, partial: &Partial, best: &mut FxHashMap<u32, Partial>) {
        for v in 0..self.query.vertices.len() {
            if mask & (1 << v) != 0 {
                continue;
            }
            // Variable-length edges never feed an intersection; they are
            // consumed by VAR-LENGTH EXPAND or appended distance checks.
            let connecting: Vec<(usize, usize, bool)> = self
                .query
                .incident_edges(v)
                .filter(|&(eidx, other, _)| {
                    self.query.edges[eidx].var_length.is_none() && mask & (1 << other) != 0
                })
                .collect();
            if connecting.is_empty() {
                continue;
            }
            let need_sorted = connecting.len() > 1;
            let mut alds = Vec::with_capacity(connecting.len());
            let mut consumed = 0u64;
            let mut sum_size = 0.0f64;
            let mut sizes = Vec::with_capacity(connecting.len());
            let mut residual = Vec::new();
            let mut ok = true;
            for &(eidx, _, _) in &connecting {
                match self.best_candidate(mask, v, eidx, need_sorted) {
                    Some(c) => {
                        sum_size += c.est_size;
                        sizes.push(c.est_size);
                        consumed |= c.consumed;
                        // A labelled query edge whose label the access path
                        // does not enforce (no label partition level) is
                        // re-checked with a residual label filter.
                        if let Some(label) = self.query.edges[eidx].label {
                            if !c.label_enforced {
                                residual.push(QueryPredicate::new(
                                    QueryOperand::EdgeLabelOf(eidx),
                                    CmpOp::Eq,
                                    QueryOperand::Const(i64::from(label.raw())),
                                ));
                            }
                        }
                        alds.push(c.ald);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let new_mask = mask | (1 << v);
            let new_bound = self.bound_edges(new_mask);
            // Residual predicates now evaluable, minus consumed ones.
            let mut applied = partial.applied | consumed;
            let mut residual_sel = 1.0f64;
            for (i, p) in self.query.predicates.iter().enumerate() {
                if applied & (1 << i) != 0 || !self.pred_bound(p, new_mask, new_bound) {
                    continue;
                }
                residual.push(*p);
                applied |= 1 << i;
                residual_sel *= pred_selectivity(p);
            }
            let out_per_tuple = intersection_estimate(&sizes, self.stats.vertex_count as f64);
            let mut cost = partial.cost + partial.card * sum_size.max(1.0);
            let mut card = (partial.card * out_per_tuple * residual_sel).max(0.001);
            let mut ops = partial.ops.clone();
            ops.push(Operator::ExtendIntersect {
                target: v,
                target_label: self.query.vertices[v].label,
                alds,
                residual,
            });
            // Distance checks for variable-length edges newly internal to
            // the grown mask (both endpoints now bound).
            let newly_internal = self.varlength_internal(new_mask) & !self.varlength_internal(mask);
            for ei in iter_bits(newly_internal) {
                let (op, work) = self.varlength_check_op(ei);
                cost += card * work;
                card = (card * consts::RESIDUAL_RANGE_SEL).max(0.001);
                ops.push(op);
            }
            offer(
                best,
                new_mask,
                Partial {
                    cost,
                    card,
                    ops,
                    applied,
                },
            );
        }
    }

    // ----- VAR-LENGTH EXPAND extensions -------------------------------------

    /// Extends the bound set by one unbound vertex reachable through a
    /// variable-length query edge: a BFS traversal from the bound
    /// endpoint binds the target to every vertex whose shortest walk lies
    /// within the hop bounds.
    fn extend_varlength(&self, mask: u32, partial: &Partial, best: &mut FxHashMap<u32, Partial>) {
        for v in 0..self.query.vertices.len() {
            if mask & (1 << v) != 0 {
                continue;
            }
            for (eidx, other, v_is_src) in self.query.incident_edges(v) {
                let edge = &self.query.edges[eidx];
                let Some(vl) = edge.var_length else { continue };
                if mask & (1 << other) == 0 {
                    continue;
                }
                // Traverse from the bound endpoint toward the unbound one:
                // forward lists when the bound endpoint is the pattern
                // source, backward lists when it is the destination.
                let dir = if v_is_src {
                    Direction::Bwd
                } else {
                    Direction::Fwd
                };
                let (prefix, label_enforced) = self.varlength_prefix(dir, edge.label);
                let (work, reach) = self.varlength_estimate(edge.label, label_enforced, vl.max);
                let new_mask = mask | (1 << v);
                let new_bound = self.bound_edges(new_mask);
                let mut residual = Vec::new();
                let mut applied = partial.applied;
                let mut residual_sel = 1.0f64;
                for (i, p) in self.query.predicates.iter().enumerate() {
                    if applied & (1 << i) != 0 || !self.pred_bound(p, new_mask, new_bound) {
                        continue;
                    }
                    residual.push(*p);
                    applied |= 1 << i;
                    residual_sel *= pred_selectivity(p);
                }
                let mut cost = partial.cost + partial.card * work.max(1.0);
                let mut card = (partial.card * reach * residual_sel).max(0.001);
                let mut ops = partial.ops.clone();
                ops.push(Operator::VarLengthExpand {
                    src: other,
                    target: v,
                    target_label: self.query.vertices[v].label,
                    edge_label: edge.label,
                    dir,
                    prefix,
                    label_enforced,
                    min: vl.min,
                    max: vl.max,
                    check: false,
                    residual,
                });
                // Other variable-length edges made internal by binding `v`
                // become distance checks.
                let newly_internal = (self.varlength_internal(new_mask)
                    & !self.varlength_internal(mask))
                    & !(1u64 << eidx);
                for ei in iter_bits(newly_internal) {
                    let (op, check_work) = self.varlength_check_op(ei);
                    cost += card * check_work;
                    card = (card * consts::RESIDUAL_RANGE_SEL).max(0.001);
                    ops.push(op);
                }
                offer(
                    best,
                    new_mask,
                    Partial {
                        cost,
                        card,
                        ops,
                        applied,
                    },
                );
            }
        }
    }

    // ----- MULTI-EXTEND extensions ------------------------------------------

    fn extend_multi(&self, mask: u32, partial: &Partial, best: &mut FxHashMap<u32, Partial>) {
        // Equality pairs on the same property among unbound vertices.
        let mut eq_pairs: Vec<(usize, usize, aplus_common::PropertyId, usize)> = Vec::new();
        for (pi, p) in self.query.predicates.iter().enumerate() {
            if let Some((a, b, prop)) = p.vertex_property_equality() {
                if mask & (1 << a) == 0 && mask & (1 << b) == 0 {
                    eq_pairs.push((a, b, prop, pi));
                }
            }
        }
        if eq_pairs.is_empty() {
            return;
        }
        // Candidate groups: each pair, and each transitive closure of pairs
        // over the same property.
        let mut groups: Vec<(Vec<usize>, aplus_common::PropertyId, u64)> = Vec::new();
        for &(a, b, prop, pi) in &eq_pairs {
            let mut members = vec![a, b];
            let mut pred_bits = 1u64 << pi;
            let mut changed = true;
            while changed {
                changed = false;
                for &(x, y, p2, pj) in &eq_pairs {
                    if p2 != prop {
                        continue;
                    }
                    let hx = members.contains(&x);
                    let hy = members.contains(&y);
                    if hx && hy {
                        pred_bits |= 1 << pj;
                    } else if hx {
                        members.push(y);
                        pred_bits |= 1 << pj;
                        changed = true;
                    } else if hy {
                        members.push(x);
                        pred_bits |= 1 << pj;
                        changed = true;
                    }
                }
            }
            members.sort_unstable();
            members.dedup();
            if !groups.iter().any(|(m, p2, _)| *m == members && *p2 == prop) {
                groups.push((members, prop, pred_bits));
            }
            let mut pair = vec![a, b];
            pair.sort_unstable();
            if !groups.iter().any(|(m, p2, _)| *m == pair && *p2 == prop) {
                groups.push((pair, prop, 1 << pi));
            }
        }

        for (members, prop, pred_bits) in groups {
            if members.len() < 2 || members.len() > 4 {
                continue;
            }
            // No query edge may run between two group members (it would
            // never be bound), and each member needs exactly one edge to S.
            let internal = self
                .query
                .edges
                .iter()
                .any(|e| members.contains(&e.src) && members.contains(&e.dst));
            if internal {
                continue;
            }
            // Conservatively leave groups that would internalize a
            // variable-length edge to the E/I + VAR-LENGTH transitions,
            // which append the required distance checks.
            let group_mask = members.iter().fold(mask, |m, &v| m | (1 << v));
            if self.varlength_internal(group_mask) != self.varlength_internal(mask) {
                continue;
            }
            let mut targets = Vec::with_capacity(members.len());
            let mut consumed = pred_bits;
            let mut sizes = Vec::new();
            let mut sum_size = 0.0;
            let mut residual = Vec::new();
            let mut ok = true;
            for &m in &members {
                let connecting: Vec<(usize, usize, bool)> = self
                    .query
                    .incident_edges(m)
                    .filter(|&(_, other, _)| mask & (1 << other) != 0)
                    .collect();
                if connecting.len() != 1 {
                    ok = false;
                    break;
                }
                let (eidx, _, _) = connecting[0];
                let Some(cand) = self.property_sorted_candidate(mask, m, eidx, prop) else {
                    ok = false;
                    break;
                };
                sum_size += cand.est_size;
                sizes.push(cand.est_size);
                consumed |= cand.consumed;
                if let Some(label) = self.query.edges[eidx].label {
                    if !cand.label_enforced {
                        residual.push(QueryPredicate::new(
                            QueryOperand::EdgeLabelOf(eidx),
                            CmpOp::Eq,
                            QueryOperand::Const(i64::from(label.raw())),
                        ));
                    }
                }
                targets.push((m, self.query.vertices[m].label, cand.ald));
            }
            if !ok {
                continue;
            }
            let new_mask = members.iter().fold(mask, |m, &v| m | (1 << v));
            let new_bound = self.bound_edges(new_mask);
            let mut applied = partial.applied | consumed;
            let mut residual_sel = 1.0f64;
            for (i, p) in self.query.predicates.iter().enumerate() {
                if applied & (1 << i) != 0 || !self.pred_bound(p, new_mask, new_bound) {
                    continue;
                }
                residual.push(*p);
                applied |= 1 << i;
                residual_sel *= pred_selectivity(p);
            }
            let domain = self.property_domain(prop);
            let out_per_tuple = sizes.iter().product::<f64>() / domain.powi(sizes.len() as i32 - 1);
            let cost = partial.cost + partial.card * sum_size.max(1.0);
            let card = (partial.card * out_per_tuple * residual_sel).max(0.001);
            let mut ops = partial.ops.clone();
            ops.push(Operator::MultiExtend { targets, residual });
            offer(
                best,
                new_mask,
                Partial {
                    cost,
                    card,
                    ops,
                    applied,
                },
            );
        }
    }

    // ----- candidate generation -----------------------------------------------

    /// The cheapest access path for `eidx` extending to `target`, requiring
    /// neighbour-ID order when `need_sorted` (penalizing exec-side sorts
    /// otherwise).
    fn best_candidate(
        &self,
        mask: u32,
        target: usize,
        eidx: usize,
        need_sorted: bool,
    ) -> Option<Candidate> {
        self.candidates(mask, target, eidx)
            .into_iter()
            .map(|mut c| {
                if need_sorted && !(c.ald.nbr_sorted() && c.ald.sorted_range) {
                    c.est_size *= consts::SORT_PENALTY;
                }
                c
            })
            .min_by(|a, b| a.est_size.total_cmp(&b.est_size))
    }

    /// The cheapest access path whose *effective leading sort* is
    /// `NbrProp(prop)` over a truly sorted range (MULTI-EXTEND member).
    fn property_sorted_candidate(
        &self,
        mask: u32,
        target: usize,
        eidx: usize,
        prop: aplus_common::PropertyId,
    ) -> Option<Candidate> {
        self.candidates(mask, target, eidx)
            .into_iter()
            .filter(|c| {
                c.ald.sorted_range
                    && c.ald.effective_sort().first() == Some(&SortKey::NbrProp(prop))
            })
            .min_by(|a, b| a.est_size.total_cmp(&b.est_size))
    }

    /// All access paths for query edge `eidx` extending `target` from the
    /// bound set `mask`.
    fn candidates(&self, mask: u32, target: usize, eidx: usize) -> Vec<Candidate> {
        let edge = &self.query.edges[eidx];
        let (from_var, direction) = if edge.dst == target {
            (edge.src, Direction::Fwd)
        } else {
            (edge.dst, Direction::Bwd)
        };
        debug_assert!(mask & (1 << from_var) != 0);
        let mut out = Vec::new();

        // Primary index.
        {
            let primary = self.store.primary().index(direction);
            let (prefix, mut consumed, label_enforced, scale) =
                self.resolve_prefix(&primary.spec().partitioning, target, eidx);
            let (prune, prune_consumed, prune_scale) =
                self.resolve_prune(&primary.spec().sort, mask, target, eidx);
            consumed |= prune_consumed;
            let base = if label_enforced {
                self.stats
                    .avg_label_degree(edge.label.expect("enforced implies labelled"))
            } else {
                self.stats.avg_degree()
            };
            let est = (base * scale * prune_scale).max(0.05);
            out.push(Candidate {
                ald: Ald {
                    from: FromRef::Vertex(from_var),
                    index: IndexChoice::Primary(direction),
                    sorted_range: primary.range_sorted(&prefix),
                    prefix,
                    edge_var: eidx,
                    sort: primary.spec().sort.clone(),
                    prune,
                },
                est_size: est,
                consumed,
                label_enforced,
            });
        }

        // Secondary vertex-partitioned indexes.
        let (src_var, dst_var) = (edge.src, edge.dst);
        for vp in self.store.vertex_indexes() {
            if vp.direction() != direction {
                continue;
            }
            // Usability: the index's view predicate must be subsumed by the
            // query's predicates over this edge.
            let query_view =
                ViewPredicate::all_of(self.query.one_hop_view_of(eidx, src_var, dst_var));
            if !vp.view().predicate.subsumed_by(&query_view) {
                continue;
            }
            let (prefix, mut consumed, label_enforced, scale) =
                self.resolve_prefix(&vp.spec().partitioning, target, eidx);
            let (prune, prune_consumed, prune_scale) =
                self.resolve_prune(&vp.spec().sort, mask, target, eidx);
            consumed |= prune_consumed;
            // Predicates implied by the view are enforced by construction.
            consumed |= self.implied_one_hop_preds(&vp.view().predicate, eidx, src_var, dst_var);
            let primary = self.store.primary().index(direction);
            let ratio = vp.entry_count(primary) as f64 / (self.stats.edge_count.max(1)) as f64;
            let base = if label_enforced {
                self.stats
                    .avg_label_degree(edge.label.expect("enforced implies labelled"))
            } else {
                self.stats.avg_degree()
            };
            let est = (base * ratio.min(1.0) * scale * prune_scale).max(0.05);
            out.push(Candidate {
                ald: Ald {
                    from: FromRef::Vertex(from_var),
                    index: IndexChoice::VertexIdx {
                        name: vp.name().to_owned(),
                        direction,
                    },
                    sorted_range: vp.range_sorted(primary, &prefix),
                    prefix,
                    edge_var: eidx,
                    sort: vp.spec().sort.clone(),
                    prune,
                },
                est_size: est,
                consumed,
                label_enforced,
            });
        }

        // Secondary edge-partitioned indexes: need a bound query edge in the
        // right orientation relative to this one.
        let bound_edges = self.bound_edges(mask);
        for ep in self.store.edge_indexes() {
            for (bi, bedge) in self.query.edges.iter().enumerate() {
                if bound_edges & (1 << bi) == 0 || bi == eidx {
                    continue;
                }
                if !orientation_matches(ep.view().orientation, bedge, edge, target) {
                    continue;
                }
                let query_view =
                    ViewPredicate::all_of(self.query.two_hop_view_of(bi, eidx, target));
                if !ep.view().predicate.subsumed_by(&query_view) {
                    continue;
                }
                let (prefix, mut consumed, label_enforced, scale) =
                    self.resolve_prefix(&ep.spec().partitioning, target, eidx);
                let (prune, prune_consumed, prune_scale) =
                    self.resolve_prune(&ep.spec().sort, mask, target, eidx);
                consumed |= prune_consumed;
                consumed |= self.implied_two_hop_preds(&ep.view().predicate, bi, eidx, target);
                let avg_list = ep.entry_count() as f64 / (self.stats.edge_count.max(1)) as f64;
                let est = (avg_list * scale * prune_scale).max(0.02);
                out.push(Candidate {
                    ald: Ald {
                        from: FromRef::BoundEdge(bi),
                        index: IndexChoice::EdgeIdx {
                            name: ep.name().to_owned(),
                        },
                        sorted_range: ep.range_sorted(&prefix),
                        prefix,
                        edge_var: eidx,
                        sort: ep.spec().sort.clone(),
                        prune,
                    },
                    est_size: est,
                    consumed,
                    label_enforced,
                });
            }
        }
        out
    }

    /// Resolves the longest partition-code prefix supported by the query's
    /// constraints. Returns `(prefix, consumed predicate bits,
    /// label_enforced, size scale)`.
    fn resolve_prefix(
        &self,
        partitioning: &[PartitionKey],
        target: usize,
        eidx: usize,
    ) -> (Vec<u32>, u64, bool, f64) {
        let edge = &self.query.edges[eidx];
        let mut prefix = Vec::new();
        let mut consumed = 0u64;
        let mut label_enforced = false;
        let mut scale = 1.0f64;
        for key in partitioning {
            match key {
                PartitionKey::EdgeLabel => {
                    let Some(label) = edge.label else { break };
                    prefix.push(u32::from(label.raw()));
                    label_enforced = true;
                    // Size effect handled via the per-label base average.
                }
                PartitionKey::NbrLabel => {
                    let Some(label) = self.query.vertices[target].label else {
                        break;
                    };
                    prefix.push(u32::from(label.raw()));
                    scale /= (self.graph.catalog().vertex_label_count() as f64).max(1.0);
                }
                PartitionKey::EdgeProp(pid) => {
                    let Some((code, bit)) = self.find_eq_const(
                        |op| matches!(op, QueryOperand::EdgeProp(e, p) if e == eidx && p == *pid),
                    ) else {
                        break;
                    };
                    prefix.push(code);
                    consumed |= bit;
                    let dom = self
                        .graph
                        .catalog()
                        .property_meta(PropertyEntity::Edge, *pid)
                        .domain_size() as f64;
                    scale /= dom.max(1.0);
                }
                PartitionKey::NbrProp(pid) => {
                    let Some((code, bit)) = self.find_eq_const(|op| {
                        matches!(op, QueryOperand::VertexProp(v, p) if v == target && p == *pid)
                    }) else {
                        break;
                    };
                    prefix.push(code);
                    consumed |= bit;
                    let dom = self
                        .graph
                        .catalog()
                        .property_meta(PropertyEntity::Vertex, *pid)
                        .domain_size() as f64;
                    scale /= dom.max(1.0);
                }
            }
        }
        (prefix, consumed, label_enforced, scale)
    }

    /// Finds an `Eq`-against-constant predicate whose property side matches
    /// `lhs_matches`; returns the constant as a partition code plus the
    /// predicate's bit.
    fn find_eq_const(&self, lhs_matches: impl Fn(QueryOperand) -> bool) -> Option<(u32, u64)> {
        for (i, p) in self.query.predicates.iter().enumerate() {
            if p.op != CmpOp::Eq {
                continue;
            }
            if let (lhs, QueryOperand::Const(c)) = (p.lhs, p.rhs) {
                if p.rhs_add == 0 && lhs_matches(lhs) {
                    if let Ok(code) = u32::try_from(c) {
                        return Some((code, 1u64 << i));
                    }
                }
            }
            if let (QueryOperand::Const(c), rhs) = (p.lhs, p.rhs) {
                if p.rhs_add == 0 && lhs_matches(rhs) {
                    if let Ok(code) = u32::try_from(c) {
                        return Some((code, 1u64 << i));
                    }
                }
            }
        }
        None
    }

    /// Resolves a sorted-prefix prune on the leading sort key, if a query
    /// predicate restricts it against a constant or against a property of
    /// an already-bound variable (dynamic prune — MF2's consecutive city
    /// equalities). Returns `(prune, consumed bits, size scale)`.
    fn resolve_prune(
        &self,
        sort: &[SortKey],
        mask: u32,
        target: usize,
        eidx: usize,
    ) -> (Option<Prune>, u64, f64) {
        let leading = match sort.first() {
            Some(k) => *k,
            None => return (None, 0, 1.0),
        };
        if leading == SortKey::NbrLabel {
            return self.label_prune(target);
        }
        let matcher = |op: QueryOperand| -> bool {
            match leading {
                SortKey::NbrId => matches!(op, QueryOperand::VertexIdOf(v) if v == target),
                SortKey::NbrLabel => false,
                SortKey::EdgeProp(pid) => {
                    matches!(op, QueryOperand::EdgeProp(e, p) if e == eidx && p == pid)
                }
                SortKey::NbrProp(pid) => {
                    matches!(op, QueryOperand::VertexProp(v, p) if v == target && p == pid)
                }
            }
        };
        let bound_edges = self.bound_edges(mask);
        // A usable comparison source: a constant, or a property of a bound
        // variable (resolved per tuple at execution).
        let source_of = |op: QueryOperand, rhs_add: i64| -> Option<PruneValue> {
            match op {
                QueryOperand::Const(c) => Some(PruneValue::Const(c.saturating_add(rhs_add))),
                QueryOperand::VertexProp(v, pid)
                    if v != target && mask & (1 << v) != 0 && rhs_add == 0 =>
                {
                    Some(PruneValue::VertexProp(v, pid))
                }
                QueryOperand::EdgeProp(e, pid)
                    if e != eidx && bound_edges & (1 << e) != 0 && rhs_add == 0 =>
                {
                    Some(PruneValue::EdgeProp(e, pid))
                }
                _ => None,
            }
        };
        for (i, p) in self.query.predicates.iter().enumerate() {
            let (value, op) = if matcher(p.lhs) {
                match source_of(p.rhs, p.rhs_add) {
                    Some(v) => (v, p.op),
                    None => continue,
                }
            } else if matcher(p.rhs) && p.rhs_add == 0 {
                match source_of(p.lhs, 0) {
                    Some(v) => (v, p.op.flip()),
                    None => continue,
                }
            } else {
                continue;
            };
            if matches!(op, CmpOp::Ne) {
                continue;
            }
            let scale = match op {
                CmpOp::Eq => 1.0 / self.sort_key_domain(leading),
                _ => consts::RANGE_PRUNE_SEL,
            };
            return (Some(Prune { op, value }), 1 << i, scale);
        }
        (None, 0, 1.0)
    }

    /// Eq-prune on a NbrLabel-leading sort when the target has a label
    /// (the Ds configuration's binary-search benefit).
    fn label_prune(&self, target: usize) -> (Option<Prune>, u64, f64) {
        match self.query.vertices[target].label {
            Some(l) => (
                Some(Prune {
                    op: CmpOp::Eq,
                    value: PruneValue::Const(i64::from(l.raw())),
                }),
                0,
                1.0 / (self.graph.catalog().vertex_label_count() as f64).max(1.0),
            ),
            None => (None, 0, 1.0),
        }
    }

    fn sort_key_domain(&self, key: SortKey) -> f64 {
        match key {
            SortKey::NbrId => self.stats.vertex_count as f64,
            SortKey::NbrLabel => (self.graph.catalog().vertex_label_count() as f64).max(1.0),
            SortKey::EdgeProp(pid) => {
                let meta = self
                    .graph
                    .catalog()
                    .property_meta(PropertyEntity::Edge, pid);
                if meta.kind == PropertyKind::Categorical {
                    (meta.domain_size() as f64).max(1.0)
                } else {
                    consts::DEFAULT_DOMAIN
                }
            }
            SortKey::NbrProp(pid) => {
                let meta = self
                    .graph
                    .catalog()
                    .property_meta(PropertyEntity::Vertex, pid);
                if meta.kind == PropertyKind::Categorical {
                    (meta.domain_size() as f64).max(1.0)
                } else {
                    consts::DEFAULT_DOMAIN
                }
            }
        }
    }

    fn property_domain(&self, pid: aplus_common::PropertyId) -> f64 {
        let meta = self
            .graph
            .catalog()
            .property_meta(PropertyEntity::Vertex, pid);
        if meta.kind == PropertyKind::Categorical {
            (meta.domain_size() as f64).max(1.0)
        } else {
            consts::DEFAULT_DOMAIN
        }
    }

    /// Query-predicate bits implied by a 1-hop view predicate.
    fn implied_one_hop_preds(
        &self,
        view: &ViewPredicate,
        eidx: usize,
        src_var: usize,
        dst_var: usize,
    ) -> u64 {
        let mut bits = 0u64;
        for (i, p) in self.query.predicates.iter().enumerate() {
            if let Some(c) = translate_single_one_hop(p, eidx, src_var, dst_var) {
                if view.implies_comparison(&c) {
                    bits |= 1 << i;
                }
            }
        }
        bits
    }

    /// Query-predicate bits implied by a 2-hop view predicate.
    fn implied_two_hop_preds(
        &self,
        view: &ViewPredicate,
        bound_var: usize,
        adj_var: usize,
        nbr_var: usize,
    ) -> u64 {
        let mut bits = 0u64;
        for (i, p) in self.query.predicates.iter().enumerate() {
            if let Some(c) = translate_single_two_hop(p, bound_var, adj_var, nbr_var) {
                if view.implies_comparison(&c) {
                    bits |= 1 << i;
                }
            }
        }
        bits
    }

    // ----- variable-length helpers -------------------------------------------

    /// Bitmask of *variable-length* query edges whose endpoints are both
    /// in `mask`. The DP invariant: the partial plan for `mask` has
    /// consumed (expanded or checked) exactly these edges.
    fn varlength_internal(&self, mask: u32) -> u64 {
        let mut bits = 0u64;
        for (i, e) in self.query.edges.iter().enumerate() {
            if e.var_length.is_some() && mask & (1 << e.src) != 0 && mask & (1 << e.dst) != 0 {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// A check-mode VAR-LENGTH EXPAND for edge `eidx` (both endpoints
    /// bound): verifies the shortest-walk distance instead of binding.
    /// Returns the operator plus its estimated per-tuple work.
    fn varlength_check_op(&self, eidx: usize) -> (Operator, f64) {
        let edge = &self.query.edges[eidx];
        let vl = edge
            .var_length
            .expect("check op requires a var-length edge");
        let (prefix, label_enforced) = self.varlength_prefix(Direction::Fwd, edge.label);
        let (work, _) = self.varlength_estimate(edge.label, label_enforced, vl.max);
        let op = Operator::VarLengthExpand {
            src: edge.src,
            target: edge.dst,
            target_label: self.query.vertices[edge.dst].label,
            edge_label: edge.label,
            dir: Direction::Fwd,
            prefix,
            label_enforced,
            min: vl.min,
            max: vl.max,
            check: true,
            residual: Vec::new(),
        };
        (op, work)
    }

    /// The partition prefix a variable-length traversal may use: only a
    /// *leading* `EdgeLabel` level of the primary index. Deeper levels
    /// (neighbour labels/properties) describe the *target* vertex and must
    /// not restrict intermediate hops.
    fn varlength_prefix(
        &self,
        dir: Direction,
        label: Option<aplus_common::EdgeLabelId>,
    ) -> (Vec<u32>, bool) {
        let primary = self.store.primary().index(dir);
        match (primary.spec().partitioning.first(), label) {
            (Some(PartitionKey::EdgeLabel), Some(l)) => (vec![u32::from(l.raw())], true),
            _ => (Vec::new(), false),
        }
    }

    /// `(work, reach)` estimate for one traversal invocation: expected
    /// list entries touched across all levels and expected number of
    /// distinct vertices within `max` hops, both capped by the vertex
    /// population.
    fn varlength_estimate(
        &self,
        label: Option<aplus_common::EdgeLabelId>,
        label_enforced: bool,
        max: u32,
    ) -> (f64, f64) {
        let deg = match label {
            Some(l) if label_enforced => self.stats.avg_label_degree(l),
            _ => self.stats.avg_degree(),
        }
        .max(1.0);
        let v = (self.stats.vertex_count as f64).max(1.0);
        let mut reach = 1.0f64;
        let mut work = 0.0f64;
        for _ in 0..max {
            reach = (reach * deg).min(v);
            work += reach;
        }
        (work.max(1.0), reach.max(0.001))
    }

    // ----- helpers -----------------------------------------------------------

    /// Bitmask of query edges whose endpoints are both in `mask`.
    fn bound_edges(&self, mask: u32) -> u64 {
        let mut bits = 0u64;
        for (i, e) in self.query.edges.iter().enumerate() {
            if mask & (1 << e.src) != 0 && mask & (1 << e.dst) != 0 {
                bits |= 1 << i;
            }
        }
        bits
    }

    /// Whether all of `p`'s variables are bound under the vertex mask and
    /// edge bitmask.
    fn pred_bound(&self, p: &QueryPredicate, mask: u32, bound_edges: u64) -> bool {
        p.vertex_vars().all(|v| mask & (1 << v) != 0)
            && p.edge_vars().all(|e| bound_edges & (1 << e) != 0)
    }

    /// Predicates referencing only vertex `v` (no edge vars), plus their
    /// bits.
    fn single_vertex_preds(&self, v: usize) -> (Vec<QueryPredicate>, u64) {
        let mut preds = Vec::new();
        let mut bits = 0u64;
        for (i, p) in self.query.predicates.iter().enumerate() {
            if p.edge_vars().next().is_none() && p.vertex_vars().all(|x| x == v) {
                preds.push(*p);
                bits |= 1 << i;
            }
        }
        (preds, bits)
    }

    fn is_pinned(&self, v: usize, preds: &[QueryPredicate]) -> bool {
        preds.iter().any(|p| {
            matches!(
                (p.lhs, p.op, p.rhs),
                (QueryOperand::VertexIdOf(x), CmpOp::Eq, QueryOperand::Const(_)) if x == v
            )
        })
    }

    fn est_scan_card(&self, v: usize, preds: &[QueryPredicate]) -> f64 {
        let mut card = self.stats.vertex_count as f64;
        if self.query.vertices[v].label.is_some() {
            card /= (self.graph.catalog().vertex_label_count() as f64).max(1.0);
        }
        for p in preds {
            match (p.lhs, p.op, p.rhs) {
                (QueryOperand::VertexIdOf(_), CmpOp::Eq, QueryOperand::Const(_)) => {
                    return 1.0;
                }
                (QueryOperand::VertexIdOf(_), CmpOp::Lt | CmpOp::Le, QueryOperand::Const(c)) => {
                    card = card.min(c as f64);
                }
                _ => card *= pred_selectivity(p),
            }
        }
        card.max(1.0)
    }
}

/// Iterates the set bit positions of `bits` in ascending order.
fn iter_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            None
        } else {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(i)
        }
    })
}

fn offer(best: &mut FxHashMap<u32, Partial>, mask: u32, plan: Partial) {
    match best.get(&mask) {
        Some(existing) if existing.cost <= plan.cost => {}
        _ => {
            best.insert(mask, plan);
        }
    }
}

fn pred_selectivity(p: &QueryPredicate) -> f64 {
    match p.op {
        CmpOp::Eq => consts::RESIDUAL_EQ_SEL,
        _ => consts::RESIDUAL_RANGE_SEL,
    }
}

/// Translates one query predicate into a 1-hop view comparison when it only
/// references the given edge/endpoint variables.
fn translate_single_one_hop(
    p: &QueryPredicate,
    eidx: usize,
    src_var: usize,
    dst_var: usize,
) -> Option<aplus_core::ViewComparison> {
    use aplus_core::{ViewEntity, ViewOperand};
    let map = |op: QueryOperand| -> Option<ViewOperand> {
        match op {
            QueryOperand::Const(c) => Some(ViewOperand::Const(c)),
            QueryOperand::EdgeProp(e, pid) if e == eidx => {
                Some(ViewOperand::Prop(ViewEntity::AdjEdge, pid))
            }
            QueryOperand::VertexProp(v, pid) if v == src_var => {
                Some(ViewOperand::Prop(ViewEntity::SrcVertex, pid))
            }
            QueryOperand::VertexProp(v, pid) if v == dst_var => {
                Some(ViewOperand::Prop(ViewEntity::DstVertex, pid))
            }
            _ => None,
        }
    };
    let lhs = map(p.lhs)?;
    let rhs = map(p.rhs)?;
    if matches!(lhs, ViewOperand::Const(_)) && matches!(rhs, ViewOperand::Const(_)) {
        return None;
    }
    Some(aplus_core::ViewComparison {
        lhs,
        op: p.op,
        rhs,
        rhs_add: p.rhs_add,
    })
}

/// Translates one query predicate into a 2-hop view comparison.
fn translate_single_two_hop(
    p: &QueryPredicate,
    bound_var: usize,
    adj_var: usize,
    nbr_var: usize,
) -> Option<aplus_core::ViewComparison> {
    use aplus_core::{ViewEntity, ViewOperand};
    let map = |op: QueryOperand| -> Option<ViewOperand> {
        match op {
            QueryOperand::Const(c) => Some(ViewOperand::Const(c)),
            QueryOperand::EdgeProp(e, pid) if e == bound_var => {
                Some(ViewOperand::Prop(ViewEntity::BoundEdge, pid))
            }
            QueryOperand::EdgeProp(e, pid) if e == adj_var => {
                Some(ViewOperand::Prop(ViewEntity::AdjEdge, pid))
            }
            QueryOperand::VertexProp(v, pid) if v == nbr_var => {
                Some(ViewOperand::Prop(ViewEntity::NbrVertex, pid))
            }
            _ => None,
        }
    };
    let lhs = map(p.lhs)?;
    let rhs = map(p.rhs)?;
    if matches!(lhs, ViewOperand::Const(_)) && matches!(rhs, ViewOperand::Const(_)) {
        return None;
    }
    Some(aplus_core::ViewComparison {
        lhs,
        op: p.op,
        rhs,
        rhs_add: p.rhs_add,
    })
}

/// Estimated per-tuple output of a z-way neighbour-ID intersection under an
/// independence assumption: the smallest list drives; every other list
/// contains a given vertex with probability `L/|V|`.
fn intersection_estimate(sizes: &[f64], vertex_count: f64) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    let min = sizes.iter().copied().fold(f64::INFINITY, f64::min);
    let mut est = min;
    let mut seen_min = false;
    for &s in sizes {
        if !seen_min && s == min {
            seen_min = true;
            continue;
        }
        est *= (s / vertex_count.max(1.0)).min(1.0);
    }
    est.max(0.001)
}

/// Does `(bedge, aedge)` match the EP orientation, with `aedge` extending
/// to `target`?
fn orientation_matches(
    orientation: TwoHopOrientation,
    bedge: &crate::query::QueryEdge,
    aedge: &crate::query::QueryEdge,
    target: usize,
) -> bool {
    match orientation {
        // vs -[eb]-> vd -[eadj]-> vnbr
        TwoHopOrientation::DestFw => aedge.src == bedge.dst && aedge.dst == target,
        // vs -[eb]-> vd <-[eadj]- vnbr
        TwoHopOrientation::DestBw => aedge.dst == bedge.dst && aedge.src == target,
        // vnbr -[eadj]-> vs -[eb]-> vd
        TwoHopOrientation::SrcFw => aedge.dst == bedge.src && aedge.src == target,
        // vnbr <-[eadj]- vs -[eb]-> vd
        TwoHopOrientation::SrcBw => aedge.src == bedge.src && aedge.dst == target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{IndexChoice, Operator};
    use aplus_core::IndexSpec;
    use aplus_datagen::build_financial_graph;
    use aplus_query_test_helpers::*;

    /// Local helpers (kept in a private module so the name is clear).
    mod aplus_query_test_helpers {
        use super::*;
        use crate::ast;
        use crate::ast::Statement;
        use crate::parser::{self};

        /// Plans `q` — and, for every fixture that goes through here,
        /// checks the plan priced from the graph's maintained statistics
        /// is bit-identical to one priced from a scan of the edges.
        pub fn plan_for(graph: &Graph, store: &IndexStore, q: &str) -> crate::plan::Plan {
            let Statement::Query(ast) = parser::parse(q).unwrap() else {
                panic!("expected query");
            };
            let bound = ast::bind_query(graph, &ast).unwrap();
            let plan = optimize(graph, store, &bound).unwrap();
            let mut edges_per_label = vec![0usize; graph.catalog().edge_label_count()];
            for (_, _, _, label) in graph.edges() {
                edges_per_label[label.index()] += 1;
            }
            let scanned = PlannerStats {
                vertex_count: graph.vertices().count(),
                edge_count: graph.edges().count(),
                edges_per_label: &edges_per_label,
            };
            let reference = optimize_with(graph, store, &bound, scanned).unwrap();
            assert_eq!(format!("{plan:?}"), format!("{reference:?}"), "{q}");
            assert_eq!(plan.est_cost.to_bits(), reference.est_cost.to_bits(), "{q}");
            plan
        }
    }

    fn fixture() -> (Graph, IndexStore) {
        let fg = build_financial_graph();
        let g = fg.graph;
        let store = IndexStore::build(&g).unwrap();
        (g, store)
    }

    #[test]
    fn pinned_vertex_anchors_the_scan() {
        let (g, store) = fixture();
        let plan = plan_for(&g, &store, "MATCH a-[r:W]->b WHERE a.ID = 4");
        match &plan.ops[0] {
            Operator::ScanVertices { var: 0, preds, .. } => {
                assert_eq!(preds.len(), 1, "ID predicate attached to the scan");
            }
            other => panic!("expected pinned scan, got {other:?}"),
        }
    }

    #[test]
    fn labelled_edges_resolve_to_primary_prefixes() {
        let (g, store) = fixture();
        let plan = plan_for(&g, &store, "MATCH a-[r:W]->b");
        match &plan.ops[1] {
            Operator::ExtendIntersect { alds, residual, .. } => {
                assert_eq!(alds[0].prefix.len(), 1, "edge label pinned");
                assert!(residual.is_empty(), "no residual label filter");
                assert_eq!(alds[0].index, IndexChoice::Primary(Direction::Fwd));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unpartitioned_primary_falls_back_to_label_filter() {
        let (g, _) = fixture();
        // Primary with NO label partitioning: labels become residuals.
        let store =
            IndexStore::build_with_spec(&g, IndexSpec::default().with_sort(vec![SortKey::NbrId]))
                .unwrap();
        let plan = plan_for(&g, &store, "MATCH a-[r:W]->b");
        match &plan.ops[1] {
            Operator::ExtendIntersect { alds, residual, .. } => {
                assert!(alds[0].prefix.is_empty());
                assert_eq!(residual.len(), 1, "label re-checked as residual");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bwd_direction_chosen_for_incoming_edges() {
        let (g, store) = fixture();
        let plan = plan_for(&g, &store, "MATCH a-[r:W]->b WHERE b.ID = 3");
        // Cheapest anchor is the pinned b; the extension to a must read
        // b's backward list.
        match &plan.ops[1] {
            Operator::ExtendIntersect { alds, .. } => {
                assert_eq!(alds[0].index, IndexChoice::Primary(Direction::Bwd));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn intersection_extension_for_closing_edges() {
        let (g, store) = fixture();
        let plan = plan_for(
            &g,
            &store,
            "MATCH a-[r1:W]->b-[r2:W]->c, a-[r3:W]->c WHERE a.ID = 4",
        );
        let has_two_way = plan
            .ops
            .iter()
            .any(|op| matches!(op, Operator::ExtendIntersect { alds, .. } if alds.len() == 2));
        assert!(has_two_way, "closing a triangle needs a 2-way E/I:\n{plan}");
    }

    #[test]
    fn currency_partition_prefix_after_reconfigure() {
        let fg = build_financial_graph();
        let g = fg.graph;
        let curr = g
            .catalog()
            .property(PropertyEntity::Edge, "currency")
            .unwrap();
        let store = IndexStore::build_with_spec(
            &g,
            IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel, PartitionKey::EdgeProp(curr)])
                .with_sort(vec![SortKey::NbrId]),
        )
        .unwrap();
        let plan = plan_for(&g, &store, "MATCH a-[r:W]->b WHERE r.currency = USD");
        match &plan.ops[1] {
            Operator::ExtendIntersect { alds, residual, .. } => {
                assert_eq!(alds[0].prefix.len(), 2, "label + currency pinned");
                assert!(residual.is_empty(), "currency consumed by the prefix");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nbr_label_sorted_primary_gets_eq_prune() {
        let fg = build_financial_graph();
        let g = fg.graph;
        let store = IndexStore::build_with_spec(
            &g,
            IndexSpec::default()
                .with_partitioning(vec![PartitionKey::EdgeLabel])
                .with_sort(vec![SortKey::NbrLabel, SortKey::NbrId]),
        )
        .unwrap();
        // Pin c so the extension direction (c -> a) is forced and the
        // Account-label prune lands on the target's NbrLabel sort run.
        let plan = plan_for(&g, &store, "MATCH c-[r:O]->(a:Account) WHERE c.ID = 6");
        match &plan.ops[1] {
            Operator::ExtendIntersect { alds, .. } => {
                let prune = alds[0].prune.expect("Ds-style label prune");
                assert_eq!(prune.op, CmpOp::Eq);
                // After the Eq prune the run is neighbour-ID sorted again.
                assert!(alds[0].nbr_sorted());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn view_with_stronger_predicate_not_used() {
        let fg = build_financial_graph();
        let g = fg.graph;
        let mut store = IndexStore::build(&g).unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        store
            .create_vertex_index(
                &g,
                "Big",
                crate::ast::tests_support::fw(),
                aplus_core::view::OneHopView::new(ViewPredicate::all_of(vec![
                    aplus_core::ViewComparison::prop_const(
                        aplus_core::ViewEntity::AdjEdge,
                        amt,
                        CmpOp::Gt,
                        100,
                    ),
                ]))
                .unwrap(),
                IndexSpec::default_primary(),
            )
            .unwrap();
        // Query asks amt > 50: the view (amt > 100) would miss rows.
        let plan = plan_for(&g, &store, "MATCH a-[r:W]->b WHERE r.amt > 50");
        assert!(!plan.uses_index("Big"), "{plan}");
        // Query asks amt > 200: view usable.
        let plan = plan_for(&g, &store, "MATCH a-[r:W]->b WHERE r.amt > 200");
        assert!(plan.uses_index("Big"), "{plan}");
    }

    #[test]
    fn scan_edges_seed_for_edge_anchored_queries() {
        let (g, store) = fixture();
        let plan = plan_for(&g, &store, "MATCH a-[r]->b-[s]->c WHERE r.eID = 17");
        assert!(
            matches!(plan.ops[0], Operator::ScanEdges { edge_var: 0, .. }),
            "{plan}"
        );
    }

    #[test]
    fn intersection_estimate_shrinks_with_lists() {
        let one = intersection_estimate(&[10.0], 1000.0);
        assert!((one - 10.0).abs() < 1e-9);
        let two = intersection_estimate(&[10.0, 10.0], 1000.0);
        assert!(two < one);
        let empty = intersection_estimate(&[], 1000.0);
        assert_eq!(empty, 0.0);
    }
}
