//! Bitmap-based secondary index storage: the design alternative to offset
//! lists discussed in §III-B3, implemented for the ablation study (E13).
//!
//! A bitmap index marks, for every entry of the primary index, whether that
//! edge belongs to the secondary view: one bit per primary entry instead of
//! one offset per *indexed* edge. Its documented trade-offs, which the
//! ablation benchmark measures:
//!
//! * it cannot support a sort order different from the primary's (the list
//!   order is the primary's order);
//! * for unselective predicates a bit-per-edge beats an offset-per-edge on
//!   space, but as selectivity increases offset lists win;
//! * reads always perform as many bit tests as the *primary* list length,
//!   regardless of how few edges are indexed.

use aplus_common::{Bitmap, EdgeId, VertexId, GROUP_SIZE};
use aplus_graph::Graph;

use crate::error::IndexError;
use crate::list::List;
use crate::primary::PrimaryIndex;
use crate::spec::Direction;
use crate::view::OneHopView;

/// A bitmap-stored secondary vertex-partitioned index. Shares the primary's
/// partitioning levels *and* sort order by construction.
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    name: String,
    direction: Direction,
    view: OneHopView,
    /// One bitmap per primary page, aligned with its merged ID arrays.
    pages: Vec<Bitmap>,
}

impl BitmapIndex {
    /// Builds the bitmap over the primary's current merged entries.
    pub fn build(
        graph: &Graph,
        primary: &PrimaryIndex,
        name: &str,
        view: OneHopView,
    ) -> Result<Self, IndexError> {
        let csr = primary.csr();
        let direction = primary.direction();
        let mut pages: Vec<Bitmap> = Vec::with_capacity(csr.page_count());
        for g in 0..csr.page_count() {
            let start = g * GROUP_SIZE;
            let end = ((g + 1) * GROUP_SIZE).min(csr.owner_count());
            let mut bm = Bitmap::new();
            for owner in start..end {
                for (_, edge, nbr, deleted) in csr.region_entries(owner) {
                    let keep = !deleted
                        && passes(graph, &view, direction, VertexId(owner as u32), edge, nbr);
                    bm.push(keep);
                }
            }
            pages.push(bm);
        }
        Ok(Self {
            name: name.to_owned(),
            direction,
            view,
            pages,
        })
    }

    /// Index name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Index direction.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The 1-hop view.
    #[must_use]
    pub fn view(&self) -> &OneHopView {
        &self.view
    }

    /// Number of indexed edges (set bits).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.pages.iter().map(Bitmap::count_ones).sum()
    }

    /// The indexed list of `owner` under a partition prefix. Performs one
    /// bit test per primary entry in the range (the access-cost shape the
    /// paper predicts for bitmaps).
    #[must_use]
    pub fn list(&self, primary: &PrimaryIndex, owner: VertexId, prefix: &[u32]) -> List<'static> {
        let csr = primary.csr();
        if owner.index() >= csr.owner_count() {
            return List::empty();
        }
        for (i, &code) in prefix.iter().enumerate() {
            if code >= primary.widths()[i] {
                return List::empty();
            }
        }
        let (g, range) = csr.range_abs(owner.index(), prefix);
        let Some(bm) = self.pages.get(g) else {
            return List::empty();
        };
        let (_, region) = csr.region_bounds(owner.index());
        List::from_pairs(
            range
                .filter(|&pos| pos < bm.len() && bm.get(pos))
                .map(|pos| {
                    let (e, n) = csr.region_entry(owner.index(), pos - region.start);
                    (e.raw(), n.raw())
                }),
        )
    }

    /// Heap bytes (the bitmap only; levels are the primary's).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.pages.iter().map(Bitmap::memory_bytes).sum()
    }
}

fn passes(
    graph: &Graph,
    view: &OneHopView,
    direction: Direction,
    owner: VertexId,
    edge: EdgeId,
    nbr: VertexId,
) -> bool {
    let (src, dst) = match direction {
        Direction::Fwd => (owner, nbr),
        Direction::Bwd => (nbr, owner),
    };
    view.predicate.eval_one_hop(graph, edge, src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::PrimaryIndexes;
    use crate::view::{CmpOp, ViewComparison, ViewEntity, ViewPredicate};
    use aplus_datagen::build_financial_graph;
    use aplus_graph::PropertyEntity;

    #[test]
    fn bitmap_matches_predicate_scan() {
        let fg = build_financial_graph();
        let g = &fg.graph;
        let p = PrimaryIndexes::build_default(g).unwrap();
        let amt = g.catalog().property(PropertyEntity::Edge, "amt").unwrap();
        let view = OneHopView::new(ViewPredicate::all_of(vec![ViewComparison::prop_const(
            ViewEntity::AdjEdge,
            amt,
            CmpOp::Gt,
            60,
        )]))
        .unwrap();
        let bi = BitmapIndex::build(g, p.index(Direction::Fwd), "big", view).unwrap();
        // Cross-check per vertex against a direct scan.
        for v in g.vertices() {
            let expect: Vec<u64> = g
                .edges()
                .filter(|&(e, s, _, _)| s == v && g.edge_prop(e, amt).unwrap_or(0) > 60)
                .map(|(e, ..)| e.raw())
                .collect();
            let got: Vec<u64> = bi
                .list(p.index(Direction::Fwd), v, &[])
                .iter()
                .map(|(e, _)| e.raw())
                .collect();
            let mut expect_sorted = expect.clone();
            expect_sorted.sort_unstable();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            assert_eq!(got_sorted, expect_sorted, "vertex {v}");
        }
        assert_eq!(
            bi.entry_count(),
            g.edges()
                .filter(|&(e, ..)| g.edge_prop(e, amt).unwrap_or(0) > 60)
                .count()
        );
    }

    #[test]
    fn bitmap_memory_is_one_bit_per_primary_entry() {
        let fg = build_financial_graph();
        let g = &fg.graph;
        let p = PrimaryIndexes::build_default(g).unwrap();
        let view = OneHopView::new(ViewPredicate::always_true()).unwrap();
        let bi = BitmapIndex::build(g, p.index(Direction::Fwd), "all", view).unwrap();
        // 25 edges -> one 8-byte word (capacity may round up).
        assert!(bi.memory_bytes() <= 64, "got {}", bi.memory_bytes());
        assert_eq!(bi.entry_count(), 25);
    }

    #[test]
    fn prefix_restriction_works() {
        let fg = build_financial_graph();
        let g = &fg.graph;
        let p = PrimaryIndexes::build_default(g).unwrap();
        let view = OneHopView::new(ViewPredicate::always_true()).unwrap();
        let bi = BitmapIndex::build(g, p.index(Direction::Fwd), "all", view).unwrap();
        let wire = u32::from(g.catalog().edge_label("W").unwrap().raw());
        assert_eq!(
            bi.list(p.index(Direction::Fwd), fg.account(1), &[wire])
                .len(),
            3
        );
    }
}
