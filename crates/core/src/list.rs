//! Adjacency-list read handles.
//!
//! An index read returns one of two handles over an ordered sequence of
//! `(edge, neighbour)` pairs:
//!
//! * [`List`] — what a **primary** index returns and what the E/I kernels
//!   consume: a zero-copy borrow of a page's ID arrays, or an owned copy
//!   when the range has buffered inserts or tombstones to splice.
//! * [`OffsetList`] — what a **secondary** index returns: the packed
//!   offsets of the range plus the owner's primary region, resolved once;
//!   positions dereference lazily in `get`, so a binary-search prune
//!   touches O(log n) entries and only the run that survives it is ever
//!   copied ([`OffsetList::into_list`]). Ranges with pending maintenance
//!   come back already spliced.

use std::ops::Range;

use aplus_common::{Bitmap, EdgeId, PackedUints, VertexId};

use crate::nested_csr::Region;

/// An ordered adjacency list of `(edge, neighbour)` pairs.
// Two variants on purpose: a third, lazy-offset arm in `get` slowed the primary
// intersection loop (`secondary_stream` p50 18 -> 28 ms); hence `OffsetList`.
#[derive(Debug, Clone)]
pub enum List<'a> {
    /// Zero-copy view into a page's merged ID arrays.
    Slice {
        /// Edge IDs (raw).
        edges: &'a [u64],
        /// Neighbour vertex IDs (raw).
        nbrs: &'a [u32],
    },
    /// Materialized pairs (buffered pages, dereferenced offset lists).
    Owned(Vec<(u64, u32)>),
}

impl List<'_> {
    /// The empty list.
    #[must_use]
    pub fn empty() -> Self {
        List::Slice {
            edges: &[],
            nbrs: &[],
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            List::Slice { edges, .. } => edges.len(),
            List::Owned(v) => v.len(),
        }
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(edge, neighbour)` pair at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> (EdgeId, VertexId) {
        match self {
            List::Slice { edges, nbrs } => (EdgeId(edges[i]), VertexId(nbrs[i])),
            List::Owned(v) => (EdgeId(v[i].0), VertexId(v[i].1)),
        }
    }

    /// Iterates the pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// The list a secondary (offset-list) index returns for one owner and
/// partition prefix (§III-B3).
#[derive(Debug, Clone)]
pub enum OffsetList<'a> {
    /// Nothing pending: positions `start..start + len` of a page's packed
    /// offsets, each an index into the owner's primary region columns.
    Clean {
        /// The page's packed offsets.
        offsets: &'a PackedUints,
        /// First position of the range.
        start: usize,
        /// Number of entries.
        len: usize,
        /// Edge-ID column of the owner's primary region.
        edges: &'a [u64],
        /// Neighbour-ID column of the owner's primary region.
        nbrs: &'a [u32],
    },
    /// The range had buffered entries or tombstones: spliced, live pairs.
    Dirty(Vec<(u64, u32)>),
}

impl<'a> OffsetList<'a> {
    /// The empty list.
    #[must_use]
    pub fn empty() -> Self {
        OffsetList::Dirty(Vec::new())
    }

    /// Reads positions `range` of a secondary page whose entries point
    /// into `region`. `splices` are the buffered entries of the range;
    /// `deleted` is the page's tombstone bitmap. Positions past the end of
    /// `offsets` (a shared-levels page lagging its primary) read as absent.
    pub(crate) fn read(
        offsets: &'a PackedUints,
        deleted: &Bitmap,
        range: Range<usize>,
        splices: &[Splice],
        region: Region<'a>,
    ) -> Self {
        if splices.is_empty()
            && range.end <= offsets.len()
            && deleted.count_ones_in_range(range.clone()) == 0
            && region.is_clean()
        {
            return OffsetList::Clean {
                offsets,
                start: range.start,
                len: range.len(),
                edges: region.edges,
                nbrs: region.nbrs,
            };
        }
        let merged = |pos: usize| {
            if pos >= offsets.len() {
                return (0, 0, true);
            }
            let off = offsets.get(pos) as usize;
            let gone = deleted.get(pos) || region.is_deleted(off);
            (region.edges[off], region.nbrs[off], gone)
        };
        OffsetList::Dirty(interleave(range, merged, splices))
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            OffsetList::Clean { len, .. } => *len,
            OffsetList::Dirty(v) => v.len(),
        }
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(edge, neighbour)` pair at position `i` (one indirection when
    /// clean).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> (EdgeId, VertexId) {
        match self {
            OffsetList::Clean {
                offsets,
                start,
                len,
                edges,
                nbrs,
            } => {
                assert!(i < *len, "index {i} out of range {len}");
                let off = offsets.get(start + i) as usize;
                (EdgeId(edges[off]), VertexId(nbrs[off]))
            }
            OffsetList::Dirty(v) => (EdgeId(v[i].0), VertexId(v[i].1)),
        }
    }

    /// Iterates the pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, VertexId)> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Dereferences positions `[start, end)` into a [`List`] — the one
    /// point where an offset list is copied, so callers prune first.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > len`.
    #[must_use]
    pub fn into_list(self, start: usize, end: usize) -> List<'static> {
        assert!(start <= end && end <= self.len(), "bad run {start}..{end}");
        List::Owned(match self {
            OffsetList::Dirty(mut v) => {
                v.truncate(end);
                v.drain(..start);
                v
            }
            OffsetList::Clean {
                offsets,
                start: first,
                edges,
                nbrs,
                ..
            } => (first + start..first + end)
                .map(|pos| {
                    let off = offsets.get(pos) as usize;
                    (edges[off], nbrs[off])
                })
                .collect(),
        })
    }
}

/// An ID-based buffered entry splice: `(position in the merged array before
/// which this entry sorts, edge, neighbour)`.
pub(crate) type Splice = (u32, u64, u32);

/// Materializes a range of a merged array interleaved with buffered splices
/// and with tombstones dropped.
///
/// * `merged` yields `(abs_position, edge, nbr, deleted)` for positions
///   `range.start..range.end`.
/// * `splices` must be sorted by `(position, …)` and contain only entries
///   belonging to the range's slots.
pub(crate) fn interleave(
    range: Range<usize>,
    merged: impl Fn(usize) -> (u64, u32, bool),
    splices: &[Splice],
) -> Vec<(u64, u32)> {
    let mut out = Vec::with_capacity(range.len() + splices.len());
    let mut si = 0;
    for pos in range.clone() {
        while si < splices.len() && (splices[si].0 as usize) <= pos {
            out.push((splices[si].1, splices[si].2));
            si += 1;
        }
        let (edge, nbr, deleted) = merged(pos);
        if !deleted {
            out.push((edge, nbr));
        }
    }
    for s in &splices[si..] {
        out.push((s.1, s.2));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_accessors() {
        let edges = [10u64, 11, 12];
        let nbrs = [1u32, 2, 3];
        let l = List::Slice {
            edges: &edges,
            nbrs: &nbrs,
        };
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(1), (EdgeId(11), VertexId(2)));
        let collected: Vec<_> = l.iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn owned_accessors() {
        let l = List::Owned(vec![(5, 50), (6, 60)]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.get(0), (EdgeId(5), VertexId(50)));
        assert!(!l.is_empty());
        assert!(List::empty().is_empty());
    }

    #[test]
    fn interleave_positions() {
        // Merged: positions 0..3 hold edges 100,101,102. A splice at
        // position 1 goes before edge 101; a splice at position 3 (== end)
        // goes last.
        let merged = |p: usize| (100 + p as u64, p as u32, false);
        let splices = vec![(1u32, 500u64, 9u32), (3, 600, 9)];
        let out = interleave(0..3, merged, &splices);
        assert_eq!(out, vec![(100, 0), (500, 9), (101, 1), (102, 2), (600, 9)]);
    }

    #[test]
    fn interleave_skips_tombstones() {
        let merged = |p: usize| (100 + p as u64, 0u32, p == 1);
        let out = interleave(0..3, merged, &[]);
        assert_eq!(out, vec![(100, 0), (102, 0)]);
    }

    #[test]
    fn interleave_range_offset() {
        // Range starting at 5; splice position 5 comes before merged[5].
        let merged = |p: usize| (p as u64, 0u32, false);
        let splices = vec![(5u32, 999u64, 1u32)];
        let out = interleave(5..7, merged, &splices);
        assert_eq!(out, vec![(999, 1), (5, 0), (6, 0)]);
    }
}
