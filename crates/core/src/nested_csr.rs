//! The nested CSR: the paper's core physical data structure (§III-A, §IV-B).
//!
//! A [`NestedCsr`] stores adjacency lists for a dense space of *owners*
//! (vertex IDs for primary indexes; the structure is generic so tests can
//! exercise it directly). Owners are grouped 64 to a page. Within a page,
//! each owner's edges are partitioned into `slots_per_owner` innermost
//! slots — the flattened form of the nested partitioning levels: with level
//! widths `w1..wk`, the slot of codes `(c1..ck)` is the row-major index
//! `((c1*w2)+c2)*w3+…`. Because slots of a shared prefix are contiguous,
//! any partitioning prefix (e.g. "all edges", "all Wire edges", "all Wire
//! edges in USD") denotes one contiguous ID-list range — the paper's
//! `L = LW ∪ LDD` nesting.
//!
//! Each page carries an **update buffer** and a tombstone bitmap (§IV-C).
//! Buffered inserts record the merged-array position they sort before, so
//! reads interleave them without consulting the graph, and `merge_group`
//! folds them into the arrays.
//!
//! The page is also the unit of sharing: pages sit behind `Arc`s, so a
//! clone of the CSR copies only the page pointers, and a mutation unshares
//! (`Arc::make_mut`) just the page it writes — after checking through
//! `&self` that it has something to write.

use std::sync::Arc;

use aplus_common::{Bitmap, EdgeId, VertexId, GROUP_SIZE};

use crate::list::{interleave, List, Splice};
use crate::sortkey::SortVal;

/// One edge headed for the index: owner + flattened slot + sort key + IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryInput {
    /// Owner (vertex) the list belongs to.
    pub owner: u32,
    /// Flattened innermost slot.
    pub slot: u32,
    /// Composite sort key.
    pub sort: SortVal,
    /// Edge ID (raw).
    pub edge: u64,
    /// Neighbour ID (raw).
    pub nbr: u32,
}

/// A buffered (not yet merged) insert.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BufferedEntry {
    owner_in_page: u32,
    slot: u32,
    sort: SortVal,
    edge: u64,
    nbr: u32,
    /// Merged-array position (absolute within the page) this entry sorts
    /// immediately before.
    merge_pos: u32,
}

/// One 64-owner data page.
#[derive(Debug, Clone, Default)]
pub struct Page {
    /// `owners_in_page * slots_per_owner + 1` positions into the ID arrays.
    slot_offsets: Vec<u32>,
    edge_ids: Vec<u64>,
    nbr_ids: Vec<u32>,
    deleted: Bitmap,
    buffer: Vec<BufferedEntry>,
}

impl Page {
    fn entry(&self, pos: usize) -> (u64, u32, bool) {
        (self.edge_ids[pos], self.nbr_ids[pos], self.deleted.get(pos))
    }

    fn live_range_is_clean(&self, range: std::ops::Range<usize>) -> bool {
        self.deleted.count_ones_in_range(range) == 0
    }
}

/// One owner's merged region (buffered entries excluded), borrowed from its
/// page: the target of offset-list dereferences.
#[derive(Debug, Clone, Copy)]
pub struct Region<'a> {
    /// Edge IDs (raw), indexed by region-relative offset.
    pub edges: &'a [u64],
    /// Neighbour vertex IDs (raw), indexed by region-relative offset.
    pub nbrs: &'a [u32],
    deleted: &'a Bitmap,
    start: usize,
}

impl Region<'_> {
    /// Whether the region has no tombstones (word-at-a-time bitmap check).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        let range = self.start..self.start + self.edges.len();
        self.deleted.count_ones_in_range(range) == 0
    }

    /// Whether the entry at region-relative offset `off` is tombstoned.
    #[must_use]
    pub fn is_deleted(&self, off: usize) -> bool {
        self.deleted.get(self.start + off)
    }
}

/// The multi-level partitioned CSR.
#[derive(Debug, Clone)]
pub struct NestedCsr {
    widths: Vec<u32>,
    slots_per_owner: u32,
    owner_count: usize,
    pages: Vec<Arc<Page>>,
    /// Live entry count (merged − tombstoned + buffered).
    entry_count: usize,
    /// Which flattened slots hold any entry for *any* owner. A range that
    /// spans several slots is only per-slot sorted; if at most one spanned
    /// slot is non-empty the range is still globally sorted, which is what
    /// lets unlabeled query edges intersect sorted lists on single-label
    /// datasets. Conservative under deletions (bits are never cleared).
    nonempty_slots: Vec<bool>,
}

impl NestedCsr {
    /// Builds a CSR over `owner_count` owners from unsorted entries.
    #[must_use]
    pub fn build(owner_count: usize, widths: Vec<u32>, mut entries: Vec<EntryInput>) -> Self {
        let slots_per_owner = widths.iter().product::<u32>().max(1);
        entries.sort_unstable_by_key(|e| (e.owner, e.slot, e.sort));
        let entry_count = entries.len();
        let page_count = owner_count.div_ceil(GROUP_SIZE).max(1);
        let mut pages = Vec::with_capacity(page_count);
        let mut cursor = 0usize;
        for g in 0..page_count {
            let owners_in_page = owners_in_group(owner_count, g);
            let slot_count = owners_in_page * slots_per_owner as usize;
            let mut slot_offsets = Vec::with_capacity(slot_count + 1);
            slot_offsets.push(0u32);
            let mut edge_ids = Vec::new();
            let mut nbr_ids = Vec::new();
            for local in 0..owners_in_page {
                let owner = (g * GROUP_SIZE + local) as u32;
                for slot in 0..slots_per_owner {
                    while cursor < entries.len()
                        && entries[cursor].owner == owner
                        && entries[cursor].slot == slot
                    {
                        edge_ids.push(entries[cursor].edge);
                        nbr_ids.push(entries[cursor].nbr);
                        cursor += 1;
                    }
                    slot_offsets.push(edge_ids.len() as u32);
                }
            }
            let deleted = Bitmap::with_len(edge_ids.len(), false);
            pages.push(Page {
                slot_offsets,
                edge_ids,
                nbr_ids,
                deleted,
                buffer: Vec::new(),
            });
        }
        debug_assert_eq!(
            cursor,
            entries.len(),
            "entries must reference valid owners/slots"
        );
        // Allocate the page headers back to back, after the arrays: every
        // list read goes through one, and scattering them between the
        // arrays costs reads a TLB miss.
        let pages = pages.into_iter().map(Arc::new).collect();
        let mut nonempty_slots = vec![false; slots_per_owner as usize];
        for e in &entries {
            nonempty_slots[e.slot as usize] = true;
        }
        Self {
            widths,
            slots_per_owner,
            owner_count,
            pages,
            entry_count,
            nonempty_slots,
        }
    }

    /// Number of globally non-empty slots within the span of `prefix`.
    #[must_use]
    pub fn nonempty_in_span(&self, prefix: &[u32]) -> usize {
        let (first, span) = self.slot_span(prefix);
        (first..first + span)
            .filter(|&s| self.nonempty_slots[s as usize])
            .count()
    }

    /// Whether the range selected by `prefix` is globally sorted (covers at
    /// most one non-empty slot).
    #[must_use]
    pub fn span_sorted(&self, prefix: &[u32]) -> bool {
        self.nonempty_in_span(prefix) <= 1
    }

    /// The per-level slot widths this CSR was built with.
    #[must_use]
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Flattened slots per owner.
    #[must_use]
    pub fn slots_per_owner(&self) -> u32 {
        self.slots_per_owner
    }

    /// Number of owners.
    #[must_use]
    pub fn owner_count(&self) -> usize {
        self.owner_count
    }

    /// Number of pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Live entries (merged minus tombstones plus buffered).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entry_count
    }

    /// Extends the owner space (e.g. new vertices), appending empty lists.
    pub fn grow_owners(&mut self, new_count: usize) {
        if new_count <= self.owner_count {
            return;
        }
        self.owner_count = new_count;
        let needed_pages = new_count.div_ceil(GROUP_SIZE);
        // Top up the last existing page's slot space; pages already wide
        // enough stay shared.
        for g in 0..self.pages.len() {
            let want = owners_in_group(new_count, g) * self.slots_per_owner as usize + 1;
            if self.pages[g].slot_offsets.len() >= want {
                continue;
            }
            let page = Arc::make_mut(&mut self.pages[g]);
            let last = *page.slot_offsets.last().expect("slot_offsets non-empty");
            while page.slot_offsets.len() < want {
                page.slot_offsets.push(last);
            }
        }
        while self.pages.len() < needed_pages {
            let g = self.pages.len();
            let owners_in_page = owners_in_group(new_count, g);
            let slot_count = owners_in_page * self.slots_per_owner as usize;
            self.pages.push(Arc::new(Page {
                slot_offsets: vec![0; slot_count + 1],
                ..Page::default()
            }));
        }
    }

    // ----- slot geometry ----------------------------------------------------

    /// The contiguous slot span selected by a partition-code prefix: returns
    /// `(first_slot, slot_count)` relative to the owner.
    #[must_use]
    pub fn slot_span(&self, prefix: &[u32]) -> (u32, u32) {
        assert!(
            prefix.len() <= self.widths.len(),
            "prefix longer than partitioning levels"
        );
        let mut base = 0u32;
        for (i, &code) in prefix.iter().enumerate() {
            debug_assert!(
                code < self.widths[i],
                "code {code} out of width {}",
                self.widths[i]
            );
            base = base * self.widths[i] + code;
        }
        let span: u32 = self.widths[prefix.len()..].iter().product::<u32>().max(1);
        (base * span, span)
    }

    /// Absolute (within-page) ID-array range of one flattened slot.
    pub(crate) fn slot_bounds(&self, owner: usize, slot: u32) -> std::ops::Range<usize> {
        let g = owner / GROUP_SIZE;
        let base = (owner % GROUP_SIZE) * self.slots_per_owner as usize + slot as usize;
        let page = &self.pages[g];
        page.slot_offsets[base] as usize..page.slot_offsets[base + 1] as usize
    }

    /// Absolute (within-page) ID-array range covered by `owner` + `prefix`.
    pub(crate) fn range_abs(
        &self,
        owner: usize,
        prefix: &[u32],
    ) -> (usize, std::ops::Range<usize>) {
        self.abs_range(owner, prefix)
    }

    /// Absolute (within-page) ID-array range covered by `owner` + `prefix`.
    fn abs_range(&self, owner: usize, prefix: &[u32]) -> (usize, std::ops::Range<usize>) {
        let g = owner / GROUP_SIZE;
        let local = owner % GROUP_SIZE;
        let (first, span) = self.slot_span(prefix);
        let base = local * self.slots_per_owner as usize + first as usize;
        let page = &self.pages[g];
        let start = page.slot_offsets[base] as usize;
        let end = page.slot_offsets[base + span as usize] as usize;
        (g, start..end)
    }

    /// Absolute range of the whole owner region (all slots).
    #[must_use]
    pub fn region_bounds(&self, owner: usize) -> (usize, std::ops::Range<usize>) {
        self.abs_range(owner, &[])
    }

    /// Length of an owner's merged region (buffered entries excluded).
    #[must_use]
    pub fn region_len_merged(&self, owner: usize) -> usize {
        let (_, r) = self.region_bounds(owner);
        r.len()
    }

    /// Longest merged region among the owners of `group` — the quantity
    /// that fixes the offset byte width of secondary pages (§IV-B).
    #[must_use]
    pub fn max_region_len_in_group(&self, group: usize) -> usize {
        let start = group * GROUP_SIZE;
        let end = ((group + 1) * GROUP_SIZE).min(self.owner_count);
        (start..end)
            .map(|o| self.region_len_merged(o))
            .max()
            .unwrap_or(0)
    }

    /// The `(edge, nbr)` pair at region-relative offset `off` of `owner`,
    /// reading only merged entries — the dereference step of offset lists.
    #[must_use]
    pub fn region_entry(&self, owner: usize, off: usize) -> (EdgeId, VertexId) {
        let (g, r) = self.region_bounds(owner);
        let pos = r.start + off;
        debug_assert!(pos < r.end, "offset {off} beyond region of owner {owner}");
        let page = &self.pages[g];
        (EdgeId(page.edge_ids[pos]), VertexId(page.nbr_ids[pos]))
    }

    /// The merged region of `owner` as its ID columns plus the tombstone
    /// test — what an offset list dereferences through, resolved once per
    /// fetch rather than once per entry.
    #[must_use]
    pub fn region(&self, owner: usize) -> Region<'_> {
        let (g, r) = self.region_bounds(owner);
        let page = &self.pages[g];
        Region {
            edges: &page.edge_ids[r.clone()],
            nbrs: &page.nbr_ids[r.clone()],
            deleted: &page.deleted,
            start: r.start,
        }
    }

    /// Iterates the merged region of `owner` as
    /// `(region_offset, edge, nbr, deleted)`.
    pub fn region_entries(
        &self,
        owner: usize,
    ) -> impl Iterator<Item = (usize, EdgeId, VertexId, bool)> + '_ {
        let (g, r) = self.region_bounds(owner);
        let page = &self.pages[g];
        let start = r.start;
        r.map(move |pos| {
            (
                pos - start,
                EdgeId(page.edge_ids[pos]),
                VertexId(page.nbr_ids[pos]),
                page.deleted.get(pos),
            )
        })
    }

    /// Buffered (unmerged) entries of `owner` as `(slot, edge, nbr)`.
    pub fn buffered_entries(&self, owner: usize) -> impl Iterator<Item = (u32, u64, u32)> + '_ {
        let g = owner / GROUP_SIZE;
        let local = (owner % GROUP_SIZE) as u32;
        self.pages[g]
            .buffer
            .iter()
            .filter(move |b| b.owner_in_page == local)
            .map(|b| (b.slot, b.edge, b.nbr))
    }

    // ----- reads --------------------------------------------------------------

    /// The adjacency list of `owner` restricted to a partition-code prefix
    /// (empty prefix = whole region). Zero-copy when the range has no
    /// tombstones and no buffered entries.
    #[must_use]
    pub fn list(&self, owner: usize, prefix: &[u32]) -> List<'_> {
        let (g, range) = self.abs_range(owner, prefix);
        let page = &self.pages[g];
        let local = (owner % GROUP_SIZE) as u32;
        let (first, span) = self.slot_span(prefix);
        let slot_end = first + span;
        let has_buffered = page
            .buffer
            .iter()
            .any(|b| b.owner_in_page == local && b.slot >= first && b.slot < slot_end);
        if !has_buffered && page.live_range_is_clean(range.clone()) {
            return List::Slice {
                edges: &page.edge_ids[range.clone()],
                nbrs: &page.nbr_ids[range],
            };
        }
        let splices: Vec<Splice> = page
            .buffer
            .iter()
            .filter(|b| b.owner_in_page == local && b.slot >= first && b.slot < slot_end)
            .map(|b| (b.merge_pos, b.edge, b.nbr))
            .collect();
        List::Owned(interleave(range, |p| page.entry(p), &splices))
    }

    // ----- maintenance ---------------------------------------------------------

    /// Buffers an insert. `key_of` recomputes the sort key of existing
    /// merged entries (needed to find the insertion position); it is called
    /// O(log list-length) times.
    pub fn insert(
        &mut self,
        owner: usize,
        slot: u32,
        sort: SortVal,
        edge: u64,
        nbr: u32,
        key_of: impl Fn(EdgeId, VertexId) -> SortVal,
    ) {
        let g = owner / GROUP_SIZE;
        let local = (owner % GROUP_SIZE) as u32;
        let base = (owner % GROUP_SIZE) * self.slots_per_owner as usize + slot as usize;
        let page = &self.pages[g];
        let lo = page.slot_offsets[base] as usize;
        let hi = page.slot_offsets[base + 1] as usize;
        // Binary search for the first merged entry sorting after `sort`.
        let mut a = lo;
        let mut b = hi;
        while a < b {
            let mid = (a + b) / 2;
            let k = key_of(EdgeId(page.edge_ids[mid]), VertexId(page.nbr_ids[mid]));
            if k < sort {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let merge_pos = a as u32;
        let entry = BufferedEntry {
            owner_in_page: local,
            slot,
            sort,
            edge,
            nbr,
            merge_pos,
        };
        let page = Arc::make_mut(&mut self.pages[g]);
        let ins = page.buffer.partition_point(|e| {
            // Slot is the middle tiebreak: empty slots collapse onto the
            // same merged position, and slot order must win over sort-key
            // order across slots.
            (e.merge_pos, e.slot, e.sort) <= (entry.merge_pos, entry.slot, entry.sort)
        });
        page.buffer.insert(ins, entry);
        self.nonempty_slots[slot as usize] = true;
        self.entry_count += 1;
    }

    /// Removes `edge` from `owner`'s lists: drops a buffered copy if
    /// present, otherwise tombstones the merged entry. Returns whether
    /// anything was removed; the page is unshared only when something was.
    pub fn delete(&mut self, owner: usize, edge: u64) -> bool {
        let g = owner / GROUP_SIZE;
        let local = (owner % GROUP_SIZE) as u32;
        if let Some(i) = self.pages[g]
            .buffer
            .iter()
            .position(|b| b.owner_in_page == local && b.edge == edge)
        {
            Arc::make_mut(&mut self.pages[g]).buffer.remove(i);
            self.entry_count -= 1;
            return true;
        }
        let (_, range) = self.region_bounds(owner);
        let page = &self.pages[g];
        let Some(pos) = range
            .into_iter()
            .find(|&pos| page.edge_ids[pos] == edge && !page.deleted.get(pos))
        else {
            return false;
        };
        Arc::make_mut(&mut self.pages[g]).deleted.set(pos, true);
        self.entry_count -= 1;
        true
    }

    /// Number of buffered entries in `group`'s page.
    #[must_use]
    pub fn buffer_len(&self, group: usize) -> usize {
        self.pages[group].buffer.len()
    }

    /// Whether any page holds unmerged work (buffered inserts or deletion
    /// tombstones) — i.e. whether [`NestedCsr::merge_all`] would change
    /// anything. A cheap `&self` probe, so copy-on-write callers can skip
    /// unsharing an index that a merge would not touch.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.pages
            .iter()
            .any(|p| !p.buffer.is_empty() || p.deleted.count_ones() > 0)
    }

    /// Folds a page's buffer and tombstones into its merged arrays.
    /// Returns `true` if the page changed (callers must then rebuild any
    /// offset lists referencing these owners' regions). A clean page stays
    /// shared; a dirty one is replaced by a freshly built page, so the old
    /// one is never copied.
    pub fn merge_group(&mut self, group: usize) -> bool {
        let page = &self.pages[group];
        if page.buffer.is_empty() && page.deleted.count_ones() == 0 {
            return false;
        }
        let owners_in_page =
            page.slot_offsets.len().saturating_sub(1) / self.slots_per_owner as usize;
        let spo = self.slots_per_owner as usize;
        let mut new_edges = Vec::with_capacity(page.edge_ids.len() + page.buffer.len());
        let mut new_nbrs = Vec::with_capacity(page.nbr_ids.len() + page.buffer.len());
        let mut new_offsets = Vec::with_capacity(page.slot_offsets.len());
        new_offsets.push(0u32);
        for local in 0..owners_in_page {
            for slot in 0..spo {
                let base = local * spo + slot;
                let lo = page.slot_offsets[base] as usize;
                let hi = page.slot_offsets[base + 1] as usize;
                let splices: Vec<Splice> = page
                    .buffer
                    .iter()
                    .filter(|b| b.owner_in_page == local as u32 && b.slot == slot as u32)
                    .map(|b| (b.merge_pos, b.edge, b.nbr))
                    .collect();
                let merged = interleave(
                    lo..hi,
                    |p| (page.edge_ids[p], page.nbr_ids[p], page.deleted.get(p)),
                    &splices,
                );
                for (e, n) in merged {
                    new_edges.push(e);
                    new_nbrs.push(n);
                }
                new_offsets.push(new_edges.len() as u32);
            }
        }
        self.pages[group] = Arc::new(Page {
            deleted: Bitmap::with_len(new_edges.len(), false),
            edge_ids: new_edges,
            nbr_ids: new_nbrs,
            slot_offsets: new_offsets,
            buffer: Vec::new(),
        });
        true
    }

    /// Merges every page with pending work; returns the indices of groups
    /// that changed.
    pub fn merge_all(&mut self) -> Vec<usize> {
        (0..self.pages.len())
            .filter(|&g| self.merge_group(g))
            .collect()
    }

    /// Approximate heap bytes: ID arrays (8 B edge + 4 B nbr per entry),
    /// CSR offsets, tombstones and buffers.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.pages
            .iter()
            .map(|p| {
                p.edge_ids.capacity() * 8
                    + p.nbr_ids.capacity() * 4
                    + p.slot_offsets.capacity() * 4
                    + p.deleted.memory_bytes()
                    + p.buffer.capacity() * std::mem::size_of::<BufferedEntry>()
            })
            .sum()
    }

    /// Indexes of the pages `self` does not share with `other`.
    #[cfg(test)]
    pub(crate) fn unshared_pages(&self, other: &Self) -> Vec<usize> {
        unshared_pages(&self.pages, &other.pages)
    }
}

/// Indexes of the pages two page spines do not share; a page only one of
/// them has counts as unshared.
#[cfg(test)]
pub(crate) fn unshared_pages<P>(a: &[Arc<P>], b: &[Arc<P>]) -> Vec<usize> {
    (0..a.len().max(b.len()))
        .filter(|&g| match (a.get(g), b.get(g)) {
            (Some(x), Some(y)) => !Arc::ptr_eq(x, y),
            _ => true,
        })
        .collect()
}

fn owners_in_group(owner_count: usize, group: usize) -> usize {
    owner_count
        .saturating_sub(group * GROUP_SIZE)
        .min(GROUP_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sortkey::{encode_component, SortVal, MAX_SORT_KEYS};

    fn sv(primary: i64, nbr: u32, edge: u64) -> SortVal {
        let mut user = [0u64; MAX_SORT_KEYS];
        user[0] = encode_component(Some(primary));
        SortVal::new(user, nbr, edge)
    }

    fn entry(owner: u32, slot: u32, key: i64, edge: u64, nbr: u32) -> EntryInput {
        EntryInput {
            owner,
            slot,
            sort: sv(key, nbr, edge),
            edge,
            nbr,
        }
    }

    /// 2 owners, 2 slots each; owner 0 has 3 edges (2 in slot 0), owner 1
    /// has 1 edge in slot 1.
    fn small() -> NestedCsr {
        NestedCsr::build(
            2,
            vec![2],
            vec![
                entry(0, 0, 5, 100, 7),
                entry(0, 0, 3, 101, 6),
                entry(0, 1, 1, 102, 9),
                entry(1, 1, 2, 103, 8),
            ],
        )
    }

    #[test]
    fn build_sorts_within_slots() {
        let csr = small();
        let l = csr.list(0, &[0]);
        let edges: Vec<u64> = l.iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(edges, vec![101, 100]); // sorted by key 3 < 5
        assert_eq!(csr.list(0, &[1]).len(), 1);
        assert_eq!(csr.list(1, &[0]).len(), 0);
        assert_eq!(csr.list(1, &[1]).len(), 1);
    }

    #[test]
    fn prefix_covers_nested_slots() {
        let csr = small();
        // Empty prefix = whole region: slot 0 then slot 1.
        let all: Vec<u64> = csr.list(0, &[]).iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(all, vec![101, 100, 102]);
    }

    #[test]
    fn region_entry_offsets() {
        let csr = small();
        assert_eq!(csr.region_len_merged(0), 3);
        assert_eq!(csr.region_entry(0, 0).0, EdgeId(101));
        assert_eq!(csr.region_entry(0, 2).0, EdgeId(102));
        assert_eq!(csr.max_region_len_in_group(0), 3);
    }

    #[test]
    fn slot_span_row_major() {
        let csr = NestedCsr::build(1, vec![3, 2], vec![]);
        assert_eq!(csr.slot_span(&[]), (0, 6));
        assert_eq!(csr.slot_span(&[0]), (0, 2));
        assert_eq!(csr.slot_span(&[2]), (4, 2));
        assert_eq!(csr.slot_span(&[1, 1]), (3, 1));
    }

    #[test]
    fn multi_page_build() {
        // 130 owners -> 3 pages; place one edge on owners 0, 64, 129.
        let entries = vec![
            entry(0, 0, 1, 1, 0),
            entry(64, 0, 1, 2, 0),
            entry(129, 0, 1, 3, 0),
        ];
        let csr = NestedCsr::build(130, vec![1], entries);
        assert_eq!(csr.page_count(), 3);
        assert_eq!(csr.list(64, &[]).get(0).0, EdgeId(2));
        assert_eq!(csr.list(129, &[]).get(0).0, EdgeId(3));
        assert_eq!(csr.list(1, &[]).len(), 0);
    }

    /// Recomputes the build keys of `small()`: edge 100 has key 5, 101 has
    /// key 3, 102 has key 1, 103 has key 2 (the keys used in `entry`).
    fn small_key_of(e: EdgeId, _n: VertexId) -> SortVal {
        let key = match e.raw() {
            100 => 5,
            101 => 3,
            102 => 1,
            103 => 2,
            other => (other % 10) as i64,
        };
        let nbr = match e.raw() {
            100 => 7,
            101 => 6,
            102 => 9,
            103 => 8,
            _ => 0,
        };
        sv(key, nbr, e.raw())
    }

    #[test]
    fn insert_buffers_and_reads_merge() {
        let mut csr = small();
        // Insert key 4 into owner 0 slot 0: sorts between 101 (3) and 100 (5).
        csr.insert(0, 0, sv(4, 5, 200), 200, 5, small_key_of);
        let edges: Vec<u64> = csr.list(0, &[0]).iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(edges, vec![101, 200, 100]);
        assert_eq!(csr.entry_count(), 5);
        // Region list also sees it; offsets (merged-only) do not.
        assert_eq!(csr.list(0, &[]).len(), 4);
        assert_eq!(csr.region_len_merged(0), 3);
    }

    #[test]
    fn merge_folds_buffer() {
        let mut csr = small();
        csr.insert(0, 0, sv(9, 5, 200), 200, 5, small_key_of);
        assert!(csr.merge_group(0));
        assert_eq!(csr.buffer_len(0), 0);
        assert_eq!(csr.region_len_merged(0), 4);
        let edges: Vec<u64> = csr.list(0, &[0]).iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(edges, vec![101, 100, 200]);
        // Second merge is a no-op.
        assert!(!csr.merge_group(0));
    }

    #[test]
    fn delete_tombstones_then_merge_compacts() {
        let mut csr = small();
        assert!(csr.delete(0, 100));
        assert_eq!(csr.entry_count(), 3);
        let edges: Vec<u64> = csr.list(0, &[0]).iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(edges, vec![101]);
        assert!(csr.merge_group(0));
        assert_eq!(csr.region_len_merged(0), 2);
        assert!(!csr.delete(0, 100), "double delete finds nothing");
    }

    #[test]
    fn delete_buffered_entry() {
        let mut csr = small();
        let key_of = |e: EdgeId, _n: VertexId| sv(0, 0, e.raw());
        csr.insert(1, 0, sv(1, 2, 300), 300, 2, key_of);
        assert!(csr.delete(1, 300));
        assert_eq!(csr.list(1, &[0]).len(), 0);
        assert_eq!(csr.entry_count(), 4);
    }

    #[test]
    fn grow_owners_extends_pages() {
        let mut csr = small();
        csr.grow_owners(200);
        assert_eq!(csr.owner_count(), 200);
        assert_eq!(csr.page_count(), 4);
        assert_eq!(csr.list(150, &[]).len(), 0);
        let key_of = |e: EdgeId, _n: VertexId| sv(0, 0, e.raw());
        csr.insert(150, 1, sv(0, 1, 400), 400, 1, key_of);
        assert_eq!(csr.list(150, &[1]).len(), 1);
    }

    #[test]
    fn buffered_reads_are_zero_copy_when_clean() {
        let csr = small();
        assert!(matches!(csr.list(0, &[0]), List::Slice { .. }));
        let mut dirty = small();
        dirty.delete(0, 100);
        assert!(matches!(dirty.list(0, &[0]), List::Owned(_)));
    }

    #[test]
    fn writes_unshare_only_the_pages_they_change() {
        // 130 owners -> pages of 64, 64 and 2 owners; owner o has edge o.
        let entries = (0..130).map(|o| entry(o, 0, 1, u64::from(o), (o + 1) % 130));
        let base = NestedCsr::build(130, vec![1], entries.collect());
        let key_of = |e: EdgeId, _n: VertexId| sv(0, 0, e.raw());

        let mut head = base.clone();
        assert!(head.unshared_pages(&base).is_empty());
        head.insert(100, 0, sv(2, 5, 900), 900, 5, key_of);
        assert_eq!(head.unshared_pages(&base), vec![100 / GROUP_SIZE]);
        assert_eq!(base.list(100, &[]).len(), 1, "the clone never sees it");

        // Writes that find nothing to do unshare nothing.
        let mut head = base.clone();
        assert!(!head.delete(70, 12_345), "absent edge");
        assert!(!head.delete(70, 71), "another owner's edge");
        assert!(head.merge_all().is_empty(), "nothing pending");
        head.grow_owners(140);
        assert_eq!(
            head.unshared_pages(&base),
            vec![2],
            "only the last page was too narrow for 140 owners"
        );

        // A delete, then its merge, touch only the page holding the owner.
        let mut head = base.clone();
        assert!(head.delete(70, 70));
        assert_eq!(head.unshared_pages(&base), vec![1]);
        assert_eq!(head.merge_all(), vec![1]);
        assert_eq!(head.unshared_pages(&base), vec![1]);
        assert_eq!(head.list(70, &[]).len(), 0);
        assert_eq!(base.list(70, &[]).len(), 1);
    }

    #[test]
    fn memory_accounting_positive() {
        let csr = small();
        assert!(csr.memory_bytes() > 0);
    }
}
