//! Offset-list storage for every secondary A+ index (§III-B3, §IV-B).
//!
//! Secondary lists are subsets of primary ID lists, so each entry is stored
//! as a single *offset* into the owning region of the primary index instead
//! of an `(8-byte edge ID, 4-byte neighbour ID)` pair. Offsets are packed
//! at a fixed byte width per 64-owner page — "the logarithm of the length
//! of the longest of the 64 lists rounded to the next byte".
//!
//! [`OffsetCsr`] is the one page store of both §III-B3 cases; each call
//! names where the slot bounds of its pages come from ([`Levels`]):
//!
//! * [`Levels::Own`] — the index keeps partitioning levels of its own: a
//!   vertex-partitioned index with a predicate or a partitioning other than
//!   the primary's, and every edge-partitioned index.
//! * [`Levels::Primary`] — a vertex-partitioned index with no predicate and
//!   the primary's partitioning (only the sort differs) reuses the
//!   primary's levels: its pages hold nothing but re-sorted offsets,
//!   positionally aligned with the primary page's merged arrays.
//!
//! Update buffers here hold ID-based entries (the offset of a not-yet-merged
//! primary entry does not exist); they are spliced into reads by their
//! precomputed merge position and converted to offsets on rebuild.
//!
//! Pages sit behind `Arc`s, as in the nested CSR: a clone shares every
//! page, and a write unshares only the page it changes.

use std::ops::Range;
use std::sync::Arc;

use aplus_common::{byte_width_for, Bitmap, PackedUints, GROUP_SIZE};

use crate::list::{OffsetList, Splice};
use crate::nested_csr::{NestedCsr, Region};
use crate::sortkey::SortVal;

/// One secondary entry of an owner: flattened slot + sort key + offset into
/// the owner's primary region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetEntry {
    /// Flattened innermost slot under the index's widths.
    pub slot: u32,
    /// Composite sort key.
    pub sort: SortVal,
    /// Offset into the owner's primary region.
    pub offset: u32,
}

/// Where the slot bounds of an [`OffsetCsr`]'s pages come from (§III-B3).
#[derive(Debug, Clone, Copy)]
pub enum Levels<'a> {
    /// The index's own partitioning levels (case 2).
    Own,
    /// The primary's levels, reused by an index with no predicate and the
    /// primary's partitioning (case 1); its pages store none of their own.
    Primary(&'a NestedCsr),
}

/// A buffered (not yet merged) ID-based entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdBuffered {
    owner_in_page: u32,
    slot: u32,
    sort: SortVal,
    edge: u64,
    nbr: u32,
    /// Secondary merged position (absolute within page) this sorts before.
    merge_pos: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct OffsetPage {
    /// `owners_in_page * slots_per_owner + 1` positions into `offsets`;
    /// empty under [`Levels::Primary`].
    slot_offsets: Vec<u32>,
    offsets: PackedUints,
    deleted: Bitmap,
    buffer: Vec<IdBuffered>,
}

impl OffsetPage {
    /// Live entries: merged minus tombstoned, plus buffered.
    fn entry_count(&self) -> usize {
        self.offsets.len() - self.deleted.count_ones() + self.buffer.len()
    }
}

/// Offset lists over 64-owner pages.
#[derive(Debug, Clone)]
pub struct OffsetCsr {
    widths: Vec<u32>,
    slots_per_owner: u32,
    owner_count: usize,
    pages: Vec<Arc<OffsetPage>>,
    /// Globally non-empty slots (see `NestedCsr::nonempty_slots`).
    nonempty_slots: Vec<bool>,
    /// Live entries across all pages, kept by every mutation so the
    /// optimizer's size estimate reads it without touching the pages.
    entry_count: usize,
}

impl OffsetCsr {
    /// Builds the pages of `owner_count` owners. `gen(owner, out)` appends
    /// that owner's entries to `out` in any order — the same generator the
    /// index hands [`OffsetCsr::rebuild_group`]. `max_offset_exclusive(group)`
    /// gives the exclusive upper bound of offsets in that group (the
    /// longest primary region among its owners), fixing the page's byte
    /// width.
    #[must_use]
    pub fn build(
        owner_count: usize,
        widths: Vec<u32>,
        levels: Levels<'_>,
        max_offset_exclusive: impl Fn(usize) -> u64,
        mut gen: impl FnMut(u32, &mut Vec<OffsetEntry>),
    ) -> Self {
        let slots_per_owner = widths.iter().product::<u32>().max(1);
        let mut csr = Self {
            widths,
            slots_per_owner,
            owner_count,
            pages: Vec::new(),
            nonempty_slots: vec![false; slots_per_owner as usize],
            entry_count: 0,
        };
        let pages: Vec<OffsetPage> = (0..owner_count.div_ceil(GROUP_SIZE).max(1))
            .map(|g| csr.build_page(levels, g, max_offset_exclusive(g), &mut gen))
            .collect();
        csr.entry_count = pages.iter().map(OffsetPage::entry_count).sum();
        // Page headers back to back, after the arrays (see `NestedCsr::build`).
        csr.pages = pages.into_iter().map(Arc::new).collect();
        csr
    }

    /// The page of `group` from `gen`: each owner's entries in slot, then
    /// sort-key order, with slot bounds of its own under [`Levels::Own`].
    fn build_page(
        &mut self,
        levels: Levels<'_>,
        group: usize,
        max_offset_exclusive: u64,
        gen: &mut impl FnMut(u32, &mut Vec<OffsetEntry>),
    ) -> OffsetPage {
        let owners = owners_in_group(self.owner_count, group);
        let own = matches!(levels, Levels::Own);
        let mut slot_offsets = Vec::new();
        if own {
            slot_offsets.reserve_exact(owners * self.slots_per_owner as usize + 1);
            slot_offsets.push(0u32);
        }
        let mut entries = Vec::new();
        for local in 0..owners {
            let start = entries.len();
            gen((group * GROUP_SIZE + local) as u32, &mut entries);
            entries[start..].sort_unstable_by_key(|e| (e.slot, e.sort));
            if own {
                let mut cursor = start;
                for slot in 0..self.slots_per_owner {
                    while cursor < entries.len() && entries[cursor].slot == slot {
                        cursor += 1;
                    }
                    slot_offsets.push(cursor as u32);
                }
                debug_assert_eq!(cursor, entries.len(), "entries must use valid slots");
            }
        }
        let width = byte_width_for(max_offset_exclusive);
        let mut offsets = PackedUints::with_capacity(width, entries.len());
        for e in &entries {
            offsets.push(u64::from(e.offset));
            self.nonempty_slots[e.slot as usize] = true;
        }
        OffsetPage {
            slot_offsets,
            deleted: Bitmap::with_len(offsets.len(), false),
            offsets,
            buffer: Vec::new(),
        }
    }

    /// Whether the range selected by `prefix` is globally sorted (covers at
    /// most one non-empty slot).
    #[must_use]
    pub fn span_sorted(&self, prefix: &[u32]) -> bool {
        if self.out_of_range(prefix) {
            return true; // empty range
        }
        let (first, span) = self.slot_span(prefix);
        (first..first + span)
            .filter(|&s| self.nonempty_slots[s as usize])
            .count()
            <= 1
    }

    /// The per-level slot widths.
    #[must_use]
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Number of owners.
    #[must_use]
    pub fn owner_count(&self) -> usize {
        self.owner_count
    }

    /// Live entries (merged − tombstoned + buffered).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        debug_assert_eq!(
            self.entry_count,
            self.pages.iter().map(|p| p.entry_count()).sum::<usize>(),
            "maintained entry count drifted from the pages"
        );
        self.entry_count
    }

    /// Extends the owner space with empty lists.
    pub fn grow_owners(
        &mut self,
        levels: Levels<'_>,
        new_count: usize,
        max_offset_exclusive: impl Fn(usize) -> u64,
    ) {
        if new_count <= self.owner_count {
            return;
        }
        self.owner_count = new_count;
        let own = matches!(levels, Levels::Own);
        let spo = self.slots_per_owner as usize;
        let slots_in = |g| owners_in_group(new_count, g) * spo + 1;
        for g in 0..self.pages.len() {
            let want = slots_in(g);
            if !own || self.pages[g].slot_offsets.len() >= want {
                continue;
            }
            let page = Arc::make_mut(&mut self.pages[g]);
            let last = *page.slot_offsets.last().expect("non-empty");
            while page.slot_offsets.len() < want {
                page.slot_offsets.push(last);
            }
        }
        while self.pages.len() < new_count.div_ceil(GROUP_SIZE) {
            let g = self.pages.len();
            let slots = if own { slots_in(g) } else { 0 };
            self.pages.push(Arc::new(OffsetPage {
                slot_offsets: vec![0; slots],
                offsets: PackedUints::with_width(byte_width_for(max_offset_exclusive(g))),
                deleted: Bitmap::new(),
                buffer: Vec::new(),
            }));
        }
    }

    fn out_of_range(&self, prefix: &[u32]) -> bool {
        prefix.iter().zip(&self.widths).any(|(c, w)| c >= w)
    }

    /// `(first slot, slot count)` selected by a partition-code prefix.
    fn slot_span(&self, prefix: &[u32]) -> (u32, u32) {
        let mut base = 0u32;
        for (i, &code) in prefix.iter().enumerate() {
            base = base * self.widths[i] + code;
        }
        let span: u32 = self.widths[prefix.len()..].iter().product::<u32>().max(1);
        (base * span, span)
    }

    /// Page-absolute positions of `owner`'s slots `lo..hi`, bounded by the
    /// levels `levels` names.
    fn bounds(&self, levels: Levels<'_>, owner: usize, lo: u32, hi: u32) -> Range<usize> {
        let g = owner / GROUP_SIZE;
        let slot_offsets = match levels {
            Levels::Own => &self.pages[g].slot_offsets[..],
            Levels::Primary(csr) => csr.slot_offsets(g),
        };
        let base = (owner % GROUP_SIZE) * self.slots_per_owner as usize;
        slot_offsets[base + lo as usize] as usize..slot_offsets[base + hi as usize] as usize
    }

    /// The list of `owner` under `prefix`, its offsets pointing into
    /// `region` (the owner's — or, for edge-partitioned indexes, the
    /// anchor's — primary region).
    pub(crate) fn list<'a>(
        &'a self,
        levels: Levels<'_>,
        owner: usize,
        prefix: &[u32],
        region: Region<'a>,
    ) -> OffsetList<'a> {
        if owner >= self.owner_count || self.out_of_range(prefix) {
            return OffsetList::empty();
        }
        let (lo, span) = self.slot_span(prefix);
        let range = self.bounds(levels, owner, lo, lo + span);
        let page = &self.pages[owner / GROUP_SIZE];
        let local = (owner % GROUP_SIZE) as u32;
        let splices: Vec<Splice> = page
            .buffer
            .iter()
            .filter(|b| b.owner_in_page == local && b.slot >= lo && b.slot < lo + span)
            .map(|b| (b.merge_pos, b.edge, b.nbr))
            .collect();
        OffsetList::read(&page.offsets, &page.deleted, range, &splices, region)
    }

    /// Buffers an insert. `key_of_offset(offset)` recomputes the sort key of
    /// a merged entry for the insertion-position binary search.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        levels: Levels<'_>,
        owner: usize,
        slot: u32,
        sort: SortVal,
        edge: u64,
        nbr: u32,
        key_of_offset: impl Fn(u32) -> SortVal,
    ) {
        let g = owner / GROUP_SIZE;
        let page = &self.pages[g];
        let bounds = self.bounds(levels, owner, slot, slot + 1);
        // The primary's bounds may run past a page not yet rebuilt after
        // its merge.
        let (mut a, mut b) = (bounds.start, bounds.end.min(page.offsets.len()));
        while a < b {
            let mid = (a + b) / 2;
            if key_of_offset(page.offsets.get(mid) as u32) < sort {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let entry = IdBuffered {
            owner_in_page: (owner % GROUP_SIZE) as u32,
            slot,
            sort,
            edge,
            nbr,
            merge_pos: a as u32,
        };
        let page = Arc::make_mut(&mut self.pages[g]);
        let ins = page.buffer.partition_point(|e| {
            // Slot is the middle tiebreak: empty slots collapse onto the
            // same merged position, and slot order must win over sort-key
            // order across slots.
            (e.merge_pos, e.slot, e.sort) <= (entry.merge_pos, entry.slot, entry.sort)
        });
        page.buffer.insert(ins, entry);
        self.entry_count += 1;
        self.nonempty_slots[slot as usize] = true;
    }

    /// Removes `edge` from `owner`'s lists (buffer first, then tombstone).
    /// `region` is the primary region the owner's offsets point into.
    pub fn delete(
        &mut self,
        levels: Levels<'_>,
        owner: usize,
        edge: u64,
        region: Region<'_>,
    ) -> bool {
        if owner >= self.owner_count {
            return false;
        }
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
        let bounds = self.bounds(levels, owner, 0, self.slots_per_owner);
        let page = &self.pages[g];
        let Some(pos) = (bounds.start..bounds.end.min(page.offsets.len())).find(|&pos| {
            !page.deleted.get(pos) && region.edges[page.offsets.get(pos) as usize] == edge
        }) else {
            return false;
        };
        Arc::make_mut(&mut self.pages[g]).deleted.set(pos, true);
        self.entry_count -= 1;
        true
    }

    /// Number of buffered entries in a group's page.
    #[must_use]
    pub fn buffer_len(&self, group: usize) -> usize {
        self.pages[group].buffer.len()
    }

    /// Rebuilds one page from `gen` (see [`OffsetCsr::build`]), clearing its
    /// buffer and tombstones. Used after the primary region of any owner in
    /// the group changed (offsets went stale) and to fold buffers in. A
    /// rebuild that reproduces the page leaves it shared.
    pub fn rebuild_group(
        &mut self,
        levels: Levels<'_>,
        group: usize,
        max_offset_exclusive: u64,
        mut gen: impl FnMut(u32, &mut Vec<OffsetEntry>),
    ) {
        if group >= self.pages.len() {
            return;
        }
        let page = self.build_page(levels, group, max_offset_exclusive, &mut gen);
        if *self.pages[group] != page {
            self.entry_count =
                self.entry_count - self.pages[group].entry_count() + page.offsets.len();
            self.pages[group] = Arc::new(page);
        }
    }

    /// Number of pages.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Heap bytes: packed offsets + CSR levels + tombstones + buffers.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.pages
            .iter()
            .map(|p| {
                p.offsets.memory_bytes()
                    + p.slot_offsets.capacity() * 4
                    + p.deleted.memory_bytes()
                    + p.buffer.capacity() * std::mem::size_of::<IdBuffered>()
            })
            .sum()
    }

    /// Bytes of packed offset data only (excludes levels) — the quantity
    /// compared against ID lists in the space-efficiency claims.
    #[must_use]
    pub fn offset_bytes(&self) -> usize {
        self.pages.iter().map(|p| p.offsets.memory_bytes()).sum()
    }

    /// Indexes of the pages `self` does not share with `other`.
    #[cfg(test)]
    pub(crate) fn unshared_pages(&self, other: &Self) -> Vec<usize> {
        crate::nested_csr::unshared_pages(&self.pages, &other.pages)
    }
}

fn owners_in_group(owner_count: usize, group: usize) -> usize {
    owner_count
        .saturating_sub(group * GROUP_SIZE)
        .min(GROUP_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_csr::{EntryInput, NestedCsr};
    use crate::sortkey::{encode_component, MAX_SORT_KEYS};

    fn sv(k: i64) -> SortVal {
        let mut user = [0u64; MAX_SORT_KEYS];
        user[0] = encode_component(Some(k));
        SortVal::new(user, 0, k as u64)
    }

    fn entry(slot: u32, key: i64, offset: u32) -> OffsetEntry {
        OffsetEntry {
            slot,
            sort: sv(key),
            offset,
        }
    }

    /// Owner 0 has offsets [2, 0] in slot 0 (sorted by key), owner 1 offset
    /// [1] in slot 1. The "primary region" is a fake table.
    fn build_small() -> OffsetCsr {
        OffsetCsr::build(
            2,
            vec![2],
            Levels::Own,
            |_| 3,
            |owner, out| {
                if owner == 0 {
                    out.extend([entry(0, 20, 0), entry(0, 10, 2)]);
                } else {
                    out.push(entry(1, 5, 1));
                }
            },
        )
    }

    /// A one-owner primary whose region holds, at offset `i`, edge
    /// `base + i` with neighbour `i`.
    fn primary(len: u32, base: u64) -> NestedCsr {
        let entries = (0..len).map(|i| EntryInput {
            owner: 0,
            slot: 0,
            sort: sv(i64::from(i)),
            edge: base + u64::from(i),
            nbr: i,
        });
        NestedCsr::build(1, vec![1], entries.collect())
    }

    #[test]
    fn build_and_list() {
        let c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        let l = c.list(Levels::Own, 0, &[0], region);
        let edges: Vec<u64> = l.iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(edges, vec![102, 100]); // offsets 2, 0 in sort order
        assert_eq!(c.list(Levels::Own, 0, &[1], region).len(), 0);
        assert_eq!(c.list(Levels::Own, 1, &[1], region).len(), 1);
        assert_eq!(c.entry_count(), 3);
    }

    #[test]
    fn width_follows_max_offset() {
        let c = build_small();
        // Max offset bound 3 -> 1 byte per entry; 3 entries stored.
        assert!(c.offset_bytes() >= 3 && c.offset_bytes() <= 8);
        let wide = OffsetCsr::build(
            1,
            vec![1],
            Levels::Own,
            |_| 70_001,
            |_, out| {
                out.push(entry(0, 1, 70_000));
            },
        );
        // 70_001 distinct offsets need 3 bytes each.
        let p = primary(70_001, 0);
        let l = wide.list(Levels::Own, 0, &[0], p.region(0));
        assert_eq!(l.get(0).0.raw(), 70_000);
    }

    #[test]
    fn resolve_none_skips_entry() {
        let c = build_small();
        let mut p = primary(4, 100);
        assert!(p.delete(0, 100)); // tombstones offset 0 in the primary
        let l = c.list(Levels::Own, 0, &[0], p.region(0));
        assert!(matches!(l, OffsetList::Dirty { .. }));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn insert_buffers_between_merged() {
        let mut c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        // Keys of merged entries: offset 2 -> 10, offset 0 -> 20 (see build).
        let key_of = |off: u32| if off == 2 { sv(10) } else { sv(20) };
        c.insert(Levels::Own, 0, 0, sv(15), 999, 9, key_of);
        let edges: Vec<u64> = c
            .list(Levels::Own, 0, &[0], region)
            .iter()
            .map(|(e, _)| e.raw())
            .collect();
        assert_eq!(edges, vec![102, 999, 100]);
        assert_eq!(c.entry_count(), 4);
    }

    #[test]
    fn delete_from_buffer_and_merged() {
        let mut c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        c.insert(Levels::Own, 0, 0, sv(1), 999, 9, |_| sv(0));
        assert!(c.delete(Levels::Own, 0, 999, region));
        assert!(c.delete(Levels::Own, 0, 102, region)); // merged entry at offset 2
        let edges: Vec<u64> = c
            .list(Levels::Own, 0, &[0], region)
            .iter()
            .map(|(e, _)| e.raw())
            .collect();
        assert_eq!(edges, vec![100]);
        assert!(!c.delete(Levels::Own, 0, 12345, region));
    }

    #[test]
    fn rebuild_group_replaces_page() {
        let mut c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        c.insert(Levels::Own, 0, 0, sv(1), 999, 9, |_| sv(0));
        c.rebuild_group(Levels::Own, 0, 4, |owner, out| {
            if owner == 0 {
                out.extend([entry(0, 1, 3), entry(0, 2, 1)]);
            } else {
                out.push(entry(1, 5, 1));
            }
        });
        assert_eq!(c.buffer_len(0), 0);
        let edges: Vec<u64> = c
            .list(Levels::Own, 0, &[0], region)
            .iter()
            .map(|(e, _)| e.raw())
            .collect();
        assert_eq!(edges, vec![103, 101]);
    }

    #[test]
    fn grow_owners_appends_empty() {
        let mut c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        c.grow_owners(Levels::Own, 100, |_| 1);
        assert_eq!(c.owner_count(), 100);
        assert_eq!(c.list(Levels::Own, 80, &[], region).len(), 0);
    }

    #[test]
    fn memory_after_build_is_what_the_lists_need() {
        let p = crate::nested_csr::tests::uneven();
        // Every merged position of each owner's region, tagged with the
        // primary's slot, re-sorted by descending edge ID.
        let gen = |owner: u32, out: &mut Vec<OffsetEntry>| {
            let (owner, region) = (owner as usize, p.region(owner as usize));
            let start = p.region_bounds(owner).1.start;
            for slot in 0..p.slots_per_owner() {
                out.extend(p.slot_bounds(owner, slot).map(|pos| {
                    let off = pos - start;
                    entry(slot, -(region.edges[off] as i64), off as u32)
                }));
            }
        };
        let max_off = |g| p.max_region_len_in_group(g) as u64 + 1;
        for levels in [Levels::Own, Levels::Primary(&p)] {
            let c = OffsetCsr::build(130, vec![2], levels, max_off, gen);
            let by_len: usize = c
                .pages
                .iter()
                .map(|pg| {
                    pg.offsets.len() * pg.offsets.width() as usize
                        + pg.slot_offsets.len() * 4
                        + pg.deleted.len().div_ceil(64) * 8
                })
                .sum();
            assert_eq!(c.memory_bytes(), by_len, "{levels:?}");
            // Shared levels store no slot bounds; own levels store the
            // primary's, since every position was kept.
            let own = matches!(levels, Levels::Own);
            for (g, pg) in c.pages.iter().enumerate() {
                let want = if own { p.slot_offsets(g) } else { &[] };
                assert_eq!(pg.slot_offsets, want, "{levels:?} page {g}");
            }
            for v in 0..130 {
                let got: Vec<_> = c.list(levels, v, &[1], p.region(v)).iter().collect();
                let mut want: Vec<_> = p.list(v, &[1]).iter().collect();
                want.reverse();
                assert_eq!(got, want, "{levels:?} owner {v}");
            }
        }
    }

    #[test]
    fn out_of_range_prefix_empty() {
        let c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        assert!(c.list(Levels::Own, 0, &[99], region).is_empty());
        assert!(c.list(Levels::Own, 50, &[], region).is_empty());
    }
}
