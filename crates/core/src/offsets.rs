//! Offset-list storage for secondary A+ indexes (§III-B3, §IV-B).
//!
//! Secondary lists are subsets of primary ID lists, so each entry is stored
//! as a single *offset* into the owning region of the primary index instead
//! of an `(8-byte edge ID, 4-byte neighbour ID)` pair. Offsets are packed
//! at a fixed byte width per 64-owner page — "the logarithm of the length
//! of the longest of the 64 lists rounded to the next byte".
//!
//! [`OffsetCsr`] is the *own-levels* variant: it carries its own
//! partitioning levels (used when the secondary index has predicates or a
//! partitioning different from the primary's, and by all edge-partitioned
//! indexes). The *shared-levels* variant (no predicate, same partitioning —
//! only the sort differs) lives in `vertex_partitioned.rs` because it
//! borrows the primary's CSR offsets directly.
//!
//! Update buffers here hold ID-based entries (the offset of a not-yet-merged
//! primary entry does not exist); they are spliced into reads by their
//! precomputed merge position and converted to offsets on rebuild.
//!
//! Pages sit behind `Arc`s, as in the nested CSR: a clone shares every
//! page, and a write unshares only the page it changes.

use std::sync::Arc;

use aplus_common::{byte_width_for, Bitmap, PackedUints, GROUP_SIZE};

use crate::list::{OffsetList, Splice};
use crate::nested_csr::Region;
use crate::sortkey::SortVal;

/// One secondary entry: owner + flattened slot + sort key + offset into the
/// owner's primary region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetEntry {
    /// Owner (vertex for VP indexes, bound edge for EP indexes).
    pub owner: u32,
    /// Flattened innermost slot under this index's own widths.
    pub slot: u32,
    /// Composite sort key.
    pub sort: SortVal,
    /// Offset into the owner's primary region.
    pub offset: u32,
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

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OffsetPage {
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

/// Offset lists with their own partitioning levels.
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
    /// Builds from unsorted entries. `max_offset_exclusive(group)` gives the
    /// exclusive upper bound of offsets in that group (the longest primary
    /// region among its owners), fixing the page's byte width.
    #[must_use]
    pub fn build(
        owner_count: usize,
        widths: Vec<u32>,
        mut entries: Vec<OffsetEntry>,
        max_offset_exclusive: impl Fn(usize) -> u64,
    ) -> Self {
        let slots_per_owner = widths.iter().product::<u32>().max(1);
        entries.sort_unstable_by_key(|e| (e.owner, e.slot, e.sort));
        let page_count = owner_count.div_ceil(GROUP_SIZE).max(1);
        let mut pages = Vec::with_capacity(page_count);
        let mut cursor = 0usize;
        for g in 0..page_count {
            let owners_in_page = owners_in_group(owner_count, g);
            let width = byte_width_for(max_offset_exclusive(g));
            let mut offsets = PackedUints::with_width(width);
            let mut slot_offsets =
                Vec::with_capacity(owners_in_page * slots_per_owner as usize + 1);
            slot_offsets.push(0u32);
            for local in 0..owners_in_page {
                let owner = (g * GROUP_SIZE + local) as u32;
                for slot in 0..slots_per_owner {
                    while cursor < entries.len()
                        && entries[cursor].owner == owner
                        && entries[cursor].slot == slot
                    {
                        offsets.push(u64::from(entries[cursor].offset));
                        cursor += 1;
                    }
                    slot_offsets.push(offsets.len() as u32);
                }
            }
            let deleted = Bitmap::with_len(offsets.len(), false);
            pages.push(OffsetPage {
                slot_offsets,
                offsets,
                deleted,
                buffer: Vec::new(),
            });
        }
        debug_assert_eq!(cursor, entries.len(), "entries must reference valid owners");
        // Page headers back to back, after the arrays (see `NestedCsr::build`).
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
            nonempty_slots,
            entry_count: entries.len(),
        }
    }

    /// Whether the range selected by `prefix` is globally sorted (covers at
    /// most one non-empty slot).
    #[must_use]
    pub fn span_sorted(&self, prefix: &[u32]) -> bool {
        let mut base = 0u32;
        for (i, &code) in prefix.iter().enumerate() {
            if code >= self.widths[i] {
                return true; // empty range
            }
            base = base * self.widths[i] + code;
        }
        let span: u32 = self.widths[prefix.len()..].iter().product::<u32>().max(1);
        let first = base * span;
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
    pub fn grow_owners(&mut self, new_count: usize, max_offset_exclusive: impl Fn(usize) -> u64) {
        if new_count <= self.owner_count {
            return;
        }
        self.owner_count = new_count;
        let needed = new_count.div_ceil(GROUP_SIZE);
        for g in 0..self.pages.len() {
            let want = owners_in_group(new_count, g) * self.slots_per_owner as usize + 1;
            if self.pages[g].slot_offsets.len() >= want {
                continue;
            }
            let page = Arc::make_mut(&mut self.pages[g]);
            let last = *page.slot_offsets.last().expect("non-empty");
            while page.slot_offsets.len() < want {
                page.slot_offsets.push(last);
            }
        }
        while self.pages.len() < needed {
            let g = self.pages.len();
            let owners_in_page = owners_in_group(new_count, g);
            let width = byte_width_for(max_offset_exclusive(g));
            self.pages.push(Arc::new(OffsetPage {
                slot_offsets: vec![0; owners_in_page * self.slots_per_owner as usize + 1],
                offsets: PackedUints::with_width(width),
                deleted: Bitmap::new(),
                buffer: Vec::new(),
            }));
        }
    }

    fn range(&self, owner: usize, prefix: &[u32]) -> (usize, std::ops::Range<usize>, u32, u32) {
        let g = owner / GROUP_SIZE;
        let mut base = 0u32;
        for (i, &code) in prefix.iter().enumerate() {
            base = base * self.widths[i] + code;
        }
        let span: u32 = self.widths[prefix.len()..].iter().product::<u32>().max(1);
        let first = base * span;
        let slot_base = (owner % GROUP_SIZE) * self.slots_per_owner as usize + first as usize;
        let page = &self.pages[g];
        let start = page.slot_offsets[slot_base] as usize;
        let end = page.slot_offsets[slot_base + span as usize] as usize;
        (g, start..end, first, first + span)
    }

    /// The list of `owner` under `prefix`, its offsets pointing into
    /// `region` (the owner's — or, for edge-partitioned indexes, the
    /// anchor's — primary region).
    pub(crate) fn list<'a>(
        &'a self,
        owner: usize,
        prefix: &[u32],
        region: Region<'a>,
    ) -> OffsetList<'a> {
        if owner >= self.owner_count || prefix.iter().zip(&self.widths).any(|(c, w)| c >= w) {
            return OffsetList::empty();
        }
        let (g, range, slot_lo, slot_hi) = self.range(owner, prefix);
        let page = &self.pages[g];
        let local = (owner % GROUP_SIZE) as u32;
        let splices: Vec<Splice> = page
            .buffer
            .iter()
            .filter(|b| b.owner_in_page == local && b.slot >= slot_lo && b.slot < slot_hi)
            .map(|b| (b.merge_pos, b.edge, b.nbr))
            .collect();
        OffsetList::read(&page.offsets, &page.deleted, range, &splices, region)
    }

    /// Buffers an insert. `key_of_offset(offset)` recomputes the sort key of
    /// a merged entry for the insertion-position binary search.
    pub fn insert(
        &mut self,
        owner: usize,
        slot: u32,
        sort: SortVal,
        edge: u64,
        nbr: u32,
        key_of_offset: impl Fn(u32) -> SortVal,
    ) {
        let g = owner / GROUP_SIZE;
        let local = (owner % GROUP_SIZE) as u32;
        let slot_base = (owner % GROUP_SIZE) * self.slots_per_owner as usize + slot as usize;
        let page = &self.pages[g];
        let mut a = page.slot_offsets[slot_base] as usize;
        let mut b = page.slot_offsets[slot_base + 1] as usize;
        while a < b {
            let mid = (a + b) / 2;
            if key_of_offset(page.offsets.get(mid) as u32) < sort {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let entry = IdBuffered {
            owner_in_page: local,
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
    pub fn delete(&mut self, owner: usize, edge: u64, region: Region<'_>) -> bool {
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
        let (_, mut range, ..) = self.range(owner, &[]);
        let page = &self.pages[g];
        let Some(pos) = range.find(|&pos| {
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

    /// Rebuilds one page from scratch: `gen(owner)` yields that owner's
    /// entries as `(slot, sort, offset)` (any order). Clears buffers and
    /// tombstones. Used after the primary region of any owner in the group
    /// changed (offsets went stale) and to fold buffers in. A rebuild that
    /// reproduces the page leaves it shared.
    pub fn rebuild_group(
        &mut self,
        group: usize,
        max_offset_exclusive: u64,
        gen: impl Fn(u32) -> Vec<(u32, SortVal, u32)>,
    ) {
        if group >= self.pages.len() {
            return;
        }
        let owners_in_page = owners_in_group(self.owner_count, group);
        let width = byte_width_for(max_offset_exclusive);
        let mut offsets = PackedUints::with_width(width);
        let mut slot_offsets =
            Vec::with_capacity(owners_in_page * self.slots_per_owner as usize + 1);
        slot_offsets.push(0u32);
        for local in 0..owners_in_page {
            let owner = (group * GROUP_SIZE + local) as u32;
            let mut entries = gen(owner);
            entries.sort_unstable_by_key(|e| (e.0, e.1));
            let mut cursor = 0usize;
            for slot in 0..self.slots_per_owner {
                while cursor < entries.len() && entries[cursor].0 == slot {
                    offsets.push(u64::from(entries[cursor].2));
                    cursor += 1;
                }
                slot_offsets.push(offsets.len() as u32);
            }
            debug_assert_eq!(cursor, entries.len(), "entries must use valid slots");
        }
        let deleted = Bitmap::with_len(offsets.len(), false);
        let spo = self.slots_per_owner as usize;
        for local in 0..owners_in_page {
            for slot in 0..spo {
                let base = local * spo + slot;
                if slot_offsets[base + 1] > slot_offsets[base] {
                    self.nonempty_slots[slot] = true;
                }
            }
        }
        let page = OffsetPage {
            slot_offsets,
            offsets,
            deleted,
            buffer: Vec::new(),
        };
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

    /// Owner 0 has offsets [2, 0] in slot 0 (sorted by key), owner 1 offset
    /// [1] in slot 1. The "primary region" is a fake table.
    fn build_small() -> OffsetCsr {
        OffsetCsr::build(
            2,
            vec![2],
            vec![
                OffsetEntry {
                    owner: 0,
                    slot: 0,
                    sort: sv(10),
                    offset: 2,
                },
                OffsetEntry {
                    owner: 0,
                    slot: 0,
                    sort: sv(20),
                    offset: 0,
                },
                OffsetEntry {
                    owner: 1,
                    slot: 1,
                    sort: sv(5),
                    offset: 1,
                },
            ],
            |_| 3,
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
        let l = c.list(0, &[0], region);
        let edges: Vec<u64> = l.iter().map(|(e, _)| e.raw()).collect();
        assert_eq!(edges, vec![102, 100]); // offsets 2, 0 in sort order
        assert_eq!(c.list(0, &[1], region).len(), 0);
        assert_eq!(c.list(1, &[1], region).len(), 1);
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
            vec![OffsetEntry {
                owner: 0,
                slot: 0,
                sort: sv(1),
                offset: 70_000,
            }],
            |_| 70_001,
        );
        // 70_001 distinct offsets need 3 bytes each.
        let p = primary(70_001, 0);
        let l = wide.list(0, &[0], p.region(0));
        assert_eq!(l.get(0).0.raw(), 70_000);
    }

    #[test]
    fn resolve_none_skips_entry() {
        let c = build_small();
        let mut p = primary(4, 100);
        assert!(p.delete(0, 100)); // tombstones offset 0 in the primary
        let l = c.list(0, &[0], p.region(0));
        assert!(matches!(l, OffsetList::Dirty(_)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn insert_buffers_between_merged() {
        let mut c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        // Keys of merged entries: offset 2 -> 10, offset 0 -> 20 (see build).
        let key_of = |off: u32| if off == 2 { sv(10) } else { sv(20) };
        c.insert(0, 0, sv(15), 999, 9, key_of);
        let edges: Vec<u64> = c
            .list(0, &[0], region)
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
        c.insert(0, 0, sv(1), 999, 9, |_| sv(0));
        assert!(c.delete(0, 999, region));
        assert!(c.delete(0, 102, region)); // merged entry at offset 2
        let edges: Vec<u64> = c
            .list(0, &[0], region)
            .iter()
            .map(|(e, _)| e.raw())
            .collect();
        assert_eq!(edges, vec![100]);
        assert!(!c.delete(0, 12345, region));
    }

    #[test]
    fn rebuild_group_replaces_page() {
        let mut c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        c.insert(0, 0, sv(1), 999, 9, |_| sv(0));
        c.rebuild_group(0, 4, |owner| {
            if owner == 0 {
                vec![(0, sv(1), 3), (0, sv(2), 1)]
            } else {
                vec![(1, sv(5), 1)]
            }
        });
        assert_eq!(c.buffer_len(0), 0);
        let edges: Vec<u64> = c
            .list(0, &[0], region)
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
        c.grow_owners(100, |_| 1);
        assert_eq!(c.owner_count(), 100);
        assert_eq!(c.list(80, &[], region).len(), 0);
    }

    #[test]
    fn out_of_range_prefix_empty() {
        let c = build_small();
        let p = primary(4, 100);
        let region = p.region(0);
        assert!(c.list(0, &[99], region).is_empty());
        assert!(c.list(50, &[], region).is_empty());
    }
}
