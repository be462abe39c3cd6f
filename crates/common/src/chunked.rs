//! A growable column stored as fixed-size chunks behind `Arc`s.
//!
//! The edge table of a graph grows by appends and changes by point writes
//! (tombstones), while snapshots of it are cloned on every write batch.
//! With one `Arc<Vec<T>>` per column, the first write after a clone copies
//! the whole column; a [`ChunkedVec`] shares its data in [`CHUNK_LEN`]-entry
//! chunks instead, so a clone costs one reference-count bump per chunk and
//! a write copies only the chunk it lands in: an append at most the tail
//! chunk, a point write the chunk holding that index.

use std::ops::{Index, Range};
use std::sync::Arc;

/// Entries per chunk. A power of two, so locating an entry is a shift and a
/// mask.
pub const CHUNK_LEN: usize = 4096;

/// A copy-on-write vector of fixed [`CHUNK_LEN`]-entry chunks.
///
/// Every chunk is allocated at its full length, the tail included (entries
/// past `len` are filler that is never read), so a chunk is a fixed-size
/// array: reading an entry follows one pointer from the spine straight to
/// the data, with no vector header and no second bounds check.
#[derive(Clone, Debug)]
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<[T; CHUNK_LEN]>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ChunkedVec<T> {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `idx`, or `None` past the end.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&T> {
        if idx >= self.len {
            return None;
        }
        Some(&self.chunks[idx / CHUNK_LEN][idx % CHUNK_LEN])
    }

    /// The entries in `range` (clamped to the column) as contiguous slices,
    /// one per chunk touched, each with the index of its first entry.
    pub fn slices(&self, range: Range<usize>) -> impl Iterator<Item = (usize, &[T])> + '_ {
        let end = range.end.min(self.len);
        let start = range.start.min(end);
        let chunks = if start == end {
            0..0
        } else {
            start / CHUNK_LEN..(end - 1) / CHUNK_LEN + 1
        };
        chunks.map(move |c| {
            let base = c * CHUNK_LEN;
            let lo = start.max(base);
            let hi = end.min(base + CHUNK_LEN);
            (lo, &self.chunks[c][lo - base..hi - base])
        })
    }

    /// Heap bytes of the chunks (the chunk pointers are not counted).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.chunks.len() * CHUNK_LEN * std::mem::size_of::<T>()
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Appends `value`, unsharing at most the tail chunk.
    pub fn push(&mut self, value: T) {
        let offset = self.len % CHUNK_LEN;
        if offset == 0 {
            // A new chunk, filled with copies of its first entry.
            let chunk: Arc<[T]> = vec![value; CHUNK_LEN].into();
            let Ok(chunk) = chunk.try_into() else {
                unreachable!("the chunk was built with CHUNK_LEN entries");
            };
            self.chunks.push(chunk);
        } else {
            let tail = self.chunks.last_mut().expect("a partial tail chunk exists");
            Arc::make_mut(tail)[offset] = value;
        }
        self.len += 1;
    }

    /// Overwrites the entry at `idx`, unsharing only the chunk holding it.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    pub fn set(&mut self, idx: usize, value: T) {
        assert!(
            idx < self.len,
            "chunked index {idx} out of range {}",
            self.len
        );
        Arc::make_mut(&mut self.chunks[idx / CHUNK_LEN])[idx % CHUNK_LEN] = value;
    }
}

impl<T> Index<usize> for ChunkedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, idx: usize) -> &T {
        self.get(idx).unwrap_or_else(|| {
            panic!("chunked index {idx} out of range {}", self.len);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> ChunkedVec<u32> {
        let mut v = ChunkedVec::default();
        for i in 0..n {
            v.push(i as u32);
        }
        v
    }

    fn chunk_ptrs(v: &ChunkedVec<u32>) -> Vec<*const u32> {
        v.slices(0..v.len()).map(|(_, s)| s.as_ptr()).collect()
    }

    #[test]
    fn push_get_set_across_a_chunk_boundary() {
        let mut v = filled(CHUNK_LEN + 3);
        assert_eq!(v.len(), CHUNK_LEN + 3);
        for i in [0, CHUNK_LEN - 1, CHUNK_LEN, CHUNK_LEN + 2] {
            assert_eq!(v[i], i as u32);
        }
        assert_eq!(v.get(CHUNK_LEN + 3), None);
        v.set(CHUNK_LEN - 1, 7);
        v.set(CHUNK_LEN, 8);
        assert_eq!((v[CHUNK_LEN - 1], v[CHUNK_LEN]), (7, 8));
    }

    #[test]
    fn slices_cover_a_range_chunk_by_chunk() {
        let v = filled(2 * CHUNK_LEN + 10);
        let got: Vec<(usize, usize)> = v
            .slices(CHUNK_LEN - 2..2 * CHUNK_LEN + 50)
            .map(|(start, s)| (start, s.len()))
            .collect();
        assert_eq!(
            got,
            vec![
                (CHUNK_LEN - 2, 2),
                (CHUNK_LEN, CHUNK_LEN),
                (2 * CHUNK_LEN, 10)
            ]
        );
        let flat: Vec<u32> = v
            .slices(5..CHUNK_LEN + 5)
            .flat_map(|(_, s)| s.to_vec())
            .collect();
        assert_eq!(flat, (5..CHUNK_LEN as u32 + 5).collect::<Vec<_>>());
        assert_eq!(v.slices(9..9).count(), 0);
        assert_eq!(v.slices(usize::MAX - 1..usize::MAX).count(), 0);
    }

    #[test]
    fn writes_unshare_only_the_chunk_they_touch() {
        let v = filled(2 * CHUNK_LEN + 1);
        let mut head = v.clone();
        assert_eq!(chunk_ptrs(&v), chunk_ptrs(&head));
        head.push(1);
        let (a, b) = (chunk_ptrs(&v), chunk_ptrs(&head));
        assert_eq!(a[..2], b[..2], "full chunks stay shared");
        assert_ne!(a[2], b[2], "the append copied the tail chunk");
        head.set(3, 9);
        let b = chunk_ptrs(&head);
        assert_ne!(a[0], b[0]);
        assert_eq!(a[1], b[1], "a point write copies only its own chunk");
        assert_eq!((v[3], head[3]), (3, 9), "the clone never sees the write");
        assert_eq!(v.len() + 1, head.len());
    }

    #[test]
    fn memory_counts_whole_chunks() {
        assert_eq!(filled(0).memory_bytes(), 0);
        assert_eq!(filled(10).memory_bytes(), CHUNK_LEN * 4);
        assert_eq!(filled(CHUNK_LEN + 1).memory_bytes(), 2 * CHUNK_LEN * 4);
    }
}
