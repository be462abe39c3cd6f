//! A compact growable bit set.
//!
//! Used for three distinct purposes in the engine:
//!
//! 1. **Validity (null) tracking** in property columns — a cleared bit means
//!    the property value is `NULL` (§III-A1: "Edges with null property values
//!    form a special partition").
//! 2. **Tombstones** for deleted edges (§IV-C: "Edge deletions are handled by
//!    adding a 'tombstone' ... until a merge is triggered").
//! 3. **Bitmap-based secondary index storage**, the design alternative to
//!    offset lists discussed in §III-B3, implemented for the ablation study.

/// A growable bit set backed by `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
    /// Number of set bits, kept by every write: counting is O(1), and a
    /// range count on a bitmap with no set bits never touches the words.
    ones: usize,
}

impl Bitmap {
    /// Creates an empty bitmap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap of `len` bits, all set to `value`.
    #[must_use]
    pub fn with_len(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let mut bm = Self {
            words: vec![word; len.div_ceil(64)],
            len,
            ones: if value { len } else { 0 },
        };
        bm.clear_trailing();
        bm
    }

    /// Number of bits tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap tracks zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        let idx = self.len;
        self.len += 1;
        if self.words.len() * 64 < self.len {
            self.words.push(0);
        }
        if value {
            self.words[idx / 64] |= 1 << (idx % 64);
            self.ones += 1;
        }
    }

    /// Returns bit `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "bitmap index {idx} out of range {}",
            self.len
        );
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets bit `idx` to `value`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    #[inline]
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(
            idx < self.len,
            "bitmap index {idx} out of range {}",
            self.len
        );
        let mask = 1u64 << (idx % 64);
        let word = &mut self.words[idx / 64];
        if (*word & mask != 0) != value {
            *word ^= mask;
            if value {
                self.ones += 1;
            } else {
                self.ones -= 1;
            }
        }
    }

    /// Grows the bitmap to `new_len` bits, filling new bits with `value`.
    /// Does nothing if `new_len <= len`.
    pub fn grow(&mut self, new_len: usize, value: bool) {
        while self.len < new_len {
            self.push(value);
        }
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of set bits within `range` (half-open).
    ///
    /// Bitmap-based secondary lists must perform "as many bitmask operations
    /// as the number of edges in the lists of the primary index" (§III-B3);
    /// this is the word-at-a-time version used by the ablation benchmark.
    #[inline]
    #[must_use]
    pub fn count_ones_in_range(&self, range: std::ops::Range<usize>) -> usize {
        if self.ones == 0 {
            return 0;
        }
        self.iter_ones_in_range(range).count()
    }

    /// Iterates the indexes of set bits within `range` (half-open),
    /// in increasing order.
    pub fn iter_ones_in_range(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = usize> + '_ {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len);
        OnesIter {
            bitmap: self,
            cursor: start,
            end,
            current_word: if start < end {
                self.masked_word(start / 64, start, end)
            } else {
                0
            },
            word_idx: start / 64,
        }
    }

    /// Iterates the indexes of all set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter_ones_in_range(0..self.len)
    }

    /// Heap bytes used by the bitmap.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    fn masked_word(&self, word_idx: usize, start: usize, end: usize) -> u64 {
        let mut w = self.words.get(word_idx).copied().unwrap_or(0);
        let base = word_idx * 64;
        if start > base {
            w &= u64::MAX << (start - base);
        }
        if end < base + 64 {
            let keep = end - base;
            w &= if keep == 0 {
                0
            } else {
                u64::MAX >> (64 - keep)
            };
        }
        w
    }

    fn clear_trailing(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (64 - rem);
            }
        }
    }
}

struct OnesIter<'a> {
    bitmap: &'a Bitmap,
    cursor: usize,
    end: usize,
    current_word: u64,
    word_idx: usize,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current_word != 0 {
                let bit = self.current_word.trailing_zeros() as usize;
                self.current_word &= self.current_word - 1;
                let idx = self.word_idx * 64 + bit;
                if idx >= self.end {
                    return None;
                }
                return Some(idx);
            }
            self.word_idx += 1;
            let base = self.word_idx * 64;
            if base >= self.end {
                return None;
            }
            self.current_word =
                self.bitmap
                    .masked_word(self.word_idx, self.cursor.max(base), self.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut bm = Bitmap::new();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        bm.set(1, true);
        assert!(bm.get(1));
        bm.set(0, false);
        assert!(!bm.get(0));
    }

    #[test]
    fn kept_count_matches_the_words() {
        let recount = |bm: &Bitmap| bm.iter_ones().count();
        let mut bm = Bitmap::with_len(100, true);
        bm.set(3, false);
        bm.set(3, false); // already clear: no change
        bm.set(4, true); // already set: no change
        bm.push(true);
        bm.grow(130, false);
        assert_eq!(bm.count_ones(), 100);
        assert_eq!(bm.count_ones(), recount(&bm));
        let clean = Bitmap::with_len(300, false);
        assert_eq!(clean.count_ones_in_range(0..300), 0);
    }

    #[test]
    fn with_len_true_has_clean_tail() {
        let bm = Bitmap::with_len(70, true);
        assert_eq!(bm.count_ones(), 70);
    }

    #[test]
    fn count_in_range() {
        let mut bm = Bitmap::with_len(256, false);
        for i in (0..256).step_by(2) {
            bm.set(i, true);
        }
        assert_eq!(bm.count_ones_in_range(0..256), 128);
        assert_eq!(bm.count_ones_in_range(0..1), 1);
        assert_eq!(bm.count_ones_in_range(1..2), 0);
        assert_eq!(bm.count_ones_in_range(10..20), 5);
        assert_eq!(bm.count_ones_in_range(63..65), 1);
        assert_eq!(bm.count_ones_in_range(64..64), 0);
    }

    #[test]
    fn iter_ones_crosses_words() {
        let mut bm = Bitmap::with_len(200, false);
        let set = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &set {
            bm.set(i, true);
        }
        let got: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(got, set);
        let got: Vec<usize> = bm.iter_ones_in_range(1..128).collect();
        assert_eq!(got, vec![1, 63, 64, 65, 127]);
    }

    #[test]
    fn grow_fills() {
        let mut bm = Bitmap::with_len(3, false);
        bm.grow(10, true);
        assert_eq!(bm.len(), 10);
        assert_eq!(bm.count_ones(), 7);
        bm.grow(5, false); // no-op
        assert_eq!(bm.len(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bm = Bitmap::with_len(4, false);
        let _ = bm.get(4);
    }
}
