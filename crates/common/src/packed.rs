//! Fixed-width byte-packed unsigned integer arrays.
//!
//! This is the physical representation of **offset lists** (§III-B3, §IV-B):
//! "the offset lists ... are stored as byte arrays by default. Offsets are
//! fixed-length and use the maximum number of bytes needed for any offset
//! across the lists of the 64 vertices".
//!
//! A [`PackedUints`] stores `len` unsigned integers, each occupying exactly
//! `width` bytes (1..=8), little-endian, in one contiguous `Vec<u8>`.

use crate::byte_width_for;

/// A contiguous array of fixed-width unsigned integers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedUints {
    data: Vec<u8>,
    width: u8,
    len: usize,
}

impl PackedUints {
    /// Creates an empty array whose elements occupy `width` bytes each.
    ///
    /// # Panics
    /// Panics if `width` is not in `1..=8`.
    #[must_use]
    pub fn with_width(width: u8) -> Self {
        assert!((1..=8).contains(&width), "width {width} out of range 1..=8");
        Self {
            data: Vec::new(),
            width,
            len: 0,
        }
    }

    /// Creates an empty array of `width`-byte elements with room for
    /// `capacity` of them.
    ///
    /// # Panics
    /// Panics if `width` is not in `1..=8`.
    #[must_use]
    pub fn with_capacity(width: u8, capacity: usize) -> Self {
        let mut packed = Self::with_width(width);
        packed.data.reserve_exact(capacity * width as usize);
        packed
    }

    /// Builds a packed array from `values`, choosing the smallest width that
    /// fits `max_value` (values must not exceed it).
    #[must_use]
    pub fn from_values(values: &[u64], max_value: u64) -> Self {
        let mut packed = Self::with_width(byte_width_for(max_value.saturating_add(1)));
        packed.data.reserve(values.len() * packed.width as usize);
        for &v in values {
            packed.push(v);
        }
        packed
    }

    /// Element width in bytes.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Number of stored integers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value`.
    ///
    /// # Panics
    /// Panics if `value` does not fit in the configured width.
    pub fn push(&mut self, value: u64) {
        let w = self.width as usize;
        assert!(
            w == 8 || value < (1u64 << (w * 8)),
            "value {value} does not fit in {w} bytes"
        );
        self.data.extend_from_slice(&value.to_le_bytes()[..w]);
        self.len += 1;
    }

    /// Returns the integer at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    ///
    /// One unaligned 8-byte little-endian load masked to the width; only
    /// the entries in the array's last 8 bytes, where such a load would
    /// read past the end, are assembled byte by byte.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "index {idx} out of range {}", self.len);
        let w = self.width as usize;
        let at = idx * w;
        if let Some(word) = self.data.get(at..at + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            return word & (u64::MAX >> (64 - 8 * w));
        }
        let mut buf = [0u8; 8];
        buf[..w].copy_from_slice(&self.data[at..at + w]);
        u64::from_le_bytes(buf)
    }

    /// Overwrites the integer at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len` or `value` does not fit in the width.
    pub fn set(&mut self, idx: usize, value: u64) {
        assert!(idx < self.len, "index {idx} out of range {}", self.len);
        let w = self.width as usize;
        assert!(
            w == 8 || value < (1u64 << (w * 8)),
            "value {value} does not fit in {w} bytes"
        );
        self.data[idx * w..idx * w + w].copy_from_slice(&value.to_le_bytes()[..w]);
    }

    /// Iterates all stored integers in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Heap bytes used by the packed data.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.data.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_get_roundtrip_widths() {
        for width in 1..=8u8 {
            let mut p = PackedUints::with_width(width);
            let max = if width == 8 {
                u64::MAX
            } else {
                (1 << (width as u64 * 8)) - 1
            };
            let values = [0, 1, max / 2, max];
            for &v in &values {
                p.push(v);
            }
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(p.get(i), v, "width {width} idx {i}");
            }
        }
    }

    /// The byte-by-byte read `get` replaced: the reference its word load
    /// must agree with.
    fn byte_loop_get(p: &PackedUints, idx: usize) -> u64 {
        let w = p.width as usize;
        (0..w).fold(0, |acc, b| acc | u64::from(p.data[idx * w + b]) << (8 * b))
    }

    #[test]
    fn word_load_matches_byte_loop_at_every_index() {
        for width in 1..=8u8 {
            let max = u64::MAX >> (64 - 8 * u32::from(width));
            // Lengths whose arrays end inside, at and past the last 8
            // bytes, so every index of the byte-copied tail is read too.
            for len in 0..=24usize {
                let values: Vec<u64> = (0..len as u64)
                    .map(|i| max.wrapping_sub(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & max)
                    .collect();
                let p = PackedUints::from_values(&values, max);
                assert_eq!(p.width(), width);
                for (i, &v) in values.iter().enumerate() {
                    assert_eq!(
                        p.get(i),
                        byte_loop_get(&p, i),
                        "width {width} len {len} idx {i}"
                    );
                    assert_eq!(p.get(i), v, "width {width} len {len} idx {i}");
                }
            }
        }
    }

    #[test]
    fn from_values_picks_minimal_width() {
        let p = PackedUints::from_values(&[0, 10, 255], 255);
        assert_eq!(p.width(), 1);
        let p = PackedUints::from_values(&[0, 256], 256);
        assert_eq!(p.width(), 2);
        let p = PackedUints::from_values(&[], 0);
        assert_eq!(p.width(), 1);
        assert!(p.is_empty());
    }

    #[test]
    fn set_overwrites() {
        let mut p = PackedUints::from_values(&[5, 6, 7], 1000);
        p.set(1, 999);
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![5, 999, 7]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_overflow_panics() {
        let mut p = PackedUints::with_width(1);
        p.push(256);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(values in proptest::collection::vec(0u64..=u32::MAX as u64, 0..200)) {
            let max = values.iter().copied().max().unwrap_or(0);
            let p = PackedUints::from_values(&values, max);
            prop_assert_eq!(p.len(), values.len());
            let back: Vec<u64> = p.iter().collect();
            prop_assert_eq!(back, values);
        }

        #[test]
        fn prop_width_is_minimal(max in 1u64..=u32::MAX as u64) {
            let p = PackedUints::from_values(&[max], max);
            let w = p.width() as u32;
            // Must fit.
            prop_assert!(w == 8 || max < (1u64 << (w * 8)));
            // One byte fewer must not fit (unless already at 1 byte).
            if w > 1 {
                prop_assert!(max >= (1u64 << ((w - 1) * 8)));
            }
        }
    }
}
