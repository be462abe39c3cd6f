//! Shared substrate for the A+ index engine.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the workspace:
//!
//! * [`ids`] — strongly-typed identifiers for vertices, edges, labels and
//!   properties. The sizes mirror the paper (§III-B3): neighbour vertex IDs
//!   are 4 bytes, edge IDs are 8 bytes.
//! * [`hash`] — an FxHash implementation plus `FxHashMap`/`FxHashSet`
//!   aliases. Integer-keyed maps are on the hot path of catalog lookups and
//!   optimizer memoization, where SipHash is needlessly slow.
//! * [`bitmap`] — a compact bit set used for validity (null) tracking,
//!   tombstones, and the bitmap-based secondary-index storage alternative.
//! * [`chunked`] — a column shared copy-on-write in fixed-size chunks, so a
//!   write to a cloned column copies one chunk rather than the column.
//! * [`packed`] — fixed-width byte-packed unsigned integer arrays, the
//!   physical representation of *offset lists* (§III-B3, §IV-B).

pub mod bitmap;
pub mod chunked;
pub mod hash;
pub mod ids;
pub mod packed;

pub use bitmap::Bitmap;
pub use chunked::ChunkedVec;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use ids::{EdgeId, EdgeLabelId, PropertyId, VertexId, VertexLabelId};
pub use packed::PackedUints;

/// Number of vertices (or bound edges, for edge-partitioned indexes) stored
/// per data page, as fixed by the paper's physical design (§IV-B): "Primary
/// and secondary vertex-partitioned A+ indexes are implemented using a CSR
/// for groups of 64 vertices and allocates one data page for each group."
pub const GROUP_SIZE: usize = 64;

/// Byte width needed to represent values in `0..max_value`. Returns at least
/// 1 so empty pages still have a well-defined layout, and at most 8.
///
/// This is the rule from §IV-B: offsets "use the maximum number of bytes
/// needed for any offset across the lists of the 64 vertices, i.e. it is the
/// logarithm of the length of the longest of the 64 lists rounded to the
/// next byte".
#[must_use]
pub fn byte_width_for(max_value: u64) -> u8 {
    if max_value <= 1 {
        return 1;
    }
    let bits = 64 - (max_value - 1).leading_zeros();
    bits.div_ceil(8) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_width_minimum_is_one() {
        assert_eq!(byte_width_for(0), 1);
        assert_eq!(byte_width_for(1), 1);
        assert_eq!(byte_width_for(2), 1);
    }

    #[test]
    fn byte_width_boundaries() {
        assert_eq!(byte_width_for(256), 1); // offsets 0..=255 fit in one byte
        assert_eq!(byte_width_for(257), 2);
        assert_eq!(byte_width_for(65_536), 2);
        assert_eq!(byte_width_for(65_537), 3);
        assert_eq!(byte_width_for(1 << 24), 3);
        assert_eq!(byte_width_for((1 << 24) + 1), 4);
        assert_eq!(byte_width_for(u64::MAX), 8);
    }
}
