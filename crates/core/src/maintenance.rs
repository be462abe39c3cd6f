//! Maintenance policy (§IV-C).
//!
//! Every data page carries an update buffer; edge insertions are applied to
//! the buffers of the affected pages (primary pages of both endpoints, then
//! — if the view predicate passes — the offset-list pages of each secondary
//! index; edge-partitioned indexes run two delta queries). Deletions write
//! tombstones. "The update buffers are merged into the actual data pages
//! when the buffer is full."
//!
//! One deviation from the paper, made explicit here: because secondary
//! indexes store *offsets* into primary regions, merging a primary page
//! invalidates the offsets of every secondary list over the same owners.
//! The store therefore consolidates at a *flush barrier*: when any page
//! buffer reaches [`BUFFER_THRESHOLD`] entries, all dirty
//! primary pages merge first, then the secondary pages over the changed
//! owner groups are rebuilt from the merged primaries. This keeps the
//! amortized cost profile the paper measures (vertex-partitioned
//! maintenance ≫ faster than edge-partitioned) while guaranteeing offsets
//! are never stale.

/// Page-buffer capacity that triggers a flush. The paper does not give a
/// number; 64 pending entries per 64-owner page keeps buffers a small
/// constant factor of page size.
pub const BUFFER_THRESHOLD: usize = 64;
