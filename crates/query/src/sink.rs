//! Push-based row sinks: the streaming result API.
//!
//! A [`RowSink`] consumes result rows one at a time, **in sequential result
//! order**, without the engine materializing the full result set first —
//! the shape a network front-end needs to stream rows to a client. Sinks
//! plug into [`crate::exec::Output::Rows`] / `Database::stream` /
//! `SharedDatabase::stream`. Blocks wait; rows are flattened once, at the
//! merge: the executor flattens each morsel's factorized block straight
//! into the sink when the morsel's turn in morsel order comes, so the
//! pushed row sequence is bit-identical at every thread count.
//!
//! Three ready-made consumers:
//!
//! * any `FnMut(RawRow) -> ControlFlow<()>` closure is a sink (the blanket
//!   impl) — the zero-ceremony option;
//! * [`VecSink`] collects rows up to a limit (tests, small results);
//! * [`row_channel`] is a bounded, blocking SPSC handoff: the query pushes
//!   on one thread while a consumer drains an iterator on another, with at
//!   most `capacity` rows buffered — the in-process stand-in for a network
//!   connection's flow-controlled write buffer.

use std::ops::ControlFlow;
use std::sync::mpsc;

/// A collected result row: raw vertex bindings and raw edge bindings
/// (unbound slots are ID sentinels — `u32::MAX` / `u64::MAX`).
pub type RawRow = (Vec<u32>, Vec<u64>);

/// A push-based consumer of result rows.
///
/// [`RowSink::push`] receives rows in sequential result order; returning
/// [`ControlFlow::Break`] stops the producing query early (a satisfied
/// `LIMIT`, a disconnected client) — in-flight parallel work is cancelled
/// cooperatively and no further rows are pushed.
pub trait RowSink {
    /// Consumes the next result row. Return [`ControlFlow::Break`] to stop
    /// the query.
    fn push(&mut self, row: RawRow) -> ControlFlow<()>;
}

/// Every `FnMut(RawRow) -> ControlFlow<()>` closure is a sink.
impl<F: FnMut(RawRow) -> ControlFlow<()>> RowSink for F {
    fn push(&mut self, row: RawRow) -> ControlFlow<()> {
        self(row)
    }
}

/// The flatten boundary: drains a lazily produced row sequence into a
/// sink, enforcing a global `limit` across calls via the caller-owned
/// `sent` counter. This is where factorized intermediates become flat
/// rows — `rows` is typically the block engine's lazy flatten iterator,
/// pulled one row at a time so nothing past the limit is ever
/// materialized.
///
/// Semantics match a row-at-a-time `LIMIT` exactly: the `limit`-th row is
/// still delivered, then `Break` is returned; a sink `Break` stops
/// immediately. Degenerate limits are safe: `limit == 0` delivers nothing
/// (checked *before* the first push), and `sent` saturates instead of
/// overflowing at `usize::MAX`.
pub fn drain_flattened(
    sink: &mut dyn RowSink,
    sent: &mut usize,
    limit: usize,
    rows: impl Iterator<Item = RawRow>,
) -> ControlFlow<()> {
    for row in rows {
        if *sent >= limit {
            return ControlFlow::Break(());
        }
        *sent = sent.saturating_add(1);
        let flow = sink.push(row);
        if flow.is_break() || *sent >= limit {
            return ControlFlow::Break(());
        }
    }
    ControlFlow::Continue(())
}

/// A sink that collects rows into a vector, stopping the query once
/// `limit` rows have been gathered.
#[derive(Debug, Default)]
pub struct VecSink {
    rows: Vec<RawRow>,
    limit: usize,
}

impl VecSink {
    /// Collects at most `limit` rows.
    #[must_use]
    pub fn with_limit(limit: usize) -> Self {
        Self {
            rows: Vec::new(),
            limit,
        }
    }

    /// Collects every row the query produces.
    #[must_use]
    pub fn unbounded() -> Self {
        Self::with_limit(usize::MAX)
    }

    /// The collected rows, in sequential result order.
    #[must_use]
    pub fn into_rows(self) -> Vec<RawRow> {
        self.rows
    }

    /// Rows collected so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing has been collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl RowSink for VecSink {
    fn push(&mut self, row: RawRow) -> ControlFlow<()> {
        // Guard before pushing so `with_limit(0)` collects nothing even
        // when the producer's own limit differs.
        if self.rows.len() >= self.limit {
            return ControlFlow::Break(());
        }
        self.rows.push(row);
        if self.rows.len() >= self.limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Creates a bounded, blocking row channel: the returned sink is handed to
/// a streaming query on the producing thread, the receiver is drained as a
/// plain iterator on the consuming thread. At most `capacity` rows (≥ 1)
/// are ever buffered; a full channel blocks the producer — back-pressure —
/// and a dropped receiver stops the query via [`ControlFlow::Break`].
///
/// A thin wrapper over [`std::sync::mpsc::sync_channel`], which already
/// has exactly these semantics; the wrapper only adapts it to the
/// [`RowSink`] push contract.
///
/// ```
/// use aplus_query::sink::{row_channel, RowSink as _};
///
/// let (mut tx, rx) = row_channel(2);
/// let consumer = std::thread::spawn(move || rx.count());
/// for i in 0..10u32 {
///     assert!(tx.push((vec![i], vec![])).is_continue());
/// }
/// drop(tx); // closes the stream; the consumer's iterator ends
/// assert_eq!(consumer.join().unwrap(), 10);
/// ```
#[must_use]
pub fn row_channel(capacity: usize) -> (RowChannelSink, RowReceiver) {
    // Clamp: sync_channel(0) is a rendezvous channel; we always buffer.
    let (tx, rx) = mpsc::sync_channel(capacity.max(1));
    (RowChannelSink { tx }, RowReceiver { rx })
}

/// The producing half of a [`row_channel`]: a [`RowSink`] whose `push`
/// blocks while the buffer is full. Dropping it closes the stream.
#[derive(Debug)]
pub struct RowChannelSink {
    tx: mpsc::SyncSender<RawRow>,
}

impl RowSink for RowChannelSink {
    fn push(&mut self, row: RawRow) -> ControlFlow<()> {
        // A send error means the receiver was dropped (the consumer
        // disconnected): stop the producing query.
        match self.tx.send(row) {
            Ok(()) => ControlFlow::Continue(()),
            Err(mpsc::SendError(_)) => ControlFlow::Break(()),
        }
    }
}

/// The consuming half of a [`row_channel`]: iterates rows in result order,
/// ending when the producer closes. Dropping it early disconnects the
/// channel, which stops the producing query.
#[derive(Debug)]
pub struct RowReceiver {
    rx: mpsc::Receiver<RawRow>,
}

impl Iterator for RowReceiver {
    type Item = RawRow;

    fn next(&mut self) -> Option<RawRow> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: u32) -> RawRow {
        (vec![i], vec![u64::from(i)])
    }

    #[test]
    fn closures_are_sinks() {
        let mut seen = Vec::new();
        let mut sink = |r: RawRow| {
            seen.push(r);
            ControlFlow::Continue(())
        };
        assert!(RowSink::push(&mut sink, row(1)).is_continue());
        assert_eq!(seen, vec![row(1)]);
    }

    #[test]
    fn drain_flattened_enforces_global_limit() {
        // The limit-th row is delivered, then Break — across calls.
        let mut sink = VecSink::unbounded();
        let mut sent = 0usize;
        assert!(drain_flattened(&mut sink, &mut sent, 3, (0..2).map(row)).is_continue());
        assert_eq!(sent, 2);
        assert!(drain_flattened(&mut sink, &mut sent, 3, (2..9).map(row)).is_break());
        assert_eq!(sent, 3, "the third row is the last delivered");
        assert_eq!(sink.len(), 3);
        // Hammer: every further call with sent == limit delivers nothing.
        for _ in 0..100 {
            assert!(drain_flattened(&mut sink, &mut sent, 3, (9..10).map(row)).is_break());
        }
        assert_eq!((sent, sink.len()), (3, 3));
    }

    #[test]
    fn drain_flattened_degenerate_limits() {
        // limit == 0: nothing delivered, not even one row.
        let mut sink = VecSink::unbounded();
        let mut sent = 0usize;
        assert!(drain_flattened(&mut sink, &mut sent, 0, (0..5).map(row)).is_break());
        assert_eq!((sent, sink.len()), (0, 0));
        // sent already beyond limit (a caller invariant breach): Break
        // without delivering rather than underflowing `limit - sent`.
        let mut sent = 7usize;
        assert!(drain_flattened(&mut sink, &mut sent, 3, (0..5).map(row)).is_break());
        assert_eq!((sent, sink.len()), (7, 0));
        // sent == usize::MAX: already at any possible limit, Break with
        // nothing delivered (the old `sent += 1` would have overflowed).
        let mut sent = usize::MAX;
        assert!(drain_flattened(&mut sink, &mut sent, usize::MAX, (0..5).map(row)).is_break());
        assert_eq!((sent, sink.len()), (usize::MAX, 0));
        // One step below the saturation boundary: the last countable row
        // is delivered and `sent` saturates instead of wrapping.
        let mut sent = usize::MAX - 1;
        assert!(drain_flattened(&mut sink, &mut sent, usize::MAX, (0..5).map(row)).is_break());
        assert_eq!(sent, usize::MAX);
        assert_eq!(sink.len(), 1);
        // An empty row iterator is a no-op Continue.
        let mut sent = 0usize;
        assert!(drain_flattened(&mut sink, &mut sent, 5, std::iter::empty()).is_continue());
        assert_eq!(sent, 0);
    }

    #[test]
    fn drain_flattened_respects_sink_break() {
        let mut pushed = 0usize;
        let mut sink = |_: RawRow| {
            pushed += 1;
            ControlFlow::Break(())
        };
        let mut sent = 0usize;
        let flow = drain_flattened(&mut sink, &mut sent, 100, (0..10).map(row));
        assert!(flow.is_break());
        assert_eq!((sent, pushed), (1, 1), "sink Break stops after one row");
    }

    #[test]
    fn vec_sink_limits() {
        let mut s = VecSink::with_limit(2);
        assert!(s.is_empty());
        assert!(s.push(row(0)).is_continue());
        assert!(s.push(row(1)).is_break(), "limit reached stops the query");
        assert!(s.push(row(2)).is_break(), "over-limit pushes are dropped");
        assert_eq!(s.len(), 2);
        assert_eq!(s.into_rows(), vec![row(0), row(1)]);
        let mut zero = VecSink::with_limit(0);
        assert!(zero.push(row(0)).is_break());
        assert!(zero.is_empty(), "a 0-limit sink collects nothing");
    }

    #[test]
    fn channel_roundtrip_in_order_with_backpressure() {
        let (mut tx, rx) = row_channel(1); // tiniest buffer: every push waits
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                assert!(tx.push(row(i)).is_continue());
            }
        });
        let got: Vec<RawRow> = rx.collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).map(row).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_receiver_breaks_producer() {
        let (mut tx, rx) = row_channel(4);
        drop(rx);
        assert!(tx.push(row(0)).is_break());
    }

    #[test]
    fn dropped_sink_ends_iteration() {
        let (mut tx, rx) = row_channel(4);
        assert!(tx.push(row(7)).is_continue());
        drop(tx);
        assert_eq!(rx.collect::<Vec<_>>(), vec![row(7)]);
    }
}
