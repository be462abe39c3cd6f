//! Recovery: newest valid checkpoint + WAL tail replay.
//!
//! The algorithm (documented in full in `docs/DURABILITY.md`):
//!
//! 1. Sweep leftover `.tmp` files — interrupted checkpoint writes are
//!    invisible by construction (the rename never happened).
//! 2. Pick the newest checkpoint that validates end-to-end (checksum *and*
//!    payload decode). A corrupt newest checkpoint falls back to the
//!    previous one — possible because the WAL is only trimmed through the
//!    *previous* checkpoint's epoch.
//! 3. Open the WAL, which validates every record and truncates the file at
//!    the first torn/corrupt one.
//! 4. Records at or below the checkpoint epoch are skipped (a crash between
//!    checkpoint and WAL trim leaves them behind); the remaining tail must
//!    start at `checkpoint_epoch + 1` and is returned for replay.
//!
//! The result is every epoch whose WAL append completed — no fewer (zero
//! lost committed batches) and no more (a batch whose append never
//! completed was never acknowledged as committed).

use std::path::{Path, PathBuf};

use aplus_graph::Graph;

use crate::checkpoint::{list_checkpoints, read_checkpoint, remove_stale_tmp};
use crate::codec::{decode_checkpoint_payload, decode_ops, WalOp};
use crate::error::StorageError;
use crate::wal::Wal;

/// Name of the WAL file inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Path of the WAL inside `dir`.
#[must_use]
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// One committed batch recovered from the WAL tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// The epoch the batch committed as.
    pub epoch: u64,
    /// The logical operations to replay, in order.
    pub ops: Vec<WalOp>,
}

/// What [`recover`] found in a data directory.
#[derive(Debug)]
pub enum RecoveredState {
    /// The directory held no state: a fresh WAL has been created and the
    /// caller should seed an initial checkpoint.
    Fresh {
        /// The WAL, positioned for appending.
        wal: Wal,
    },
    /// State was recovered.
    Existing {
        /// Epoch of the checkpoint the graph below was loaded from.
        checkpoint_epoch: u64,
        /// The checkpointed graph.
        graph: Box<Graph>,
        /// Ordered index-DDL statements to replay over `graph`.
        ddl: Vec<String>,
        /// Committed batches past the checkpoint, ascending and contiguous
        /// from `checkpoint_epoch + 1`.
        tail: Vec<WalBatch>,
        /// The WAL, truncated past any torn record and positioned for
        /// appending.
        wal: Wal,
    },
}

impl RecoveredState {
    /// The epoch the database is at once the tail is replayed.
    #[must_use]
    pub fn recovered_epoch(&self) -> u64 {
        match self {
            Self::Fresh { .. } => 0,
            Self::Existing {
                checkpoint_epoch,
                tail,
                ..
            } => tail.last().map_or(*checkpoint_epoch, |b| b.epoch),
        }
    }
}

/// Recovers a data directory. Creates the directory (and a fresh WAL) when
/// empty.
///
/// # Errors
/// * [`StorageError::Format`] — the directory was written by a newer build.
/// * [`StorageError::Corrupt`] — unrepairable state: every checkpoint fails
///   validation, the WAL is missing or belongs to someone else, or the tail
///   has an epoch gap. Torn *tails* are repaired silently, never an error.
/// * [`StorageError::Io`] — the directory is unreadable/unwritable.
pub fn recover(dir: &Path, fsync: bool) -> Result<RecoveredState, StorageError> {
    std::fs::create_dir_all(dir)?;
    remove_stale_tmp(dir)?;
    let checkpoints = list_checkpoints(dir)?;

    if checkpoints.is_empty() {
        let wpath = wal_path(dir);
        if wpath.exists() {
            let (_, records) = Wal::open(&wpath, fsync)?;
            if !records.is_empty() {
                return Err(StorageError::Corrupt(format!(
                    "{} holds committed records but no checkpoint exists; refusing to discard them",
                    wpath.display()
                )));
            }
        }
        return Ok(RecoveredState::Fresh {
            wal: Wal::create(wpath, fsync)?,
        });
    }

    // Newest checkpoint that validates end-to-end, falling back on
    // corruption. Format errors (newer version) abort immediately: older
    // files would silently lose the newer ones' epochs.
    let mut chosen = None;
    let mut last_err: Option<StorageError> = None;
    for (expect_epoch, path) in checkpoints.iter().rev() {
        match read_checkpoint(path).and_then(|(epoch, payload)| {
            if epoch != *expect_epoch {
                return Err(StorageError::Corrupt(format!(
                    "{} claims epoch {epoch} but is named for {expect_epoch}",
                    path.display()
                )));
            }
            let (graph, ddl) = decode_checkpoint_payload(&payload)?;
            Ok((epoch, graph, ddl))
        }) {
            Ok(loaded) => {
                chosen = Some(loaded);
                break;
            }
            Err(e @ StorageError::Format { .. }) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    let Some((checkpoint_epoch, graph, ddl)) = chosen else {
        return Err(StorageError::Corrupt(format!(
            "no checkpoint in {} validates; last error: {}",
            dir.display(),
            last_err.map_or_else(|| "none".to_owned(), |e| e.to_string())
        )));
    };

    let wpath = wal_path(dir);
    if !wpath.exists() {
        return Err(StorageError::Corrupt(format!(
            "{} is missing while checkpoints exist; epochs past {checkpoint_epoch} may be lost",
            wpath.display()
        )));
    }
    let (wal, records) = Wal::open(&wpath, fsync)?;

    let mut tail = Vec::new();
    for record in records {
        if record.epoch <= checkpoint_epoch {
            continue; // pre-checkpoint prefix a crashed trim left behind
        }
        let expected = tail
            .last()
            .map_or(checkpoint_epoch + 1, |b: &WalBatch| b.epoch + 1);
        if record.epoch != expected {
            return Err(StorageError::Corrupt(format!(
                "WAL tail jumps to epoch {} where {expected} was expected; \
                 committed epochs are missing",
                record.epoch
            )));
        }
        tail.push(WalBatch {
            epoch: record.epoch,
            ops: decode_ops(&record.payload)?,
        });
    }
    Ok(RecoveredState::Existing {
        checkpoint_epoch,
        graph: Box::new(graph),
        ddl,
        tail,
        wal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use crate::codec::{encode_checkpoint_payload, encode_ops};
    use crate::fault::FaultInjector;
    use aplus_graph::GraphBuilder;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aplus-recover-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex("A", &[]);
        let c = b.add_vertex("A", &[]);
        b.add_edge(a, c, "E", &[]);
        b.build()
    }

    fn ckpt(dir: &Path, epoch: u64) {
        let payload = encode_checkpoint_payload(&small_graph(), &[]);
        write_checkpoint(dir, epoch, &payload, false, &FaultInjector::none()).unwrap();
    }

    fn append(wal: &mut Wal, epoch: u64) {
        let ops = vec![WalOp::DeleteEdge { edge: 0 }];
        wal.append(epoch, &encode_ops(&ops), false, &FaultInjector::none())
            .unwrap();
    }

    #[test]
    fn empty_dir_is_fresh() {
        let dir = tmp_dir("fresh");
        let state = recover(&dir, false).unwrap();
        assert!(matches!(state, RecoveredState::Fresh { .. }));
        assert_eq!(state.recovered_epoch(), 0);
        assert!(wal_path(&dir).exists());
    }

    #[test]
    fn wal_records_without_checkpoint_refuse_to_load() {
        let dir = tmp_dir("orphan-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::create(wal_path(&dir), false).unwrap();
        append(&mut wal, 1);
        drop(wal);
        assert!(matches!(
            recover(&dir, false),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_only_recovers_at_checkpoint_epoch() {
        let dir = tmp_dir("ckpt-only");
        std::fs::create_dir_all(&dir).unwrap();
        ckpt(&dir, 4);
        Wal::create(wal_path(&dir), false).unwrap();
        let state = recover(&dir, false).unwrap();
        assert_eq!(state.recovered_epoch(), 4);
        match state {
            RecoveredState::Existing { tail, .. } => assert!(tail.is_empty()),
            RecoveredState::Fresh { .. } => panic!("expected existing state"),
        }
    }

    #[test]
    fn tail_past_checkpoint_is_replayed_and_stale_prefix_skipped() {
        let dir = tmp_dir("tail");
        std::fs::create_dir_all(&dir).unwrap();
        ckpt(&dir, 3);
        let mut wal = Wal::create(wal_path(&dir), false).unwrap();
        // Epochs 2..=5: 2 and 3 are the pre-trim prefix, 4 and 5 the tail.
        for epoch in 2..=5 {
            append(&mut wal, epoch);
        }
        drop(wal);
        let state = recover(&dir, false).unwrap();
        assert_eq!(state.recovered_epoch(), 5);
        match state {
            RecoveredState::Existing {
                checkpoint_epoch,
                tail,
                ..
            } => {
                assert_eq!(checkpoint_epoch, 3);
                let epochs: Vec<u64> = tail.iter().map(|b| b.epoch).collect();
                assert_eq!(epochs, vec![4, 5]);
            }
            RecoveredState::Fresh { .. } => panic!("expected existing state"),
        }
    }

    #[test]
    fn gap_between_checkpoint_and_tail_is_corrupt() {
        let dir = tmp_dir("gap");
        std::fs::create_dir_all(&dir).unwrap();
        ckpt(&dir, 3);
        let mut wal = Wal::create(wal_path(&dir), false).unwrap();
        append(&mut wal, 5); // 4 is missing
        drop(wal);
        assert!(matches!(
            recover(&dir, false),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_previous() {
        let dir = tmp_dir("fallback");
        std::fs::create_dir_all(&dir).unwrap();
        ckpt(&dir, 2);
        ckpt(&dir, 6);
        let mut wal = Wal::create(wal_path(&dir), false).unwrap();
        for epoch in 3..=7 {
            append(&mut wal, epoch);
        }
        drop(wal);
        // Mutilate the newest checkpoint.
        let newest = list_checkpoints(&dir).unwrap().pop().unwrap().1;
        let mut bytes = std::fs::read(&newest).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let state = recover(&dir, false).unwrap();
        match state {
            RecoveredState::Existing {
                checkpoint_epoch,
                tail,
                ..
            } => {
                assert_eq!(checkpoint_epoch, 2);
                let epochs: Vec<u64> = tail.iter().map(|b| b.epoch).collect();
                assert_eq!(epochs, vec![3, 4, 5, 6, 7]);
            }
            RecoveredState::Fresh { .. } => panic!("expected existing state"),
        }
    }

    #[test]
    fn every_checkpoint_corrupt_is_an_error_not_a_fresh_start() {
        let dir = tmp_dir("all-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        ckpt(&dir, 2);
        Wal::create(wal_path(&dir), false).unwrap();
        for (_, path) in list_checkpoints(&dir).unwrap() {
            let mut bytes = std::fs::read(&path).unwrap();
            let n = bytes.len();
            bytes[n - 1] ^= 0x80;
            std::fs::write(&path, &bytes).unwrap();
        }
        assert!(matches!(
            recover(&dir, false),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_wal_with_checkpoints_is_corrupt() {
        let dir = tmp_dir("no-wal");
        std::fs::create_dir_all(&dir).unwrap();
        ckpt(&dir, 1);
        assert!(matches!(
            recover(&dir, false),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn stale_tmp_files_are_swept() {
        let dir = tmp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        ckpt(&dir, 1);
        Wal::create(wal_path(&dir), false).unwrap();
        std::fs::write(
            dir.join("checkpoint-00000000000000000009.ckpt.tmp"),
            b"junk",
        )
        .unwrap();
        let state = recover(&dir, false).unwrap();
        assert_eq!(state.recovered_epoch(), 1);
        assert!(!dir
            .join("checkpoint-00000000000000000009.ckpt.tmp")
            .exists());
    }
}
