//! The append side: one [`LogWriter`] per shard log.
//!
//! The writer owns the sequence counter: [`LogWriter::stage_commit`]
//! reserves a seq and encodes the record onto a batch buffer, and the
//! [`crate::group::GroupCommitter`] delivers batches to the store in
//! reservation order — so `seq` order always equals byte order in the
//! store, the property [`crate::log::decode_log`]'s contiguity check
//! later verifies.

use crate::record::WalRecord;
use crate::store::WalStore;
use parking_lot::Mutex;
use std::sync::Arc;

/// Sequence-numbering encoder over one [`WalStore`].
pub struct LogWriter {
    shard: u32,
    store: Arc<dyn WalStore>,
    next_seq: Mutex<u64>,
}

impl LogWriter {
    /// A writer starting at sequence number `first_seq` (0 for a fresh
    /// log; recovery passes the successor of the last replayed seq when
    /// it continues an existing log).
    pub fn new(shard: u32, store: Arc<dyn WalStore>, first_seq: u64) -> LogWriter {
        LogWriter {
            shard,
            store,
            next_seq: Mutex::new(first_seq),
        }
    }

    /// The underlying store (the committer's flush target).
    pub fn store(&self) -> &Arc<dyn WalStore> {
        &self.store
    }

    /// Reserve the next sequence number and encode one commit record
    /// *appended onto* `out` (the caller's batch buffer), returning the
    /// reserved seq.
    ///
    /// The seq is consumed immediately — the caller owns delivering the
    /// bytes to the store *in reservation order* and rolling the counter
    /// back (via [`LogWriter::set_next_seq`]) over any staged records
    /// whose flush fails with nothing persisted. The
    /// [`crate::group::GroupCommitter`] is the sole caller.
    pub fn stage_commit(
        &self,
        epoch: u64,
        commit_ts: u64,
        writes: &[(u64, u64)],
        out: &mut Vec<u8>,
    ) -> u64 {
        let mut next_seq = self.next_seq.lock();
        let seq = *next_seq;
        let record = WalRecord {
            seq,
            epoch,
            commit_ts,
            shard: self.shard,
            writes: writes.to_vec(),
        };
        record.encode_into(out);
        *next_seq += 1;
        seq
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        *self.next_seq.lock()
    }

    /// Reset the sequence counter. Two callers: rejoin (after a
    /// checkpoint truncated the log, the next record starts a fresh
    /// contiguous run — inside a quiesce fence, publishes excluded)
    /// and the group committer's failed-batch rollback (under its
    /// state lock, with every staged record's ticket failed first).
    /// Either way no commit may be concurrently staging or appending.
    pub fn set_next_seq(&self, seq: u64) {
        *self.next_seq.lock() = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::decode_log;
    use crate::store::MemStore;

    #[test]
    fn staged_records_decode_as_a_contiguous_log() {
        let store = MemStore::healthy();
        let writer = LogWriter::new(4, Arc::clone(&store) as Arc<dyn WalStore>, 0);
        let mut batch = Vec::new();
        assert_eq!(writer.stage_commit(0, 1, &[(1, 10)], &mut batch), 0);
        assert_eq!(
            writer.stage_commit(0, 2, &[(2, 20), (3, 30)], &mut batch),
            1
        );
        assert_eq!(writer.stage_commit(1, 1, &[], &mut batch), 2);
        store.append(&batch).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(records.iter().all(|r| r.shard == 4));
        assert_eq!(writer.next_seq(), 3);
    }
}
