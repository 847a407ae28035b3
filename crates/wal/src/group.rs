//! Group commit: one log flush serves many committers.
//!
//! [`GroupCommitter`] is the only way commits reach a shard's log. A
//! store round-trip per commit would be correct, but the fsync dominates
//! once committers are concurrent, so publication is split in two
//! halves:
//!
//! * **stage** — inside the commit critical section, a committer
//!   reserves the next sequence number and encodes its record into the
//!   *pending batch* buffer ([`LogWriter::stage_commit`]). Staging
//!   order equals sequence order equals byte order, so every batch —
//!   and every prefix the store ends up persisting — keeps the
//!   conflict-closed-prefix property the recovery invariants (M1.4)
//!   rely on.
//! * **flush/ack** — the first stager with no flush in flight becomes
//!   the *leader*: it takes the pending batch, appends it with **one**
//!   store append, issues **one** sync, and resolves every member's
//!   ticket. Committers that stage while a flush is in flight
//!   accumulate into the next batch (piggyback batching); the leader
//!   keeps flushing until the pending batch is empty, so no staged
//!   record ever waits on anything but the flush ahead of it.
//!
//! A committer's `commit` call blocks until its batch is flushed and
//! acked — the caller still holds its stripe locks, so "zero memory
//! effect before ack" is preserved. The amortization comes from
//! committers on *disjoint* stripes staging concurrently, not from
//! releasing locks early.
//!
//! ## Failure fan-out
//!
//! A failed flush fails every member of the batch with a typed
//! [`BatchError`], plus — because their reserved sequence numbers come
//! after the failed batch's — every record staged into the *next*
//! pending batch ([`BatchError::Cancelled`]). The writer's sequence
//! counter is rolled back over the failed records so the next staged
//! record continues the contiguous run (no [`SeqGap`]). Exactly one
//! member of each failed batch observes `primary == true` in its
//! [`GroupError`], so the caller's health/fault accounting runs once
//! per batch, not once per member: one transient fault degrades the
//! batch, never double-counts, and — since nothing persisted — need
//! not degrade the shard at all. Before failing a batch on a transient
//! append error the leader retries it in place under the default
//! [`RetryPolicy`]; [`GroupCommitter::retries`] counts those retries.
//!
//! After a *non-transient* append failure the log may end in a damaged
//! frame; the caller must stop appending until a checkpoint truncates
//! the log (the engine's health machine enforces this). A failed *sync*
//! leaves every record of the batch in doubt — present and decodable,
//! never acknowledged — which the per-member [`GroupError::in_doubt`]
//! flag reports; for a torn append the flag is set only for members
//! whose frame landed entirely inside the persisted prefix.
//!
//! [`SeqGap`]: crate::log::WalError::SeqGap

use crate::retry::RetryPolicy;
use crate::store::{StoreError, WalStore};
use crate::writer::LogWriter;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes per batch: stagers beyond it wait for the next batch, like
/// [`GroupCommitConfig::max_records`].
const MAX_BATCH_BYTES: usize = 1 << 16;

/// Size/time bounds for one batch.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Records per batch; stagers beyond it wait for the next batch
    /// (the committer's built-in backpressure).
    pub max_records: usize,
    /// How long a leader waits for the batch to fill before flushing.
    /// Zero (the default) flushes immediately: batching then comes only
    /// from records staged while a flush is in flight, which costs idle
    /// committers no latency at all.
    pub max_wait: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> GroupCommitConfig {
        GroupCommitConfig {
            max_records: 64,
            max_wait: Duration::ZERO,
        }
    }
}

impl GroupCommitConfig {
    /// Builder-style setter for the record bound.
    pub fn with_max_records(mut self, n: usize) -> Self {
        self.max_records = n.max(1);
        self
    }

    /// Builder-style setter for the accumulation window.
    pub fn with_max_wait(mut self, d: Duration) -> Self {
        self.max_wait = d;
        self
    }
}

/// Why a batch failed, at batch granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The batch append failed (transient errors only after the
    /// leader's in-place retries). `Transient` here means nothing of the
    /// batch persisted; `Torn` means a prefix did (see
    /// [`GroupError::in_doubt`]).
    Append(StoreError),
    /// The append succeeded but the durability sync failed: every
    /// record of the batch is in the log, none is confirmed.
    Sync(StoreError),
    /// This batch never flushed: the batch ahead of it failed and the
    /// sequence numbers reserved here were rolled back. Nothing
    /// persisted; retrying the commit is sound.
    Cancelled,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Append(e) => write!(f, "batch append failed: {e}"),
            BatchError::Sync(e) => write!(f, "batch sync failed: {e}"),
            BatchError::Cancelled => write!(f, "batch cancelled (preceding batch failed)"),
        }
    }
}

/// One member's view of its batch's failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupError {
    /// The batch-level failure.
    pub error: BatchError,
    /// True for exactly one member per failed batch: the one that
    /// should run the once-per-batch consequences (health transition,
    /// fault counter).
    pub primary: bool,
    /// This member's record may have persisted despite the failure
    /// (sync failures: always; torn appends: when the member's frame
    /// fits the persisted prefix). The commit was *not* acknowledged —
    /// the record is in doubt until a checkpoint rewrites the log.
    pub in_doubt: bool,
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if self.in_doubt {
            write!(f, " (record in doubt)")?;
        }
        Ok(())
    }
}

/// Per-batch rendezvous: members wait here for the leader's verdict.
struct Slot {
    outcome: Mutex<Option<Result<(), BatchError>>>,
    cond: Condvar,
    /// First member to fetch_or this after a failure is the primary.
    primary: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            outcome: Mutex::new(None),
            cond: Condvar::new(),
            primary: AtomicBool::new(false),
        })
    }

    fn resolve(&self, r: Result<(), BatchError>) {
        *self.outcome.lock() = Some(r);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<(), BatchError> {
        let mut g = self.outcome.lock();
        while g.is_none() {
            self.cond.wait(&mut g);
        }
        g.clone().expect("checked some")
    }
}

/// The batch being accumulated (records staged, not yet flushed).
struct Pending {
    slot: Arc<Slot>,
    first_seq: u64,
    records: usize,
    buf: Vec<u8>,
}

struct State {
    pending: Option<Pending>,
    /// A leader is between take-batch and resolve.
    flushing: bool,
}

/// Amortized flush/ack driver over one shard's [`LogWriter`].
pub struct GroupCommitter {
    writer: Arc<LogWriter>,
    config: GroupCommitConfig,
    state: Mutex<State>,
    /// Room-in-batch waits and the leader's accumulation wait.
    cond: Condvar,
    flushes: AtomicU64,
    records_flushed: AtomicU64,
    /// Transient append failures retried in place.
    retries: AtomicU64,
    /// Called with `(records, bytes)` after each successful flush.
    observer: Mutex<Option<FlushObserver>>,
}

/// Flush observer callback: `(records, bytes)` per successful flush.
type FlushObserver = Box<dyn Fn(usize, usize) + Send + Sync>;

impl GroupCommitter {
    /// A committer over `writer` (which supplies both the sequence
    /// counter and, via [`LogWriter::store`], the flush target).
    pub fn new(writer: Arc<LogWriter>, config: GroupCommitConfig) -> Arc<GroupCommitter> {
        Arc::new(GroupCommitter {
            writer,
            config,
            state: Mutex::new(State {
                pending: None,
                flushing: false,
            }),
            cond: Condvar::new(),
            flushes: AtomicU64::new(0),
            records_flushed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            observer: Mutex::new(None),
        })
    }

    /// Register a per-flush observer (`(records, bytes)` of each
    /// successful flush) — the engine points this at its batch-size
    /// histogram.
    pub fn set_observer(&self, f: impl Fn(usize, usize) + Send + Sync + 'static) {
        *self.observer.lock() = Some(Box::new(f));
    }

    /// Successful flushes so far.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Records acknowledged across all successful flushes.
    pub fn records_flushed(&self) -> u64 {
        self.records_flushed.load(Ordering::Relaxed)
    }

    /// Transient append failures retried in place so far (each retried
    /// attempt counts once, whether or not its batch then succeeded).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Records currently staged and unflushed (tests, introspection).
    pub fn staged_records(&self) -> usize {
        self.state.lock().pending.as_ref().map_or(0, |p| p.records)
    }

    /// Stage one commit and block until its batch is flushed and acked
    /// (or failed). Called with the commit critical section held — the
    /// record's position in the log is fixed at stage time, before any
    /// conflicting commit can stage after it.
    pub fn commit(
        &self,
        epoch: u64,
        commit_ts: u64,
        writes: &[(u64, u64)],
    ) -> Result<(), GroupError> {
        let mut state = self.state.lock();
        // Backpressure: the pending batch is bounded; wait for the
        // leader to drain it. (A full batch implies a flush in flight —
        // a stager that filled it while no flush ran became the leader
        // and took it.)
        while self.batch_full(&state) {
            self.cond.wait(&mut state);
        }
        let pending = state.pending.get_or_insert_with(|| Pending {
            slot: Slot::new(),
            first_seq: 0, // set by the first stage below
            records: 0,
            buf: Vec::with_capacity(256),
        });
        let offset = pending.buf.len();
        let seq = self
            .writer
            .stage_commit(epoch, commit_ts, writes, &mut pending.buf);
        if pending.records == 0 {
            pending.first_seq = seq;
        }
        pending.records += 1;
        let len = pending.buf.len() - offset;
        let slot = Arc::clone(&pending.slot);
        if self.batch_full(&state) {
            // Wake a leader sitting in its accumulation window.
            self.cond.notify_all();
        }
        if state.flushing {
            drop(state);
        } else {
            state.flushing = true;
            self.lead(state);
        }
        match slot.wait() {
            Ok(()) => Ok(()),
            Err(error) => {
                let primary = !slot.primary.fetch_or(true, Ordering::AcqRel);
                let in_doubt = match &error {
                    BatchError::Sync(_) => true,
                    BatchError::Append(StoreError::Torn { persisted, .. }) => {
                        offset + len <= *persisted
                    }
                    _ => false,
                };
                Err(GroupError {
                    error,
                    primary,
                    in_doubt,
                })
            }
        }
    }

    fn batch_full(&self, state: &State) -> bool {
        state
            .pending
            .as_ref()
            .is_some_and(|p| p.records >= self.config.max_records || p.buf.len() >= MAX_BATCH_BYTES)
    }

    /// The leader loop: flush the pending batch, and keep flushing as
    /// long as new records were staged meanwhile — no staged record
    /// ever waits on anything but the flush ahead of it.
    fn lead<'a>(&'a self, mut state: MutexGuard<'a, State>) {
        loop {
            if !self.config.max_wait.is_zero() && !self.batch_full(&state) {
                // Accumulation window: trade this batch's latency for
                // its size. Stagers notify when the batch fills.
                let deadline = Instant::now() + self.config.max_wait;
                while !self.batch_full(&state) {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    self.cond.wait_for(&mut state, deadline - now);
                }
            }
            let batch = state.pending.take().expect("leader owns a pending batch");
            drop(state);
            let result = self.flush_batch(&batch);
            state = self.state.lock();
            match result {
                Ok(()) => {
                    self.flushes.fetch_add(1, Ordering::Relaxed);
                    self.records_flushed
                        .fetch_add(batch.records as u64, Ordering::Relaxed);
                    if let Some(obs) = self.observer.lock().as_ref() {
                        obs(batch.records, batch.buf.len());
                    }
                    batch.slot.resolve(Ok(()));
                    // Batch room freed: wake backpressure waiters.
                    self.cond.notify_all();
                    if state.pending.is_some() {
                        continue;
                    }
                    state.flushing = false;
                    return;
                }
                Err(error) => {
                    // Fail the flushed batch and cancel everything
                    // staged after it, then roll the sequence counter
                    // back over the failed records so the next stage
                    // continues the contiguous run. After a failed
                    // sync the flushed records *are* in the log, so
                    // only the cancelled ones roll back.
                    let reset_to = match &error {
                        BatchError::Sync(_) => batch.first_seq + batch.records as u64,
                        _ => batch.first_seq,
                    };
                    if let Some(p) = state.pending.take() {
                        p.slot.resolve(Err(BatchError::Cancelled));
                    }
                    self.writer.set_next_seq(reset_to);
                    batch.slot.resolve(Err(error));
                    state.flushing = false;
                    self.cond.notify_all();
                    return;
                }
            }
        }
    }

    /// One append (the whole batch) + one sync, transients retried in
    /// place (nothing persisted, identical bytes re-issued).
    fn flush_batch(&self, batch: &Pending) -> Result<(), BatchError> {
        let store: &Arc<dyn WalStore> = self.writer.store();
        let (appended, retries) =
            RetryPolicy::default().run(batch.first_seq, || store.append(&batch.buf));
        self.retries
            .fetch_add(u64::from(retries), Ordering::Relaxed);
        appended.map_err(BatchError::Append)?;
        store.sync().map_err(BatchError::Sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::decode_log;
    use crate::store::MemStore;
    use std::sync::Barrier;

    /// A store that can hold the next append at a barrier and/or fail
    /// appends and syncs on command.
    struct HarnessStore {
        inner: Arc<MemStore>,
        hold: Mutex<Option<Arc<Barrier>>>,
        fail_appends: AtomicU64,
        fail_error: Mutex<Option<StoreError>>,
        fail_sync: AtomicBool,
        appends: AtomicU64,
        syncs: AtomicU64,
    }

    impl HarnessStore {
        fn new() -> Arc<HarnessStore> {
            Arc::new(HarnessStore {
                inner: MemStore::healthy(),
                hold: Mutex::new(None),
                fail_appends: AtomicU64::new(0),
                fail_error: Mutex::new(None),
                fail_sync: AtomicBool::new(false),
                appends: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
            })
        }
    }

    impl WalStore for HarnessStore {
        fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
            if let Some(b) = self.hold.lock().take() {
                b.wait(); // park this flush until the test releases it
            }
            self.appends.fetch_add(1, Ordering::SeqCst);
            if self.fail_appends.load(Ordering::SeqCst) > 0 {
                self.fail_appends.fetch_sub(1, Ordering::SeqCst);
                let e = self.fail_error.lock().clone();
                return Err(e.unwrap_or(StoreError::Transient("injected".into())));
            }
            self.inner.append(bytes)
        }
        fn sync(&self) -> Result<(), StoreError> {
            self.syncs.fetch_add(1, Ordering::SeqCst);
            if self.fail_sync.load(Ordering::SeqCst) {
                return Err(StoreError::Permanent("injected fsync failure".into()));
            }
            Ok(())
        }
        fn log_bytes(&self) -> Vec<u8> {
            self.inner.log_bytes()
        }
        fn snapshot(&self) -> Option<Vec<u8>> {
            self.inner.snapshot()
        }
        fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
            self.inner.checkpoint(snapshot)
        }
    }

    fn committer(store: &Arc<HarnessStore>, config: GroupCommitConfig) -> Arc<GroupCommitter> {
        let writer = Arc::new(LogWriter::new(0, Arc::clone(store) as Arc<dyn WalStore>, 0));
        GroupCommitter::new(writer, config)
    }

    #[test]
    fn single_commit_is_a_batch_of_one() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        gc.commit(0, 1, &[(1, 10)]).unwrap();
        assert_eq!(gc.flushes(), 1);
        assert_eq!(gc.records_flushed(), 1);
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 0);
    }

    #[test]
    fn concurrent_commits_share_one_flush() {
        // Park the leader's flush at a barrier; two more committers
        // stage meanwhile; on release, their batch flushes together:
        // 3 records, 2 appends, 2 syncs.
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));

        std::thread::scope(|scope| {
            let leader = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 1, &[(1, 10)]))
            };
            // Wait for the two piggybackers to be staged behind the
            // parked flush before releasing it.
            let riders: Vec<_> = (0..2u64)
                .map(|i| {
                    let gc = Arc::clone(&gc);
                    scope.spawn(move || gc.commit(0, 2 + i, &[(2 + i, 20 + i)]))
                })
                .collect();
            while gc.staged_records() < 2 {
                std::thread::yield_now();
            }
            gate.wait(); // release the leader's flush
            leader.join().unwrap().unwrap();
            for r in riders {
                r.join().unwrap().unwrap();
            }
        });

        assert_eq!(store.appends.load(Ordering::SeqCst), 2);
        assert_eq!(store.syncs.load(Ordering::SeqCst), 2);
        assert_eq!(gc.flushes(), 2);
        assert_eq!(gc.records_flushed(), 3);
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "staged batches keep the contiguous seq run"
        );
    }

    #[test]
    fn transient_flush_failure_rolls_seq_back_for_the_next_batch() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        gc.commit(0, 1, &[(1, 10)]).unwrap();
        // Fail past the retry budget: 4 retries allowed, 5 failures.
        store.fail_appends.store(5, Ordering::SeqCst);
        let err = gc.commit(0, 2, &[(2, 20)]).unwrap_err();
        assert!(matches!(
            err.error,
            BatchError::Append(StoreError::Transient(_))
        ));
        assert!(err.primary, "sole member of the batch is the primary");
        assert!(!err.in_doubt, "nothing persisted on a transient failure");
        assert_eq!(gc.retries(), 4, "every in-place retry is counted");
        // The failed batch's seq was rolled back: the next commit
        // continues the contiguous run.
        gc.commit(0, 3, &[(3, 30)]).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            records.iter().map(|r| r.commit_ts).collect::<Vec<_>>(),
            vec![1, 3],
            "the failed commit is absent, the later one present"
        );
    }

    #[test]
    fn failed_flush_cancels_the_batch_staged_behind_it() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));
        // Exhaust the leader's retries (1 attempt + 4 retries).
        store.fail_appends.store(5, Ordering::SeqCst);

        // Whichever thread wins the state lock leads and fails; the
        // other stages behind it and is cancelled — collect both and
        // partition, since the race is scheduler-decided.
        let errors: Vec<GroupError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|i| {
                    let gc = Arc::clone(&gc);
                    scope.spawn(move || gc.commit(0, 1 + i, &[(1 + i, 10 * (1 + i))]))
                })
                .collect();
            while gc.staged_records() < 1 {
                std::thread::yield_now();
            }
            gate.wait();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap_err())
                .collect()
        });
        assert_eq!(errors.len(), 2);
        assert_eq!(
            errors
                .iter()
                .filter(|e| matches!(e.error, BatchError::Append(_)))
                .count(),
            1
        );
        let cancelled = errors
            .iter()
            .find(|e| e.error == BatchError::Cancelled)
            .expect("the staged-behind batch is cancelled");
        assert!(!cancelled.in_doubt);

        // Both seqs rolled back: a fresh commit restarts at 0.
        gc.commit(0, 3, &[(3, 30)]).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0]);
        assert_eq!(records[0].commit_ts, 3);
    }

    #[test]
    fn sync_failure_marks_every_member_in_doubt() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        store.fail_sync.store(true, Ordering::SeqCst);
        let err = gc.commit(0, 1, &[(1, 10)]).unwrap_err();
        assert!(matches!(err.error, BatchError::Sync(_)));
        assert!(err.in_doubt, "appended but never confirmed");
        assert!(err.primary);
        // The record is physically in the log (sync failed, append did
        // not) — exactly the in-doubt shape.
        let (records, _) = decode_log(&store.log_bytes()).unwrap();
        assert_eq!(records.len(), 1);
        // Seq was NOT rolled back over the flushed (in-log) records:
        // a later commit appends after them, keeping contiguity.
        store.fail_sync.store(false, Ordering::SeqCst);
        gc.commit(0, 2, &[(2, 20)]).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn torn_append_sets_in_doubt_only_for_fully_persisted_members() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        gc.commit(0, 1, &[(1, 10)]).unwrap();
        let frame_len = store.log_bytes().len();
        // Next flush "tears" with the whole frame persisted: in doubt.
        store.fail_appends.store(1, Ordering::SeqCst);
        *store.fail_error.lock() = Some(StoreError::Torn {
            persisted: frame_len,
            detail: "injected".into(),
        });
        let err = gc.commit(0, 2, &[(1, 11)]).unwrap_err();
        assert!(err.in_doubt, "frame fits the persisted prefix");
        // And with a mid-frame tear: not in doubt.
        store.fail_appends.store(1, Ordering::SeqCst);
        *store.fail_error.lock() = Some(StoreError::Torn {
            persisted: 3,
            detail: "injected".into(),
        });
        let err = gc.commit(0, 3, &[(1, 12)]).unwrap_err();
        assert!(!err.in_doubt, "frame torn mid-record cannot replay");
    }

    #[test]
    fn accumulation_window_batches_without_concurrency() {
        // With max_wait set, a second committer arriving inside the
        // window joins the first one's batch even though no flush was
        // in flight when the leader started waiting.
        let store = HarnessStore::new();
        let config = GroupCommitConfig::default()
            .with_max_records(2)
            .with_max_wait(Duration::from_millis(250));
        let gc = committer(&store, config);
        std::thread::scope(|scope| {
            let a = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 1, &[(1, 10)]))
            };
            while gc.staged_records() < 1 {
                std::thread::yield_now();
            }
            let b = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 2, &[(2, 20)]))
            };
            a.join().unwrap().unwrap();
            b.join().unwrap().unwrap();
        });
        assert_eq!(gc.flushes(), 1, "one flush carried both records");
        assert_eq!(gc.records_flushed(), 2);
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn backpressure_bounds_the_pending_batch() {
        // Batch bound 1, flush parked: the leader's record fills the
        // *flushed* batch; one rider stages into pending (bound 1 —
        // full), and a third committer must wait for room rather than
        // grow the batch past its bound.
        let store = HarnessStore::new();
        let config = GroupCommitConfig::default().with_max_records(1);
        let gc = committer(&store, config);
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));
        std::thread::scope(|scope| {
            let leader = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 1, &[(1, 10)]))
            };
            let riders: Vec<_> = (0..2u64)
                .map(|i| {
                    let gc = Arc::clone(&gc);
                    scope.spawn(move || gc.commit(0, 2 + i, &[(2 + i, 0)]))
                })
                .collect();
            // Only one rider can stage; the other waits for room.
            while gc.staged_records() < 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(gc.staged_records(), 1, "bound holds under pressure");
            gate.wait();
            leader.join().unwrap().unwrap();
            for r in riders {
                r.join().unwrap().unwrap();
            }
        });
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 3);
        assert_eq!(gc.flushes(), 3, "bound 1 forces one flush per record");
    }
}
