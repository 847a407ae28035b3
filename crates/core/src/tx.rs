//! The transaction engine: the single-version, word-based LSA variant of
//! Section 3.1 with encounter-time locking, plus the hierarchical
//! validation fast path of Section 3.2.
//!
//! One [`Tx`] exists per attempt, created by [`crate::Stm::run`]'s retry
//! loop. It borrows the per-thread `TxCtx` (read set, write log,
//! hierarchy masks — all recycled across attempts), the runtime's
//! memory logs, and the current [`Mapping`] (pinned by the quiesce gate
//! for the attempt's duration). The runtime drives its commit and
//! rollback; this module supplies the locking steps they call.
//!
//! ## Memory ordering (DESIGN.md §3, sites R1–R5, W1–W6, F1)
//!
//! The per-access fast path is a seqlock: the lock word doubles as the
//! sequence word, "owned" as the odd state. The orderings are chosen
//! per site instead of blanket `SeqCst`:
//!
//! * **R1** `l1 = lock.load(Acquire)` — pairs with the Release
//!   lock-release stores (W4/W5): observing version `v` makes every
//!   data word published at `v` visible to the reads that follow.
//! * **R3** `value = data.load(Relaxed)` + **F1** `fence(Acquire)` +
//!   **R4** `l2 = lock.load(Relaxed)` — the seqlock re-check. If R3
//!   read a concurrent writer's (Release) data store, the fence
//!   synchronizes with that store, which makes the writer's preceding
//!   lock-acquiring CAS (W1) visible to R4; by coherence R4 then reads
//!   the owned word (or something later), so `l1 != l2` and the
//!   possibly-dirty value is discarded. The write-through incarnation
//!   bump (W5) keeps this working across abort/restore cycles where
//!   the version alone would not change.
//! * **R2** own-stripe data loads — `Relaxed`: we own the covering
//!   lock, so the word is either our own write (program order) or the
//!   last committed value, which our acquiring CAS (W1, Acquire half)
//!   already synchronized with.
//! * **R5** validation lock loads — `Acquire`: freshness comes from the
//!   clock edge (site C1/C2 in `clock.rs`); Acquire pairs with W1/W4 so
//!   a record pointer read from an owned word dereferences fully
//!   initialized fields.
//! * **W1** the acquiring CAS — `AcqRel` on success (Acquire: brings
//!   the last committed data into view and orders our stripe accesses
//!   after ownership; Release: publishes the just-initialized
//!   [`StripeRecord`] to any R1/R5 that observes the owned word);
//!   `Relaxed` on failure (the retry loop re-reads through R1).
//! * **W2/W3** data publication (write-through in-place stores,
//!   write-back commit write-back) — `Release`, so a racing R3 that
//!   observes the value synchronizes through F1 (see R3/F1 above).
//! * **W4** commit lock release / **W5** rollback lock release —
//!   `Release`: the publication edge R1 acquires; sequenced after the
//!   data stores they cover.
//! * **W6** write-through undo restores — `Release` for the same
//!   reason as W2: a racing reader may observe the restored value.
//! * Owner-private bookkeeping (read set, write log, undo vector,
//!   arena) is plain non-atomic data — it is never touched by foreign
//!   threads except `StripeRecord::owner` (Acquire/Release in
//!   `writelog.rs`).

use crate::config::AccessStrategy;
use crate::fault::FaultInjection;
use crate::lockword::{is_owned, make_owned, owner_ptr, version_of};
use crate::mapping::Mapping;
use crate::mem::AttemptMem;
use crate::readset::ReadSet;
use crate::runtime::{Hooks, Shared, ThreadState};
use crate::stm::Lsa;
use crate::writelog::{StripeRecord, WriteLog};
use core::sync::atomic::{AtomicUsize, Ordering};
use stm_api::{atomic_view, Abort, AbortReason, TmTx, TxKind, TxResult};

/// Bound on l1/value/l2 re-read loops before declaring the read
/// inconsistent (forward-progress guard; the paper retries indefinitely).
pub const MAX_READ_RETRIES: u32 = 64;

/// Per-thread transactional state, recycled across attempts (the
/// [`crate::runtime::Protocol::Ctx`] of [`Lsa`]).
#[derive(Debug)]
pub struct TxCtx {
    /// Kind of the current attempt.
    pub(crate) kind: TxKind,
    /// Snapshot validity range `[start, end]` (LSA).
    pub(crate) start: u64,
    pub(crate) end: u64,
    /// Read set (update transactions only).
    pub(crate) rset: ReadSet,
    /// Write log: stripe records, write-back chains, undo log.
    pub(crate) wlog: WriteLog,
    /// Hierarchy masks and saved counters.
    pub(crate) hier: crate::hierarchy::TxHier,
}

impl Default for TxCtx {
    fn default() -> TxCtx {
        TxCtx {
            kind: TxKind::ReadWrite,
            start: 0,
            end: 0,
            rset: ReadSet::new(1),
            wlog: WriteLog::new(),
            hier: crate::hierarchy::TxHier::new(1),
        }
    }
}

impl TxCtx {
    /// Prepare for a fresh attempt under `map` with snapshot time `now`.
    pub(crate) fn begin(&mut self, kind: TxKind, map: &Mapping, now: u64) {
        self.kind = kind;
        self.start = now;
        self.end = now;
        let h = map.hier().len();
        self.rset.reset(h);
        self.wlog.reset();
        self.hier.reset(h);
    }
}

/// An in-flight transaction attempt. Public API surface of the STM;
/// obtained through [`crate::Stm::run`].
pub struct Tx<'a> {
    pub(crate) inner: &'a Shared<Lsa>,
    pub(crate) map: &'a Mapping,
    pub(crate) ts: &'a ThreadState<Lsa>,
    pub(crate) ctx: &'a mut TxCtx,
    pub(crate) mem: &'a mut AttemptMem,
    /// Cached per-attempt invariants (hot-path loads hoisted out).
    pub(crate) strategy: AccessStrategy,
    pub(crate) hier_on: bool,
    pub(crate) me: usize,
    /// Recording session and WAL sink for this attempt.
    pub(crate) hooks: Hooks<'a>,
}

#[cfg(test)]
thread_local! {
    /// Runs once, on this thread, at the top of the next
    /// `extend_for_read`: where a commit can slip in before the
    /// extension samples the clock.
    static BEFORE_EXTEND_FOR_READ: std::cell::Cell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::Cell::new(None) };
}

impl<'a> Tx<'a> {
    /// Identity used in stripe records: the stable address of this
    /// thread's state.
    #[inline(always)]
    fn owner_addr(&self) -> usize {
        self.me
    }

    #[inline(always)]
    fn strategy(&self) -> AccessStrategy {
        self.strategy
    }

    /// Snapshot upper bound (diagnostics / tests).
    pub fn snapshot_end(&self) -> u64 {
        self.ctx.end
    }

    /// Snapshot lower bound (start time).
    pub fn snapshot_start(&self) -> u64 {
        self.ctx.start
    }

    /// Current read-set size (update transactions; 0 for read-only).
    pub fn read_set_len(&self) -> usize {
        self.ctx.rset.len()
    }

    /// Number of stripes this attempt owns.
    pub fn write_set_stripes(&self) -> usize {
        self.ctx.wlog.n_records()
    }

    /// The error value only: the runtime's rollback does the rest.
    #[cold]
    fn abort(&mut self, reason: AbortReason) -> Abort {
        Abort(reason)
    }

    /// Validate the read set: every entry must still carry the version
    /// we observed (or be locked by us with that prior version).
    /// Partitions whose hierarchy counter is unchanged (modulo our own
    /// acquisitions) are skipped — the fast path of Section 3.2,
    /// realized as a precomputed skip mask plus one flat pass.
    pub(crate) fn validate(&mut self) -> bool {
        let me = self.me;
        let strategy = self.strategy;
        let skip_mask = if self.hier_on {
            Some(self.ctx.hier.skip_mask(self.map.hier()))
        } else {
            None
        };
        let mut processed: u64 = 0;
        let mut skipped: u64 = 0;
        let mut ok = true;
        for e in self.ctx.rset.entries() {
            if let Some(mask) = &skip_mask {
                if mask.get(e.part as usize) {
                    skipped += 1;
                    continue;
                }
            }
            processed += 1;
            // Site R5 (module docs): Acquire.
            let w = self.map.lock(e.lock_idx as usize).load(Ordering::Acquire);
            if is_owned(w) {
                let rec = owner_ptr(w) as *const StripeRecord;
                // SAFETY: records live in registry-pinned arenas for
                // the lifetime of the STM; see writelog.rs.
                let owner = unsafe { (*rec).owner() };
                if owner != me {
                    ok = false;
                    break;
                }
                let prior = unsafe { (*rec).prior_word };
                if version_of(prior, strategy) != e.version {
                    ok = false;
                    break;
                }
            } else if version_of(w, strategy) != e.version {
                ok = false;
                break;
            }
        }
        self.ts.stats.bump_validation();
        self.ts.stats.add_validation_locks(processed, skipped);
        ok
    }

    /// Try to extend the snapshot's upper bound to "now" (LSA eager
    /// extension). Read-only transactions keep no read set and cannot
    /// extend: they abort and restart with a fresh snapshot.
    pub(crate) fn extend(&mut self) -> TxResult<()> {
        if matches!(self.ctx.kind, TxKind::ReadOnly) {
            self.ts.stats.bump_extend_failure();
            return Err(self.abort(AbortReason::ExtendFailed));
        }
        // Sample before validating: the snapshot is extended to a time
        // no later than any validation check.
        let now = self.inner.clock().now();
        if self
            .inner
            .fault_active(FaultInjection::SkipExtendValidation)
        {
            // Deliberate mutation: extend without validating, handing
            // later reads a snapshot the earlier reads may not share.
            self.ts.stats.bump_extension();
            self.ctx.end = now;
            return Ok(());
        }
        if self.validate() {
            self.ts.stats.bump_extension();
            self.ctx.end = now;
            Ok(())
        } else {
            self.ts.stats.bump_extend_failure();
            Err(self.abort(AbortReason::ExtendFailed))
        }
    }

    /// The word a read found (lock word `l1`, value read under it) is
    /// newer than the snapshot: extend it, then report whether the
    /// value still holds. The extension validated the read set, which
    /// does not hold this read yet, so a commit landing between the
    /// read and the extension's clock sample would leave the value
    /// older than the extended snapshot; TinySTM's `stm_read` re-checks
    /// the lock here for the same reason. Out of line: inlined, this
    /// rare path costs the read loop registers.
    #[cold]
    #[inline(never)]
    fn extend_for_read(&mut self, lock: &AtomicUsize, l1: usize) -> TxResult<bool> {
        #[cfg(test)]
        if let Some(hook) = BEFORE_EXTEND_FOR_READ.take() {
            hook();
        }
        self.extend()?;
        Ok(lock.load(Ordering::Acquire) == l1)
    }

    /// Transactional read, inlined-hot. See module docs of `tx` and the
    /// paper's "Reads and Writes".
    pub(crate) unsafe fn load_impl(&mut self, addr: *const usize) -> TxResult<usize> {
        self.ts.stats.bump_read();
        let idx = self.map.lock_index(addr as usize);
        let lock = self.map.lock(idx);
        let update = matches!(self.ctx.kind, TxKind::ReadWrite);
        let hier_on = self.hier_on;
        let hidx = self.map.hier_index(idx);
        if hier_on && update {
            // Must precede the first lock examination (fast-path
            // ordering argument — see hierarchy.rs).
            self.ctx.hier.on_access(hidx, self.map.hier());
        }
        let mut retries = 0u32;
        loop {
            // Site R1 (module docs): Acquire.
            let l1 = lock.load(Ordering::Acquire);
            if is_owned(l1) {
                let rec = owner_ptr(l1) as *const StripeRecord;
                // SAFETY: registry-pinned arena memory (writelog.rs).
                if (*rec).owner() == self.owner_addr() {
                    return match self.strategy() {
                        AccessStrategy::WriteBack => {
                            // Read-after-write: O(1) stripe lookup, then
                            // the chain gives the buffered value; a miss
                            // means we own the stripe but never wrote
                            // this word — memory is clean.
                            if let Some(e) = self.ctx.wlog.find_entry(rec, addr) {
                                Ok((*e).value)
                            } else {
                                // Site R2: own lock — Relaxed.
                                Ok(atomic_view(addr).load(Ordering::Relaxed))
                            }
                        }
                        // Write-through: memory always holds our latest.
                        // Site R2: own lock — Relaxed.
                        AccessStrategy::WriteThrough => {
                            Ok(atomic_view(addr).load(Ordering::Relaxed))
                        }
                    };
                }
                // Encounter-time conflict: abort immediately (paper's
                // choice over waiting; CM_DELAY consumes the index).
                self.ts.set_contended(idx);
                return Err(self.abort(AbortReason::ReadLocked));
            }
            // Sites R3 + F1 + R4 (module docs): the seqlock re-check.
            // The Acquire fence orders the data read before the l2
            // re-load and pairs with the Release data stores (W2/W3/W6).
            let value = atomic_view(addr).load(Ordering::Relaxed);
            core::sync::atomic::fence(Ordering::Acquire);
            let l2 = lock.load(Ordering::Relaxed);
            if l1 != l2 {
                // Concurrent acquisition/release (or a write-through
                // incarnation bump) — the value may be dirty; retry.
                retries += 1;
                if retries > MAX_READ_RETRIES {
                    return Err(self.abort(AbortReason::InconsistentRead));
                }
                continue;
            }
            let version = version_of(l1, self.strategy());
            if version > self.ctx.end && !self.extend_for_read(lock, l1)? {
                // The stripe moved while we extended: read it again.
                continue;
            }
            if update {
                let part = if hier_on { hidx } else { 0 };
                // Dedup fast path: re-reading the recently-touched
                // stripe at the same version (the dominant pattern in
                // the list workloads, where a node's fields share a
                // stripe) must not inflate the read set — validation of
                // the existing entry already covers this read.
                self.ctx.rset.push_dedup_last(part, idx, version);
            }
            // Recorded at the success point only: a read whose extend
            // failed never returns a value, so it must not enter the
            // history (own-stripe reads above are internal and carry no
            // version; they are covered by the stripe's write).
            self.hooks.record_read(idx, version);
            return Ok(value);
        }
    }

    /// Transactional write with encounter-time lock acquisition.
    pub(crate) unsafe fn store_impl(&mut self, addr: *mut usize, value: usize) -> TxResult<()> {
        assert!(
            matches!(self.ctx.kind, TxKind::ReadWrite),
            "store inside a read-only transaction"
        );
        self.ts.stats.bump_write();
        let idx = self.map.lock_index(addr as usize);
        let lock = self.map.lock(idx);
        let hier_on = self.hier_on;
        let hidx = self.map.hier_index(idx);
        if hier_on {
            self.ctx.hier.on_access(hidx, self.map.hier());
        }
        let strategy = self.strategy();
        loop {
            // Site R1 (module docs): Acquire.
            let l1 = lock.load(Ordering::Acquire);
            if is_owned(l1) {
                let rec_const = owner_ptr(l1) as *const StripeRecord;
                // SAFETY: registry-pinned arena memory.
                if (*rec_const).owner() == self.owner_addr() {
                    let rec = rec_const as *mut StripeRecord;
                    match strategy {
                        AccessStrategy::WriteBack => {
                            if let Some(e) = self.ctx.wlog.find_entry(rec, addr) {
                                (*e).value = value;
                            } else {
                                self.ctx.wlog.add_entry(rec, addr, value);
                            }
                        }
                        AccessStrategy::WriteThrough => {
                            // Site R2: own lock — Relaxed.
                            let old = atomic_view(addr).load(Ordering::Relaxed);
                            self.ctx.wlog.push_undo(addr, old);
                            // Site W2: in-place publication — Release.
                            atomic_view(addr).store(value, Ordering::Release);
                        }
                    }
                    self.hooks.record_write(idx);
                    return Ok(());
                }
                self.ts.set_contended(idx);
                return Err(self.abort(AbortReason::WriteLocked));
            }
            // Detect a conflicting committed write early: if the stripe
            // moved past our snapshot we must extend before overwriting,
            // otherwise commit-time validation is doomed anyway.
            let version = version_of(l1, strategy);
            if version > self.ctx.end {
                self.extend()?;
                continue;
            }
            // Site W1 (module docs): publish a stripe record through an
            // AcqRel CAS; Relaxed on failure (the loop re-reads via R1).
            let rec = self.ctx.wlog.new_record(self.owner_addr(), l1, idx);
            if lock
                .compare_exchange(
                    l1,
                    make_owned(rec as usize),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_err()
            {
                // Someone beat us; recycle the record and re-examine.
                self.ctx.wlog.abandon_last_record();
                continue;
            }
            if hier_on {
                self.ctx.hier.on_acquire(hidx, self.map.hier());
            }
            match strategy {
                AccessStrategy::WriteBack => {
                    self.ctx.wlog.add_entry(rec, addr, value);
                }
                AccessStrategy::WriteThrough => {
                    // Site R2: own lock (just acquired) — Relaxed.
                    let old = atomic_view(addr).load(Ordering::Relaxed);
                    self.ctx.wlog.push_undo(addr, old);
                    // Site W2: in-place publication — Release.
                    atomic_view(addr).store(value, Ordering::Release);
                }
            }
            self.hooks.record_write(idx);
            return Ok(());
        }
    }
}

impl<'a> TmTx for Tx<'a> {
    unsafe fn load_word(&mut self, addr: *const usize) -> TxResult<usize> {
        self.load_impl(addr)
    }

    unsafe fn store_word(&mut self, addr: *mut usize, value: usize) -> TxResult<()> {
        self.store_impl(addr, value)
    }

    fn malloc(&mut self, words: usize) -> TxResult<*mut usize> {
        Ok(self.mem.malloc(words))
    }

    unsafe fn free(&mut self, ptr: *mut usize, words: usize) -> TxResult<()> {
        crate::runtime::free::<Lsa>(self, ptr, words)
    }

    fn kind(&self) -> TxKind {
        self.ctx.kind
    }
}

#[cfg(test)]
mod tests {
    use super::BEFORE_EXTEND_FOR_READ;
    use crate::{AccessStrategy, Stm, StmConfig, TCell, TxExt};
    use std::sync::Arc;
    use stm_api::TxKind;

    /// The read that triggers an extension re-checks its lock after it:
    /// a commit landing before the extension samples the clock moves
    /// the word past the value the read found, while the extended
    /// snapshot already covers the new version. Accepting the old value
    /// loses that commit: the final count reads 2 instead of 3.
    #[test]
    fn extend_then_read_sees_a_commit_before_the_clock_sample() {
        for strategy in [AccessStrategy::WriteBack, AccessStrategy::WriteThrough] {
            extend_then_read_on(strategy);
        }
    }

    fn extend_then_read_on(strategy: AccessStrategy) {
        let stm = Stm::new(StmConfig::default().with_strategy(strategy)).unwrap();
        let x = Arc::new(TCell::new(0usize));
        let increment = {
            let (stm, x) = (stm.clone(), Arc::clone(&x));
            move || {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        stm.run(TxKind::ReadWrite, |tx| {
                            let v = tx.read(&*x)?;
                            tx.write(&*x, v + 1)
                        })
                    });
                })
            }
        };
        let mut first = true;
        stm.run(TxKind::ReadWrite, |tx| {
            if std::mem::take(&mut first) {
                // X's version moves past this attempt's snapshot, so
                // the read below extends, and the hook commits again.
                increment();
                BEFORE_EXTEND_FOR_READ.set(Some(Box::new(increment.clone())));
            }
            let v = tx.read(&*x)?;
            tx.write(&*x, v + 1)
        });
        assert_eq!(x.read_direct(), 3, "{strategy:?} lost an update");
    }
}
