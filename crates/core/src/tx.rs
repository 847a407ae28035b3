//! The transaction engine: the single-version, word-based LSA variant of
//! Section 3.1 with encounter-time locking, plus the hierarchical
//! validation fast path of Section 3.2.
//!
//! One [`Tx`] exists per attempt, created by [`crate::Stm::run`]'s retry
//! loop. It borrows the per-thread `TxCtx` (read set, write log,
//! hierarchy masks — all recycled across attempts) and the current
//! [`Mapping`] (pinned by the quiesce gate for the attempt's duration).
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
use crate::lockword::{
    is_owned, make_owned, make_version, owner_ptr, version_of, wt_bump_incarnation, wt_make,
};
use crate::mapping::Mapping;
use crate::readset::ReadSet;
use crate::stm::{StmInner, ThreadState};
use crate::writelog::{StripeRecord, WriteLog};
use core::sync::atomic::Ordering;
use stm_api::{atomic_view, Abort, AbortReason, TmTx, TxKind, TxResult};

/// Bound on l1/value/l2 re-read loops before declaring the read
/// inconsistent (forward-progress guard; the paper retries indefinitely).
const MAX_READ_RETRIES: u32 = 64;

/// Per-thread transactional state, recycled across attempts.
#[derive(Debug)]
pub(crate) struct TxCtx {
    /// Kind of the current attempt.
    pub kind: TxKind,
    /// Snapshot validity range `[start, end]` (LSA).
    pub start: u64,
    pub end: u64,
    /// Read set (update transactions only).
    pub rset: ReadSet,
    /// Write log: stripe records, write-back chains, undo log.
    pub wlog: WriteLog,
    /// Hierarchy masks and saved counters.
    pub hier: crate::hierarchy::TxHier,
    /// Blocks allocated by this attempt: `(ptr, words)`.
    pub alloc_log: Vec<(usize, usize)>,
    /// Blocks freed by this attempt (deferred to commit).
    pub free_log: Vec<(usize, usize)>,
    /// Blocks both allocated *and* freed by this attempt: on commit they
    /// ride the free log into limbo; on abort they are reclaimed here
    /// (the free log is discarded).
    pub alloc_freed: Vec<(usize, usize)>,
    /// Reads performed by the current attempt (flushed to
    /// `wasted_reads` if the attempt aborts).
    pub attempt_reads: u64,
    /// Lock index of the stripe the last abort collided on (consumed by
    /// the CM_DELAY policy at the next attempt's start).
    pub last_contended: Option<usize>,
    /// Consecutive aborts of the current `run` invocation (backoff).
    pub consecutive_aborts: u32,
    /// xorshift state for randomized backoff.
    pub rng: u64,
    /// Scratch buffer for the commit-path WAL publish: the attempt's
    /// `(addr, value)` write set, deduplicated and address-sorted.
    /// Recycled across attempts like the read set and write log.
    pub wal_scratch: Vec<(usize, usize)>,
}

impl TxCtx {
    pub(crate) fn new(seed: u64) -> TxCtx {
        TxCtx {
            kind: TxKind::ReadWrite,
            start: 0,
            end: 0,
            rset: ReadSet::new(1),
            wlog: WriteLog::new(),
            hier: crate::hierarchy::TxHier::new(1),
            alloc_log: Vec::new(),
            free_log: Vec::new(),
            alloc_freed: Vec::new(),
            attempt_reads: 0,
            last_contended: None,
            consecutive_aborts: 0,
            rng: seed | 1,
            wal_scratch: Vec::new(),
        }
    }

    /// Prepare for a fresh attempt under `map` with snapshot time `now`.
    pub(crate) fn begin(&mut self, kind: TxKind, map: &Mapping, now: u64) {
        self.kind = kind;
        self.start = now;
        self.end = now;
        let h = map.hier().len();
        self.rset.reset(h);
        self.wlog.reset();
        self.hier.reset(h);
        self.alloc_log.clear();
        self.free_log.clear();
        self.alloc_freed.clear();
        self.attempt_reads = 0;
    }

    /// Next pseudo-random number (xorshift64*), for backoff jitter.
    pub(crate) fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// How an attempt ended (consumed by the run loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttemptEnd {
    Committed,
    Aborted(AbortReason),
}

/// An in-flight transaction attempt. Public API surface of the STM;
/// obtained through [`crate::Stm::run`].
pub struct Tx<'a> {
    pub(crate) inner: &'a StmInner,
    pub(crate) map: &'a Mapping,
    pub(crate) ts: &'a ThreadState,
    pub(crate) ctx: &'a mut TxCtx,
    /// Set once commit/rollback ran; `Drop` rolls back otherwise
    /// (panic safety: a panicking closure must not leave locks held).
    pub(crate) finished: bool,
    /// Cached per-attempt invariants (hot-path loads hoisted out).
    pub(crate) strategy: AccessStrategy,
    pub(crate) hier_on: bool,
    pub(crate) me: usize,
    /// This thread's recording session, if a trace sink is attached.
    #[cfg(feature = "record")]
    pub(crate) trace: Option<&'a stm_check::SessionLog>,
    /// The attached WAL sink, if durability is on for this attempt.
    pub(crate) wal: Option<&'a dyn stm_api::wal::WalSink>,
}

impl<'a> Drop for Tx<'a> {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback(AbortReason::Explicit);
        }
    }
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

    #[cold]
    fn abort(&mut self, reason: AbortReason) -> Abort {
        // Bookkeeping happens in rollback (called by the run loop /
        // Drop); here we only materialize the error value.
        Abort(reason)
    }

    /// Append one event to this thread's recording session (no-op when
    /// no sink is attached).
    #[cfg(feature = "record")]
    #[inline(always)]
    fn emit(&self, event: stm_check::Event) {
        if let Some(log) = self.trace {
            // SAFETY: the run loop handed this attempt the session log
            // registered by (and owned by) the current thread.
            unsafe { log.push(event) };
        }
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
        let now = self.inner.clock.now();
        #[cfg(feature = "fault-inject")]
        if matches!(
            self.inner.fault.get(),
            crate::fault::FaultInjection::SkipExtendValidation
        ) {
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

    /// Transactional read, inlined-hot. See module docs of `tx` and the
    /// paper's "Reads and Writes".
    pub(crate) unsafe fn load_impl(&mut self, addr: *const usize) -> TxResult<usize> {
        self.ts.stats.bump_read();
        self.ctx.attempt_reads += 1;
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
                self.ctx.last_contended = Some(idx);
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
            if version > self.ctx.end {
                // The word changed after our snapshot: extend or die.
                self.extend()?;
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
            #[cfg(feature = "record")]
            self.emit(stm_check::Event::Read {
                stripe: idx as u64,
                version,
            });
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
                    #[cfg(feature = "record")]
                    self.emit(stm_check::Event::Write { stripe: idx as u64 });
                    return Ok(());
                }
                self.ctx.last_contended = Some(idx);
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
            #[cfg(feature = "record")]
            self.emit(stm_check::Event::Write { stripe: idx as u64 });
            return Ok(());
        }
    }

    /// Commit the attempt. On success the transaction's writes are
    /// visible with a unique commit timestamp; on failure the attempt is
    /// fully rolled back and the caller retries.
    pub(crate) fn commit(mut self) -> AttemptEnd {
        // Read-only commit (by kind, or an update transaction that never
        // wrote): the incrementally-validated snapshot is consistent,
        // nothing to do — the paper's read-only fast path.
        if self.ctx.wlog.n_records() == 0 {
            debug_assert!(
                self.ctx.free_log.is_empty(),
                "free without lock acquisition"
            );
            self.ts.stats.bump_commit();
            if matches!(self.ctx.kind, TxKind::ReadOnly) {
                self.ts.stats.bump_ro_commit();
            }
            self.ctx.alloc_log.clear();
            #[cfg(feature = "record")]
            self.emit(stm_check::Event::Commit { version: None });
            self.finished = true;
            return AttemptEnd::Committed;
        }

        let wv = match self.inner.clock.increment() {
            Ok(v) => v,
            Err(_) => {
                let reason = AbortReason::ClockOverflow;
                self.rollback(reason);
                return AttemptEnd::Aborted(reason);
            }
        };
        // Foreign commit timestamps consumed between our (last
        // validated) snapshot bound and our own increment: the steps a
        // CAS-from-snapshot timestamp acquisition would retry over.
        let clock_lag = (wv - 1).saturating_sub(self.ctx.end);
        if clock_lag > 0 {
            self.ts.stats.add_clock_conflicts(clock_lag);
        }

        // Validation can be skipped when no transaction committed since
        // our snapshot's upper bound (commit time adjacent to it).
        #[cfg(feature = "fault-inject")]
        let skip_validation = matches!(
            self.inner.fault.get(),
            crate::fault::FaultInjection::SkipCommitValidation
        );
        #[cfg(not(feature = "fault-inject"))]
        let skip_validation = false;
        if wv == self.ctx.end + 1 {
            self.ts.stats.bump_commit_validation_skip();
        } else if !skip_validation && !self.validate() {
            let reason = AbortReason::ValidationFailed;
            self.rollback(reason);
            return AttemptEnd::Aborted(reason);
        }

        let strategy = self.strategy();
        // WAL publish — inside the commit critical section: after the
        // commit timestamp is drawn and validation has passed, before
        // the lock releases. A conflicting later commit can only
        // acquire our stripes after our release, so conflicting records
        // enter the sink in commit-timestamp order and every log prefix
        // is conflict-closed (the crash-consistency invariant M1.4).
        //
        // Publishing runs *before* the write-back loop below: a failed
        // publish must abort with zero memory effect, and for
        // write-back the buffered values are available without touching
        // memory. Write-through already stored in place at encounter
        // time; its failure path restores through the undo log.
        if let Some(wal) = self.wal {
            let TxCtx {
                wlog, wal_scratch, ..
            } = &mut *self.ctx;
            wal_scratch.clear();
            match strategy {
                AccessStrategy::WriteBack => {
                    // Entry chains hold the buffered values, one entry
                    // per written word (`add_entry` deduplicates).
                    for rec in wlog.records() {
                        // SAFETY: records/entries of the current attempt.
                        unsafe {
                            let mut e = (*rec).first_entry;
                            while !e.is_null() {
                                wal_scratch.push(((*e).addr as usize, (*e).value));
                                e = (*e).next;
                            }
                        }
                    }
                }
                AccessStrategy::WriteThrough => {
                    // Memory already holds our values (encounter-time
                    // in-place stores) and we still own every covering
                    // lock, so a Relaxed read returns our own write.
                    // The undo log may list an address more than once;
                    // dedup after sorting (any survivor reads the same
                    // current value).
                    for u in wlog.undo.iter() {
                        // SAFETY: addresses recorded by this attempt.
                        let value = unsafe { atomic_view(u.addr).load(Ordering::Relaxed) };
                        wal_scratch.push((u.addr as usize, value));
                    }
                }
            }
            wal_scratch.sort_unstable_by_key(|&(addr, _)| addr);
            wal_scratch.dedup_by_key(|&mut (addr, _)| addr);
            if wal
                .publish(self.inner.wal.epoch(), wv, wal_scratch)
                .is_err()
            {
                // The record is durably absent; the commit must not
                // happen. Roll back cleanly (undo + lock release) and
                // let the run loop surface the failure — never retry.
                let reason = AbortReason::WalFailed;
                self.rollback(reason);
                return AttemptEnd::Aborted(reason);
            }
        }

        // Point of no return: apply buffered writes (write-back), then
        // release every lock with the new version.
        if matches!(strategy, AccessStrategy::WriteBack) {
            for rec in self.ctx.wlog.records() {
                // SAFETY: records/entries of the current attempt.
                unsafe {
                    let mut e = (*rec).first_entry;
                    while !e.is_null() {
                        // Site W3 (module docs): write-back publication
                        // — Release, for racing seqlock readers (F1).
                        atomic_view((*e).addr).store((*e).value, Ordering::Release);
                        e = (*e).next;
                    }
                }
            }
        }
        let release_word = make_version(wv, strategy);
        for rec in self.ctx.wlog.records() {
            // SAFETY: we own every recorded lock.
            let lock_idx = unsafe { (*rec).lock_idx };
            // Site W4 (module docs): lock release — Release; R1 acquires
            // the data stores above through this edge.
            self.map
                .lock(lock_idx)
                .store(release_word, Ordering::Release);
        }

        // Committed frees enter limbo stamped with our commit time
        // (including blocks allocated by this very attempt).
        if !self.ctx.free_log.is_empty() {
            self.inner.limbo.push(self.ctx.free_log.drain(..), wv);
        }
        self.ctx.alloc_log.clear();
        self.ctx.alloc_freed.clear();
        self.ts.stats.bump_commit();
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Commit { version: Some(wv) });
        self.finished = true;
        AttemptEnd::Committed
    }

    /// Undo the attempt: restore memory (write-through), release locks,
    /// reclaim this attempt's allocations.
    pub(crate) fn rollback(&mut self, reason: AbortReason) {
        if self.finished {
            return;
        }
        let strategy = self.strategy();
        if matches!(strategy, AccessStrategy::WriteThrough) {
            // Restore in reverse so the oldest value wins on multi-writes.
            for u in self.ctx.wlog.undo.iter().rev() {
                // SAFETY: we still own every lock covering these words.
                // Site W6 (module docs): restored-value publication —
                // Release, for racing seqlock readers (F1).
                unsafe { atomic_view(u.addr).store(u.old_value, Ordering::Release) };
            }
        }
        for rec in self.ctx.wlog.records() {
            // SAFETY: records of the current attempt; we own their locks.
            let (prior, lock_idx) = unsafe { ((*rec).prior_word, (*rec).lock_idx) };
            let release = match strategy {
                AccessStrategy::WriteBack => prior,
                AccessStrategy::WriteThrough => {
                    // Bump the incarnation so concurrent readers that saw
                    // our dirty value observe l1 != l2. On overflow,
                    // fetch a fresh version from the clock (paper §3.1).
                    match wt_bump_incarnation(prior) {
                        Some(w) => w,
                        None => wt_make(self.inner.clock.force_increment(), 0),
                    }
                }
            };
            // Site W5 (module docs): rollback lock release — Release
            // (sequenced after the undo restores it covers).
            self.map.lock(lock_idx).store(release, Ordering::Release);
        }
        // This attempt's allocations were never published (the attempt
        // is dead); reclaim immediately — including blocks it also freed.
        for (ptr, words) in self
            .ctx
            .alloc_log
            .drain(..)
            .chain(self.ctx.alloc_freed.drain(..))
        {
            // SAFETY: allocated by this attempt via alloc_words.
            unsafe { stm_api::mem::dealloc_words(ptr as *mut usize, words) };
        }
        self.ctx.free_log.clear();
        self.ts.stats.add_wasted_reads(self.ctx.attempt_reads);
        self.ts.stats.bump_abort(reason);
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Abort);
        self.finished = true;
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
        let ptr = stm_api::mem::alloc_words(words);
        self.ctx.alloc_log.push((ptr as usize, words));
        self.ts.stats.bump_alloc();
        Ok(ptr)
    }

    unsafe fn free(&mut self, ptr: *mut usize, words: usize) -> TxResult<()> {
        assert!(
            matches!(self.ctx.kind, TxKind::ReadWrite),
            "free inside a read-only transaction"
        );
        // A free is semantically an update: acquire every covering lock
        // (by rewriting each word with its current value) so conflicting
        // readers/writers are detected.
        for i in 0..words {
            let a = ptr.add(i);
            let v = self.load_impl(a)?;
            self.store_impl(a, v)?;
        }
        // A block both allocated and freed by this attempt must be
        // reclaimed exactly once whichever way the attempt ends: move it
        // from the alloc log to `alloc_freed` (abort reclaims that) and
        // still ride the free log into limbo on commit.
        if let Some(pos) = self
            .ctx
            .alloc_log
            .iter()
            .position(|&(p, _)| p == ptr as usize)
        {
            let entry = self.ctx.alloc_log.swap_remove(pos);
            self.ctx.alloc_freed.push(entry);
        }
        self.ctx.free_log.push((ptr as usize, words));
        self.ts.stats.bump_free();
        Ok(())
    }

    fn kind(&self) -> TxKind {
        self.ctx.kind
    }
}
