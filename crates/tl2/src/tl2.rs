//! The TL2 algorithm (Dice, Shalev, Shavit — DISC 2006), word-based,
//! as the comparison baseline of the TinySTM paper.
//!
//! Key contrasts with TinySTM that the paper's figures exercise:
//!
//! * **commit-time locking** — writes are buffered and locks acquired
//!   only at commit, so doomed transactions keep running (the linked-
//!   list figures show this as wasted traversal work);
//! * **no snapshot extension** — a read observing a version newer than
//!   the start timestamp `rv` aborts immediately;
//! * **read-after-write via Bloom filter + write-set scan** instead of
//!   lock-resident entry chains.
//!
//! TL2 runs on `tinystm::runtime` as a second [`Protocol`]: the run
//! loop, thread registry, global clock, quiesce fence, limbo
//! reclamation, statistics and the recording/WAL plumbing are the
//! TinySTM core's, and so is the lock array (a `tinystm::mapping::Mapping`
//! with the hierarchy disabled: the same per-stripe hash). This module
//! supplies only the configuration, the per-thread context and the
//! transaction attempt.
//!
//! ## Memory ordering
//!
//! Same per-site protocol as `tinystm::tx` (DESIGN.md §3), so the
//! TinySTM-vs-TL2 comparison measures algorithms, not fence budgets:
//! Acquire lock loads (R1/R5), the Relaxed-data + Acquire-fence +
//! Relaxed-l2 seqlock re-check (R3/F1/R4), AcqRel acquiring CAS (W1),
//! Release write-back and lock-release stores (W3/W4/W5), SeqCst kept
//! only on the quiesce gate (Q1), the clock (C1/C2), and the
//! `active_start` begin-path publication (S2). TL2 never writes data
//! before commit-time validation, so there is no write-through W2/W6
//! analogue. Lock words use the write-back encoding of
//! `tinystm::lockword` (owned bit, `version << 1`); an owned word holds
//! the owner's thread-state address.

use crate::bloom::Bloom;
use core::sync::atomic::Ordering;
use stm_api::{atomic_view, Abort, AbortReason, TmTx, TxKind, TxResult};
use tinystm::config::{CmPolicy, ConfigError, StmConfig};
use tinystm::fault::FaultInjection;
use tinystm::lockword::{is_owned, wb_make, wb_version};
use tinystm::mapping::Mapping;
use tinystm::runtime::{Attempt, Hooks, Protocol, Runtime, Shared, ThreadState};

/// Bound on l1/value/l2 re-read loops, as in the TinySTM core.
const MAX_READ_RETRIES: u32 = 64;

/// TL2 configuration. The reference implementation fixes its parameters
/// at build time; they are constructor arguments here. [`Tl2::reconfigure`]
/// can swap them at runtime through the shared quiesce fence — kept for
/// operational parity with the TinySTM core (recorded runs must survive
/// a mid-window lock-array swap on every backend); the *tuner* still
/// targets TinySTM only, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tl2Config {
    /// log2 of the lock-array size. TL2's default sizing (2^20).
    pub locks_log2: u32,
    /// Extra right shifts in the address hash (word shift of 3 implied).
    pub shifts: u32,
    /// Clock roll-over threshold (kept configurable for tests).
    pub max_clock: u64,
    /// Retry-loop contention management.
    pub cm: CmPolicy,
}

impl Default for Tl2Config {
    fn default() -> Self {
        Tl2Config {
            locks_log2: 20,
            shifts: 0,
            max_clock: 1 << 50,
            cm: CmPolicy::Immediate,
        }
    }
}

impl Tl2Config {
    /// Builder-style setter for `locks_log2`.
    pub fn with_locks_log2(mut self, v: u32) -> Self {
        self.locks_log2 = v;
        self
    }

    /// Builder-style setter for `shifts`.
    pub fn with_shifts(mut self, v: u32) -> Self {
        self.shifts = v;
        self
    }

    /// Builder-style setter for the roll-over threshold.
    pub fn with_max_clock(mut self, v: u64) -> Self {
        self.max_clock = v;
        self
    }

    /// Builder-style setter for contention management.
    pub fn with_cm(mut self, cm: CmPolicy) -> Self {
        self.cm = cm;
        self
    }

    /// Check invariants (the TinySTM core's bounds on the same fields).
    pub fn validate(&self) -> Result<(), ConfigError> {
        Tl2Protocol::mapping(self).validate()
    }
}

/// A buffered write.
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    addr: *mut usize,
    value: usize,
    lock_idx: usize,
}

/// Per-thread TL2 transaction state.
#[derive(Default)]
pub struct Tl2Ctx {
    kind: TxKind,
    /// Read (start) timestamp `rv`.
    rv: u64,
    rset: Vec<usize>,
    wset: Vec<WriteEntry>,
    bloom: Bloom,
    /// Locks acquired at commit: `(lock_idx, prior_word)`.
    acquired: Vec<(usize, usize)>,
    alloc_log: Vec<(usize, usize)>,
    free_log: Vec<(usize, usize)>,
    alloc_freed: Vec<(usize, usize)>,
    attempt_reads: u64,
    /// Scratch buffer for the commit-path WAL publish (recycled).
    wal_scratch: Vec<(usize, usize)>,
}

impl Tl2Ctx {
    fn begin(&mut self, kind: TxKind, rv: u64) {
        self.kind = kind;
        self.rv = rv;
        self.rset.clear();
        self.wset.clear();
        self.bloom.clear();
        self.acquired.clear();
        self.alloc_log.clear();
        self.free_log.clear();
        self.alloc_freed.clear();
        self.attempt_reads = 0;
    }
}

/// The TL2 protocol (commit-time locking, no extension), the `P` of
/// [`Tl2`].
#[derive(Debug)]
pub enum Tl2Protocol {}

/// A TL2 software transactional memory instance: TL2's locking policy on
/// TinySTM's runtime. Same handle API as `tinystm::Stm`.
pub type Tl2 = Runtime<Tl2Protocol>;

impl Protocol for Tl2Protocol {
    type Config = Tl2Config;
    type Ctx = Tl2Ctx;
    type Tx<'a> = Tl2Tx<'a>;

    fn mapping(config: &Tl2Config) -> StmConfig {
        StmConfig {
            locks_log2: config.locks_log2,
            shifts: config.shifts,
            max_clock: config.max_clock,
            cm: config.cm,
            ..StmConfig::default()
        }
    }

    fn backend_name(_: &Tl2Config) -> &'static str {
        "tl2"
    }

    #[inline(always)]
    fn begin<'a>(attempt: Attempt<'a, Tl2Protocol>, kind: TxKind, rv: u64) -> Tl2Tx<'a> {
        attempt.ctx.begin(kind, rv);
        Tl2Tx {
            inner: attempt.shared,
            map: attempt.map,
            ts: attempt.ts,
            ctx: attempt.ctx,
            finished: false,
            hooks: attempt.hooks,
        }
    }

    #[inline(always)]
    fn commit(tx: Tl2Tx<'_>) -> Result<(), AbortReason> {
        tx.commit()
    }

    #[inline(always)]
    fn rollback(tx: &mut Tl2Tx<'_>, reason: AbortReason) {
        tx.rollback(reason);
    }
}

/// An in-flight TL2 transaction attempt.
pub struct Tl2Tx<'a> {
    inner: &'a Shared<Tl2Protocol>,
    /// Lock array + hash parameters pinned for this attempt (site S1).
    map: &'a Mapping,
    ts: &'a ThreadState<Tl2Protocol>,
    ctx: &'a mut Tl2Ctx,
    finished: bool,
    /// Recording session and WAL sink for this attempt.
    hooks: Hooks<'a>,
}

impl<'a> Drop for Tl2Tx<'a> {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback(AbortReason::Explicit);
        }
    }
}

impl<'a> Tl2Tx<'a> {
    #[inline(always)]
    fn me(&self) -> usize {
        self.ts as *const ThreadState<Tl2Protocol> as usize
    }

    /// Validate the read set against `rv` (commit time). Uses the saved
    /// prior word for stripes we locked ourselves.
    fn validate(&mut self) -> bool {
        self.ts.stats.bump_validation();
        let me = self.me();
        let mut processed = 0u64;
        let mut ok = true;
        for &idx in &self.ctx.rset {
            processed += 1;
            // Site R5: Acquire (freshness via the clock edge C1/C2).
            let w = self.map.lock(idx).load(Ordering::Acquire);
            if is_owned(w) {
                if w & !1 != me {
                    ok = false;
                    break;
                }
                // Locked by us at commit: check the pre-acquisition
                // version (linear scan; `acquired` is small relative to
                // the read set in the paper's workloads).
                let prior = self
                    .ctx
                    .acquired
                    .iter()
                    .find(|&&(i, _)| i == idx)
                    .map(|&(_, p)| p)
                    .expect("owned-by-me lock missing from acquired list");
                if wb_version(prior) > self.ctx.rv {
                    ok = false;
                    break;
                }
            } else if wb_version(w) > self.ctx.rv {
                ok = false;
                break;
            }
        }
        self.ts.stats.add_validation_locks(processed, 0);
        ok
    }

    fn release_acquired(&mut self) {
        for &(idx, prior) in self.ctx.acquired.iter().rev() {
            // Site W5: Release — restoring the prior word must re-grant
            // readers the data visibility the original releaser
            // published (we acquired it through the W1 CAS and pass it
            // on here); no data writes of ours need covering, commit
            // aborts before write-back.
            self.map.lock(idx).store(prior, Ordering::Release);
        }
        self.ctx.acquired.clear();
    }

    /// Commit-time lock acquisition + validation + write-back.
    fn commit(mut self) -> Result<(), AbortReason> {
        if self.ctx.wset.is_empty() {
            // Read-only fast path (by kind or by behaviour).
            debug_assert!(self.ctx.free_log.is_empty());
            self.ts.stats.bump_commit();
            if matches!(self.ctx.kind, TxKind::ReadOnly) {
                self.ts.stats.bump_ro_commit();
            }
            self.ctx.alloc_log.clear();
            self.hooks.record_commit(None);
            self.finished = true;
            return Ok(());
        }

        // Acquire every write lock, write-set order, no waiting.
        let me = self.me();
        for i in 0..self.ctx.wset.len() {
            let idx = self.ctx.wset[i].lock_idx;
            let lock = self.map.lock(idx);
            loop {
                // Site R1: Acquire.
                let w = lock.load(Ordering::Acquire);
                if is_owned(w) {
                    if w & !1 == me {
                        break; // already ours (earlier entry, same stripe)
                    }
                    self.ts.set_contended(idx);
                    let reason = AbortReason::WriteLocked;
                    self.rollback(reason);
                    return Err(reason);
                }
                // Note: a version newer than rv is caught by read-set
                // validation iff we also read the stripe; blind writes
                // are allowed to overwrite newer data (as in TL2).
                // Site W1: AcqRel on success (Acquire syncs with the
                // prior releaser; Release publishes ownership for the
                // seqlock re-check), Relaxed on failure (loop re-reads
                // via R1).
                if lock
                    .compare_exchange(w, me | 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.ctx.acquired.push((idx, w));
                    break;
                }
            }
        }

        let wv = match self.inner.clock().increment() {
            Ok(v) => v,
            Err(_) => {
                let reason = AbortReason::ClockOverflow;
                self.rollback(reason);
                return Err(reason);
            }
        };
        // Foreign commit timestamps consumed between our read version
        // and our own increment: the steps a CAS-from-snapshot
        // timestamp acquisition would retry over. TL2 never extends the
        // snapshot, so the distance is measured from `rv` directly.
        let clock_lag = (wv - 1).saturating_sub(self.ctx.rv);
        if clock_lag > 0 {
            self.ts.stats.add_clock_conflicts(clock_lag);
        }

        if wv == self.ctx.rv + 1 {
            self.ts.stats.bump_commit_validation_skip();
        } else if !self
            .inner
            .fault_active(FaultInjection::SkipCommitValidation)
            && !self.validate()
        {
            let reason = AbortReason::ValidationFailed;
            self.rollback(reason);
            return Err(reason);
        }

        // WAL publish — inside the commit critical section, before the
        // lock releases, so conflicting records enter the sink in
        // commit-timestamp order (see tinystm::tx for the argument) —
        // and before the write-back, so a failed publish aborts with
        // zero memory effect: the locks are released with their prior
        // words and no reader ever saw the doomed values.
        // The write set is already unique per address (store_word
        // updates in place); sort for a canonical record.
        if let Some(wal) = self.hooks.wal() {
            let Tl2Ctx {
                wset, wal_scratch, ..
            } = &mut *self.ctx;
            wal_scratch.clear();
            wal_scratch.extend(wset.iter().map(|e| (e.addr as usize, e.value)));
            wal_scratch.sort_unstable_by_key(|&(addr, _)| addr);
            if wal
                .publish(self.inner.wal_epoch(), wv, wal_scratch)
                .is_err()
            {
                let reason = AbortReason::WalFailed;
                self.rollback(reason);
                return Err(reason);
            }
        }
        // Point of no return: write back, then release with the new
        // version.
        for e in &self.ctx.wset {
            // SAFETY: caller contract of store_word.
            // Site W3: Release, for racing seqlock readers (F1).
            unsafe { atomic_view(e.addr).store(e.value, Ordering::Release) };
        }
        for &(idx, _) in &self.ctx.acquired {
            // Site W4: lock release — Release covers the write-back.
            self.map.lock(idx).store(wb_make(wv), Ordering::Release);
        }
        self.ctx.acquired.clear();

        if !self.ctx.free_log.is_empty() {
            self.inner.limbo().push(self.ctx.free_log.drain(..), wv);
        }
        self.ctx.alloc_log.clear();
        self.ctx.alloc_freed.clear();
        self.ts.stats.bump_commit();
        self.hooks.record_commit(Some(wv));
        self.finished = true;
        Ok(())
    }

    fn rollback(&mut self, reason: AbortReason) {
        if self.finished {
            return;
        }
        // Locks are only held mid-commit; any left here are released
        // with their prior words (no memory was written yet).
        self.release_acquired();
        for (ptr, words) in self
            .ctx
            .alloc_log
            .drain(..)
            .chain(self.ctx.alloc_freed.drain(..))
        {
            // SAFETY: allocated by this attempt, never published.
            unsafe { stm_api::mem::dealloc_words(ptr as *mut usize, words) };
        }
        self.ctx.free_log.clear();
        self.ts.stats.add_wasted_reads(self.ctx.attempt_reads);
        self.ts.stats.bump_abort(reason);
        self.hooks.record_abort();
        self.finished = true;
    }
}

impl<'a> TmTx for Tl2Tx<'a> {
    unsafe fn load_word(&mut self, addr: *const usize) -> TxResult<usize> {
        self.ts.stats.bump_read();
        self.ctx.attempt_reads += 1;
        // Read-after-write: Bloom filter, then backward scan.
        if !self.ctx.wset.is_empty() && self.ctx.bloom.maybe_contains(addr as usize) {
            if let Some(e) = self
                .ctx
                .wset
                .iter()
                .rev()
                .find(|e| std::ptr::eq(e.addr, addr))
            {
                return Ok(e.value);
            }
        }
        let idx = self.map.lock_index(addr as usize);
        let lock = self.map.lock(idx);
        let mut retries = 0u32;
        loop {
            // Site R1: Acquire.
            let l1 = lock.load(Ordering::Acquire);
            if is_owned(l1) {
                // Locks are only held by committing transactions; TL2
                // aborts rather than waiting (CM_DELAY consumes the
                // index at the next attempt's start).
                self.ts.set_contended(idx);
                return Err(Abort(AbortReason::ReadLocked));
            }
            // Sites R3 + F1 + R4: the seqlock re-check (see module
            // docs / tinystm::tx).
            let value = atomic_view(addr).load(Ordering::Relaxed);
            core::sync::atomic::fence(Ordering::Acquire);
            let l2 = lock.load(Ordering::Relaxed);
            if l1 != l2 {
                retries += 1;
                if retries > MAX_READ_RETRIES {
                    return Err(Abort(AbortReason::InconsistentRead));
                }
                continue;
            }
            if wb_version(l1) > self.ctx.rv {
                // No extension in TL2: restart with a fresh rv.
                return Err(Abort(AbortReason::ExtendFailed));
            }
            if matches!(self.ctx.kind, TxKind::ReadWrite) {
                self.ctx.rset.push(idx);
            }
            // Recorded at the success point only (reads that abort
            // never returned a value; read-after-write hits above are
            // internal and carry no version).
            self.hooks.record_read(idx, wb_version(l1));
            return Ok(value);
        }
    }

    unsafe fn store_word(&mut self, addr: *mut usize, value: usize) -> TxResult<()> {
        assert!(
            matches!(self.ctx.kind, TxKind::ReadWrite),
            "store inside a read-only transaction"
        );
        self.ts.stats.bump_write();
        // Update in place when the address was already written (keeps
        // the write set and the commit loop compact).
        if self.ctx.bloom.maybe_contains(addr as usize) {
            if let Some(e) = self.ctx.wset.iter_mut().rev().find(|e| e.addr == addr) {
                e.value = value;
                return Ok(());
            }
        }
        let lock_idx = self.map.lock_index(addr as usize);
        self.ctx.wset.push(WriteEntry {
            addr,
            value,
            lock_idx,
        });
        self.ctx.bloom.insert(addr as usize);
        self.hooks.record_write(lock_idx);
        Ok(())
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
        // A free is an update: write back every word with its current
        // value so the covering locks are acquired (and conflicts
        // detected) at commit.
        for i in 0..words {
            let a = ptr.add(i);
            let v = self.load_word(a)?;
            self.store_word(a, v)?;
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_begin_clears_all_state() {
        let mut ctx = Tl2Ctx::default();
        ctx.rset.push(3);
        ctx.wset.push(WriteEntry {
            addr: core::ptr::null_mut(),
            value: 1,
            lock_idx: 0,
        });
        ctx.bloom.insert(0x1000);
        ctx.acquired.push((0, 0));
        ctx.attempt_reads = 9;
        ctx.begin(TxKind::ReadOnly, 42);
        assert_eq!(ctx.rv, 42);
        assert!(ctx.rset.is_empty());
        assert!(ctx.wset.is_empty());
        assert!(ctx.bloom.is_empty());
        assert!(ctx.acquired.is_empty());
        assert_eq!(ctx.attempt_reads, 0);
        assert!(matches!(ctx.kind, TxKind::ReadOnly));
    }

    #[test]
    fn config_validation_bounds() {
        assert!(Tl2Config::default().validate().is_ok());
        assert!(Tl2Config::default().with_locks_log2(0).validate().is_err());
        assert!(Tl2Config::default().with_locks_log2(27).validate().is_err());
        assert!(Tl2Config::default().with_shifts(17).validate().is_err());
        assert!(Tl2Config::default().with_max_clock(2).validate().is_err());
    }

    #[test]
    fn reconfigure_swaps_lock_array_and_preserves_data() {
        use stm_api::mem::WordBlock;
        let tm = Tl2::with_defaults();
        let block = WordBlock::new(8);
        tm.run(TxKind::ReadWrite, |tx| {
            for i in 0..8 {
                unsafe { tx.store_word(block.as_ptr().add(i), 100 + i) }?;
            }
            Ok(())
        });
        tm.reconfigure(Tl2Config::default().with_locks_log2(12).with_shifts(1))
            .expect("valid config");
        assert_eq!(tm.config().locks_log2, 12);
        assert_eq!(tm.config().shifts, 1);
        // Data survives the swap; the fresh lock array serves reads and
        // further updates.
        let sum = tm.run_ro(|tx| {
            let mut acc = 0;
            for i in 0..8 {
                acc += unsafe { tx.load_word(block.as_ptr().add(i)) }?;
            }
            Ok(acc)
        });
        assert_eq!(sum, (0..8).map(|i| 100 + i).sum::<usize>());
        tm.run(TxKind::ReadWrite, |tx| unsafe {
            tx.store_word(block.as_ptr(), 1)
        });
        assert_eq!(tm.stats().reconfigurations, 1);
        assert!(tm
            .reconfigure(Tl2Config::default().with_locks_log2(0))
            .is_err());
        assert_eq!(tm.stats().reconfigurations, 1, "invalid config rejected");
    }

    #[test]
    fn reads_and_writes_past_the_bloom_filter_are_counted() {
        use stm_api::mem::WordBlock;
        let tm = Tl2::with_defaults();
        let block = WordBlock::new(512);
        // Write a few words, then read many others: every read consults
        // the Bloom filter, and the hits it cannot confirm fall through
        // to memory.
        tm.run(TxKind::ReadWrite, |tx| {
            for i in 0..16 {
                unsafe { tx.store_word(block.as_ptr().add(i), i) }?;
            }
            let mut acc = 0;
            for i in 16..512 {
                acc += unsafe { tx.load_word(block.as_ptr().add(i)) }?;
            }
            Ok(acc)
        });
        let s = tm.stats();
        assert_eq!(s.totals.commits, 1);
        assert_eq!(s.totals.writes, 16);
        assert_eq!(s.totals.reads, 496);
    }
}
