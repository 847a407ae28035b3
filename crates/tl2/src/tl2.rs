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
//! loop, the attempt's commit and rollback skeletons (clock draw, WAL
//! publish, memory logs, statistics), registry, clock, quiesce fence
//! and limbo are the TinySTM core's, and so is the lock array (a
//! `tinystm::mapping::Mapping` with the hierarchy disabled). This
//! module supplies only the locking policy: configuration, per-thread
//! context, reads, buffered writes, and the commit-time steps (lock
//! every write, validate against `rv`, write back, release).
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
use tinystm::lockword::{is_owned, wb_make, wb_version};
use tinystm::mapping::Mapping;
use tinystm::mem::AttemptMem;
use tinystm::runtime::{Attempt, Hooks, Protocol, Runtime, ThreadState};
use tinystm::tx::MAX_READ_RETRIES;

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
}

impl Tl2Ctx {
    fn begin(&mut self, kind: TxKind, rv: u64) {
        self.kind = kind;
        self.rv = rv;
        self.rset.clear();
        self.wset.clear();
        self.bloom.clear();
        self.acquired.clear();
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
            map: attempt.map,
            ts: attempt.ts,
            ctx: attempt.ctx,
            mem: attempt.mem,
            hooks: attempt.hooks,
        }
    }

    #[inline(always)]
    fn mem<'t>(tx: &'t mut Tl2Tx<'_>) -> &'t mut AttemptMem {
        tx.mem
    }

    #[inline(always)]
    fn has_writes(tx: &Tl2Tx<'_>) -> bool {
        !tx.ctx.wset.is_empty()
    }

    /// Commit-time locking: acquire every write lock, write-set order,
    /// no waiting.
    #[inline(always)]
    fn acquire(tx: &mut Tl2Tx<'_>) -> Result<(), AbortReason> {
        let me = tx.me();
        for i in 0..tx.ctx.wset.len() {
            let idx = tx.ctx.wset[i].lock_idx;
            let lock = tx.map.lock(idx);
            loop {
                // Site R1: Acquire.
                let w = lock.load(Ordering::Acquire);
                if is_owned(w) {
                    if w & !1 == me {
                        break; // already ours (earlier entry, same stripe)
                    }
                    tx.ts.set_contended(idx);
                    return Err(AbortReason::WriteLocked);
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
                    tx.ctx.acquired.push((idx, w));
                    break;
                }
            }
        }
        Ok(())
    }

    /// The start timestamp: TL2 never extends its snapshot.
    #[inline(always)]
    fn snapshot_bound(tx: &Tl2Tx<'_>) -> u64 {
        tx.ctx.rv
    }

    /// Validate the read set against `rv`, using the saved prior word
    /// for stripes we locked ourselves.
    #[inline(always)]
    fn validate(tx: &mut Tl2Tx<'_>) -> bool {
        tx.ts.stats.bump_validation();
        let me = tx.me();
        let mut processed = 0u64;
        let mut ok = true;
        for &idx in &tx.ctx.rset {
            processed += 1;
            // Site R5: Acquire (freshness via the clock edge C1/C2).
            let w = tx.map.lock(idx).load(Ordering::Acquire);
            if is_owned(w) {
                if w & !1 != me {
                    ok = false;
                    break;
                }
                // Locked by us at commit: check the pre-acquisition
                // version (linear scan; `acquired` is small relative to
                // the read set in the paper's workloads).
                let prior = tx
                    .ctx
                    .acquired
                    .iter()
                    .find(|&&(i, _)| i == idx)
                    .map(|&(_, p)| p)
                    .expect("owned-by-me lock missing from acquired list");
                if wb_version(prior) > tx.ctx.rv {
                    ok = false;
                    break;
                }
            } else if wb_version(w) > tx.ctx.rv {
                ok = false;
                break;
            }
        }
        tx.ts.stats.add_validation_locks(processed, 0);
        ok
    }

    /// The write set is already unique per address (`store_word`
    /// updates in place).
    #[inline(always)]
    fn write_set(tx: &Tl2Tx<'_>, out: &mut Vec<(usize, usize)>) {
        out.extend(tx.ctx.wset.iter().map(|e| (e.addr as usize, e.value)));
    }

    /// Write back, then release with version `wv`.
    #[inline(always)]
    fn publish(tx: &mut Tl2Tx<'_>, wv: u64) {
        for e in &tx.ctx.wset {
            // SAFETY: caller contract of store_word.
            // Site W3: Release, for racing seqlock readers (F1).
            unsafe { atomic_view(e.addr).store(e.value, Ordering::Release) };
        }
        for &(idx, _) in &tx.ctx.acquired {
            // Site W4: lock release — Release covers the write-back.
            tx.map.lock(idx).store(wb_make(wv), Ordering::Release);
        }
        tx.ctx.acquired.clear();
    }

    /// Locks are only held mid-commit; any left are released with their
    /// prior words (no memory was written yet).
    #[inline(always)]
    fn release(tx: &mut Tl2Tx<'_>) {
        for &(idx, prior) in tx.ctx.acquired.iter().rev() {
            // Site W5: Release — restoring the prior word must re-grant
            // readers the data visibility the original releaser
            // published (we acquired it through the W1 CAS and pass it
            // on here); no data writes of ours need covering, commit
            // aborts before write-back.
            tx.map.lock(idx).store(prior, Ordering::Release);
        }
        tx.ctx.acquired.clear();
    }
}

/// An in-flight TL2 transaction attempt.
pub struct Tl2Tx<'a> {
    /// Lock array + hash parameters pinned for this attempt (site S1).
    map: &'a Mapping,
    ts: &'a ThreadState<Tl2Protocol>,
    ctx: &'a mut Tl2Ctx,
    mem: &'a mut AttemptMem,
    /// Recording session and WAL sink for this attempt.
    hooks: Hooks<'a>,
}

impl<'a> Tl2Tx<'a> {
    #[inline(always)]
    fn me(&self) -> usize {
        self.ts as *const ThreadState<Tl2Protocol> as usize
    }
}

impl<'a> TmTx for Tl2Tx<'a> {
    unsafe fn load_word(&mut self, addr: *const usize) -> TxResult<usize> {
        self.ts.stats.bump_read();
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
        Ok(self.mem.malloc(words))
    }

    unsafe fn free(&mut self, ptr: *mut usize, words: usize) -> TxResult<()> {
        tinystm::runtime::free::<Tl2Protocol>(self, ptr, words)
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
        ctx.begin(TxKind::ReadOnly, 42);
        assert_eq!(ctx.rv, 42);
        assert!(ctx.rset.is_empty());
        assert!(ctx.wset.is_empty());
        assert!(ctx.bloom.is_empty());
        assert!(ctx.acquired.is_empty());
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
