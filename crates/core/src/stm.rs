//! TinySTM's locking protocol on the shared [`Runtime`]: encounter-time
//! locking with LSA snapshot extension (the attempt's reads, writes and
//! extension live in `tx.rs`; its commit-time steps here), over the
//! tunable `Mapping` of Section 4. Memory ordering sites are those of
//! `tx.rs`'s module docs.

use crate::config::{AccessStrategy, StmConfig};
use crate::lockword::{make_version, wt_bump_incarnation, wt_make};
use crate::mem::AttemptMem;
use crate::runtime::{Attempt, Protocol, Runtime};
use crate::tx::{Tx, TxCtx};
use core::sync::atomic::Ordering;
use stm_api::{atomic_view, AbortReason, TxKind};

/// The TinySTM protocol (encounter-time locking + LSA), the `P` of
/// [`Stm`].
#[derive(Debug)]
pub enum Lsa {}

/// A word-based, time-based software transactional memory instance
/// (TinySTM, PPoPP 2008).
///
/// Cheap to clone; clones share all state. Each OS thread using the
/// instance gets its own transaction descriptor on first use.
///
/// ```
/// use tinystm::{Stm, StmConfig};
/// use stm_api::{TmTx, TxKind};
/// use stm_api::mem::WordBlock;
///
/// let stm = Stm::new(StmConfig::default()).unwrap();
/// let cell = WordBlock::new(1);
/// let addr = cell.as_ptr();
/// stm.run(TxKind::ReadWrite, |tx| {
///     let v = unsafe { tx.load_word(addr) }?;
///     unsafe { tx.store_word(addr, v + 1) }
/// });
/// assert_eq!(cell.read(0), 1);
/// ```
pub type Stm = Runtime<Lsa>;

impl Protocol for Lsa {
    type Config = StmConfig;
    type Ctx = TxCtx;
    type Tx<'a> = Tx<'a>;

    fn mapping(config: &StmConfig) -> StmConfig {
        *config
    }

    fn backend_name(config: &StmConfig) -> &'static str {
        match config.strategy {
            AccessStrategy::WriteBack => "tinystm-wb",
            AccessStrategy::WriteThrough => "tinystm-wt",
        }
    }

    #[inline(always)]
    fn begin<'a>(attempt: Attempt<'a, Lsa>, kind: TxKind, now: u64) -> Tx<'a> {
        let map = attempt.map;
        attempt.ctx.begin(kind, map, now);
        Tx {
            inner: attempt.shared,
            map,
            ts: attempt.ts,
            ctx: attempt.ctx,
            mem: attempt.mem,
            strategy: map.config().strategy,
            hier_on: map.hier_enabled(),
            me: attempt.ts as *const _ as usize,
            hooks: attempt.hooks,
        }
    }

    #[inline(always)]
    fn mem<'t>(tx: &'t mut Tx<'_>) -> &'t mut AttemptMem {
        tx.mem
    }

    #[inline(always)]
    fn has_writes(tx: &Tx<'_>) -> bool {
        tx.ctx.wlog.n_records() != 0
    }

    /// Encounter-time locking: every write took its lock already.
    #[inline(always)]
    fn acquire(_: &mut Tx<'_>) -> Result<(), AbortReason> {
        Ok(())
    }

    /// The snapshot's upper bound, as far as LSA extended it.
    #[inline(always)]
    fn snapshot_bound(tx: &Tx<'_>) -> u64 {
        tx.ctx.end
    }

    #[inline(always)]
    fn validate(tx: &mut Tx<'_>) -> bool {
        tx.validate()
    }

    #[inline(always)]
    fn write_set(tx: &Tx<'_>, out: &mut Vec<(usize, usize)>) {
        match tx.strategy {
            // One entry per written word (`add_entry` deduplicates).
            // SAFETY: entries of the current attempt.
            AccessStrategy::WriteBack => out.extend(
                tx.ctx
                    .wlog
                    .entries()
                    .map(|e| unsafe { ((*e).addr as usize, (*e).value) }),
            ),
            // Memory already holds our values (encounter-time in-place
            // stores) and we still own every covering lock, so a Relaxed
            // read returns our own write, the same for every undo entry
            // of an address.
            // SAFETY: addresses recorded by this attempt.
            AccessStrategy::WriteThrough => out.extend(tx.ctx.wlog.undo.iter().map(|u| {
                (u.addr as usize, unsafe {
                    atomic_view(u.addr).load(Ordering::Relaxed)
                })
            })),
        }
    }

    /// Apply buffered writes (write-back), then release every lock with
    /// version `wv`.
    #[inline(always)]
    fn publish(tx: &mut Tx<'_>, wv: u64) {
        if matches!(tx.strategy, AccessStrategy::WriteBack) {
            for e in tx.ctx.wlog.entries() {
                // SAFETY: entries of the current attempt, covered by
                // locks we own. Site W3: write-back publication —
                // Release, for racing seqlock readers (F1).
                unsafe { atomic_view((*e).addr).store((*e).value, Ordering::Release) };
            }
        }
        let release_word = make_version(wv, tx.strategy);
        for rec in tx.ctx.wlog.records() {
            // SAFETY: we own every recorded lock.
            let lock_idx = unsafe { (*rec).lock_idx };
            // Site W4: lock release — Release; R1 acquires the data
            // stores above through this edge.
            tx.map.lock(lock_idx).store(release_word, Ordering::Release);
        }
    }

    /// Restore memory (write-through), then release every lock.
    #[inline(always)]
    fn release(tx: &mut Tx<'_>) {
        if matches!(tx.strategy, AccessStrategy::WriteThrough) {
            // Restore in reverse so the oldest value wins on multi-writes.
            for u in tx.ctx.wlog.undo.iter().rev() {
                // SAFETY: we still own every lock covering these words.
                // Site W6: restored-value publication — Release, for
                // racing seqlock readers (F1).
                unsafe { atomic_view(u.addr).store(u.old_value, Ordering::Release) };
            }
        }
        for rec in tx.ctx.wlog.records() {
            // SAFETY: records of the current attempt; we own their locks.
            let (prior, lock_idx) = unsafe { ((*rec).prior_word, (*rec).lock_idx) };
            let release = match tx.strategy {
                AccessStrategy::WriteBack => prior,
                // Bump the incarnation so concurrent readers that saw
                // our dirty value observe l1 != l2. On overflow, fetch a
                // fresh version from the clock (paper §3.1).
                AccessStrategy::WriteThrough => wt_bump_incarnation(prior)
                    .unwrap_or_else(|| wt_make(tx.inner.clock().force_increment(), 0)),
            };
            // Site W5: rollback lock release — Release (sequenced after
            // the undo restores it covers).
            tx.map.lock(lock_idx).store(release, Ordering::Release);
        }
    }
}
