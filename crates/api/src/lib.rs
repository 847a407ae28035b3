//! # stm-api — word-level transactional memory abstraction
//!
//! The PPoPP'08 TinySTM paper evaluates two word-based STMs (TinySTM and
//! TL2) on the *same* benchmark code. This crate captures the word-level
//! interface both backends implement so that the transactional data
//! structures in `stm-structures` and the workload driver in
//! `stm-harness` are generic over the backend.
//!
//! The unit of concurrency control is the machine word (`usize`), exactly
//! as in the paper: transactional loads and stores take raw word
//! addresses, and the backend maps each address to a versioned lock via a
//! configurable hash.
//!
//! ## Safety model
//!
//! Word-based STMs are "racy by design": a transactional store in one
//! thread may race with a transactional load in another, with the lock
//! protocol deciding after the fact whether the access was consistent.
//! In C this is implemented with plain loads and stores; in Rust that
//! would be undefined behaviour, so backends are required to perform all
//! accesses to transactional memory through [`core::sync::atomic`] views
//! of the underlying words (see [`atomic_view`]). Callers must uphold the
//! contract documented on [`TmTx::load_word`] / [`TmTx::store_word`]:
//! the addressed word must stay allocated for the transaction's duration
//! and must only ever be accessed transactionally (or after proper
//! synchronization, e.g. once all threads have joined).
//!
//! ## Contract example
//!
//! Every backend — here the [`model::MutexTm`] reference model, but the
//! same code runs unchanged on `tinystm::Stm` or `stm_tl2::Tl2` — obeys
//! the same contract: the closure passed to [`TmHandle::run`] retries
//! until it commits, `?` propagates aborts, and word accesses go through
//! the transaction.
//!
//! This crate is the *data path* only: running transactions and reading
//! their counters. Building, reconfiguring, quiescing and attaching a
//! WAL sink to an instance are inherent methods of `tinystm::Runtime<P>`,
//! the one runtime both backends are protocols of, and a rejected
//! configuration is its `tinystm::ConfigError`.
//!
//! ```
//! use stm_api::mem::WordBlock;
//! use stm_api::model::MutexTm;
//! use stm_api::{TmHandle, TmTx, TxKind};
//!
//! let tm = MutexTm::new();
//! let cell = WordBlock::new(1);
//! let addr = cell.as_ptr();
//!
//! // An update transaction: read-modify-write of one word.
//! tm.run(TxKind::ReadWrite, |tx| {
//!     // SAFETY: `cell` outlives the run and is only accessed
//!     // transactionally while transactions may touch it.
//!     let v = unsafe { tx.load_word(addr) }?;
//!     unsafe { tx.store_word(addr, v + 41) }?;
//!     Ok(())
//! });
//!
//! // A read-only transaction observes the committed state.
//! let seen = tm.run(TxKind::ReadOnly, |tx| unsafe { tx.load_word(addr) });
//! assert_eq!(seen, 41);
//! assert_eq!(tm.stats_snapshot().commits, 2);
//! ```

pub mod mem;
pub mod model;
pub mod stats;
pub mod wal;

use core::sync::atomic::AtomicUsize;

/// Why a speculative transaction attempt failed.
///
/// Aborts are not errors in the usual sense: the retry loop in
/// [`TmHandle::run`] restarts the transaction transparently. The reason
/// is recorded for statistics and exposed for tests that assert on the
/// specific conflict type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Read a word whose lock was held by another transaction.
    ReadLocked,
    /// Tried to write a word whose lock was held by another transaction.
    WriteLocked,
    /// A read observed a version newer than the snapshot and the snapshot
    /// could not be extended (validation failed or read-only).
    ExtendFailed,
    /// Commit-time read-set validation failed.
    ValidationFailed,
    /// The global clock reached its configured maximum; the transaction
    /// restarts after the roll-over quiesce completes.
    ClockOverflow,
    /// The user requested an explicit retry (e.g. a precondition failed).
    Explicit,
    /// The lock word changed between the two loads of a read (inconsistent
    /// value observed, e.g. write-through incarnation change).
    InconsistentRead,
    /// The attached WAL sink failed to persist the commit record: the
    /// attempt rolled back cleanly (no memory or log effect), but the
    /// retry loop must *not* restart it — durability is gone, not the
    /// snapshot. Surfaced through [`TmHandle::try_run`] as
    /// [`RunError::WalFailed`].
    WalFailed,
}

impl AbortReason {
    /// Short static label used by statistics tables and bench output.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::ReadLocked => "read-locked",
            AbortReason::WriteLocked => "write-locked",
            AbortReason::ExtendFailed => "extend-failed",
            AbortReason::ValidationFailed => "validation-failed",
            AbortReason::ClockOverflow => "clock-overflow",
            AbortReason::Explicit => "explicit",
            AbortReason::InconsistentRead => "inconsistent-read",
            AbortReason::WalFailed => "wal-failed",
        }
    }

    /// All reasons, in a stable order (used to size per-reason counters).
    pub const ALL: [AbortReason; 8] = [
        AbortReason::ReadLocked,
        AbortReason::WriteLocked,
        AbortReason::ExtendFailed,
        AbortReason::ValidationFailed,
        AbortReason::ClockOverflow,
        AbortReason::Explicit,
        AbortReason::InconsistentRead,
        AbortReason::WalFailed,
    ];

    /// Stable dense index of this reason inside [`AbortReason::ALL`].
    pub fn index(self) -> usize {
        match self {
            AbortReason::ReadLocked => 0,
            AbortReason::WriteLocked => 1,
            AbortReason::ExtendFailed => 2,
            AbortReason::ValidationFailed => 3,
            AbortReason::ClockOverflow => 4,
            AbortReason::Explicit => 5,
            AbortReason::InconsistentRead => 6,
            AbortReason::WalFailed => 7,
        }
    }
}

/// Terminal failure of a [`TmHandle::try_run`] call: the transaction was
/// rolled back cleanly but cannot be retried to success.
///
/// Distinct from [`Abort`], which is transient and consumed by the retry
/// loop. A `RunError` escapes the loop: the caller must decide what a
/// non-durable (or otherwise unservable) commit means for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The attached WAL sink reported an unrecoverable publish failure
    /// ([`AbortReason::WalFailed`]); the commit was rolled back and no
    /// memory or log effect survives.
    WalFailed,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::WalFailed => write!(f, "WAL publish failed; commit rolled back"),
        }
    }
}

impl std::error::Error for RunError {}

/// Marker carried through `Result` to unwind a failed speculation back to
/// the retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort(pub AbortReason);

/// Result alias used by every transactional operation.
pub type TxResult<T> = Result<T, Abort>;

/// Transaction kind hint, as in the paper: read-only transactions keep no
/// read set (the LSA snapshot is incrementally consistent) and skip
/// commit-time validation entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxKind {
    /// Update transaction: keeps a read set, validates on extension and
    /// (unless the commit timestamp is adjacent) at commit.
    #[default]
    ReadWrite,
    /// Read-only transaction: no read set, no commit-time work. A write
    /// inside a read-only transaction is a caller bug and backends abort
    /// the process with a panic.
    ReadOnly,
}

/// One transaction attempt on a word-based TM backend.
///
/// All operations abort (return `Err`) instead of blocking; the retry
/// loop in [`TmHandle::run`] restarts the closure from scratch.
pub trait TmTx {
    /// Transactionally read the word at `addr`.
    ///
    /// # Safety
    /// `addr` must be a properly aligned pointer to a `usize` that is
    /// alive for the duration of the enclosing [`TmHandle::run`] call and
    /// is only accessed through transactional operations (or via
    /// [`atomic_view`]) while any transaction may touch it.
    unsafe fn load_word(&mut self, addr: *const usize) -> TxResult<usize>;

    /// Transactionally write `value` to the word at `addr`.
    ///
    /// # Safety
    /// Same contract as [`TmTx::load_word`].
    unsafe fn store_word(&mut self, addr: *mut usize, value: usize) -> TxResult<()>;

    /// Allocate `words` zero-initialized words inside the transaction.
    ///
    /// If the transaction aborts the allocation is reclaimed
    /// automatically; if it commits the block stays live until a
    /// subsequent transaction [`TmTx::free`]s it.
    fn malloc(&mut self, words: usize) -> TxResult<*mut usize>;

    /// Transactionally free a block previously returned by
    /// [`TmTx::malloc`] (in this or an earlier committed transaction).
    ///
    /// Per the paper, a free is semantically an update: the backend
    /// acquires every lock covering the block, and physical reclamation
    /// is deferred until commit (and beyond, until concurrent readers
    /// have quiesced).
    ///
    /// # Safety
    /// `ptr`/`words` must describe a whole live block allocated through
    /// the same backend, not freed since.
    unsafe fn free(&mut self, ptr: *mut usize, words: usize) -> TxResult<()>;

    /// Abort the current attempt with [`AbortReason::Explicit`].
    ///
    /// Never returns `Ok`; typed as `TxResult<()>` so call sites can
    /// propagate it with `?`.
    fn retry(&mut self) -> TxResult<()> {
        Err(Abort(AbortReason::Explicit))
    }

    /// The kind this transaction was started with.
    fn kind(&self) -> TxKind;
}

/// A shared handle to a TM instance (clonable, one per benchmark run).
pub trait TmHandle: Clone + Send + Sync + 'static {
    /// Per-attempt transaction context (generic over the attempt's
    /// borrow of thread-local state).
    type Tx<'a>: TmTx
    where
        Self: 'a;

    /// Run `body` as a transaction of the given kind, retrying on abort
    /// until it commits, and return its result.
    ///
    /// The closure may observe only consistent snapshots (opacity); any
    /// inconsistency is detected at the faulty access, which returns
    /// `Err` so the closure unwinds promptly via `?`.
    fn run<R, F>(&self, kind: TxKind, body: F) -> R
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>;

    /// Like [`TmHandle::run`], but surface terminal failures instead of
    /// panicking: an abort the retry loop cannot absorb (today only
    /// [`AbortReason::WalFailed`]) rolls back cleanly and returns `Err`.
    ///
    /// Backends without a terminal failure mode (no WAL attached, or no
    /// durable support at all) never return `Err`; the default
    /// implementation just delegates to `run`.
    fn try_run<R, F>(&self, kind: TxKind, body: F) -> Result<R, RunError>
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>,
    {
        Ok(self.run(kind, body))
    }

    /// Sum of per-thread commit/abort counters at this instant.
    fn stats_snapshot(&self) -> stats::BasicStats;

    /// Human-readable backend name for bench output ("tinystm-wb", …).
    fn backend_name(&self) -> &'static str;
}

/// Reinterpret a word address as an atomic, the only defined-behaviour way
/// to touch transactional memory that other threads may race on.
///
/// # Safety
/// `addr` must be non-null, aligned, and point to memory valid for the
/// lifetime of the returned reference.
#[inline(always)]
pub unsafe fn atomic_view<'a>(addr: *const usize) -> &'a AtomicUsize {
    debug_assert!(!addr.is_null());
    debug_assert_eq!(addr as usize % core::mem::align_of::<AtomicUsize>(), 0);
    &*(addr as *const AtomicUsize)
}

/// Pointer to the `idx`-th word field of a word-array object at `base`.
///
/// Transactional objects in this repository (list nodes, tree nodes, …)
/// are laid out as arrays of words; this helper documents and centralizes
/// the field arithmetic.
#[inline(always)]
pub fn field_ptr(base: *mut usize, idx: usize) -> *mut usize {
    // `wrapping_add` keeps this safe to call with a null base in tests;
    // dereferencing still requires a valid pointer.
    base.wrapping_add(idx)
}

/// Run a closure with `?`-style abort propagation outside a transaction.
///
/// Used by unit tests that exercise abort plumbing without a backend.
pub fn catch_abort<R>(f: impl FnOnce() -> TxResult<R>) -> TxResult<R> {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_reason_labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for r in AbortReason::ALL {
            assert!(seen.insert(r.label()), "duplicate label {}", r.label());
        }
    }

    #[test]
    fn abort_reason_index_matches_all_order() {
        for (i, r) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn field_ptr_steps_by_word() {
        let base = 0x1000 as *mut usize;
        assert_eq!(field_ptr(base, 0) as usize, 0x1000);
        assert_eq!(
            field_ptr(base, 3) as usize,
            0x1000 + 3 * core::mem::size_of::<usize>()
        );
    }

    #[test]
    fn atomic_view_reads_plain_word() {
        let word: usize = 42;
        let a = unsafe { atomic_view(&word as *const usize) };
        assert_eq!(a.load(core::sync::atomic::Ordering::Relaxed), 42);
    }

    #[test]
    fn catch_abort_propagates() {
        let r: TxResult<u32> = catch_abort(|| Err(Abort(AbortReason::Explicit)));
        assert_eq!(r, Err(Abort(AbortReason::Explicit)));
        let ok: TxResult<u32> = catch_abort(|| Ok(7));
        assert_eq!(ok, Ok(7));
    }

    #[test]
    fn tx_kind_default_is_read_write() {
        assert_eq!(TxKind::default(), TxKind::ReadWrite);
    }
}
