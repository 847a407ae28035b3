//! The write-ahead-log sink contract.
//!
//! A backend with an attached [`WalSink`] calls [`WalSink::publish`]
//! once per committed **update** transaction, from inside the commit
//! critical section: after the commit timestamp is drawn and validation
//! has passed, but *before* the stripe locks are released. (Write-back
//! backends publish before applying the write set to memory so a
//! failed publish can abort with zero memory effect; write-through
//! backends publish after their encounter-time stores and rely on the
//! undo log for the same guarantee.) That placement is the crux of
//! crash consistency:
//!
//! * Two transactions that conflict (touch a common stripe) hold the
//!   common lock across their publish, so their WAL records appear in
//!   commit order.
//! * Therefore *any* prefix of a sink's append stream is conflict-closed
//!   — replaying it yields a state some prefix of the committed
//!   execution could have produced (strata-core's M1.4, crash
//!   consistency).
//!
//! Non-conflicting commits may interleave arbitrarily in the stream;
//! that is fine, because replay folds records in append order and
//! non-conflicting writes commute.
//!
//! The trait lives in `stm-api` (not in `stm-wal`) so the backends can
//! publish through it without depending on any particular log
//! implementation — the same inversion the [`crate::TmHandle`] trait
//! performs for the data path.

/// A sink's report that a commit record could not be persisted.
///
/// The backend receiving this must abort the committing transaction
/// cleanly — undo its memory effect, release its locks — and surface
/// [`crate::RunError::WalFailed`] instead of publishing a commit whose
/// durability is a lie. Retry policy (backoff, health bookkeeping) is
/// the *sink's* job: by the time `publish` returns `Err`, the sink has
/// exhausted whatever retries it was willing to spend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishError {
    /// Human-readable cause, for logs and typed engine errors upstream.
    pub detail: String,
}

impl PublishError {
    /// A publish error with the given cause.
    pub fn new(detail: impl Into<String>) -> PublishError {
        PublishError {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WAL publish failed: {}", self.detail)
    }
}

impl std::error::Error for PublishError {}

/// Receives the write set of each committed update transaction.
///
/// `publish` is called with stripe locks held: implementations must not
/// run transactions, block on transactional state, or panic on ordinary
/// input. Panicking is reserved for integrity violations (e.g. a write
/// outside the durable address range — a would-be phantom write), where
/// failing loudly beats logging garbage.
///
/// Publish may *block* on non-transactional work — in particular, a
/// group-commit sink stages the record immediately (fixing its log
/// position while the locks pin the commit order) and then waits for
/// an amortized batch flush before returning. The contract is
/// stage/ack: the record's place in the log is decided inside the
/// critical section, but `Ok` is returned only once the record is
/// *acked* (persisted at the sink's durability level). The committing
/// transaction applies no memory effect before that ack, so staged-but
/// -unflushed records can vanish with a crash without memory ever
/// having run ahead of the log.
pub trait WalSink: Send + Sync {
    /// Record one committed update transaction.
    ///
    /// * `epoch` — the backend's durability epoch (see
    ///   `tinystm::Runtime::wal_epoch`); commit timestamps are unique and
    ///   per-key monotone only *within* an epoch.
    /// * `commit_ts` — the transaction's commit timestamp (the paper's
    ///   write version `wv`).
    /// * `writes` — deduplicated `(address, value)` pairs of the write
    ///   set the transaction is about to apply (write-back) or has
    ///   applied (write-through).
    ///
    /// `Err` means the record was never *acknowledged*: usually nothing
    /// (or only a torn prefix the recovery tail-scan discards) reached
    /// storage, though a failed durability sync can leave the record
    /// present in the log yet in doubt — the sink tracks those. Either
    /// way the caller must roll the transaction back. `Ok` means the
    /// record is persisted at the sink's durability level.
    fn publish(
        &self,
        epoch: u64,
        commit_ts: u64,
        writes: &[(usize, usize)],
    ) -> Result<(), PublishError>;
}
