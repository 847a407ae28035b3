//! Backend lifecycle: construction, reconfiguration, clock access,
//! quiescence, and WAL attachment.
//!
//! [`TmLifecycle`] is the abstraction every layer above the backends
//! programs against. It started life as `ShardBackend`, a crate-local
//! shim inside `stm-engine`; the durability work needs the same surface
//! from the WAL coordinator and the tuning loop, so the trait lives here
//! now and `stm-engine` re-exports it for compatibility.
//!
//! Two deliberate omissions:
//!
//! * **No trace attachment.** `stm-check` (the history recorder/oracle)
//!   depends on this crate, so the record-gated
//!   `attach_trace`/`detach_trace` methods cannot live on a trait defined
//!   here without a dependency cycle. They remain on `stm-engine`'s
//!   `ShardBackend` extension trait, which has `TmLifecycle` as its
//!   supertrait.
//! * **No backend error types.** Construction and reconfiguration report
//!   the backend-neutral [`LifecycleError`]; each backend provides a
//!   `From` impl for its own config error so `?` still works, and this
//!   crate keeps zero backend dependencies.

use crate::TmHandle;

/// Backend-neutral lifecycle failure.
///
/// Backends map their own error types into this via `From` impls defined
/// in *their* crates (the orphan rule permits it because they own the
/// source type). The message carries the backend's full diagnostic; the
/// variant carries what generic callers can act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleError {
    /// The backend rejected the supplied configuration (out-of-range
    /// parameter, inconsistent combination, ...).
    InvalidConfig(String),
    /// The backend cannot perform the requested lifecycle operation in
    /// its current state.
    Unsupported(String),
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            LifecycleError::Unsupported(msg) => write!(f, "unsupported lifecycle operation: {msg}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// The backend lifecycle abstraction: how an STM instance is built,
/// reconfigured, fenced, and observed from outside a transaction.
///
/// [`TmHandle`] is the *data-path* contract (run transactions, read
/// stats); `TmLifecycle` is the *control-path* contract layered on top.
/// `ShardedEngine`, the autotuner, and the durable WAL coordinator are
/// all generic over it.
pub trait TmLifecycle: TmHandle + Sized {
    /// Backend configuration (lock-array size, hash shifts, CM policy...).
    type Config: Clone + Send + Sync;

    /// Build a fresh instance from `config`.
    fn build(config: &Self::Config) -> Result<Self, LifecycleError>;

    /// Quiesce this instance and switch it to `config` (the paper's
    /// §5 dynamic tuning path: stop-the-world fence, swap the lock
    /// mapping, reset the clock).
    fn reconfigure(&self, config: &Self::Config) -> Result<(), LifecycleError>;

    /// Current commit-clock value.
    fn clock_now(&self) -> u64;

    /// Run `critical` inside this instance's quiesce fence: no
    /// transaction is active while it runs, and every prior commit is
    /// fully published. This is the checkpoint boundary the durable
    /// layer snapshots under.
    fn quiesce<R>(&self, critical: impl FnOnce() -> R) -> R;

    /// Attach a write-ahead-log sink: from now on every committed
    /// update transaction publishes its write set to `sink` before
    /// releasing its commit locks. Replaces any previous sink.
    fn attach_wal(&self, sink: &std::sync::Arc<dyn crate::wal::WalSink>);

    /// Detach the WAL sink; subsequent commits stop publishing.
    /// In-flight commits may still publish once — the sink must stay
    /// valid until all workers are quiesced (it is an `Arc`, so it
    /// does).
    fn detach_wal(&self);

    /// The current durability epoch. Bumped inside every quiesce fence
    /// that renumbers commit timestamps (reconfigure, clock roll-over),
    /// so that `(epoch, commit_ts)` is unique and per-key timestamps
    /// are monotone within an epoch.
    fn wal_epoch(&self) -> u64;
}
