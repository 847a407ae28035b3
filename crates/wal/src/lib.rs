//! # stm-wal — write-ahead logging and crash recovery for the STM engines
//!
//! The durability substrate under the backends' WAL hooks and
//! `stm-engine`'s durable layer: every committed update transaction
//! publishes an append-only, CRC-checksummed record (epoch, commit
//! timestamp, write set) through a per-shard sink; recovery replays the log from empty
//! (or from the last checkpoint snapshot) and reconstructs the
//! committed state — or fails loudly, never silently diverging.
//!
//! The pieces:
//!
//! * [`record::WalRecord`] — the framed on-log record format;
//! * [`writer::LogWriter`] — seq assignment and record encoding
//!   (staging onto a batch buffer);
//! * [`group::GroupCommitter`] — the one commit path: many committers
//!   stage into one batch, one append + one sync acknowledges all of
//!   them, with typed per-batch failure fan-out;
//! * [`retry::RetryPolicy`] — bounded, jittered in-place retry of
//!   transient store errors (batch appends, checkpoints);
//! * [`store::WalStore`] / [`store::MemStore`] / [`store::CrashSwitch`]
//!   — storage with byte-granular crash simulation and the
//!   [`store::StoreError`] transient/torn/permanent failure taxonomy;
//! * [`file::FileStore`] — real files: appends, fsync, generation-named
//!   logs for atomic checkpoints;
//! * [`fault::FaultStore`] — deterministic seeded fault injection over
//!   any store (chaos harness substrate);
//! * [`snapshot::Snapshot`] — checkpoint base state (written inside a
//!   quiesce fence; checkpoint = snapshot + log truncation);
//! * [`log::decode_log`] / [`log::recover_store`] — decoding, the
//!   torn-tail vs interior-corruption policy, invariant checks, replay.
//!
//! The crash-consistency invariants follow strata-core's M1 set (see
//! SNIPPETS.md): append-only (M1.1), deterministic replay (M1.2), state
//! reconstruction (M1.3), crash consistency via prefix recovery (M1.4),
//! no phantom writes (M1.5, enforced by the engine's address-range
//! check), no missing writes (M1.6, checked by the stm-check oracle),
//! replay idempotence (M1.7).
//!
//! The backends do not depend on this crate: they publish through
//! `stm_api::wal::WalSink`, and `stm-engine`'s durable layer adapts
//! that to a [`group::GroupCommitter`].

pub mod crc;
pub mod fault;
pub mod file;
pub mod group;
pub mod log;
pub mod record;
pub mod retry;
pub mod snapshot;
pub mod store;
pub mod writer;

pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultStore};
pub use file::FileStore;
pub use group::{BatchError, GroupCommitConfig, GroupCommitter, GroupError};
pub use log::{
    decode_log, recover_store, replay_onto, snapshot_of, Recovery, TailStatus, WalError,
};
pub use record::WalRecord;
pub use retry::RetryPolicy;
pub use snapshot::Snapshot;
pub use store::{CrashSwitch, MemStore, StoreError, WalStore};
pub use writer::LogWriter;
