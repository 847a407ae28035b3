//! # tinystm — word-based, time-based software transactional memory
//!
//! A from-scratch Rust implementation of **TinySTM** as described in
//! *"Dynamic Performance Tuning of Word-Based Software Transactional
//! Memory"* (Felber, Fetzer, Riegel — PPoPP 2008):
//!
//! * single-version, word-based variant of the LSA algorithm with
//!   invisible reads and eager snapshot extension;
//! * **encounter-time locking** through a shared array of versioned
//!   locks (per-stripe hash mapping with a tunable shift);
//! * both **write-back** (redo log, O(1) read-after-write via lock-
//!   resident entry chains) and **write-through** (undo log + 3-bit
//!   incarnation numbers) access strategies;
//! * a **read-only fast path** that keeps no read set;
//! * **hierarchical locking** (Section 3.2): `h` shared counters let
//!   validation skip whole read-set partitions;
//! * a shared-counter **global clock** with the paper's roll-over
//!   protocol (quiesce, zero versions, reset);
//! * **transactional memory management** with abort-safe allocation,
//!   commit-deferred frees, and epoch-based physical reclamation;
//! * **dynamic reconfiguration** of `#locks`, `#shifts` and `h` behind a
//!   stop-the-world fence — the substrate for the paper's tuning
//!   strategy (implemented in the `stm-tuning` crate).
//!
//! ## Quick start
//!
//! ```
//! use tinystm::{Stm, StmConfig, TCell, TxExt};
//! use stm_api::TxKind;
//!
//! let stm = Stm::new(StmConfig::default()).unwrap();
//! let a = TCell::new(100i64);
//! let b = TCell::new(0i64);
//! // Transfer 30 from a to b, atomically.
//! stm.run(TxKind::ReadWrite, |tx| {
//!     let va = tx.read(&a)?;
//!     tx.write(&a, va - 30)?;
//!     let vb = tx.read(&b)?;
//!     tx.write(&b, vb + 30)
//! });
//! assert_eq!(a.read_direct() + b.read_direct(), 100);
//! ```
//!
//! The raw word-level interface (`stm_api::TmTx`) is what the benchmark
//! data structures use; see `stm-structures`.

pub mod cacheline;
pub mod clock;
pub mod config;
pub mod fault;
pub mod hierarchy;
pub mod lockword;
pub mod mapping;
pub mod mem;
pub mod quiesce;
pub mod readset;
pub mod runtime;
pub mod stats;
pub mod stm;
#[cfg(feature = "record")]
pub mod trace;
pub mod tvar;
pub mod tx;
pub mod wal;
pub mod writelog;

pub use cacheline::CacheAligned;
pub use config::{AccessStrategy, CmPolicy, ConfigError, StmConfig};
pub use runtime::{Protocol, Runtime, StmStats};
pub use stats::{StatsSnapshot, ThreadStats};
pub use stm::Stm;
pub use tvar::{TArray, TCell, TxExt, Word};
pub use tx::Tx;

// Re-export the abstraction crate so dependents need only one import.
pub use stm_api;
