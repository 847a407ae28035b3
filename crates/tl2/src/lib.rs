//! # stm-tl2 — the TL2 baseline
//!
//! A word-based implementation of **Transactional Locking II** (Dice,
//! Shalev, Shavit — DISC 2006), built as the comparison baseline the
//! TinySTM paper (PPoPP 2008) measures against: commit-time locking,
//! write-back with a Bloom-filter read-after-write test, a global
//! version clock, and no snapshot extension.
//!
//! It is a second locking protocol on the `tinystm` crate's runtime
//! (`Tl2 = tinystm::Runtime<Tl2Protocol>`), so it shares that crate's
//! run loop and handle API, and every benchmark data structure and
//! workload runs unmodified on both.
//!
//! ```
//! use stm_tl2::{Tl2, Tl2Config};
//! use stm_api::{TmTx, TxKind};
//! use stm_api::mem::WordBlock;
//!
//! let tl2 = Tl2::new(Tl2Config::default()).unwrap();
//! let cell = WordBlock::new(1);
//! let addr = cell.as_ptr();
//! tl2.run(TxKind::ReadWrite, |tx| {
//!     let v = unsafe { tx.load_word(addr) }?;
//!     unsafe { tx.store_word(addr, v + 10) }
//! });
//! assert_eq!(cell.read(0), 10);
//! ```

pub mod bloom;
mod tl2;

pub use bloom::Bloom;
pub use tl2::{Tl2, Tl2Config, Tl2Protocol, Tl2Tx};
