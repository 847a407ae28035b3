//! TinySTM's locking protocol on the shared [`Runtime`]: encounter-time
//! locking with LSA snapshot extension (the attempt itself lives in
//! `tx.rs`), over the tunable `Mapping` of Section 4.

use crate::config::{AccessStrategy, StmConfig};
use crate::runtime::{Attempt, Protocol, Runtime};
use crate::tx::{Tx, TxCtx};
use stm_api::{AbortReason, TxKind};

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
            finished: false,
            strategy: map.config().strategy,
            hier_on: map.hier_enabled(),
            me: attempt.ts as *const _ as usize,
            hooks: attempt.hooks,
        }
    }

    #[inline(always)]
    fn commit(tx: Tx<'_>) -> Result<(), AbortReason> {
        tx.commit()
    }

    #[inline(always)]
    fn rollback(tx: &mut Tx<'_>, reason: AbortReason) {
        tx.rollback(reason);
    }
}
