//! Deterministic demonstration of the sharded clocks paying off: a
//! transaction that stays open while another thread commits `K` times
//! absorbs those commit timestamps into its `clock_conflicts` counter
//! when both live on the *same* shard clock, and none of them when the
//! committer runs on a different shard.

use std::sync::atomic::{AtomicU8, Ordering};

use stm_api::mem::WordBlock;
use stm_api::{TmTx, TxKind};
use stm_engine::ShardedEngine;
use stm_tl2::{Tl2Config, Tl2Protocol};
use tinystm::stm::Lsa;
use tinystm::{Protocol, Runtime, StmConfig};

/// Foreign commits driven into an open transaction's window.
const K: u64 = 100;

/// Open a transaction on `key_a`, let the main thread commit [`K`]
/// update transactions on `key_b` while it is open, then commit it.
/// Returns the engine-wide `clock_conflicts` delta.
fn spanning_lag<P: Protocol>(engine: &ShardedEngine<Runtime<P>>, key_a: u64, key_b: u64) -> u64 {
    let cell_a = WordBlock::new(1);
    let cell_b = WordBlock::new(1);
    let before = engine.stats().clock_conflicts;
    // 0 = not open yet, 1 = A's window is open, 2 = B's commits are done.
    let stage = AtomicU8::new(0);
    std::thread::scope(|scope| {
        let stage = &stage;
        let cell_a = &cell_a;
        scope.spawn(move || {
            let pa = cell_a.as_ptr();
            engine.run_on(key_a, TxKind::ReadWrite, |tx| unsafe {
                let v = tx.load_word(pa)?;
                stage.store(1, Ordering::SeqCst);
                while stage.load(Ordering::SeqCst) != 2 {
                    std::thread::yield_now();
                }
                tx.store_word(pa, v + 1)
            });
        });
        while stage.load(Ordering::SeqCst) != 1 {
            std::thread::yield_now();
        }
        let pb = cell_b.as_ptr();
        for _ in 0..K {
            engine.run_on(key_b, TxKind::ReadWrite, |tx| unsafe {
                let v = tx.load_word(pb)?;
                tx.store_word(pb, v + 1)
            });
        }
        stage.store(2, Ordering::SeqCst);
    });
    engine.stats().clock_conflicts - before
}

/// A key routing to a different shard than `other` (needs ≥ 2 shards).
fn foreign_key<P: Protocol>(engine: &ShardedEngine<Runtime<P>>, other: u64) -> u64 {
    (0u64..)
        .find(|&k| engine.route(k) != engine.route(other))
        .expect("router spreads keys")
}

fn drop_with_shards<P: Protocol>(one: ShardedEngine<Runtime<P>>, four: ShardedEngine<Runtime<P>>) {
    // One shard: every foreign commit lands on the open transaction's
    // clock, so the window absorbs at least K timestamps.
    let same = spanning_lag(&one, 0, 1);
    assert!(
        same >= K,
        "one shard: expected ≥ {K} absorbed commits, got {same}"
    );
    // Four shards, committer on a different shard: the open
    // transaction's clock never moves.
    let split = spanning_lag(&four, 0, foreign_key(&four, 0));
    assert!(
        split < same,
        "four shards must strictly cut clock conflicts ({split} !< {same})"
    );
    assert!(
        split <= K / 10,
        "cross-shard commits leaked into the clock: {split}"
    );
}

#[test]
fn tinystm_clock_conflicts_drop_with_shards() {
    drop_with_shards::<Lsa>(
        ShardedEngine::new(1, &StmConfig::default()).unwrap(),
        ShardedEngine::new(4, &StmConfig::default()).unwrap(),
    );
}

#[test]
fn tl2_clock_conflicts_drop_with_shards() {
    drop_with_shards::<Tl2Protocol>(
        ShardedEngine::new(1, &Tl2Config::default()).unwrap(),
        ShardedEngine::new(4, &Tl2Config::default()).unwrap(),
    );
}
