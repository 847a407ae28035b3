//! `record`-feature oracle test for [`CrossShardPolicy::TwoPhase`]:
//! concurrent cross-shard transfers, cross-shard observers, and
//! single-shard traffic all run recorded, and each shard's drained
//! history must check opaque on its own.
//!
//! The engine's cross-shard atomicity comes from the ordered gates, not
//! from the STM — each shard only ever sees ordinary local transactions.
//! That is exactly what makes the per-shard check sound: if two-phase
//! gating leaked a torn cross-shard state into a shard's transactions,
//! it would surface as an inconsistent read in that shard's history.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stm_api::mem::WordBlock;
use stm_api::{TmTx, TxKind};
use stm_check::{check_history, CheckOpts, TraceSink};
use stm_engine::{CrossShardPolicy, ShardedEngine};
use tinystm::{Stm, StmConfig};

/// Two keys on different shards plus a third on the first key's shard.
fn split_keys(engine: &ShardedEngine<Stm>) -> (u64, u64, u64) {
    let a = 0u64;
    let sa = engine.route(a);
    let b = (1..).find(|&k| engine.route(k) != sa).expect("≥2 shards");
    let c = (1..)
        .find(|&k| engine.route(k) == sa && k != a)
        .expect("hash spreads");
    (a, b, c)
}

#[test]
fn two_phase_histories_check_clean_per_shard() {
    const SHARDS: usize = 2;
    let engine: ShardedEngine<Stm> = ShardedEngine::new(SHARDS, &StmConfig::default())
        .unwrap()
        .with_policy(CrossShardPolicy::TwoPhase);
    let sinks: Vec<_> = (0..SHARDS).map(|_| TraceSink::new()).collect();
    for (i, sink) in sinks.iter().enumerate() {
        engine.shard(i).attach_trace(sink);
    }

    let (a, b, c) = split_keys(&engine);
    let cell_a = WordBlock::new(1);
    let cell_b = WordBlock::new(1);
    let cell_c = WordBlock::new(1);
    let pa = cell_a.as_ptr();
    engine
        .run_cross(&[a], |ctx| {
            ctx.run_on(a, TxKind::ReadWrite, |tx| unsafe { tx.store_word(pa, 500) });
        })
        .unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let engine = engine.clone();
            let (cell_a, cell_b, cell_c) = (&cell_a, &cell_b, &cell_c);
            scope.spawn(move || {
                let (pa, pb, pc) = (cell_a.as_ptr(), cell_b.as_ptr(), cell_c.as_ptr());
                let mut rng = SmallRng::seed_from_u64(0x0002_FA5E ^ t);
                for i in 0..150u64 {
                    match i % 3 {
                        0 => {
                            // Cross-shard transfer a → b (or back),
                            // both legs inside one gated section.
                            let (sk, sp, dk, dp) = if t % 2 == 0 {
                                (a, pa, b, pb)
                            } else {
                                (b, pb, a, pa)
                            };
                            let amount = rng.gen_range(1u64..4) as usize;
                            engine
                                .run_cross(&[a, b], |ctx| {
                                    let avail = ctx.run_on(sk, TxKind::ReadOnly, |tx| unsafe {
                                        tx.load_word(sp)
                                    });
                                    if avail < amount {
                                        return;
                                    }
                                    ctx.run_on(sk, TxKind::ReadWrite, |tx| unsafe {
                                        let v = tx.load_word(sp)?;
                                        tx.store_word(sp, v - amount)
                                    });
                                    ctx.run_on(dk, TxKind::ReadWrite, |tx| unsafe {
                                        let v = tx.load_word(dp)?;
                                        tx.store_word(dp, v + amount)
                                    });
                                })
                                .unwrap();
                        }
                        1 => {
                            // Cross-shard observer: must see the
                            // conserved total under the gates.
                            engine
                                .run_cross(&[a, b], |ctx| {
                                    let va = ctx.run_on(a, TxKind::ReadOnly, |tx| unsafe {
                                        tx.load_word(pa)
                                    });
                                    let vb = ctx.run_on(b, TxKind::ReadOnly, |tx| unsafe {
                                        tx.load_word(pb)
                                    });
                                    assert_eq!(va + vb, 500, "torn cross-shard state");
                                })
                                .unwrap();
                        }
                        _ => {
                            // Plain single-shard traffic interleaved on
                            // the fast path (no gates), same shard as a.
                            engine.run_on(c, TxKind::ReadWrite, |tx| unsafe {
                                let v = tx.load_word(pc)?;
                                tx.store_word(pc, v + 1)
                            });
                        }
                    }
                }
            });
        }
    });

    assert_eq!(cell_a.read(0) + cell_b.read(0), 500);
    for (i, sink) in sinks.iter().enumerate() {
        engine.shard(i).detach_trace();
        let history = sink.drain_history().expect("recording stayed sound");
        assert!(
            history.txns().any(|t| t.commit_version().is_some()),
            "shard {i} recorded no committed updates"
        );
        let report = check_history(&history, &CheckOpts::default());
        assert!(report.is_clean(), "shard {i} oracle violations:\n{report}");
    }
}
