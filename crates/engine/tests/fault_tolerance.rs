//! Fault-tolerance tests for the durable engine, on all three backends:
//! transient store errors are absorbed by the group committer's retry
//! loop (and, once it runs out, fail only their batch), permanent
//! errors degrade the shard with a typed rejection (reads keep
//! serving), fsync failures leave a tracked in-doubt record, and rejoin
//! heals a Degraded shard from memory.

use std::sync::Arc;
use stm_engine::{DurableEngine, DurableError, ShardHealth, WriteError};
use stm_tl2::{Tl2Config, Tl2Protocol};
use stm_wal::{
    CrashSwitch, FaultEvent, FaultKind, FaultPlan, FaultStore, GroupCommitConfig, MemStore,
    WalStore,
};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, StmConfig};

const KEYS: usize = 8;

/// One shard over a [`FaultStore`] scripted with `events`.
fn faulty_engine<P: Protocol>(
    config: &P::Config,
    events: Vec<FaultEvent>,
) -> DurableEngine<Runtime<P>> {
    let group = GroupCommitConfig::default();
    let mem = MemStore::new(CrashSwitch::unlimited());
    let store = FaultStore::new(mem, FaultPlan { events });
    DurableEngine::new_grouped(1, KEYS, config, vec![store as Arc<dyn WalStore>], group).unwrap()
}

/// A transient burst shorter than the retry budget: every put succeeds,
/// the shard never leaves Healthy, and the retries are counted.
fn transient_burst_is_absorbed<P: Protocol>(config: &P::Config) {
    let group = GroupCommitConfig::default();
    let engine = faulty_engine::<P>(
        config,
        vec![FaultEvent {
            at_append: 2,
            kind: FaultKind::TransientBurst { len: 3 },
        }],
    );
    for i in 0..6u64 {
        engine.put(i % KEYS as u64, 100 + i).unwrap();
    }
    assert_eq!(engine.health(0), ShardHealth::Healthy);
    let stats = engine.fault_stats();
    assert!(stats.wal_retries >= 3, "retries: {stats:?}");
    assert_eq!(stats.wal_faults, 0, "{stats:?}");

    // Every acknowledged put survives recovery.
    let expected = engine.read_all();
    let store = Arc::clone(engine.store(0));
    drop(engine);
    let (recovered, _) =
        DurableEngine::<Runtime<P>>::recover_grouped(1, KEYS, config, vec![store], group).unwrap();
    assert_eq!(recovered.read_all(), expected);
}

/// A permanent append error: the failing put surfaces a typed WAL
/// error (no panic), the shard degrades, later writes are rejected
/// typed, reads keep serving, and — the store being dead — rejoin
/// quarantines rather than silently reopening.
fn permanent_fault_degrades_typed<P: Protocol>(config: &P::Config) {
    let engine = faulty_engine::<P>(
        config,
        vec![FaultEvent {
            at_append: 2,
            kind: FaultKind::PermanentAppend,
        }],
    );
    engine.put(0, 10).unwrap();
    engine.put(1, 11).unwrap();
    // Append attempt #2 dies permanently: typed failure, clean rollback.
    assert_eq!(engine.put(2, 12), Err(WriteError::Wal { shard: 0 }));
    assert_eq!(engine.health(0), ShardHealth::Degraded);
    // The failed put had no memory effect; earlier acks still read.
    assert_eq!(engine.get(2), 0);
    assert_eq!(engine.get(1), 11);
    // Writes now reject up front, typed.
    assert_eq!(
        engine.put(3, 13),
        Err(WriteError::Rejected {
            shard: 0,
            health: ShardHealth::Degraded,
        })
    );
    let stats = engine.fault_stats();
    assert!(stats.wal_faults >= 1, "{stats:?}");
    assert!(stats.degraded_rejects >= 1, "{stats:?}");

    // The store is permanently dead, so the rejoin checkpoint fails
    // and the shard is quarantined — and stays that way.
    assert!(matches!(
        engine.rejoin(0),
        Err(DurableError::Checkpoint { shard: 0, .. })
    ));
    assert_eq!(engine.health(0), ShardHealth::Quarantined);
    assert!(matches!(
        engine.rejoin(0),
        Err(DurableError::Quarantined { shard: 0 })
    ));
    // Reads serve even quarantined.
    assert_eq!(engine.get(0), 10);
}

/// An injected fsync failure: the commit is not acknowledged (memory
/// rolls back) but its record reached the log — in-doubt, tracked, and
/// cleared by a successful rejoin; recovery afterwards sees exactly the
/// acked state.
fn sync_failure_leaves_in_doubt_and_rejoin_heals<P: Protocol>(config: &P::Config) {
    let group = GroupCommitConfig::default();
    let engine = faulty_engine::<P>(
        config,
        vec![FaultEvent {
            at_append: 1,
            kind: FaultKind::SyncFail,
        }],
    );
    engine.put(0, 40).unwrap();
    // Append #1 lands in the log but its fsync fails: not acked.
    assert_eq!(engine.put(1, 41), Err(WriteError::Wal { shard: 0 }));
    assert_eq!(engine.health(0), ShardHealth::Degraded);
    assert_eq!(engine.get(1), 0, "unacked put must not reach memory");
    let in_doubt = engine.in_doubt(0);
    assert_eq!(in_doubt.len(), 1);
    assert_eq!(in_doubt[0].writes, vec![(1, 41)]);

    // Rejoin re-checkpoints from memory: the orphaned record is gone,
    // the shard is Healthy, writes flow again.
    engine.rejoin(0).unwrap();
    assert_eq!(engine.health(0), ShardHealth::Healthy);
    assert!(engine.in_doubt(0).is_empty());
    assert!(engine.fault_stats().rejoins >= 1);
    engine.put(2, 42).unwrap();

    let expected = engine.read_all();
    let store = Arc::clone(engine.store(0));
    drop(engine);
    let (recovered, _) =
        DurableEngine::<Runtime<P>>::recover_grouped(1, KEYS, config, vec![store], group).unwrap();
    let state = recovered.read_all();
    assert_eq!(state, expected);
    assert_eq!(state[&1], 0, "in-doubt record must not resurface");
    assert_eq!(state[&2], 42);
}

/// A transient burst longer than the retry budget fails only its batch:
/// the put fails typed and rolls back, the shard stays Healthy (nothing
/// reached the log), and the next put succeeds without a rejoin.
fn exhausted_transients_fail_the_batch<P: Protocol>(config: &P::Config) {
    let engine = faulty_engine::<P>(
        config,
        vec![FaultEvent {
            at_append: 1,
            // The failed put burns 5 attempts (1 + 4 retries); one
            // burst slot is left over for the next put, which absorbs
            // it with a single retry.
            kind: FaultKind::TransientBurst { len: 6 },
        }],
    );
    engine.put(0, 7).unwrap();
    assert_eq!(engine.put(1, 8), Err(WriteError::Wal { shard: 0 }));
    assert_eq!(engine.health(0), ShardHealth::Healthy);
    assert_eq!(engine.get(1), 0, "the failed put rolled back");
    engine.put(1, 8).unwrap();
    assert_eq!(engine.get(1), 8);
    let stats = engine.fault_stats();
    assert_eq!(stats.wal_retries, 5, "4 exhausted + 1 absorbed: {stats:?}");
    assert_eq!(stats.wal_faults, 0, "{stats:?}");
    assert_eq!(stats.rejoins, 0, "{stats:?}");
    assert_eq!(engine.health_transitions(0), 0);
}

fn wb() -> StmConfig {
    StmConfig::default().with_strategy(AccessStrategy::WriteBack)
}

fn wt() -> StmConfig {
    StmConfig::default().with_strategy(AccessStrategy::WriteThrough)
}

#[test]
fn transient_burst_absorbed_all_backends() {
    transient_burst_is_absorbed::<Lsa>(&wb());
    transient_burst_is_absorbed::<Lsa>(&wt());
    transient_burst_is_absorbed::<Tl2Protocol>(&Tl2Config::default());
}

#[test]
fn permanent_fault_degrades_all_backends() {
    permanent_fault_degrades_typed::<Lsa>(&wb());
    permanent_fault_degrades_typed::<Lsa>(&wt());
    permanent_fault_degrades_typed::<Tl2Protocol>(&Tl2Config::default());
}

#[test]
fn sync_failure_in_doubt_then_rejoin_all_backends() {
    sync_failure_leaves_in_doubt_and_rejoin_heals::<Lsa>(&wb());
    sync_failure_leaves_in_doubt_and_rejoin_heals::<Lsa>(&wt());
    sync_failure_leaves_in_doubt_and_rejoin_heals::<Tl2Protocol>(&Tl2Config::default());
}

#[test]
fn exhausted_transients_fail_the_batch_all_backends() {
    exhausted_transients_fail_the_batch::<Lsa>(&wb());
    exhausted_transients_fail_the_batch::<Lsa>(&wt());
    exhausted_transients_fail_the_batch::<Tl2Protocol>(&Tl2Config::default());
}
