//! Property test for the fault-tolerance contract: under **arbitrary**
//! fault schedules (kind × position × burst length, proptest-generated)
//! on all three backends, no acknowledged commit is ever lost —
//! memory holds exactly the acked writes, and recovery reproduces them.
//!
//! This is the generative counterpart of the scripted scenarios in
//! `fault_tolerance.rs`: instead of hand-picking the interesting
//! schedules, let the generator search the space (faults at the first
//! append, back-to-back events, bursts longer than the retry budget,
//! fsync failures racing rejoin...).

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use stm_engine::{DurableEngine, ShardHealth};
use stm_tl2::{Tl2Config, Tl2Protocol};
use stm_wal::{
    CrashSwitch, FaultEvent, FaultKind, FaultPlan, FaultStore, GroupCommitConfig, MemStore,
    WalStore,
};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, StmConfig};

const KEYS: usize = 16;
const OPS: u64 = 60;

/// Any fault kind, burst lengths both inside and beyond the retry
/// budget.
fn fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (1u32..8).prop_map(|len| FaultKind::TransientBurst { len }),
        Just(FaultKind::TornAppend),
        Just(FaultKind::PermanentAppend),
        Just(FaultKind::SyncFail),
    ]
}

/// Up to 4 events at arbitrary append positions (duplicates collapse
/// keep-first, mirroring [`FaultPlan::random`]).
fn schedule() -> impl Strategy<Value = Vec<FaultEvent>> {
    prop::collection::vec(
        (0u64..80, fault_kind()).prop_map(|(at_append, kind)| FaultEvent { at_append, kind }),
        0..4,
    )
    .prop_map(|mut events| {
        events.sort_by_key(|e| e.at_append);
        events.dedup_by_key(|e| e.at_append);
        events
    })
}

/// Drive a deterministic single-threaded workload over one faulty
/// shard, rejoining on degradation, and assert the contract.
fn check_no_acked_commit_lost<P: Protocol>(config: &P::Config, events: Vec<FaultEvent>) {
    let group = GroupCommitConfig::default();
    let store = FaultStore::new(
        MemStore::new(CrashSwitch::unlimited()),
        FaultPlan { events },
    );
    let engine: DurableEngine<Runtime<P>> = DurableEngine::new_grouped(
        1,
        KEYS,
        config,
        vec![Arc::clone(&store) as Arc<dyn WalStore>],
        group,
    )
    .unwrap();

    // The oracle: exactly the puts the engine acknowledged.
    let mut acked: BTreeMap<u64, u64> = (0..KEYS as u64).map(|k| (k, 0)).collect();
    for i in 0..OPS {
        let key = (i * 7 + 3) % KEYS as u64;
        let value = 1_000 + i;
        match engine.put(key, value) {
            Ok(()) => {
                acked.insert(key, value);
            }
            Err(_) => {
                // Typed failure; the supervisor move is a rejoin
                // attempt (no-op if Healthy, quarantine if the store
                // is permanently dead).
                if engine.health(0) == ShardHealth::Degraded {
                    let _ = engine.rejoin(0);
                }
            }
        }
    }
    if engine.health(0) == ShardHealth::Degraded {
        let _ = engine.rejoin(0);
    }

    // Memory holds exactly the acked writes — failed publishes rolled
    // back with zero memory effect.
    assert_eq!(engine.read_all(), acked, "memory diverged from acks");

    let plan = format!("{}", store.plan());
    drop(engine);

    // Power-cycle onto a healthy store holding the surviving bytes.
    let boot = MemStore::rebooted(&*store) as Arc<dyn WalStore>;
    let (recovered, _) =
        DurableEngine::<Runtime<P>>::recover_grouped(1, KEYS, config, vec![boot], group)
            .unwrap_or_else(|e| {
                panic!("recovery failed under schedule [{plan}]: {e}");
            });
    assert_eq!(
        recovered.read_all(),
        acked,
        "acked commits lost under schedule [{plan}]"
    );
}

proptest! {
    // Each case runs three backends; keep the case count moderate so
    // the retry-backoff sleeps stay inside test-suite budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_acked_commit_lost_under_random_faults(events in schedule()) {
        check_no_acked_commit_lost::<Lsa>(
            &StmConfig::default().with_strategy(AccessStrategy::WriteBack),
            events.clone(),
        );
        check_no_acked_commit_lost::<Lsa>(
            &StmConfig::default().with_strategy(AccessStrategy::WriteThrough),
            events.clone(),
        );
        check_no_acked_commit_lost::<Tl2Protocol>(&Tl2Config::default(), events);
    }
}
