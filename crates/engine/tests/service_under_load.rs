//! Checkpoint under load, through the service layer, on every
//! backend: snapshots race live multi-tenant traffic and must cost
//! only a bounded, *measured* ack-latency bump — never an acked
//! commit, never a replay divergence.
//!
//! Per backend the test drives writer threads through
//! [`StmService::put`] (blocking, so `Ok` means the group batch was
//! flushed and synced) while the main thread runs
//! [`StmService::checkpoint`] rounds against the same shards. Then:
//!
//! * every acked write is the value a read serves (exact, not just
//!   monotone — there was no crash);
//! * a recovery from the stores (checkpoint snapshot + log tail)
//!   reproduces the pre-shutdown state bit-for-bit, and the log tail
//!   is phantom/duplicate-free against the recorded history — the
//!   checkpoints truncated, never corrupted;
//! * the submit→ack histogram saw every successful put, and its max
//!   stays under a bound generous enough for CI yet far below "the
//!   checkpoint wedged the queue" territory.

#[path = "../../core/tests/support/deadline.rs"]
mod deadline;

use deadline::{check_deadline, deadline, join_by};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stm_check::{check_wal_commits, TraceSink, WalCommit};
use stm_engine::{DurableEngine, ServiceConfig, StmService};
use stm_telemetry::flight;
use stm_tl2::{Tl2Config, Tl2Protocol};
use stm_wal::{GroupCommitConfig, MemStore, Recovery, WalStore};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, StmConfig};

const SHARDS: usize = 2;
const TENANTS: usize = 2;
const KEYS_PER_TENANT: usize = 32;
const KEYS: usize = TENANTS * KEYS_PER_TENANT;
const CHECKPOINT_ROUNDS: usize = 5;

fn wal_commits(report: &Recovery) -> Vec<WalCommit> {
    report
        .records
        .iter()
        .map(|r| WalCommit {
            epoch: r.epoch,
            commit_ts: r.commit_ts,
        })
        .collect()
}

fn checkpoint_under_load<P: Protocol>(config: &P::Config) {
    let stores: Vec<Arc<dyn WalStore>> = (0..SHARDS)
        .map(|_| MemStore::healthy() as Arc<dyn WalStore>)
        .collect();
    let engine = Arc::new(
        DurableEngine::<Runtime<P>>::new_grouped(
            SHARDS,
            KEYS,
            config,
            stores.clone(),
            GroupCommitConfig::default(),
        )
        .unwrap(),
    );
    let sinks: Vec<_> = (0..SHARDS).map(|_| TraceSink::new()).collect();
    for (i, sink) in sinks.iter().enumerate() {
        engine.engine().shard(i).attach_trace(sink);
    }
    let svc = Arc::new(StmService::start(
        Arc::clone(&engine),
        ServiceConfig::default()
            .with_tenants(TENANTS)
            .with_keys_per_tenant(KEYS_PER_TENANT)
            .with_executors_per_shard(2),
    ));

    // One writer per tenant; each owns its whole tenant namespace and
    // writes strictly increasing values, so acked is exact per key.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut acked: BTreeMap<u64, u64> = BTreeMap::new();
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = v % KEYS_PER_TENANT as u64;
                    v += 1;
                    if svc.put(tenant, key, v).is_ok() {
                        acked.insert(key, v);
                    }
                }
                (tenant, acked)
            })
        })
        .collect();

    // Checkpoints race the traffic: each round fences the shards one
    // by one while the other shard keeps serving. Each round waits for
    // fresh submissions first, so a fast checkpoint loop cannot finish
    // before the writers have produced anything to race against.
    let deadline = deadline();
    let mut seen = 0u64;
    for _ in 0..CHECKPOINT_ROUNDS {
        while svc.accepted() < seen + 20 {
            check_deadline(deadline, "checkpoint_under_load: waiting for traffic");
            std::thread::yield_now();
        }
        seen = svc.accepted();
        svc.checkpoint().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let acked: Vec<(usize, BTreeMap<u64, u64>)> =
        join_by(writers, deadline, "checkpoint_under_load: writers");

    // No acked write lost or reordered: reads serve the last ack.
    for (tenant, keys) in &acked {
        for (&key, &value) in keys {
            assert_eq!(
                svc.get(*tenant, key).unwrap(),
                value,
                "tenant {tenant} key {key} lost its last acked write"
            );
        }
    }
    assert_eq!(
        svc.checkpoints(),
        (CHECKPOINT_ROUNDS * SHARDS) as u64,
        "every checkpoint round covered every shard"
    );

    // The histogram saw every ack, and no ack stalled pathologically
    // behind a checkpoint (10s is orders of magnitude past a fence +
    // snapshot on a memory store, but safe on a loaded CI runner).
    let hist = svc.ack_latency();
    let total_acked: usize = acked.iter().map(|(_, k)| k.len()).sum();
    assert!(total_acked > 0, "no traffic reached the service");
    assert!(hist.count >= total_acked as u64);
    assert!(
        hist.max < 10_000_000_000,
        "an ack stalled {}ms behind a checkpoint",
        hist.max / 1_000_000
    );

    svc.stop();
    for i in 0..SHARDS {
        engine.engine().shard(i).detach_trace();
    }
    let histories: Vec<_> = sinks
        .iter()
        .map(|s| s.drain_history().expect("recording stayed sound"))
        .collect();
    let expected = engine.read_all();
    drop(svc);
    drop(engine);

    // Clean recovery: checkpoint snapshot + log tail reproduce the
    // state exactly, and the tail is phantom/duplicate-free against
    // the history (complete=false: the checkpoints truncated the
    // already-snapshotted prefix out of the log).
    let (recovered, reports) = DurableEngine::<Runtime<P>>::recover_grouped(
        SHARDS,
        KEYS,
        config,
        stores,
        GroupCommitConfig::default(),
    )
    .unwrap();
    assert_eq!(recovered.read_all(), expected);
    for (shard, (history, report)) in histories.iter().zip(&reports).enumerate() {
        let violations = check_wal_commits(history, &wal_commits(report), false);
        assert!(
            violations.is_empty(),
            "shard {shard} phantom/duplicate WAL commits: {violations:?}"
        );
    }
}

#[test]
fn checkpoint_under_load_wb() {
    checkpoint_under_load::<Lsa>(&StmConfig::default().with_strategy(AccessStrategy::WriteBack));
}

#[test]
fn checkpoint_under_load_wt() {
    checkpoint_under_load::<Lsa>(&StmConfig::default().with_strategy(AccessStrategy::WriteThrough));
}

#[test]
fn checkpoint_under_load_tl2() {
    checkpoint_under_load::<Tl2Protocol>(&Tl2Config::default());
}
