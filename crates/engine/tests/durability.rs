//! Crash-consistency tests for the durable engine, on all three
//! backends (TinySTM write-back, TinySTM write-through, TL2): a killed
//! workload recovers to a per-shard prefix of the committed state, a
//! clean shutdown recovers exactly, checkpoints truncate without losing
//! state, and corruption fails loudly instead of diverging silently.

use std::sync::Arc;
use stm_engine::{DurableEngine, DurableError};
use stm_tl2::{Tl2, Tl2Config, Tl2Protocol};
use stm_wal::{CrashSwitch, GroupCommitConfig, MemStore, Recovery, TailStatus, WalError, WalStore};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, Stm, StmConfig};

const SHARDS: usize = 2;
const KEYS: usize = 48;
const OPS: usize = 240;

/// Build one [`MemStore`] per shard over a shared crash switch.
fn stores(switch: &Arc<CrashSwitch>) -> (Vec<Arc<MemStore>>, Vec<Arc<dyn WalStore>>) {
    let mems: Vec<Arc<MemStore>> = (0..SHARDS)
        .map(|_| MemStore::new(Arc::clone(switch)))
        .collect();
    let dyns = mems
        .iter()
        .map(|m| Arc::clone(m) as Arc<dyn WalStore>)
        .collect();
    (mems, dyns)
}

/// A fresh engine over `dyns`.
fn fresh<P: Protocol>(config: &P::Config, dyns: &[Arc<dyn WalStore>]) -> DurableEngine<Runtime<P>> {
    DurableEngine::new_grouped(
        SHARDS,
        KEYS,
        config,
        dyns.to_vec(),
        GroupCommitConfig::default(),
    )
    .unwrap()
}

/// Recover an engine from `dyns`.
fn recover<P: Protocol>(
    config: &P::Config,
    dyns: &[Arc<dyn WalStore>],
) -> Result<(DurableEngine<Runtime<P>>, Vec<Recovery>), DurableError> {
    DurableEngine::recover_grouped(
        SHARDS,
        KEYS,
        config,
        dyns.to_vec(),
        GroupCommitConfig::default(),
    )
}

/// The deterministic single-threaded workload: returns, per shard, the
/// issued `(key, value)` sequence in commit order.
fn drive<P: Protocol>(engine: &DurableEngine<Runtime<P>>) -> Vec<Vec<(u64, u64)>> {
    let mut issued = vec![Vec::new(); SHARDS];
    for i in 0..OPS {
        let key = ((i * 7 + 3) % KEYS) as u64;
        let value = 1_000 + i as u64;
        engine.put(key, value).unwrap();
        issued[engine.engine().route(key)].push((key, value));
    }
    issued
}

/// Clean shutdown: recovery reproduces the exact pre-crash state and
/// reports clean tails.
fn clean_shutdown_recovers_exactly<P: Protocol>(config: &P::Config) {
    let switch = CrashSwitch::unlimited();
    let (_mems, dyns) = stores(&switch);
    let engine: DurableEngine<Runtime<P>> = fresh(config, &dyns);
    drive(&engine);
    let expected = engine.read_all();
    drop(engine);

    let (recovered, reports) = recover::<P>(config, &dyns).unwrap();
    assert_eq!(recovered.read_all(), expected);
    for r in &reports {
        assert!(
            r.tail.is_clean(),
            "clean shutdown left a torn tail: {:?}",
            r.tail
        );
    }
}

/// Kill mid-run via a shared byte budget: each shard recovers to a
/// *prefix* of its committed sequence, and the recovered state is the
/// fold of exactly that prefix.
fn torn_tail_recovers_shard_prefixes<P: Protocol>(config: &P::Config, budget: u64) {
    let switch = CrashSwitch::after_bytes(budget);
    let (mems, dyns) = stores(&switch);
    let engine: DurableEngine<Runtime<P>> = fresh(config, &dyns);
    let issued = drive(&engine);
    drop(engine);
    assert!(
        switch.is_cut(),
        "budget {budget} was never exhausted — raise OPS or lower the budget"
    );
    let torn_bytes: usize = mems.iter().map(|m| m.log_len()).sum();
    assert!(torn_bytes > 0, "the cut landed before any log bytes");

    let (recovered, reports) = recover::<P>(config, &dyns).unwrap();
    let mut expected = std::collections::BTreeMap::new();
    for k in 0..KEYS as u64 {
        expected.insert(k, 0u64);
    }
    for (shard, report) in reports.iter().enumerate() {
        // The surviving records are exactly the first N issued commits
        // of this shard, in order (single writer ⇒ commit order =
        // issue order), each with the single write it performed.
        let n = report.records.len();
        assert!(
            n <= issued[shard].len(),
            "shard {shard} recovered more records than were issued"
        );
        for (rec, &(key, value)) in report.records.iter().zip(&issued[shard]) {
            assert_eq!(rec.writes.as_slice(), &[(key, value)], "shard {shard}");
        }
        for &(key, value) in &issued[shard][..n] {
            expected.insert(key, value);
        }
    }
    assert_eq!(recovered.read_all(), expected);
}

/// Checkpoint, write more, recover: the snapshot plus the log tail
/// reproduce the full state, and the log only holds post-checkpoint
/// records.
fn checkpoint_then_recover<P: Protocol>(config: &P::Config) {
    let switch = CrashSwitch::unlimited();
    let (mems, dyns) = stores(&switch);
    let engine: DurableEngine<Runtime<P>> = fresh(config, &dyns);
    drive(&engine);
    engine.checkpoint().unwrap();
    assert!(
        mems.iter().all(|m| m.log_len() == 0),
        "checkpoint must truncate the log"
    );
    for k in 0..8u64 {
        engine.put(k, 9_000 + k).unwrap();
    }
    let expected = engine.read_all();
    drop(engine);

    let (recovered, reports) = recover::<P>(config, &dyns).unwrap();
    assert_eq!(recovered.read_all(), expected);
    let replayed: usize = reports.iter().map(|r| r.records.len()).sum();
    assert_eq!(replayed, 8, "log should hold only post-checkpoint commits");
}

/// Damage an interior record while intact records follow: recovery must
/// refuse loudly (prefix recovery would silently drop a committed
/// write that later records build on).
fn interior_corruption_is_loud<P: Protocol>(config: &P::Config) {
    let switch = CrashSwitch::unlimited();
    let (mems, dyns) = stores(&switch);
    let engine: DurableEngine<Runtime<P>> = fresh(config, &dyns);
    drive(&engine);
    drop(engine);

    // Flip one payload bit of the first record of shard 0 (the frame
    // header is 8 bytes; byte 12 sits in the sequence field).
    assert!(mems[0].log_len() > 120, "need several records to corrupt");
    mems[0].flip_log_bit(12, 3);
    let err = match recover::<P>(config, &dyns) {
        Err(e) => e,
        Ok(_) => panic!("interior corruption must fail recovery"),
    };
    match err {
        DurableError::Wal { shard: 0, error } => assert!(
            matches!(
                error,
                WalError::InteriorCorruption { .. }
                    | WalError::SeqGap { .. }
                    | WalError::DuplicateCommit { .. }
            ),
            "unexpected violation: {error}"
        ),
        other => panic!("expected a shard-0 WAL error, got: {other}"),
    }
}

/// A truncated tail (crash-style chop, no bit damage) recovers the
/// remaining prefix and reports the tail.
fn chopped_tail_reports_and_recovers<P: Protocol>(config: &P::Config) {
    let switch = CrashSwitch::unlimited();
    let (mems, dyns) = stores(&switch);
    let engine: DurableEngine<Runtime<P>> = fresh(config, &dyns);
    drive(&engine);
    drop(engine);

    let full = mems[1].log_len();
    mems[1].truncate_log(full - 5); // mid-frame chop
    let (_, reports) = recover::<P>(config, &dyns).unwrap();
    assert!(
        matches!(reports[1].tail, TailStatus::Torn { dropped, .. } if dropped > 0),
        "chop must be reported: {:?}",
        reports[1].tail
    );
    assert!(reports[0].tail.is_clean());
}

fn wb() -> StmConfig {
    StmConfig::default().with_strategy(AccessStrategy::WriteBack)
}

fn wt() -> StmConfig {
    StmConfig::default().with_strategy(AccessStrategy::WriteThrough)
}

#[test]
fn clean_shutdown_all_backends() {
    clean_shutdown_recovers_exactly::<Lsa>(&wb());
    clean_shutdown_recovers_exactly::<Lsa>(&wt());
    clean_shutdown_recovers_exactly::<Tl2Protocol>(&Tl2Config::default());
}

#[test]
fn torn_tail_all_backends() {
    // Several budgets so the cut lands at different frame offsets.
    for budget in [777, 1_500, 3_001, 6_000] {
        torn_tail_recovers_shard_prefixes::<Lsa>(&wb(), budget);
        torn_tail_recovers_shard_prefixes::<Lsa>(&wt(), budget);
        torn_tail_recovers_shard_prefixes::<Tl2Protocol>(&Tl2Config::default(), budget);
    }
}

#[test]
fn checkpoint_all_backends() {
    checkpoint_then_recover::<Lsa>(&wb());
    checkpoint_then_recover::<Lsa>(&wt());
    checkpoint_then_recover::<Tl2Protocol>(&Tl2Config::default());
}

#[test]
fn interior_corruption_all_backends() {
    interior_corruption_is_loud::<Lsa>(&wb());
    interior_corruption_is_loud::<Lsa>(&wt());
    interior_corruption_is_loud::<Tl2Protocol>(&Tl2Config::default());
}

#[test]
fn chopped_tail_all_backends() {
    chopped_tail_reports_and_recovers::<Lsa>(&wb());
    chopped_tail_reports_and_recovers::<Lsa>(&wt());
    chopped_tail_reports_and_recovers::<Tl2Protocol>(&Tl2Config::default());
}

#[test]
fn recovered_engine_keeps_working() {
    let config = wb();
    let switch = CrashSwitch::unlimited();
    let (_mems, dyns) = stores(&switch);
    let engine: DurableEngine<Stm> = fresh(&config, &dyns);
    drive(&engine);
    drop(engine);

    // First recovery; keep writing through the recovered engine.
    let (recovered, _) = recover::<Lsa>(&config, &dyns).unwrap();
    for k in 0..KEYS as u64 {
        recovered.put(k, 70_000 + k).unwrap();
    }
    let expected = recovered.read_all();
    drop(recovered);

    // Second recovery sees the post-recovery writes too.
    let (again, _) = recover::<Lsa>(&config, &dyns).unwrap();
    assert_eq!(again.read_all(), expected);
}

#[test]
fn recovery_is_deterministic_across_backends() {
    // The same op sequence, crashed at the same byte budget, produces
    // the same recovered state whichever backend ran it: the log
    // format, not backend internals, defines the durable state.
    let mut states = Vec::new();
    for backend in 0..3 {
        let switch = CrashSwitch::after_bytes(2_222);
        let (_mems, dyns) = stores(&switch);
        match backend {
            0 => {
                let e: DurableEngine<Stm> = fresh(&wb(), &dyns);
                drive(&e);
            }
            1 => {
                let e: DurableEngine<Stm> = fresh(&wt(), &dyns);
                drive(&e);
            }
            _ => {
                let e: DurableEngine<Tl2> = fresh(&Tl2Config::default(), &dyns);
                drive(&e);
            }
        }
        let (r, _) = recover::<Lsa>(&wb(), &dyns).unwrap();
        states.push(r.read_all());
    }
    assert_eq!(states[0], states[1]);
    assert_eq!(states[1], states[2]);
}
