//! Corruption simulation (strata-core style): drive a committer, damage
//! the stored bytes the way real crashes and media faults do, and
//! assert recovery either restores a prefix-consistent state or fails
//! loudly — never silently diverges.
//!
//! Three fault families:
//! * **torn tail** — the crash cut an append mid-record (simulated
//!   byte-by-byte over every cut point);
//! * **bit flips** — single-bit damage at every byte of the log, which
//!   must surface as either tail-drop (prefix recovery) or a hard
//!   interior-corruption error, depending on where the damage sits;
//! * **snapshot damage** — checkpoint bytes flipped, which has no
//!   fallback and must always be a hard error.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use stm_wal::{
    decode_log, recover_store, replay_onto, snapshot_of, CrashSwitch, GroupCommitConfig,
    GroupCommitter, LogWriter, MemStore, TailStatus, WalError, WalStore,
};

fn committer(store: &Arc<MemStore>) -> Arc<GroupCommitter> {
    let writer = LogWriter::new(0, Arc::clone(store) as Arc<dyn WalStore>, 0);
    GroupCommitter::new(Arc::new(writer), GroupCommitConfig::default())
}

/// Deterministic workload: n commits over a small key space; returns
/// the store, the full (shadow) log bytes, and the expected state after
/// each commit prefix.
fn scripted_log(commits: usize, seed: u64) -> (Arc<MemStore>, Vec<u8>, Vec<BTreeMap<u64, u64>>) {
    let store = MemStore::healthy();
    let gc = committer(&store);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state = BTreeMap::new();
    let mut prefixes = vec![state.clone()];
    for ts in 1..=commits as u64 {
        let n = rng.gen_range(1usize..4);
        let mut writes: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0u64..16), rng.gen_range(0u64..1000)))
            .collect();
        writes.sort_unstable_by_key(|&(k, _)| k);
        writes.dedup_by_key(|&mut (k, _)| k);
        gc.commit(0, ts, &writes).unwrap();
        for &(k, v) in &writes {
            state.insert(k, v);
        }
        prefixes.push(state.clone());
    }
    let bytes = store.log_bytes();
    (store, bytes, prefixes)
}

#[test]
fn torn_tail_at_every_byte_recovers_a_commit_prefix() {
    let (_, bytes, prefixes) = scripted_log(20, 0xA11CE);
    for cut in 0..=bytes.len() {
        let switch = CrashSwitch::after_bytes(cut as u64);
        let store = MemStore::new(switch);
        store.append(&bytes).unwrap(); // one big append, torn at `cut`
        let recovery = recover_store(&*store).unwrap_or_else(|e| {
            panic!("cut at byte {cut}: recovery must succeed on a pure tear, got {e}")
        });
        // The recovered state must be exactly the state after some
        // prefix of the committed sequence — and with a single log the
        // prefix length is the record count.
        let n = recovery.records.len();
        assert_eq!(
            recovery.state, prefixes[n],
            "cut at byte {cut}: state is not the {n}-commit prefix state"
        );
        if cut == bytes.len() {
            assert!(recovery.tail.is_clean());
            assert_eq!(n, prefixes.len() - 1, "uncrashed log must replay fully");
        }
    }
}

#[test]
fn torn_tail_from_shared_byte_budget_over_many_appends() {
    // Same as above but the tear comes from the CrashSwitch budget
    // running out across many small appends (the engine-shaped path).
    let (_, bytes, prefixes) = scripted_log(30, 0xB0B);
    let mut rng = SmallRng::seed_from_u64(7);
    for _ in 0..50 {
        let cut = rng.gen_range(0usize..bytes.len() + 1);
        let switch = CrashSwitch::after_bytes(cut as u64);
        let store = MemStore::new(switch);
        // Re-drive the appends record by record.
        let (records, _) = decode_log(&bytes).unwrap();
        for r in &records {
            store.append(&r.encode()).unwrap();
        }
        let recovery = recover_store(&*store).expect("pure tear must recover");
        assert_eq!(recovery.state, prefixes[recovery.records.len()]);
    }
}

#[test]
fn single_bit_flips_never_silently_diverge() {
    let (_, bytes, prefixes) = scripted_log(12, 0xF1195);
    let full_state = prefixes.last().unwrap();
    for byte in 0..bytes.len() {
        let store = MemStore::healthy();
        store.append(&bytes).unwrap();
        store.flip_log_bit(byte, (byte % 8) as u8);
        match recover_store(&*store) {
            // Loud failure: acceptable for damage anywhere.
            Err(
                WalError::InteriorCorruption { .. }
                | WalError::SeqGap { .. }
                | WalError::EpochRegression { .. }
                | WalError::DuplicateCommit { .. }
                | WalError::TimestampRegression { .. }
                | WalError::EpochBeforeSnapshot { .. },
            ) => {}
            Err(WalError::SnapshotCorrupt { .. }) => {
                panic!("flip at {byte}: log damage misreported as snapshot damage")
            }
            // Survival: only by dropping a damaged tail, and the
            // surviving records must replay to a commit-prefix state.
            Ok(recovery) => {
                let n = recovery.records.len();
                assert_eq!(
                    recovery.state, prefixes[n],
                    "flip at byte {byte}: recovered state matches no commit prefix"
                );
                assert!(
                    !recovery.tail.is_clean() || recovery.state == *full_state,
                    "flip at byte {byte}: clean tail but altered state"
                );
            }
        }
    }
}

#[test]
fn interior_damage_with_intact_followers_is_always_loud() {
    let (_, bytes, _) = scripted_log(10, 0xDEAD);
    let (records, _) = decode_log(&bytes).unwrap();
    // Zero out the first record's payload region entirely: massive
    // damage followed by intact records -> must be a hard error, not a
    // "recovered" empty state.
    let first_len = records[0].encode().len();
    let store = MemStore::healthy();
    store.append(&bytes).unwrap();
    for b in 8..first_len {
        store.flip_log_bit(b, 0);
    }
    match recover_store(&*store) {
        Err(WalError::InteriorCorruption { offset: 0, .. }) => {}
        other => panic!("expected interior corruption at offset 0, got {other:?}"),
    }
}

#[test]
fn snapshot_bit_flips_are_always_hard_errors() {
    let state: BTreeMap<u64, u64> = (0..8u64).map(|k| (k, k * 10)).collect();
    let snap = snapshot_of(&state, 3).encode();
    for byte in 0..snap.len() {
        let store = MemStore::healthy();
        store.checkpoint(&snap).unwrap();
        // Damage the stored snapshot via a rebuilt store (MemStore has
        // no snapshot flip helper; install the damaged bytes directly).
        let mut bad = snap.clone();
        bad[byte] ^= 0x08;
        let damaged = MemStore::healthy();
        damaged.checkpoint(&bad).unwrap();
        assert!(
            matches!(
                recover_store(&*damaged),
                Err(WalError::SnapshotCorrupt { .. })
            ),
            "snapshot flip at byte {byte} was not loud"
        );
    }
}

#[test]
fn checkpoint_then_crash_recovers_snapshot_plus_log_tail() {
    let switch = CrashSwitch::unlimited();
    let store = MemStore::new(Arc::clone(&switch));
    let gc = committer(&store);
    let mut state = BTreeMap::new();
    for ts in 1..=10u64 {
        gc.commit(0, ts, &[(ts % 4, ts * 100)]).unwrap();
        state.insert(ts % 4, ts * 100);
    }
    // Checkpoint at epoch 1 (as the engine does inside a quiesce fence),
    // then keep committing in the new epoch.
    store.checkpoint(&snapshot_of(&state, 1).encode()).unwrap();
    for ts in 1..=5u64 {
        gc.commit(1, ts, &[(10 + ts, ts)]).unwrap();
        state.insert(10 + ts, ts);
    }
    switch.cut_now();
    gc.commit(1, 6, &[(99, 99)]).unwrap(); // "succeeds", lost
    let recovery = recover_store(&*store).unwrap();
    assert_eq!(recovery.snapshot_epoch, 1);
    assert_eq!(recovery.records.len(), 5);
    assert_eq!(recovery.state, state);
    assert!(!recovery.state.contains_key(&99));
}

#[test]
fn double_replay_reconstructs_identical_state() {
    // M1.2 + M1.7 end to end: recover twice from the same store, and
    // fold the records twice onto one state; all three agree.
    let (store, _, prefixes) = scripted_log(25, 0x5EED);
    let r1 = recover_store(&*store).unwrap();
    let r2 = recover_store(&*store).unwrap();
    assert_eq!(r1, r2);
    let mut twice = r1.state.clone();
    replay_onto(&mut twice, &r1.records);
    assert_eq!(twice, r1.state);
    assert_eq!(r1.state, *prefixes.last().unwrap());
}

#[test]
fn truncate_log_helper_matches_byte_budget_semantics() {
    let (_, bytes, prefixes) = scripted_log(8, 0x7AB);
    let store = MemStore::healthy();
    store.append(&bytes).unwrap();
    let keep = bytes.len() / 2;
    store.truncate_log(keep);
    assert_eq!(store.log_len(), keep);
    let recovery = recover_store(&*store).unwrap();
    assert_eq!(recovery.state, prefixes[recovery.records.len()]);
    match recovery.tail {
        // `keep` may land exactly on a record boundary.
        TailStatus::Clean => {}
        TailStatus::Torn { offset, dropped } | TailStatus::CorruptTail { offset, dropped } => {
            assert_eq!(offset + dropped, keep);
        }
    }
}
