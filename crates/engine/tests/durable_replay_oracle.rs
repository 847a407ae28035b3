//! Replay oracle: the WAL and the recorded history certify each other.
//!
//! A durable engine run is observed twice — once by the per-shard WAL
//! (what the durable layer claims was committed) and once by the
//! stm-check trace sinks (what the STM actually did). The two artifacts
//! share a commit identity, `(epoch, commit timestamp)`, so
//! [`stm_check::check_wal_commits`] can prove:
//!
//! * **M1.5 (no phantom writes)** — every WAL record matches a
//!   committed update transaction, crashed or not;
//! * **M1.6 (no missing writes)** — after a clean shutdown the WAL
//!   holds *every* committed update transaction;
//! * and independently, the recorded history itself checks opaque, and
//!   recovery reproduces the pre-shutdown state exactly.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use stm_check::{check_history, check_wal_commits, CheckOpts, History, TraceSink, WalCommit};
use stm_engine::DurableEngine;
use stm_wal::{CrashSwitch, GroupCommitConfig, MemStore, Recovery, WalStore};
use tinystm::{Stm, StmConfig};

const SHARDS: usize = 2;
const KEYS: usize = 64;
const THREADS: u64 = 3;
const OPS: usize = 400;

fn stores(switch: &Arc<CrashSwitch>) -> Vec<Arc<dyn WalStore>> {
    (0..SHARDS)
        .map(|_| MemStore::new(Arc::clone(switch)) as Arc<dyn WalStore>)
        .collect()
}

/// Drive a mixed put/get workload from several threads, recording every
/// shard into its own sink; returns the drained per-shard histories.
fn run_recorded(engine: &DurableEngine<Stm>) -> Vec<History> {
    let sinks: Vec<_> = (0..SHARDS).map(|_| TraceSink::new()).collect();
    for (i, sink) in sinks.iter().enumerate() {
        engine.engine().shard(i).attach_trace(sink);
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0x0D01_AB1E ^ t);
                for i in 0..OPS {
                    let key = rng.gen_range(0u64..KEYS as u64);
                    if i % 4 == 0 {
                        engine.get(key);
                    } else {
                        engine.put(key, t * 1_000_000 + i as u64).unwrap();
                    }
                }
            });
        }
    });
    for i in 0..SHARDS {
        engine.engine().shard(i).detach_trace();
    }
    sinks
        .iter()
        .map(|s| s.drain_history().expect("recording stayed sound"))
        .collect()
}

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

/// Clean shutdown: per shard, the WAL holds exactly the committed
/// update transactions of the recorded history (no phantoms, no
/// duplicates, none missing), the history itself is opaque, and
/// recovery reproduces the final state.
#[test]
fn clean_wal_equals_recorded_history() {
    let group = GroupCommitConfig::default();
    let switch = CrashSwitch::unlimited();
    let dyns = stores(&switch);
    let engine: DurableEngine<Stm> =
        DurableEngine::new_grouped(SHARDS, KEYS, &StmConfig::default(), dyns.clone(), group)
            .unwrap();
    let histories = run_recorded(&engine);
    let expected = engine.read_all();
    drop(engine);

    let (recovered, reports) =
        DurableEngine::<Stm>::recover_grouped(SHARDS, KEYS, &StmConfig::default(), dyns, group)
            .unwrap();
    assert_eq!(recovered.read_all(), expected);
    for (shard, (history, report)) in histories.iter().zip(&reports).enumerate() {
        let check = check_history(history, &CheckOpts::default());
        assert!(check.is_clean(), "shard {shard} history:\n{check}");
        let violations = check_wal_commits(history, &wal_commits(report), true);
        assert!(
            violations.is_empty(),
            "shard {shard} WAL/history divergence: {violations:?}"
        );
    }
}

/// Kill at a byte budget mid-run: the surviving WAL must still be
/// phantom- and duplicate-free against the history — every record the
/// log kept corresponds to a real committed transaction (a crash may
/// lose commits, never invent them).
#[test]
fn crashed_wal_is_phantom_free() {
    let group = GroupCommitConfig::default();
    let switch = CrashSwitch::after_bytes(9_000);
    let dyns = stores(&switch);
    let engine: DurableEngine<Stm> =
        DurableEngine::new_grouped(SHARDS, KEYS, &StmConfig::default(), dyns.clone(), group)
            .unwrap();
    let histories = run_recorded(&engine);
    drop(engine);
    assert!(switch.is_cut(), "budget was never exhausted — raise OPS");

    let (_, reports) =
        DurableEngine::<Stm>::recover_grouped(SHARDS, KEYS, &StmConfig::default(), dyns, group)
            .unwrap();
    let mut survived = 0usize;
    for (shard, (history, report)) in histories.iter().zip(&reports).enumerate() {
        survived += report.records.len();
        let violations = check_wal_commits(history, &wal_commits(report), false);
        assert!(
            violations.is_empty(),
            "shard {shard} phantom/duplicate WAL commits: {violations:?}"
        );
    }
    assert!(survived > 0, "the cut landed before any commit was logged");
}
