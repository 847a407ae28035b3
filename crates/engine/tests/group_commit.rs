//! Group-commit crash matrix: a batched flush/ack path must lose no
//! *acknowledged* commit, on any backend, through a power cut landing
//! mid-batch.
//!
//! The acked/unacked split is the whole point of the stage/ack seam:
//! a staged-but-unflushed record may legitimately vanish with a crash
//! (its transaction was still blocked in `publish`, so memory never
//! ran ahead of the log), but a commit whose `put` returned `Ok`
//! before the cut was flushed *and* synced — it must survive the
//! reboot. Each writer thread owns a disjoint key range and writes
//! strictly increasing values, so "survived" is checkable per key:
//!
//! ```text
//! last_acked(key) <= recovered(key) <= last_submitted(key)
//! ```
//!
//! (The right inequality holds because values only come from this
//! run; the left is the durability guarantee under test.)
//!
//! "Acked before the cut" is observed as `put() == Ok` with
//! `!switch.is_cut()` *afterwards*: the ack happened-before the
//! observation, the observation saw the switch intact, so the batch's
//! bytes were admitted before the cut and survive the reboot. (After
//! the cut, a [`MemStore`] keeps returning `Ok` while dropping bytes
//! — real hardware losing power mid-write — so post-cut "acks" are
//! exactly the ones the assertion must not count.)
//!
//! The surviving log is additionally certified against an stm-check
//! recorded history (`check_wal_commits`, phantom/duplicate freedom),
//! and a slow-store test pins the amortization claim itself: under
//! concurrent committers, the mean flushed batch carries more than
//! one record.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use stm_check::{check_wal_commits, TraceSink, WalCommit};
use stm_engine::DurableEngine;
use stm_tl2::{Tl2Config, Tl2Protocol};
use stm_wal::{CrashSwitch, GroupCommitConfig, MemStore, Recovery, StoreError, WalStore};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, Stm, StmConfig};

const SHARDS: usize = 2;
const THREADS: usize = 4;
const KEYS_PER_THREAD: usize = 16;
const KEYS: usize = THREADS * KEYS_PER_THREAD;
const OPS: usize = 500;

fn stores(switch: &Arc<CrashSwitch>) -> Vec<Arc<dyn WalStore>> {
    (0..SHARDS)
        .map(|_| MemStore::new(Arc::clone(switch)) as Arc<dyn WalStore>)
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

/// The crash half of the matrix, generic over the backend: run a
/// grouped engine into a byte-budget power cut, reboot, recover
/// (grouped again), and hold the acked-survival and phantom-freedom
/// obligations.
fn crash_matrix_run<P: Protocol>(config: &P::Config) {
    let group = GroupCommitConfig::default();
    let switch = CrashSwitch::after_bytes(7_000);
    let dyns = stores(&switch);
    let engine: DurableEngine<Runtime<P>> =
        DurableEngine::new_grouped(SHARDS, KEYS, config, dyns.clone(), group).unwrap();
    let sinks: Vec<_> = (0..SHARDS).map(|_| TraceSink::new()).collect();
    for (i, sink) in sinks.iter().enumerate() {
        engine.engine().shard(i).attach_trace(sink);
    }

    // Each thread owns keys [t*KPT, (t+1)*KPT) and writes strictly
    // increasing values; it returns (last_acked, last_submitted).
    type KeyMap = BTreeMap<u64, u64>;
    let (acked, submitted) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let engine = &engine;
                let switch = &switch;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xBA7C_4ED0 ^ t as u64);
                    let mut acked: KeyMap = BTreeMap::new();
                    let mut submitted: KeyMap = BTreeMap::new();
                    for i in 0..OPS {
                        let key =
                            (t * KEYS_PER_THREAD) as u64 + rng.gen_range(0..KEYS_PER_THREAD as u64);
                        let value = i as u64 + 1;
                        submitted.insert(key, value);
                        if engine.put(key, value).is_ok() && !switch.is_cut() {
                            // Ok observed with the switch intact: the
                            // batch was admitted before the cut.
                            acked.insert(key, value);
                        }
                    }
                    (acked, submitted)
                })
            })
            .collect();
        let mut acked: KeyMap = BTreeMap::new();
        let mut submitted: KeyMap = BTreeMap::new();
        for h in handles {
            let (a, s) = h.join().unwrap();
            acked.extend(a);
            submitted.extend(s);
        }
        (acked, submitted)
    });
    assert!(switch.is_cut(), "budget never exhausted — raise OPS");
    assert!(!acked.is_empty(), "the cut landed before any ack");

    for i in 0..SHARDS {
        engine.engine().shard(i).detach_trace();
    }
    let histories: Vec<_> = sinks
        .iter()
        .map(|s| s.drain_history().expect("recording stayed sound"))
        .collect();
    drop(engine);

    // Power-cycle: only what each store's shadow (admitted bytes)
    // holds survives.
    let rebooted: Vec<Arc<dyn WalStore>> = dyns
        .iter()
        .map(|s| MemStore::rebooted(s.as_ref()) as Arc<dyn WalStore>)
        .collect();
    let (recovered, reports) =
        DurableEngine::<Runtime<P>>::recover_grouped(SHARDS, KEYS, config, rebooted, group)
            .unwrap();

    // No acked commit lost; no value from the future.
    let state = recovered.read_all();
    for key in 0..KEYS as u64 {
        let got = state.get(&key).copied().unwrap_or(0);
        let floor = acked.get(&key).copied().unwrap_or(0);
        let ceil = submitted.get(&key).copied().unwrap_or(0);
        assert!(
            got >= floor,
            "key {key}: recovered {got} < last acked {floor} — an acked commit was lost"
        );
        assert!(
            got <= ceil,
            "key {key}: recovered {got} > last submitted {ceil} — phantom value"
        );
    }

    // The surviving records are a phantom- and duplicate-free subset
    // of the recorded history.
    let mut survived = 0usize;
    for (shard, (history, report)) in histories.iter().zip(&reports).enumerate() {
        survived += report.records.len();
        let violations = check_wal_commits(history, &wal_commits(report), false);
        assert!(
            violations.is_empty(),
            "shard {shard} phantom/duplicate WAL commits: {violations:?}"
        );
    }
    assert!(survived > 0, "the cut landed before any record was logged");
}

#[test]
fn crash_mid_batch_loses_no_acked_commit_wb() {
    crash_matrix_run::<Lsa>(&StmConfig::default().with_strategy(AccessStrategy::WriteBack));
}

#[test]
fn crash_mid_batch_loses_no_acked_commit_wt() {
    crash_matrix_run::<Lsa>(&StmConfig::default().with_strategy(AccessStrategy::WriteThrough));
}

#[test]
fn crash_mid_batch_loses_no_acked_commit_tl2() {
    crash_matrix_run::<Tl2Protocol>(&Tl2Config::default());
}

/// A store whose appends take real time: while the leader of one
/// batch is inside `append`, the other committers stage behind it, so
/// the next flush carries several records. Pins the amortization
/// claim (mean batch > 1 under concurrent committers) even on a
/// single-core runner, where genuine overlap is otherwise rare.
struct SlowStore {
    inner: Arc<MemStore>,
}

impl WalStore for SlowStore {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        std::thread::sleep(std::time::Duration::from_millis(2));
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<(), StoreError> {
        self.inner.sync()
    }
    fn log_bytes(&self) -> Vec<u8> {
        self.inner.log_bytes()
    }
    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }
    fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        self.inner.checkpoint(snapshot)
    }
}

#[test]
fn concurrent_committers_share_flushes() {
    let group = GroupCommitConfig::default();
    let slow = Arc::new(SlowStore {
        inner: MemStore::healthy(),
    }) as Arc<dyn WalStore>;
    let engine: DurableEngine<Stm> =
        DurableEngine::new_grouped(1, KEYS, &StmConfig::default(), vec![slow], group).unwrap();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = &engine;
            scope.spawn(move || {
                for i in 0..100u64 {
                    let key = (t * KEYS_PER_THREAD) as u64 + (i % KEYS_PER_THREAD as u64);
                    engine.put(key, i + 1).unwrap();
                }
            });
        }
    });
    let (flushes, records) = engine.group_flush_stats();
    assert_eq!(records, (THREADS * 100) as u64, "every commit was flushed");
    let mean = engine.group_mean_batch().unwrap();
    assert!(
        mean > 1.0,
        "no amortization: {records} records in {flushes} flushes (mean {mean:.2})"
    );
    // And nothing was lost to the batching: a clean recovery sees
    // every final value.
    let expected = engine.read_all();
    let store = Arc::clone(engine.store(0));
    drop(engine);
    let (recovered, _) =
        DurableEngine::<Stm>::recover_grouped(1, KEYS, &StmConfig::default(), vec![store], group)
            .unwrap();
    assert_eq!(recovered.read_all(), expected);
}
