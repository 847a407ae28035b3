//! The attempt lifecycle the runtime owns for every protocol: the
//! memory logs, the wasted-read charge, and the WAL publish with its
//! failure path, and the statistics counters it charges. Each check
//! runs on every backend (TinySTM write-back and write-through, TL2).
//! Lives in the TL2 crate because it is the one that can see both
//! protocols.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;
use stm_api::mem::WordBlock;
use stm_api::wal::{PublishError, WalSink};
use stm_api::{AbortReason, RunError, TmTx, TxKind};
use stm_telemetry::flight;
use stm_tl2::Tl2;
use tinystm::runtime::{Protocol, Runtime};
use tinystm::{AccessStrategy, Stm, StmConfig, TCell, TxExt};

#[path = "../../core/tests/support/deadline.rs"]
mod deadline;
use deadline::join_by;

macro_rules! on_every_backend {
    ($check:ident) => {
        for strategy in [AccessStrategy::WriteBack, AccessStrategy::WriteThrough] {
            $check(Stm::new(StmConfig::default().with_strategy(strategy)).expect("valid config"));
        }
        $check(Tl2::with_defaults());
    };
}

fn name<P: Protocol>(tm: &Runtime<P>) -> &'static str {
    P::backend_name(&tm.config())
}

#[test]
fn aborted_attempt_reclaims_its_allocation() {
    fn check<P: Protocol>(tm: Runtime<P>) {
        let mut first = true;
        let block = tm.run(TxKind::ReadWrite, |tx| {
            let p = tx.malloc(16)?;
            if std::mem::take(&mut first) {
                tx.retry()?;
            }
            Ok(p)
        });
        // The aborted attempt's block is freed by its rollback, without
        // limbo; the committed one is the caller's until it frees it.
        let s = tm.stats();
        assert_eq!(s.limbo_pending, 0, "{}", name(&tm));
        assert_eq!(s.totals.allocs, 2, "{}", name(&tm));
        // SAFETY: `block` is the committed 16-word block, freed once.
        tm.run(TxKind::ReadWrite, |tx| unsafe { tx.free(block, 16) });
        tm.reclaim_now();
        let s = tm.stats();
        assert_eq!(s.totals.frees, 1, "{}", name(&tm));
        assert_eq!(s.limbo_pending, 0, "{}", name(&tm));
    }
    on_every_backend!(check);
}

#[test]
fn alloc_then_free_in_one_commit_goes_through_limbo() {
    fn check<P: Protocol>(tm: Runtime<P>) {
        tm.run(TxKind::ReadWrite, |tx| {
            let p = tx.malloc(2)?;
            // SAFETY: `p` is a live 2-word block of this transaction,
            // freed once.
            unsafe {
                tx.store_word(p, 7)?;
                tx.free(p, 2)
            }
        });
        assert_eq!(tm.stats().limbo_pending, 1, "{}", name(&tm));
        assert_eq!(tm.reclaim_now(), 1, "{}", name(&tm));
        assert_eq!(tm.stats().totals.frees, 1, "{}", name(&tm));
    }
    on_every_backend!(check);
}

#[test]
fn only_an_aborted_attempts_reads_are_wasted() {
    fn check<P: Protocol>(tm: Runtime<P>) {
        let cell = WordBlock::new(1);
        let mut first = true;
        tm.run(TxKind::ReadWrite, |tx| {
            for _ in 0..10 {
                // SAFETY: the block outlives the transaction.
                unsafe { tx.load_word(cell.as_ptr()) }?;
            }
            if std::mem::take(&mut first) {
                tx.retry()?;
            }
            // SAFETY: as above.
            unsafe { tx.store_word(cell.as_ptr(), 1) }
        });
        let t = tm.stats().totals;
        assert_eq!(t.reads, 20, "{}: 10 reads per attempt", name(&tm));
        assert_eq!(t.wasted_reads, 10, "{}: the aborted attempt's", name(&tm));
    }
    on_every_backend!(check);
}

#[test]
fn counters_are_exact_and_monotone_under_concurrency() {
    /// Distinct cells each transaction reads; the first is the counter
    /// both workers increment, so their attempts conflict and abort.
    const K: usize = 8;
    const N: u64 = 10_000;
    fn check<P: Protocol>(tm: Runtime<P>) {
        let what = format!("counters under concurrency on {}", name(&tm));
        let deadline = deadline::deadline();
        let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..K).map(|_| TCell::new(0)).collect());
        let start = Arc::new(Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (tm, cells, start) = (tm.clone(), Arc::clone(&cells), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..N {
                        tm.run(TxKind::ReadWrite, |tx| {
                            let mut count = 0;
                            for (i, cell) in cells.iter().enumerate() {
                                let v = tx.read(cell)?;
                                if i == 0 {
                                    count = v;
                                }
                            }
                            tx.write(&cells[0], count + 1)
                        });
                    }
                })
            })
            .collect();
        // Every counter a concurrent reader sees only moves forward:
        // `since` saturates a decrease to zero, so adding it back to
        // the earlier snapshot misses the later one.
        let done = Arc::new(AtomicBool::new(false));
        let poller = {
            let (tm, done, what) = (tm.clone(), Arc::clone(&done), what.clone());
            std::thread::spawn(move || {
                let mut prev = tm.stats().totals;
                while !done.load(Ordering::Relaxed) {
                    let now = tm.stats().totals;
                    assert_eq!(prev.merged(&now.since(&prev)), now, "{what}: went back");
                    prev = now;
                    std::thread::yield_now();
                }
            })
        };
        join_by(workers, deadline, &what);
        done.store(true, Ordering::Relaxed);
        join_by(vec![poller], deadline, &what);
        let t = tm.stats().totals;
        assert_eq!(cells[0].read_direct(), 2 * N, "{what}: lost update");
        assert_eq!(t.commits, 2 * N, "{what}");
        assert_eq!(
            t.reads,
            K as u64 * t.commits + t.wasted_reads,
            "{what}: {t:?}"
        );
        assert!(t.writes >= t.commits, "{what}: {t:?}");
    }
    on_every_backend!(check);
}

/// A sink whose storage is gone: every publish fails.
struct FailingSink;

impl WalSink for FailingSink {
    fn publish(&self, _: u64, _: u64, _: &[(usize, usize)]) -> Result<(), PublishError> {
        Err(PublishError::new("storage gone"))
    }
}

#[test]
fn failed_publish_rolls_the_attempt_back_and_ends_the_run() {
    fn check<P: Protocol>(tm: Runtime<P>) {
        let cell = WordBlock::new(1);
        cell.write(0, 1);
        // Raw pointers are !Send; ferry the address as usize.
        let addr = cell.as_ptr() as usize;
        tm.attach_wal(&(Arc::new(FailingSink) as Arc<dyn WalSink>));
        let outcome = tm.try_run(TxKind::ReadWrite, |tx| {
            tx.malloc(4)?;
            // SAFETY: the block outlives the transaction.
            unsafe { tx.store_word(addr as *mut usize, 5) }
        });
        tm.detach_wal();
        let backend = name(&tm);
        assert_eq!(outcome, Err(RunError::WalFailed), "{backend}");
        assert_eq!(cell.read(0), 1, "{backend}: memory changed");
        let s = tm.stats();
        assert_eq!(s.totals.aborts_by_reason[AbortReason::WalFailed.index()], 1);
        assert_eq!((s.totals.allocs, s.limbo_pending), (1, 0), "{backend}");
        // The locks were released: another thread's transaction on the
        // same word commits.
        let (done, finished) = mpsc::channel();
        let writer = {
            let tm = tm.clone();
            std::thread::spawn(move || {
                // SAFETY: the block outlives the transaction (joined
                // below, or the test fails first).
                tm.run(TxKind::ReadWrite, |tx| unsafe {
                    tx.store_word(addr as *mut usize, 9)
                });
                done.send(()).expect("test waits");
            })
        };
        finished
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{backend}: a lock stayed held after the failed publish"));
        writer.join().expect("writer commits");
        assert_eq!(cell.read(0), 9, "{backend}");
    }
    on_every_backend!(check);
}

/// Keeps every record it is handed.
#[derive(Default)]
struct RecordingSink(Mutex<Vec<Vec<(usize, usize)>>>);

impl WalSink for RecordingSink {
    fn publish(&self, _: u64, _: u64, writes: &[(usize, usize)]) -> Result<(), PublishError> {
        self.0
            .lock()
            .expect("no panics under the lock")
            .push(writes.to_vec());
        Ok(())
    }
}

#[test]
fn sink_receives_address_sorted_unique_pairs() {
    fn check<P: Protocol>(tm: Runtime<P>) {
        let block = WordBlock::new(4);
        let p = block.as_ptr();
        let sink = Arc::new(RecordingSink::default());
        tm.attach_wal(&(Arc::clone(&sink) as Arc<dyn WalSink>));
        // SAFETY: the block outlives the transactions.
        tm.run(TxKind::ReadWrite, |tx| unsafe {
            tx.store_word(p.add(3), 30)?;
            tx.store_word(p.add(1), 10)?;
            tx.store_word(p.add(3), 31)?;
            tx.store_word(p, 1)
        });
        tm.run_ro(|tx| unsafe { tx.load_word(p) });
        tm.detach_wal();
        let records = sink.0.lock().expect("no panics under the lock").clone();
        let expected = [(0, 1), (1, 10), (3, 31)].map(|(i, v)| (p.wrapping_add(i) as usize, v));
        assert_eq!(records, vec![expected.to_vec()], "{}", name(&tm));
    }
    on_every_backend!(check);
}
