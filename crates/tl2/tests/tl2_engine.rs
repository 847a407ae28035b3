//! Engine-level correctness tests for the TL2 baseline, mirroring the
//! TinySTM core's suite plus TL2-specific behaviours (no extension,
//! commit-time locking).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use stm_api::mem::WordBlock;
use stm_api::{AbortReason, TmTx, TxKind};
use stm_tl2::{Tl2, Tl2Config};
use tinystm::CmPolicy;

fn tl2() -> Tl2 {
    Tl2::new(
        Tl2Config::default()
            .with_locks_log2(16)
            .with_cm(CmPolicy::Backoff {
                base: 8,
                max_spins: 4096,
            }),
    )
    .unwrap()
}

#[test]
fn lost_update_free_counter() {
    let tm = tl2();
    let cell = Arc::new(WordBlock::new(1));
    let threads = 4;
    let per = 2_000;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let tm = tm.clone();
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let addr = cell.as_ptr();
                for _ in 0..per {
                    tm.run(TxKind::ReadWrite, |tx| {
                        let v = unsafe { tx.load_word(addr) }?;
                        unsafe { tx.store_word(addr, v + 1) }
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.read(0), threads * per);
    assert_eq!(tm.stats().totals.commits, (threads * per) as u64);
}

#[test]
fn constant_sum_with_read_only_auditor() {
    let tm = tl2();
    let n = 16;
    let initial = 500i64;
    let accounts = Arc::new(WordBlock::new(n));
    for i in 0..n {
        accounts.write(i, initial as usize);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let (tm, accounts) = (tm.clone(), accounts.clone());
        handles.push(std::thread::spawn(move || {
            let mut seed = 0xfeed ^ t;
            for _ in 0..3_000 {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let from = (seed >> 33) as usize % n;
                let to = (seed >> 17) as usize % n;
                tm.run(TxKind::ReadWrite, |tx| unsafe {
                    let f = tx.load_word(accounts.as_ptr().add(from))? as i64;
                    tx.store_word(accounts.as_ptr().add(from), (f - 1) as usize)?;
                    let v = tx.load_word(accounts.as_ptr().add(to))? as i64;
                    tx.store_word(accounts.as_ptr().add(to), (v + 1) as usize)
                });
            }
        }));
    }
    {
        let (tm, accounts, stop) = (tm.clone(), accounts.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let sum: i64 = tm.run_ro(|tx| {
                    let mut s = 0i64;
                    for i in 0..n {
                        s += unsafe { tx.load_word(accounts.as_ptr().add(i)) }? as i64;
                    }
                    Ok(s)
                });
                assert_eq!(sum, initial * n as i64, "torn snapshot");
            }
        }));
    }
    for h in handles.drain(..3) {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = (0..n).map(|i| accounts.read(i) as i64).sum();
    assert_eq!(total, initial * n as i64);
}

#[test]
fn read_after_write_sees_buffered_value() {
    let tm = tl2();
    let cell = WordBlock::new(4);
    tm.run(TxKind::ReadWrite, |tx| unsafe {
        tx.store_word(cell.as_ptr(), 11)?;
        tx.store_word(cell.as_ptr().add(2), 22)?;
        // Buffered values visible before commit.
        assert_eq!(tx.load_word(cell.as_ptr())?, 11);
        assert_eq!(tx.load_word(cell.as_ptr().add(2))?, 22);
        // Unwritten word reads from memory.
        assert_eq!(tx.load_word(cell.as_ptr().add(1))?, 0);
        // Overwrite updates in place (write set stays compact).
        tx.store_word(cell.as_ptr(), 33)?;
        assert_eq!(tx.load_word(cell.as_ptr())?, 33);
        Ok(())
    });
    assert_eq!(cell.read(0), 33);
    assert_eq!(cell.read(2), 22);
}

#[test]
fn no_snapshot_extension_aborts_stale_read() {
    // Reader samples rv, writer commits, reader touches the written
    // stripe → ExtendFailed abort (TL2 restarts instead of extending).
    let tm = tl2();
    let x = Arc::new(WordBlock::new(1));
    let y = Arc::new(WordBlock::new(1));
    let b1 = Arc::new(std::sync::Barrier::new(2));
    let b2 = Arc::new(std::sync::Barrier::new(2));
    let writer = {
        let (tm, y, b1, b2) = (tm.clone(), y.clone(), b1.clone(), b2.clone());
        std::thread::spawn(move || {
            b1.wait();
            tm.run(TxKind::ReadWrite, |tx| unsafe {
                tx.store_word(y.as_ptr(), 5)
            });
            b2.wait();
        })
    };
    let mut first = true;
    let before = tm.stats().totals;
    tm.run(TxKind::ReadWrite, |tx| {
        let _ = unsafe { tx.load_word(x.as_ptr()) }?;
        if std::mem::take(&mut first) {
            b1.wait();
            b2.wait();
        }
        let v = unsafe { tx.load_word(y.as_ptr()) }?;
        // On the retry the write is visible.
        assert_eq!(v, 5);
        unsafe { tx.store_word(x.as_ptr(), 1) }
    });
    writer.join().unwrap();
    let d = tm.stats().totals.since(&before);
    assert!(
        d.aborts_by_reason[AbortReason::ExtendFailed.index()] >= 1,
        "stale read did not abort (aborts: {:?})",
        d.aborts_by_reason
    );
    assert_eq!(d.extensions, 0, "TL2 must never extend");
}

#[test]
fn panic_in_transaction_is_clean() {
    let tm = tl2();
    let cell = WordBlock::new(1);
    cell.write(0, 5);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tm.run(TxKind::ReadWrite, |tx| {
            unsafe { tx.store_word(cell.as_ptr(), 99) }?;
            panic!("user bug");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(r.is_err());
    // Commit never ran: memory untouched, no locks held.
    let v = tm.run(TxKind::ReadWrite, |tx| unsafe {
        tx.load_word(cell.as_ptr())
    });
    assert_eq!(v, 5);
}

#[test]
fn clock_rollover_under_load() {
    let tm = Tl2::new(Tl2Config::default().with_locks_log2(10).with_max_clock(256)).unwrap();
    let cell = Arc::new(WordBlock::new(1));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let tm = tm.clone();
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let addr = cell.as_ptr();
                for _ in 0..1_000 {
                    tm.run(TxKind::ReadWrite, |tx| {
                        let v = unsafe { tx.load_word(addr) }?;
                        unsafe { tx.store_word(addr, v + 1) }
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.read(0), 3_000);
    assert!(tm.stats().rollovers >= 1);
}

#[test]
fn malloc_free_lifecycle() {
    let tm = tl2();
    let holder = WordBlock::new(1);
    tm.run(TxKind::ReadWrite, |tx| {
        let p = tx.malloc(4)?;
        unsafe { tx.store_word(p, 123) }?;
        unsafe { tx.store_word(holder.as_ptr(), p as usize) }
    });
    let p = holder.read(0) as *mut usize;
    tm.run(TxKind::ReadWrite, |tx| unsafe { tx.free(p, 4) });
    assert_eq!(tm.stats().limbo_pending, 1);
    assert_eq!(tm.reclaim_now(), 1);
}

#[test]
fn limbo_stays_bounded_without_explicit_reclaim() {
    // The run loop reclaims every 1024 commits per thread, so committed
    // frees cannot pile up between `reclaim_now` calls.
    let tm = Tl2::with_defaults();
    let holder = WordBlock::new(1);
    for _ in 0..10_000 {
        tm.run(TxKind::ReadWrite, |tx| {
            let p = tx.malloc(2)?;
            unsafe { tx.store_word(holder.as_ptr(), p as usize) }
        });
        let p = holder.read(0) as *mut usize;
        tm.run(TxKind::ReadWrite, |tx| unsafe { tx.free(p, 2) });
    }
    let pending = tm.stats().limbo_pending;
    assert!(pending < 1024, "{pending} frees pending in limbo");
}

#[test]
fn read_only_stats_and_no_writes() {
    let tm = tl2();
    let cell = WordBlock::new(1);
    cell.write(0, 77);
    for _ in 0..4 {
        let v = tm.run_ro(|tx| unsafe { tx.load_word(cell.as_ptr()) });
        assert_eq!(v, 77);
    }
    let t = tm.stats().totals;
    assert_eq!(t.ro_commits, 4);
    assert_eq!(t.writes, 0);
}

#[test]
fn write_write_conflict_aborts_loser_at_commit() {
    // Deterministic: A buffers a write and stalls; B commits to the same
    // stripe; A's commit must fail validation or lock acquisition and
    // retry.
    let tm = tl2();
    let cell = Arc::new(WordBlock::new(1));
    let b1 = Arc::new(std::sync::Barrier::new(2));
    let b2 = Arc::new(std::sync::Barrier::new(2));
    let other = {
        let (tm, cell, b1, b2) = (tm.clone(), cell.clone(), b1.clone(), b2.clone());
        std::thread::spawn(move || {
            b1.wait();
            tm.run(TxKind::ReadWrite, |tx| unsafe {
                let v = tx.load_word(cell.as_ptr())?;
                tx.store_word(cell.as_ptr(), v + 100)
            });
            b2.wait();
        })
    };
    let mut first = true;
    tm.run(TxKind::ReadWrite, |tx| {
        let v = unsafe { tx.load_word(cell.as_ptr()) }?;
        unsafe { tx.store_word(cell.as_ptr(), v + 1) }?;
        if std::mem::take(&mut first) {
            b1.wait(); // B commits +100 while our write is buffered
            b2.wait();
        }
        Ok(())
    });
    other.join().unwrap();
    // Both increments present: +100 and +1 (after retry on fresh value).
    assert_eq!(cell.read(0), 101);
    assert!(tm.stats().totals.aborts >= 1);
}

#[test]
fn backend_name_is_tl2() {
    use stm_api::TmHandle;
    assert_eq!(tl2().backend_name(), "tl2");
}
