//! Edge-case tests for the TinySTM core: incarnation overflow,
//! read-only extension failures, commit validation skipping, limbo
//! epochs, and configuration error paths.

use std::sync::Arc;
use stm_api::mem::WordBlock;
use stm_api::{AbortReason, TmTx, TxKind};
use tinystm::lockword::MAX_INCARNATION;
use tinystm::{AccessStrategy, CmPolicy, ConfigError, Stm, StmConfig, TCell, TxExt};

#[test]
fn write_through_incarnation_overflow_gets_fresh_version() {
    // Abort a write-through transaction on the same stripe more times
    // than the 3-bit incarnation can count; the overflow path must take
    // a fresh version from the clock and the cell must stay correct.
    let stm = Stm::new(StmConfig::default().with_strategy(AccessStrategy::WriteThrough)).unwrap();
    let cell = TCell::new(7u64);
    let clock_before = stm.clock_now();
    for _ in 0..(MAX_INCARNATION + 3) {
        let mut first = true;
        stm.run(TxKind::ReadWrite, |tx| {
            tx.write(&cell, 999)?;
            if std::mem::take(&mut first) {
                tx.retry()?; // undo + release with bumped incarnation
            }
            // Second attempt: immediately retry again? No — commit so
            // the next loop iteration starts from a clean value.
            Ok(())
        });
        // Reset the value for the next round.
        stm.run(TxKind::ReadWrite, |tx| tx.write(&cell, 7));
    }
    // The incarnation overflowed at least once: the clock must have been
    // force-bumped beyond just the commits (2 commits per round).
    let commits = stm.stats().totals.commits;
    assert!(
        stm.clock_now() > clock_before + commits / 2,
        "no evidence of forced version refresh (clock {}, commits {commits})",
        stm.clock_now()
    );
    assert_eq!(cell.read_direct(), 7);
}

#[test]
fn consecutive_aborts_on_one_stripe_write_through() {
    // Same stripe, alternating abort/commit; memory must never leak a
    // dirty value to a concurrent reader.
    let stm = Stm::new(
        StmConfig::default()
            .with_strategy(AccessStrategy::WriteThrough)
            .with_cm(CmPolicy::Immediate),
    )
    .unwrap();
    let cell = Arc::new(TCell::new(0u64));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let (stm, cell, stop) = (stm.clone(), cell.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let v = stm.run_ro(|tx| tx.read(&cell));
                assert_ne!(v, 999, "dirty write-through value escaped");
            }
        })
    };
    for i in 0..2_000u64 {
        let mut first = true;
        stm.run(TxKind::ReadWrite, |tx| {
            tx.write(&cell, 999)?; // direct write, then maybe abort
            if std::mem::take(&mut first) {
                tx.retry()?;
            }
            tx.write(&cell, i % 10)
        });
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    reader.join().unwrap();
    assert!(cell.read_direct() < 10);
}

#[test]
fn read_only_stale_read_aborts_with_extend_failed() {
    // A read-only transaction keeps no read set, so a version newer
    // than its snapshot cannot be tolerated: ExtendFailed, then retry
    // succeeds with a fresh snapshot.
    let stm = Stm::with_defaults();
    let x = Arc::new(TCell::new(1u64));
    let y = Arc::new(TCell::new(1u64));
    let b1 = Arc::new(std::sync::Barrier::new(2));
    let b2 = Arc::new(std::sync::Barrier::new(2));
    let writer = {
        let (stm, y, b1, b2) = (stm.clone(), y.clone(), b1.clone(), b2.clone());
        std::thread::spawn(move || {
            b1.wait();
            stm.run(TxKind::ReadWrite, |tx| tx.write(&y, 2));
            b2.wait();
        })
    };
    let mut first = true;
    let before = stm.stats().totals;
    let sum = stm.run_ro(|tx| {
        let vx = tx.read(&x)?;
        if std::mem::take(&mut first) {
            b1.wait();
            b2.wait();
        }
        let vy = tx.read(&y)?;
        Ok(vx + vy)
    });
    writer.join().unwrap();
    assert_eq!(sum, 3, "retry must observe the committed write");
    let d = stm.stats().totals.since(&before);
    assert_eq!(
        d.aborts_by_reason[AbortReason::ExtendFailed.index()],
        1,
        "expected exactly one RO extension failure"
    );
    assert_eq!(d.extensions, 0, "read-only must never extend");
}

#[test]
fn update_transaction_extends_instead_of_aborting() {
    // The same interleaving with an update transaction extends.
    let stm = Stm::with_defaults();
    let x = Arc::new(TCell::new(1u64));
    let y = Arc::new(TCell::new(1u64));
    let b1 = Arc::new(std::sync::Barrier::new(2));
    let b2 = Arc::new(std::sync::Barrier::new(2));
    let writer = {
        let (stm, y, b1, b2) = (stm.clone(), y.clone(), b1.clone(), b2.clone());
        std::thread::spawn(move || {
            b1.wait();
            stm.run(TxKind::ReadWrite, |tx| tx.write(&y, 2));
            b2.wait();
        })
    };
    let mut first = true;
    let before = stm.stats().totals;
    let sum = stm.run(TxKind::ReadWrite, |tx| {
        let vx = tx.read(&x)?;
        if std::mem::take(&mut first) {
            b1.wait();
            b2.wait();
        }
        let vy = tx.read(&y)?;
        tx.write(&x, vx)?; // stay an update transaction
        Ok(vx + vy)
    });
    writer.join().unwrap();
    assert_eq!(sum, 3);
    let d = stm.stats().totals.since(&before);
    assert!(d.extensions >= 1, "update tx should have extended");
    assert_eq!(d.aborts, 0, "no abort needed: x was still valid");
}

#[test]
fn commit_validation_skipped_when_clock_adjacent() {
    // Serial execution: every commit has wv == end + 1 and skips
    // validation entirely.
    let stm = Stm::with_defaults();
    let cell = TCell::new(0u64);
    for i in 0..50 {
        stm.run(TxKind::ReadWrite, |tx| tx.write(&cell, i));
    }
    let t = stm.stats().totals;
    assert_eq!(t.commit_validation_skips, 50);
    assert_eq!(t.validations, 0);
}

#[test]
fn snapshot_accessors_make_sense() {
    let stm = Stm::with_defaults();
    let cell = TCell::new(0u64);
    stm.run(TxKind::ReadWrite, |tx| tx.write(&cell, 1));
    stm.run(TxKind::ReadWrite, |tx| {
        assert!(tx.snapshot_start() >= 1, "clock advanced by prior commit");
        assert_eq!(tx.snapshot_start(), tx.snapshot_end());
        assert_eq!(tx.read_set_len(), 0);
        assert_eq!(tx.write_set_stripes(), 0);
        let _ = tx.read(&cell)?;
        assert_eq!(tx.read_set_len(), 1);
        tx.write(&cell, 2)?;
        assert_eq!(tx.write_set_stripes(), 1);
        Ok(())
    });
}

#[test]
fn config_error_paths_via_stm_new() {
    assert!(matches!(
        Stm::new(StmConfig::default().with_locks_log2(0)),
        Err(ConfigError::LocksOutOfRange(0))
    ));
    assert!(matches!(
        Stm::new(StmConfig::default().with_locks_log2(27)),
        Err(ConfigError::LocksOutOfRange(27))
    ));
    assert!(matches!(
        Stm::new(StmConfig::default().with_shifts(17)),
        Err(ConfigError::ShiftsOutOfRange(17))
    ));
    assert!(matches!(
        Stm::new(StmConfig::default().with_max_clock(1)),
        Err(ConfigError::MaxClockTooSmall(1))
    ));
}

#[test]
fn reconfigure_rejects_invalid_configs_without_disruption() {
    let stm = Stm::with_defaults();
    let cell = TCell::new(5u64);
    assert!(stm
        .reconfigure(StmConfig::default().with_locks_log2(0))
        .is_err());
    // STM still fully functional.
    stm.run(TxKind::ReadWrite, |tx| tx.modify(&cell, |v| v + 1));
    assert_eq!(cell.read_direct(), 6);
    assert_eq!(stm.stats().reconfigurations, 0);
}

#[test]
fn strategy_switch_via_reconfigure() {
    // Reconfiguration can even switch write-back <-> write-through
    // (versions reset behind the fence).
    let stm = Stm::new(StmConfig::default()).unwrap();
    let cell = TCell::new(1u64);
    stm.run(TxKind::ReadWrite, |tx| tx.write(&cell, 2));
    stm.reconfigure(stm.config().with_strategy(AccessStrategy::WriteThrough))
        .unwrap();
    stm.run(TxKind::ReadWrite, |tx| tx.write(&cell, 3));
    assert_eq!(cell.read_direct(), 3);
    use stm_api::TmHandle;
    assert_eq!(stm.backend_name(), "tinystm-wt");
}

#[test]
fn limbo_respects_active_snapshots() {
    // A long-running reader pins the epoch: frees committed after its
    // start must not be reclaimed while it runs.
    let stm = Stm::with_defaults();
    let holder = Arc::new(TCell::new(0usize));
    // Allocate and publish.
    {
        let holder = &holder;
        stm.run(TxKind::ReadWrite, |tx| {
            let p = tx.malloc(2)?;
            tx.write(holder, p as usize)
        });
    }
    let p = holder.read_direct() as *mut usize;

    let gate_in = Arc::new(std::sync::Barrier::new(2));
    let gate_out = Arc::new(std::sync::Barrier::new(2));
    let reader = {
        let (stm, gi, go) = (stm.clone(), gate_in.clone(), gate_out.clone());
        let holder = Arc::clone(&holder);
        std::thread::spawn(move || {
            let mut first = true;
            stm.run(TxKind::ReadWrite, |tx| {
                let _ = tx.read(&holder)?;
                if std::mem::take(&mut first) {
                    gi.wait(); // freeing tx commits now
                    go.wait();
                }
                tx.write(&holder, 0)
            });
        })
    };
    gate_in.wait();
    // Free the block while the reader transaction is still live.
    stm.run(TxKind::ReadWrite, |tx| unsafe { tx.free(p, 2) });
    assert_eq!(stm.stats().limbo_pending, 1);
    // Reclamation must refuse: the reader started before the free.
    assert_eq!(stm.reclaim_now(), 0, "reclaimed under an active reader");
    gate_out.wait();
    reader.join().unwrap();
    // Now it can go.
    assert_eq!(stm.reclaim_now(), 1);
}

#[test]
fn backend_names() {
    use stm_api::TmHandle;
    let wb = Stm::new(StmConfig::default()).unwrap();
    assert_eq!(wb.backend_name(), "tinystm-wb");
    let wt = Stm::new(StmConfig::default().with_strategy(AccessStrategy::WriteThrough)).unwrap();
    assert_eq!(wt.backend_name(), "tinystm-wt");
}

#[test]
fn word_blocks_shared_between_many_cells_and_stripes() {
    // Lots of independent cells hammered through one tiny lock array:
    // false sharing galore, still correct.
    let stm = Stm::new(StmConfig::default().with_locks_log2(1)).unwrap(); // 2 locks!
    let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..64).map(|_| TCell::new(0)).collect());
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let (stm, cells) = (stm.clone(), cells.clone());
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    let idx = ((t * 500 + i) % 64) as usize;
                    stm.run(TxKind::ReadWrite, |tx| {
                        let v = tx.read(&cells[idx])?;
                        tx.write(&cells[idx], v + 1)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = (0..64).map(|i| cells[i].read_direct()).sum();
    assert_eq!(total, 2_000);
}

#[test]
fn huge_transaction_many_stripes() {
    // One transaction touching more stripes than the lock array has
    // entries (wrap-around in the hash).
    let stm = Stm::new(StmConfig::default().with_locks_log2(4)).unwrap();
    let block = WordBlock::new(256);
    stm.run(TxKind::ReadWrite, |tx| {
        for i in 0..256 {
            unsafe { tx.store_word(block.as_ptr().add(i), i) }?;
        }
        Ok(())
    });
    stm.run(TxKind::ReadOnly, |tx| {
        for i in 0..256 {
            assert_eq!(unsafe { tx.load_word(block.as_ptr().add(i)) }?, i);
        }
        Ok(())
    });
}

#[test]
fn stats_display_is_readable() {
    let stm = Stm::with_defaults();
    let c = TCell::new(0u64);
    stm.run(TxKind::ReadWrite, |tx| {
        let _ = tx.read(&c)?;
        tx.write(&c, 1)
    });
    let mut first = true;
    stm.run(TxKind::ReadWrite, |tx| {
        if std::mem::take(&mut first) {
            tx.retry()?;
        }
        tx.write(&c, 2)
    });
    let text = stm.stats().to_string();
    assert!(text.contains("commits: 2"), "got: {text}");
    assert!(text.contains("explicit=1"), "got: {text}");
    assert!(text.contains("reconfigurations: 0"), "got: {text}");
}

#[test]
fn validation_skip_fraction_math() {
    use tinystm::StatsSnapshot;
    let mut s = StatsSnapshot::default();
    assert_eq!(s.validation_skip_fraction(), 0.0);
    s.val_locks_processed = 25;
    s.val_locks_skipped = 75;
    assert!((s.validation_skip_fraction() - 0.75).abs() < 1e-12);
}

#[test]
fn panicking_transaction_body_does_not_wedge_the_fence() {
    // The bench harness tolerates panicking workers (catch_unwind), so
    // an unwind through `Stm::run` must release the quiesce gate and
    // the oldest-reader marker; otherwise the next fence (clock
    // roll-over or reconfiguration) would spin forever.
    let stm = Stm::with_defaults();
    let c = TCell::new(0u64);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        stm.run(TxKind::ReadWrite, |tx| {
            let _ = tx.read(&c)?;
            panic!("intentional test panic: tx body");
            #[allow(unreachable_code)]
            Ok(())
        })
    }));
    assert!(caught.is_err());
    // Reconfiguration runs a full quiesce fence: it must complete.
    stm.reconfigure(StmConfig::default().with_locks_log2(10))
        .expect("fence completed after a panicked attempt");
    // And the instance still commits transactions afterwards.
    stm.run(TxKind::ReadWrite, |tx| tx.write(&c, 9));
    let seen = stm.run(TxKind::ReadOnly, |tx| tx.read(&c));
    assert_eq!(seen, 9);
}
