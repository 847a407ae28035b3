//! Stop-the-world coordination (Section 3.1, "Clock Management", and
//! Section 4.2).
//!
//! The paper uses one mechanism for two rare events: clock roll-over and
//! dynamic reconfiguration. A *fence* stops new transactions from
//! starting, waits until all active transactions have finished (committed
//! or aborted), runs a critical section (reset the clock and versions, or
//! swap the lock array), then lets transactions resume.
//!
//! The transaction fast path is two atomic RMWs (`enter`/`exit`); the
//! mutex + condvars are touched only while a fence is pending. Waits use
//! a short timeout as a belt-and-braces against lost-wakeup races between
//! the lock-free counters and the blocking slow path.
//!
//! ## Memory ordering (DESIGN.md §3, site Q1)
//!
//! `enter`/`exit` vs `fence` is a store-buffering (Dekker) pattern: the
//! enterer increments `active` and then re-checks `fence`, while the
//! fencer sets `fence` and then reads `active`. With only
//! Acquire/Release each side may miss the other's store — the enterer
//! proceeds under a fence it did not see while the fencer observes zero
//! active transactions — and the critical section (lock-array swap,
//! version zeroing) runs concurrently with a live transaction. Every
//! cross-checked operation on `active`/`fence` therefore stays
//! `SeqCst`; these are per-*attempt* costs (two RMWs per transaction),
//! not per-access, and are kept out of the hot read/write path.
//!
//! ## Fencers are serialized by their own mutex
//!
//! The Dekker argument above assumes one fencer owns `fence` from the
//! store that raises it to the store that lowers it. The mutex that
//! anchors the condvars cannot provide that: the drain wait
//! (`drained.wait_for`) releases it, so a second fencer could take it,
//! queue behind the first, and — once the first lowered the flag on
//! exit — run its critical section with `fence == false` while
//! transactions enter freely. `fencers` is therefore a separate mutex
//! held across the whole of [`Quiesce::fence`]; the condvar mutex keeps
//! only its wake-up role. Enterers never touch `fencers`.
//!
//! ## Layout
//!
//! `active` is RMW-ed twice by every attempt from every thread — the
//! most contended word in the system after the clock. `fence` is
//! read on the same path but written only when a fence starts/ends.
//! Each gets its own cache line so the `active` traffic does not
//! invalidate the read-mostly `fence` line, and neither shares a line
//! with the mutex/condvars used by the (cold) blocking slow path.

use crate::cacheline::CacheAligned;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// The quiesce gate. One per [`crate::Stm`].
#[derive(Debug)]
pub struct Quiesce {
    /// Number of transactions currently inside the gate. Own cache line
    /// (hammered by every attempt).
    active: CacheAligned<AtomicUsize>,
    /// Set while a fence is pending or running. Own line: read-mostly.
    fence: CacheAligned<AtomicBool>,
    /// Serializes fencers: held from raising `fence` to lowering it.
    fencers: Mutex<()>,
    /// Anchors the condvars (released while a fencer waits to drain).
    mutex: Mutex<()>,
    /// Signalled when `active` drains to zero (fencer waits here).
    drained: Condvar,
    /// Signalled when the fence is lifted (entering txs wait here).
    lifted: Condvar,
}

impl Default for Quiesce {
    fn default() -> Self {
        Self::new()
    }
}

impl Quiesce {
    /// A gate with no fence pending.
    pub fn new() -> Quiesce {
        Quiesce {
            active: CacheAligned::new(AtomicUsize::new(0)),
            fence: CacheAligned::new(AtomicBool::new(false)),
            fencers: Mutex::new(()),
            mutex: Mutex::new(()),
            drained: Condvar::new(),
            lifted: Condvar::new(),
        }
    }

    /// Enter the gate before starting a transaction attempt. Blocks while
    /// a fence is pending.
    ///
    /// Site Q1: the increment and the re-check are the enterer's half of
    /// the Dekker pattern — SeqCst required (module docs).
    #[inline]
    pub fn enter(&self) {
        loop {
            if self.fence.load(Ordering::SeqCst) {
                self.wait_unfenced();
            }
            self.active.fetch_add(1, Ordering::SeqCst);
            if !self.fence.load(Ordering::SeqCst) {
                return;
            }
            // A fence arrived between the check and the increment: back
            // out so the fencer can drain, then retry.
            self.exit();
        }
    }

    /// Leave the gate after the attempt finished (commit or abort).
    ///
    /// Site Q1: the decrement must be SeqCst — it is the store the
    /// fencer's `active` poll pairs with, and its Release half also
    /// publishes the finished attempt's memory effects to the fencer's
    /// critical section.
    #[inline]
    pub fn exit(&self) {
        let prev = self.active.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev >= 1, "exit without enter");
        if prev == 1 && self.fence.load(Ordering::SeqCst) {
            // We may be the last transaction a fencer is waiting for.
            let _g = self.mutex.lock();
            self.drained.notify_all();
        }
    }

    /// Enter the gate and return an RAII guard that, on drop — including
    /// a panic unwinding out of the transaction body — clears the
    /// thread's `active_start` oldest-reader marker and exits the gate.
    /// Without this, a panicking worker (tolerated by the harness
    /// driver's `catch_unwind`) would leave `active` permanently
    /// non-zero and wedge every later [`Quiesce::fence`].
    #[inline]
    pub fn enter_guarded<'a>(&'a self, active_start: &'a AtomicU64) -> ActiveGuard<'a> {
        self.enter();
        ActiveGuard {
            quiesce: self,
            active_start,
        }
    }

    /// Number of transactions currently inside (diagnostics/tests).
    pub fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Whether a fence is currently pending/running.
    pub fn fenced(&self) -> bool {
        self.fence.load(Ordering::SeqCst)
    }

    /// Run `critical` with no transaction inside the gate.
    ///
    /// Must not be called from inside an `enter`ed section (deadlock);
    /// the STM run loop always exits before triggering roll-over or
    /// reconfiguration.
    pub fn fence<R>(&self, critical: impl FnOnce() -> R) -> R {
        // Held until the flag is lowered: the drain wait below releases
        // `mutex`, so it cannot serialize fencers (module docs).
        let _turn = self.fencers.lock();
        let mut guard = self.mutex.lock();
        // Site Q1: the fencer's half of the Dekker pattern — the flag
        // store and the drain poll must both be SeqCst (module docs).
        self.fence.store(true, Ordering::SeqCst);
        while self.active.load(Ordering::SeqCst) > 0 {
            // Timeout bounds the lost-wakeup window between the last
            // exit's fence check and our store above.
            self.drained
                .wait_for(&mut guard, Duration::from_micros(200));
        }
        let result = critical();
        self.fence.store(false, Ordering::SeqCst);
        self.lifted.notify_all();
        result
    }

    #[cold]
    fn wait_unfenced(&self) {
        let mut guard = self.mutex.lock();
        while self.fence.load(Ordering::SeqCst) {
            self.lifted.wait_for(&mut guard, Duration::from_micros(200));
        }
    }
}

/// Guard for one entered transaction attempt; see
/// [`Quiesce::enter_guarded`].
#[derive(Debug)]
pub struct ActiveGuard<'a> {
    quiesce: &'a Quiesce,
    /// The owning thread's oldest-active-snapshot marker (`u64::MAX`
    /// when idle); pinning it past the attempt would freeze limbo
    /// reclamation.
    active_start: &'a AtomicU64,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        // Release: everything the attempt did (in particular its reads
        // of limbo-protected memory) must happen-before a reclaimer
        // that observes the idle marker and deallocates. The opposite
        // direction (a *starting* attempt vs the reclaimer) is the
        // Dekker pattern at site S2 in `stm.rs` and needs SeqCst there,
        // not here.
        self.active_start.store(u64::MAX, Ordering::Release);
        self.quiesce.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn enter_exit_tracks_active() {
        let q = Quiesce::new();
        assert_eq!(q.active(), 0);
        q.enter();
        q.enter();
        assert_eq!(q.active(), 2);
        q.exit();
        assert_eq!(q.active(), 1);
        q.exit();
        assert_eq!(q.active(), 0);
    }

    #[test]
    fn guard_exits_even_when_the_attempt_panics() {
        let q = Arc::new(Quiesce::new());
        let active_start = AtomicU64::new(7);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = q.enter_guarded(&active_start);
            assert_eq!(q.active(), 1);
            panic!("intentional test panic: attempt body");
        }));
        assert!(caught.is_err());
        assert_eq!(q.active(), 0, "guard must exit on unwind");
        assert_eq!(active_start.load(Ordering::SeqCst), u64::MAX);
        // A later fence must not hang.
        let saw = q.fence(|| q.active());
        assert_eq!(saw, 0);
    }

    #[test]
    fn fence_runs_with_zero_active() {
        let q = Quiesce::new();
        let saw = q.fence(|| q.active());
        assert_eq!(saw, 0);
        assert!(!q.fenced());
    }

    #[test]
    fn fence_waits_for_active_transactions() {
        let q = Arc::new(Quiesce::new());
        q.enter();
        let q2 = Arc::clone(&q);
        let fencer = thread::spawn(move || {
            q2.fence(|| {
                assert_eq!(q2.active(), 0);
                Instant::now()
            })
        });
        // Give the fencer time to block.
        thread::sleep(Duration::from_millis(30));
        let released_at = Instant::now();
        q.exit();
        let fenced_at = fencer.join().unwrap();
        assert!(
            fenced_at >= released_at,
            "fence ran before the active transaction exited"
        );
    }

    #[test]
    fn enter_blocks_while_fenced() {
        let q = Arc::new(Quiesce::new());
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));

        let q_f = Arc::clone(&q);
        let release_f = Arc::clone(&release);
        let fencer = thread::spawn(move || {
            q_f.fence(|| {
                while !release_f.load(Ordering::SeqCst) {
                    thread::sleep(Duration::from_millis(1));
                }
            });
        });
        // Wait until the fence is up.
        while !q.fenced() {
            thread::sleep(Duration::from_millis(1));
        }
        let q_e = Arc::clone(&q);
        let entered_e = Arc::clone(&entered);
        let enterer = thread::spawn(move || {
            q_e.enter();
            entered_e.store(true, Ordering::SeqCst);
            q_e.exit();
        });
        thread::sleep(Duration::from_millis(20));
        assert!(
            !entered.load(Ordering::SeqCst),
            "enter proceeded under a fence"
        );
        release.store(true, Ordering::SeqCst);
        fencer.join().unwrap();
        enterer.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn concurrent_stress_no_fence_sees_active() {
        let q = Arc::new(Quiesce::new());
        let stop = Arc::new(AtomicBool::new(false));
        let fences_run = Arc::new(AtomicU64::new(0));
        // Transactions whose `enter()` has returned. Not `q.active()`:
        // that also counts an enterer that saw the fence and is backing
        // out — harmless, and visible inside the critical section.
        let running = Arc::new(AtomicUsize::new(0));

        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                let running = Arc::clone(&running);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        q.enter();
                        running.fetch_add(1, Ordering::SeqCst);
                        std::hint::spin_loop();
                        running.fetch_sub(1, Ordering::SeqCst);
                        q.exit();
                    }
                })
            })
            .collect();

        let q_f = Arc::clone(&q);
        let fences = Arc::clone(&fences_run);
        let running_f = Arc::clone(&running);
        let fencer = thread::spawn(move || {
            for _ in 0..50 {
                q_f.fence(|| {
                    assert_eq!(
                        running_f.load(Ordering::SeqCst),
                        0,
                        "fence observed running transactions"
                    );
                    fences.fetch_add(1, Ordering::Relaxed);
                });
                thread::yield_now();
            }
        });

        fencer.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(fences_run.load(Ordering::Relaxed), 50);
    }

    /// Regression (ROADMAP item 0): two fencers queued behind one held
    /// transaction. The drain wait releases the condvar mutex, so
    /// without the `fencers` mutex the second fencer ran its critical
    /// section after the first lowered the flag — with transactions
    /// entering freely. Each round fails with high probability on that
    /// code, so 25 rounds make a pass there effectively impossible.
    #[test]
    fn queued_fencers_never_run_unfenced_or_overlap() {
        const ROUNDS: usize = 25;
        const CRITICAL: Duration = Duration::from_millis(20);
        for round in 0..ROUNDS {
            let q = Arc::new(Quiesce::new());
            // Set only after `enter()` returned, cleared before `exit()`.
            let running = Arc::new(AtomicUsize::new(0));
            let in_critical = Arc::new(AtomicUsize::new(0));
            let unfenced = Arc::new(AtomicU64::new(0));
            let overlaps = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));

            q.enter(); // the held transaction both fencers queue behind
            let fencers: Vec<_> = (0..2)
                .map(|_| {
                    let (q, running, in_critical) = (
                        Arc::clone(&q),
                        Arc::clone(&running),
                        Arc::clone(&in_critical),
                    );
                    let (unfenced, overlaps) = (Arc::clone(&unfenced), Arc::clone(&overlaps));
                    thread::spawn(move || {
                        q.fence(|| {
                            if in_critical.fetch_add(1, Ordering::SeqCst) != 0 {
                                overlaps.fetch_add(1, Ordering::SeqCst);
                            }
                            let start = Instant::now();
                            while start.elapsed() < CRITICAL {
                                if running.load(Ordering::SeqCst) != 0 {
                                    unfenced.fetch_add(1, Ordering::SeqCst);
                                }
                                std::hint::spin_loop();
                            }
                            in_critical.fetch_sub(1, Ordering::SeqCst);
                        })
                    })
                })
                .collect();
            while !q.fenced() {
                thread::yield_now();
            }
            thread::sleep(Duration::from_millis(5)); // let both fencers queue
            let enterer = {
                let (q, running, stop) = (Arc::clone(&q), Arc::clone(&running), Arc::clone(&stop));
                thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        q.enter();
                        running.fetch_add(1, Ordering::SeqCst);
                        for _ in 0..64 {
                            std::hint::spin_loop();
                        }
                        running.fetch_sub(1, Ordering::SeqCst);
                        q.exit();
                        thread::sleep(Duration::from_micros(50));
                    }
                })
            };
            q.exit(); // release the held transaction: the fencers drain
            for f in fencers {
                f.join().unwrap();
            }
            stop.store(true, Ordering::SeqCst);
            enterer.join().unwrap();
            assert_eq!(
                unfenced.load(Ordering::SeqCst),
                0,
                "round {round}: a critical section ran while a transaction was running"
            );
            assert_eq!(
                overlaps.load(Ordering::SeqCst),
                0,
                "round {round}: two fence critical sections overlapped"
            );
        }
    }

    #[test]
    fn sequential_fences_all_complete() {
        let q = Quiesce::new();
        let mut total = 0;
        for i in 0..10 {
            total += q.fence(|| i);
        }
        assert_eq!(total, 45);
    }
}
