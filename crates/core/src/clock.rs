//! The global time base: a shared integer counter, as in LSA and TL2
//! (Section 3.1, "Clock Management").
//!
//! Commit timestamps are obtained with an atomic fetch-and-increment.
//! When the configured maximum is reached the clock reports overflow and
//! the STM runs the roll-over protocol: quiesce all transactions, zero
//! every version number, and reset the clock (see `quiesce.rs` /
//! `Runtime::handle_overflow`).
//!
//! ## Memory ordering (DESIGN.md §3, sites C1–C3)
//!
//! The clock is the synchronization spine of the time-based protocol,
//! so its two hot operations deliberately keep `SeqCst`:
//!
//! * **C1 `increment` / `force_increment`** — `SeqCst` RMW. The AcqRel
//!   half is load-bearing: a transaction whose snapshot (or commit
//!   timestamp) covers a writer's commit time acquires everything that
//!   writer did *before* its own clock RMW — in particular its
//!   hierarchy-counter increments, which the validation fast path must
//!   observe (H1/H2 in `hierarchy.rs`). The upgrade from AcqRel to
//!   SeqCst is free on x86-64 (both compile to `lock xadd`) and buys
//!   the single total order the limbo-reclamation argument below uses.
//! * **C2 `now`** — `SeqCst` load. The Acquire half pairs with C1 as
//!   above. The SeqCst half participates in a store-buffering (Dekker)
//!   pattern with `active_start` publication: a starting transaction
//!   stores its oldest-reader marker and *then* samples the clock,
//!   while the limbo reclaimer is ordered on the other side (see
//!   `runtime.rs` site S2); with anything weaker both sides could miss each
//!   other and a block could be reclaimed while a just-starting
//!   snapshot can still reach it. A SeqCst *load* costs the same as an
//!   Acquire load on x86-64, so there is nothing to win by splitting
//!   this into two entry points.
//! * **C3 `reset` / `set_max` / `max`** — cold configuration paths that
//!   only run inside a quiesce fence (no concurrent transactions); the
//!   fence's own synchronization publishes them, `Relaxed` suffices.
//!
//! ## Layout
//!
//! `now` is RMW-ed by every committing update transaction; `max` is
//! read on the same path but written only at reconfiguration. Each gets
//! its own cache line so the commit-time RMW traffic on `now` does not
//! invalidate the read-mostly `max` line (or a neighboring allocation).

use crate::cacheline::CacheAligned;
use core::sync::atomic::{AtomicU64, Ordering};

/// Returned by [`GlobalClock::increment`] when the roll-over threshold is
/// crossed; the committing transaction aborts with `ClockOverflow` and
/// triggers the roll-over before retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockOverflow;

/// A monotonically increasing shared counter.
///
/// Ordering and layout rationale in the module docs; per-site tags
/// (C1–C3) match DESIGN.md §3.
#[derive(Debug)]
pub struct GlobalClock {
    /// Current time. Own cache line: every committer RMWs it.
    now: CacheAligned<AtomicU64>,
    /// Roll-over threshold. Own line: read-mostly, must not ride the
    /// bouncing `now` line.
    max: CacheAligned<AtomicU64>,
}

impl GlobalClock {
    /// A clock starting at 0 that overflows past `max`.
    pub fn new(max: u64) -> GlobalClock {
        GlobalClock {
            now: CacheAligned::new(AtomicU64::new(0)),
            max: CacheAligned::new(AtomicU64::new(max)),
        }
    }

    /// Current time. Transactions sample this at start and when
    /// extending snapshots.
    ///
    /// Site C2: SeqCst load (Acquire pairs with committers' C1 RMWs;
    /// SeqCst orders the begin-path sample against `active_start`
    /// publication — see module docs).
    #[inline]
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Acquire a fresh commit timestamp (strictly greater than every
    /// previously returned value since the last reset).
    ///
    /// Site C1: SeqCst RMW (see module docs; AcqRel half required, the
    /// SeqCst upgrade is free on x86-64).
    #[inline]
    pub fn increment(&self) -> Result<u64, ClockOverflow> {
        let t = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        if t >= self.max.load(Ordering::Relaxed) {
            // Leave `now` past max: concurrent committers also observe
            // overflow and everyone funnels into the roll-over quiesce.
            Err(ClockOverflow)
        } else {
            Ok(t)
        }
    }

    /// Acquire a timestamp ignoring the roll-over threshold. Used on the
    /// write-through abort path when an incarnation counter overflows and
    /// a fresh version is needed unconditionally; the next committer
    /// still observes the overflow and triggers roll-over.
    ///
    /// Site C1 (same RMW role as `increment`).
    #[inline]
    pub fn force_increment(&self) -> u64 {
        self.now.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Whether the clock has crossed the roll-over threshold.
    #[inline]
    pub fn overflowed(&self) -> bool {
        self.now() >= self.max.load(Ordering::Relaxed)
    }

    /// Reset to 0. Only called inside a quiesce fence (no transactions
    /// active), together with zeroing all lock-array versions.
    ///
    /// Site C3: Relaxed — the fence publishes.
    pub fn reset(&self) {
        self.now.store(0, Ordering::Relaxed);
    }

    /// The configured roll-over threshold.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Change the roll-over threshold (dynamic reconfiguration, inside a
    /// quiesce fence).
    ///
    /// Site C3: Relaxed — the fence publishes.
    pub fn set_max(&self, max: u64) {
        self.max.store(max, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_zero_and_increments() {
        let c = GlobalClock::new(1 << 40);
        assert_eq!(c.now(), 0);
        assert_eq!(c.increment(), Ok(1));
        assert_eq!(c.increment(), Ok(2));
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn overflow_reported_at_max() {
        let c = GlobalClock::new(4);
        assert_eq!(c.increment(), Ok(1));
        assert_eq!(c.increment(), Ok(2));
        assert_eq!(c.increment(), Ok(3));
        assert_eq!(c.increment(), Err(ClockOverflow));
        assert!(c.overflowed());
    }

    #[test]
    fn reset_restores_service() {
        let c = GlobalClock::new(4);
        while c.increment().is_ok() {}
        c.reset();
        assert_eq!(c.now(), 0);
        assert!(!c.overflowed());
        assert_eq!(c.increment(), Ok(1));
    }

    #[test]
    fn counters_live_on_distinct_cache_lines() {
        // The layout half of the tentpole: commit-time RMW traffic on
        // `now` must not invalidate the read-mostly `max` line.
        let c = GlobalClock::new(16);
        let now_addr = &c.now as *const _ as usize;
        let max_addr = &c.max as *const _ as usize;
        assert_eq!(now_addr % crate::cacheline::CACHE_LINE, 0);
        assert_eq!(max_addr % crate::cacheline::CACHE_LINE, 0);
        assert!(now_addr.abs_diff(max_addr) >= crate::cacheline::CACHE_LINE);
    }

    #[test]
    fn timestamps_are_unique_across_threads() {
        let c = Arc::new(GlobalClock::new(1 << 40));
        let threads = 4;
        let per = 1000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    (0..per).map(|_| c.increment().unwrap()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), threads * per, "duplicate timestamps issued");
        assert_eq!(c.now(), (threads * per) as u64);
    }

    #[test]
    fn overflow_is_sticky_until_reset() {
        let c = GlobalClock::new(16);
        while c.increment().is_ok() {}
        // Every further attempt keeps failing.
        assert_eq!(c.increment(), Err(ClockOverflow));
        assert_eq!(c.increment(), Err(ClockOverflow));
        c.reset();
        assert_eq!(c.increment(), Ok(1));
    }
}
