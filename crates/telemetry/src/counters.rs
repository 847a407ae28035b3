//! Cache-line-padded counters for registry-owned aggregates.
//!
//! The STM hot paths publish into *per-thread*, owner-written counters
//! (one writer each, so a Relaxed load + store instead of a locked
//! read-modify-write, and no padding — see `tinystm::stats::ThreadStats`).
//! The telemetry plane, by contrast, owns a small number of counters
//! that many threads bump directly with `fetch_add` (sampler window
//! tallies, flight-recorder drops). Those live one-per-cache-line so two
//! adjacent counters never false-share: 128-byte alignment covers the
//! spatial-prefetcher pair of 64-byte lines on x86 and the 128-byte
//! lines on apple-silicon.

use core::sync::atomic::{AtomicU64, Ordering};

/// A `u64` counter alone on its cache line(s).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct PaddedCounter(AtomicU64);

impl PaddedCounter {
    /// A zeroed counter.
    pub const fn new() -> PaddedCounter {
        PaddedCounter(AtomicU64::new(0))
    }

    /// Add one (Relaxed).
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Add `n` (Relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (Relaxed).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_cache_line_padded() {
        assert!(core::mem::align_of::<PaddedCounter>() >= 128);
        assert!(core::mem::size_of::<PaddedCounter>() >= 128);
    }

    #[test]
    fn inc_returns_previous_value() {
        let c = PaddedCounter::new();
        assert_eq!(c.inc(), 0);
        assert_eq!(c.inc(), 1);
        c.add(10);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = PaddedCounter::new();
        let threads = 8;
        let per_thread = if cfg!(debug_assertions) {
            50_000
        } else {
            500_000
        };
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), (threads * per_thread) as u64);
    }
}
