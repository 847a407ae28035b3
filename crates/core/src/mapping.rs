//! The address→lock mapping: lock array, hash, and hierarchy counters.
//!
//! This bundles everything that changes atomically under dynamic
//! reconfiguration (Section 4): the lock array (`#locks`), the hash
//! shift (`#shifts`), and the hierarchical array (`h`). The runtime
//! holds the current `Mapping` behind an atomic pointer swapped inside a
//! quiesce fence. TL2 uses the same lock array and hash with the
//! hierarchy disabled.
//!
//! The hash is the paper's per-stripe mapping: right-shift the address by
//! the implicit word shift (3 on 64-bit) plus the tunable `#shifts`, then
//! reduce modulo `#locks` (a mask, since `#locks` is a power of two).
//! `2^shifts` consecutive words therefore share a lock — the
//! spatial-locality knob. The hierarchy hash is consistent by
//! construction: `hier_index = lock_index mod h` with `h | #locks`.

use crate::config::StmConfig;
use crate::hierarchy::HierArray;
use core::sync::atomic::{AtomicUsize, Ordering};

/// Implicit right shift accounting for word-based addressing (the paper's
/// "right shift of 3" on 64-bit architectures).
pub const WORD_SHIFT: u32 = 3;

/// Immutable snapshot of the tunable state: lock array + hierarchy +
/// hash parameters.
///
/// Layout: `repr(C, align(64))` pins the declaration order so the hot
/// scalars every `load_impl`/`store_impl` touches — the lock-array fat
/// pointer, `lock_mask`, `hier_mask`, `addr_shift` — pack into the
/// first cache line (16 + 8 + 8 + 4 bytes), with the read-mostly
/// `hier`/`config` tail behind them. All of these fields are immutable
/// after construction (the mapping is swapped wholesale inside a
/// quiesce fence), so the line stays in shared state across cores; the
/// alignment keeps it from straddling into a neighbor's written line.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct Mapping {
    locks: Box<[AtomicUsize]>,
    lock_mask: usize,
    hier_mask: usize,
    addr_shift: u32,
    hier: HierArray,
    config: StmConfig,
}

impl Mapping {
    /// Build a mapping for `config` (which must be validated).
    pub fn new(config: StmConfig) -> Mapping {
        debug_assert!(config.validate().is_ok());
        let n = config.n_locks();
        let locks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        Mapping {
            locks: locks.into_boxed_slice(),
            lock_mask: n - 1,
            hier_mask: config.hier_size() - 1,
            addr_shift: WORD_SHIFT + config.shifts,
            hier: HierArray::new(config.hier_size()),
            config,
        }
    }

    /// The configuration this mapping realizes.
    #[inline]
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Number of locks.
    #[inline]
    pub fn n_locks(&self) -> usize {
        self.locks.len()
    }

    /// Map a word address to its lock index.
    #[inline(always)]
    pub fn lock_index(&self, addr: usize) -> usize {
        (addr >> self.addr_shift) & self.lock_mask
    }

    /// Map a lock index to its hierarchy partition (consistent hash).
    #[inline(always)]
    pub fn hier_index(&self, lock_idx: usize) -> usize {
        lock_idx & self.hier_mask
    }

    /// The lock word at `idx`.
    #[inline(always)]
    pub fn lock(&self, idx: usize) -> &AtomicUsize {
        &self.locks[idx]
    }

    /// The hierarchical counter array.
    #[inline(always)]
    pub fn hier(&self) -> &HierArray {
        &self.hier
    }

    /// Whether the hierarchy fast path is active (`h > 1`).
    #[inline(always)]
    pub fn hier_enabled(&self) -> bool {
        !self.hier.is_disabled()
    }

    /// Zero every lock version and hierarchy counter. Only inside a
    /// quiesce fence (clock roll-over).
    ///
    /// Relaxed stores: no transaction is active inside the fence, and
    /// the fence's own synchronization (site Q1 in `quiesce.rs`)
    /// publishes the zeroed words to transactions that enter after it
    /// lifts.
    pub fn reset_versions(&self) {
        for l in self.locks.iter() {
            debug_assert_eq!(
                l.load(Ordering::Relaxed) & crate::lockword::OWNED_BIT,
                0,
                "reset with an owned lock — fence violated"
            );
            l.store(0, Ordering::Relaxed);
        }
        self.hier.reset();
    }

    /// Count currently-owned locks (diagnostics/tests; racy outside a
    /// fence).
    pub fn owned_locks(&self) -> usize {
        self.locks
            .iter()
            .filter(|l| crate::lockword::is_owned(l.load(Ordering::Relaxed)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mapping(locks_log2: u32, shifts: u32, hier_log2: u32) -> Mapping {
        Mapping::new(
            StmConfig::default()
                .with_locks_log2(locks_log2)
                .with_shifts(shifts)
                .with_hier_log2(hier_log2),
        )
    }

    #[test]
    fn consecutive_words_map_to_distinct_locks_at_shift_zero() {
        let m = mapping(8, 0, 0);
        let base = 0x10000usize;
        let idx: Vec<usize> = (0..4).map(|i| m.lock_index(base + i * 8)).collect();
        assert_eq!(idx[1], (idx[0] + 1) & 255);
        assert_eq!(idx[2], (idx[0] + 2) & 255);
        assert_eq!(idx[3], (idx[0] + 3) & 255);
    }

    #[test]
    fn shifts_group_consecutive_words() {
        // With #shifts = 2, runs of 4 consecutive words share a lock.
        let m = mapping(8, 2, 0);
        let base = 0x40000usize; // aligned so the run starts a stripe
        let first = m.lock_index(base);
        for i in 0..4 {
            assert_eq!(m.lock_index(base + i * 8), first);
        }
        assert_ne!(m.lock_index(base + 4 * 8), first);
    }

    #[test]
    fn hier_hash_is_consistent_with_lock_hash() {
        // Two addresses mapping to the same lock must map to the same
        // counter — the paper's consistency requirement.
        let m = mapping(10, 1, 3);
        let a = 0x8000usize;
        // Same lock: differs by #locks * stripe_bytes in the hashed bits.
        let b = a + (1 << 10) * 8 * 2;
        assert_eq!(m.lock_index(a), m.lock_index(b));
        assert_eq!(m.hier_index(m.lock_index(a)), m.hier_index(m.lock_index(b)));
    }

    #[test]
    fn lock_array_starts_unowned_version_zero() {
        let m = mapping(6, 0, 0);
        assert_eq!(m.n_locks(), 64);
        for i in 0..64 {
            assert_eq!(m.lock(i).load(Ordering::Relaxed), 0);
        }
        assert_eq!(m.owned_locks(), 0);
    }

    #[test]
    fn reset_versions_zeroes_locks_and_counters() {
        let m = mapping(4, 0, 2);
        m.lock(3)
            .store(crate::lockword::wb_make(99), Ordering::Relaxed);
        m.hier().increment(1);
        m.reset_versions();
        assert_eq!(m.lock(3).load(Ordering::Relaxed), 0);
        assert_eq!(m.hier().load(1), 0);
    }

    #[test]
    fn hier_disabled_maps_everything_to_partition_zero() {
        let m = mapping(8, 0, 0);
        assert!(!m.hier_enabled());
        for idx in [0usize, 17, 255] {
            assert_eq!(m.hier_index(idx), 0);
        }
    }

    proptest! {
        #[test]
        fn prop_lock_index_in_range(
            addr in any::<usize>(),
            locks_log2 in 1u32..16,
            shifts in 0u32..8,
        ) {
            let m = mapping(locks_log2, shifts, 0);
            prop_assert!(m.lock_index(addr) < m.n_locks());
        }

        #[test]
        fn prop_hier_consistency(
            addr in any::<usize>(),
            locks_log2 in 4u32..14,
            shifts in 0u32..6,
            hier_log2 in 0u32..4,
        ) {
            let m = mapping(locks_log2, shifts, hier_log2);
            let li = m.lock_index(addr);
            prop_assert_eq!(m.hier_index(li), li % m.hier().len());
        }

        #[test]
        fn prop_words_in_same_stripe_share_lock(
            base in (0usize..1 << 40).prop_map(|a| a & !7),
            shifts in 0u32..6,
            offset_words in 0usize..64,
        ) {
            let m = mapping(12, shifts, 0);
            let stripe_words = 1usize << shifts;
            let aligned = base & !((stripe_words * 8) - 1);
            let within = offset_words % stripe_words;
            prop_assert_eq!(
                m.lock_index(aligned),
                m.lock_index(aligned + within * 8)
            );
        }
    }
}
