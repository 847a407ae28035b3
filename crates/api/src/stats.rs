//! Minimal backend-independent statistics, the common denominator the
//! workload harness needs: committed and aborted transaction counts.
//!
//! Backends keep richer per-thread statistics (see `tinystm::stats`);
//! this snapshot is what throughput and abort-rate figures are computed
//! from (Figures 2–5 of the paper report exactly these two quantities
//! over time).

use crate::AbortReason;
use core::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time aggregate of commit/abort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BasicStats {
    /// Transactions that committed successfully.
    pub commits: u64,
    /// Transaction attempts that aborted (each retry counts once).
    pub aborts: u64,
    /// Aborts broken down by reason, indexed by [`AbortReason::index`].
    pub aborts_by_reason: [u64; AbortReason::ALL.len()],
    /// Commit-timestamp acquisition conflicts: foreign commit
    /// timestamps consumed from the backend's clock between a
    /// transaction's (last validated) snapshot and its own commit
    /// increment — the number of steps a CAS-from-snapshot acquisition
    /// loop would have to retry over. Zero for backends that serialize
    /// commits (the reference model) and for read-only transactions.
    /// This is the contention a *shared* commit clock manufactures:
    /// partitioning state over independent clocks drives it down even
    /// when raw throughput cannot scale (single-core hosts).
    pub clock_conflicts: u64,
}

impl BasicStats {
    /// Stats with all counters zero.
    pub const ZERO: BasicStats = BasicStats {
        commits: 0,
        aborts: 0,
        aborts_by_reason: [0; AbortReason::ALL.len()],
        clock_conflicts: 0,
    };

    /// Counter-wise difference `self - earlier`, saturating at zero so a
    /// racy snapshot pair can never produce wrap-around garbage.
    pub fn since(&self, earlier: &BasicStats) -> BasicStats {
        let mut by_reason = [0u64; AbortReason::ALL.len()];
        for (i, slot) in by_reason.iter_mut().enumerate() {
            *slot = self.aborts_by_reason[i].saturating_sub(earlier.aborts_by_reason[i]);
        }
        BasicStats {
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            aborts_by_reason: by_reason,
            clock_conflicts: self.clock_conflicts.saturating_sub(earlier.clock_conflicts),
        }
    }

    /// Counter-wise sum.
    pub fn merged(&self, other: &BasicStats) -> BasicStats {
        let mut by_reason = [0u64; AbortReason::ALL.len()];
        for (i, slot) in by_reason.iter_mut().enumerate() {
            *slot = self.aborts_by_reason[i] + other.aborts_by_reason[i];
        }
        BasicStats {
            commits: self.commits + other.commits,
            aborts: self.aborts + other.aborts,
            aborts_by_reason: by_reason,
            clock_conflicts: self.clock_conflicts + other.clock_conflicts,
        }
    }

    /// Total attempts = commits + aborts.
    pub fn attempts(&self) -> u64 {
        self.commits + self.aborts
    }

    /// Fraction of attempts that aborted, in `[0, 1]`; zero when idle.
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Record one abort for `reason`.
    pub fn record_abort(&mut self, reason: AbortReason) {
        self.aborts += 1;
        self.aborts_by_reason[reason.index()] += 1;
    }
}

/// Shared fault-handling counters of a durable engine (one instance per
/// engine, updated from inside commit critical sections — plain relaxed
/// atomics, no locks).
///
/// These count *storage* trouble, which [`BasicStats`] cannot see: a
/// retried append that eventually succeeds is invisible to commit/abort
/// counters, and a rejected write on a degraded shard never reaches the
/// backend at all.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Transient store errors retried in place under the bounded retry
    /// policy (each retried batch-append or checkpoint attempt counts
    /// once).
    pub wal_retries: AtomicU64,
    /// Terminal WAL failures (torn/permanent append, failed fsync) —
    /// each one degrades a shard. A batch that runs out of transient
    /// retries fails without counting here: its shard stays Healthy.
    pub wal_faults: AtomicU64,
    /// Write attempts rejected with a typed error because the target
    /// shard was Degraded or Quarantined.
    pub degraded_rejects: AtomicU64,
    /// Successful rejoin cycles (Degraded shard recovered, checkpointed,
    /// and reopened Healthy).
    pub rejoins: AtomicU64,
}

impl FaultStats {
    /// Fresh zeroed counters.
    pub fn new() -> FaultStats {
        FaultStats::default()
    }

    /// A consistent-enough point-in-time copy (counters are independent;
    /// exact cross-counter atomicity is not needed for reporting).
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            wal_retries: self.wal_retries.load(Ordering::Relaxed),
            wal_faults: self.wal_faults.load(Ordering::Relaxed),
            degraded_rejects: self.degraded_rejects.load(Ordering::Relaxed),
            rejoins: self.rejoins.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`FaultStats`] for reporting and JSONL extras.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// See [`FaultStats::wal_retries`].
    pub wal_retries: u64,
    /// See [`FaultStats::wal_faults`].
    pub wal_faults: u64,
    /// See [`FaultStats::degraded_rejects`].
    pub degraded_rejects: u64,
    /// See [`FaultStats::rejoins`].
    pub rejoins: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(c: u64, a: u64) -> BasicStats {
        let mut s = BasicStats {
            commits: c,
            ..BasicStats::ZERO
        };
        for _ in 0..a {
            s.record_abort(AbortReason::ReadLocked);
        }
        s
    }

    #[test]
    fn since_subtracts() {
        let early = sample(10, 2);
        let late = sample(25, 7);
        let d = late.since(&early);
        assert_eq!(d.commits, 15);
        assert_eq!(d.aborts, 5);
        assert_eq!(d.aborts_by_reason[AbortReason::ReadLocked.index()], 5);
    }

    #[test]
    fn since_saturates_rather_than_wrapping() {
        let early = sample(10, 5);
        let late = sample(3, 1);
        let d = late.since(&early);
        assert_eq!(d.commits, 0);
        assert_eq!(d.aborts, 0);
    }

    #[test]
    fn merged_adds() {
        let a = sample(1, 2);
        let b = sample(3, 4);
        let m = a.merged(&b);
        assert_eq!(m.commits, 4);
        assert_eq!(m.aborts, 6);
        assert_eq!(m.attempts(), 10);
    }

    #[test]
    fn abort_ratio_bounds() {
        assert_eq!(BasicStats::ZERO.abort_ratio(), 0.0);
        let s = sample(1, 1);
        assert!((s.abort_ratio() - 0.5).abs() < 1e-12);
        let all_aborts = sample(0, 4);
        assert_eq!(all_aborts.abort_ratio(), 1.0);
    }

    #[test]
    fn clock_conflicts_flow_through_since_and_merged() {
        let mut early = sample(10, 0);
        early.clock_conflicts = 3;
        let mut late = sample(20, 0);
        late.clock_conflicts = 10;
        assert_eq!(late.since(&early).clock_conflicts, 7);
        assert_eq!(late.merged(&early).clock_conflicts, 13);
        // Racy snapshot pairs saturate instead of wrapping.
        assert_eq!(early.since(&late).clock_conflicts, 0);
    }

    #[test]
    fn fault_stats_snapshot_reads_counters() {
        let f = FaultStats::new();
        f.wal_retries.fetch_add(3, Ordering::Relaxed);
        f.wal_faults.fetch_add(1, Ordering::Relaxed);
        f.degraded_rejects.fetch_add(7, Ordering::Relaxed);
        f.rejoins.fetch_add(2, Ordering::Relaxed);
        let s = f.snapshot();
        assert_eq!(
            (s.wal_retries, s.wal_faults, s.degraded_rejects, s.rejoins),
            (3, 1, 7, 2)
        );
    }

    #[test]
    fn record_abort_tracks_reason() {
        let mut s = BasicStats::ZERO;
        s.record_abort(AbortReason::ValidationFailed);
        s.record_abort(AbortReason::ValidationFailed);
        s.record_abort(AbortReason::WriteLocked);
        assert_eq!(s.aborts, 3);
        assert_eq!(s.aborts_by_reason[AbortReason::ValidationFailed.index()], 2);
        assert_eq!(s.aborts_by_reason[AbortReason::WriteLocked.index()], 1);
    }
}
