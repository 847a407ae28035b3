//! Per-thread statistics counters.
//!
//! Each registered thread owns a `ThreadStats` that it updates with
//! relaxed atomics (no cross-thread contention — only the aggregator
//! reads them). Figure 12 of the paper plots two of these counters:
//! read-set locks *processed* vs *skipped* during validation.

use core::sync::atomic::{AtomicU64, Ordering};
use stm_api::stats::BasicStats;
use stm_api::AbortReason;

/// Lively counters owned by one thread (one per thread × STM instance).
#[derive(Debug, Default)]
pub struct ThreadStats {
    /// Committed transactions.
    pub commits: AtomicU64,
    /// Committed read-only transactions (subset of `commits`).
    pub ro_commits: AtomicU64,
    /// Aborted attempts.
    pub aborts: AtomicU64,
    /// Aborts by [`AbortReason::index`].
    pub aborts_by_reason: [AtomicU64; AbortReason::ALL.len()],
    /// Transactional loads performed.
    pub reads: AtomicU64,
    /// Loads performed by attempts that later aborted — the "useless
    /// work" encounter-time locking avoids (Section 3).
    pub wasted_reads: AtomicU64,
    /// Transactional stores performed.
    pub writes: AtomicU64,
    /// Successful snapshot extensions.
    pub extensions: AtomicU64,
    /// Failed snapshot extensions (each also aborts).
    pub extend_failures: AtomicU64,
    /// Full read-set validations performed (extension + commit time).
    pub validations: AtomicU64,
    /// Read-set entries whose lock was checked during validation.
    pub val_locks_processed: AtomicU64,
    /// Read-set entries skipped thanks to the hierarchical fast path.
    pub val_locks_skipped: AtomicU64,
    /// Commit-time validations skipped because `wv == end + 1`.
    pub commit_validation_skips: AtomicU64,
    /// Transactional allocations.
    pub allocs: AtomicU64,
    /// Transactional frees (deferred to commit).
    pub frees: AtomicU64,
    /// Commit-timestamp acquisition conflicts: foreign commit
    /// timestamps that landed on the shared clock between this
    /// transaction's (last validated) snapshot and its own commit
    /// increment. Measures commit-clock *contention* independently of
    /// throughput — a partitioned (per-shard) clock drives it down even
    /// on a single core.
    pub clock_conflicts: AtomicU64,
}

macro_rules! bump {
    ($($name:ident => $field:ident),* $(,)?) => {
        $(
            #[doc = concat!("Increment `", stringify!($field), "` by one.")]
            #[inline]
            pub fn $name(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }
        )*
    };
}

impl ThreadStats {
    bump! {
        bump_commit => commits,
        bump_ro_commit => ro_commits,
        bump_read => reads,
        bump_write => writes,
        bump_extension => extensions,
        bump_extend_failure => extend_failures,
        bump_validation => validations,
        bump_commit_validation_skip => commit_validation_skips,
    }

    /// Charge an ended attempt's allocations and frees.
    #[inline]
    pub fn add_mem(&self, allocs: u64, frees: u64) {
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
        self.frees.fetch_add(frees, Ordering::Relaxed);
    }

    /// Record an abort with its reason.
    #[inline]
    pub fn bump_abort(&self, reason: AbortReason) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
        self.aborts_by_reason[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Charge `n` reads to the wasted-work account (attempt aborted).
    #[inline]
    pub fn add_wasted_reads(&self, n: u64) {
        self.wasted_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` foreign commit timestamps to the clock-conflict tally.
    #[inline]
    pub fn add_clock_conflicts(&self, n: u64) {
        self.clock_conflicts.fetch_add(n, Ordering::Relaxed);
    }

    /// Add to the validation processed/skipped tallies.
    #[inline]
    pub fn add_validation_locks(&self, processed: u64, skipped: u64) {
        self.val_locks_processed
            .fetch_add(processed, Ordering::Relaxed);
        self.val_locks_skipped.fetch_add(skipped, Ordering::Relaxed);
    }

    /// Copy the counters into a plain snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut by_reason = [0u64; AbortReason::ALL.len()];
        for (slot, c) in by_reason.iter_mut().zip(self.aborts_by_reason.iter()) {
            *slot = c.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            ro_commits: self.ro_commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            aborts_by_reason: by_reason,
            reads: self.reads.load(Ordering::Relaxed),
            wasted_reads: self.wasted_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            extensions: self.extensions.load(Ordering::Relaxed),
            extend_failures: self.extend_failures.load(Ordering::Relaxed),
            validations: self.validations.load(Ordering::Relaxed),
            val_locks_processed: self.val_locks_processed.load(Ordering::Relaxed),
            val_locks_skipped: self.val_locks_skipped.load(Ordering::Relaxed),
            commit_validation_skips: self.commit_validation_skips.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            clock_conflicts: self.clock_conflicts.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data aggregate of [`ThreadStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub commits: u64,
    pub ro_commits: u64,
    pub aborts: u64,
    pub aborts_by_reason: [u64; AbortReason::ALL.len()],
    pub reads: u64,
    pub wasted_reads: u64,
    pub writes: u64,
    pub extensions: u64,
    pub extend_failures: u64,
    pub validations: u64,
    pub val_locks_processed: u64,
    pub val_locks_skipped: u64,
    pub commit_validation_skips: u64,
    pub allocs: u64,
    pub frees: u64,
    pub clock_conflicts: u64,
}

macro_rules! fieldwise {
    ($self:ident, $other:ident, $op:ident, [$($f:ident),* $(,)?]) => {
        StatsSnapshot {
            $( $f: $self.$f.$op($other.$f), )*
            aborts_by_reason: {
                let mut r = [0u64; AbortReason::ALL.len()];
                for i in 0..r.len() {
                    r[i] = $self.aborts_by_reason[i].$op($other.aborts_by_reason[i]);
                }
                r
            },
        }
    };
}

impl StatsSnapshot {
    /// Counter-wise sum.
    pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
        fieldwise!(
            self,
            other,
            wrapping_add,
            [
                commits,
                ro_commits,
                aborts,
                reads,
                wasted_reads,
                writes,
                extensions,
                extend_failures,
                validations,
                val_locks_processed,
                val_locks_skipped,
                commit_validation_skips,
                allocs,
                frees,
                clock_conflicts,
            ]
        )
    }

    /// Counter-wise saturating difference (`self - earlier`).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        fieldwise!(
            self,
            earlier,
            saturating_sub,
            [
                commits,
                ro_commits,
                aborts,
                reads,
                wasted_reads,
                writes,
                extensions,
                extend_failures,
                validations,
                val_locks_processed,
                val_locks_skipped,
                commit_validation_skips,
                allocs,
                frees,
                clock_conflicts,
            ]
        )
    }

    /// Project onto the backend-independent [`BasicStats`].
    pub fn basic(&self) -> BasicStats {
        BasicStats {
            commits: self.commits,
            aborts: self.aborts,
            aborts_by_reason: self.aborts_by_reason,
            clock_conflicts: self.clock_conflicts,
        }
    }

    /// Fraction of validation lock checks avoided by the hierarchy fast
    /// path, in `[0, 1]`.
    pub fn validation_skip_fraction(&self) -> f64 {
        let total = self.val_locks_processed + self.val_locks_skipped;
        if total == 0 {
            0.0
        } else {
            self.val_locks_skipped as f64 / total as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "commits: {} (read-only {}), aborts: {}",
            self.commits, self.ro_commits, self.aborts
        )?;
        write!(f, "  aborts by reason:")?;
        for r in AbortReason::ALL {
            let n = self.aborts_by_reason[r.index()];
            if n > 0 {
                write!(f, " {}={n}", r.label())?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "  reads: {}, writes: {}, extensions: {} (+{} failed)",
            self.reads, self.writes, self.extensions, self.extend_failures
        )?;
        write!(
            f,
            "  validations: {} ({} skipped at commit), locks processed/skipped: {}/{} ({:.1}% fast path)",
            self.validations,
            self.commit_validation_skips,
            self.val_locks_processed,
            self.val_locks_skipped,
            self.validation_skip_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_snapshot() {
        let s = ThreadStats::default();
        s.bump_commit();
        s.bump_commit();
        s.bump_abort(AbortReason::ReadLocked);
        s.bump_read();
        s.add_validation_locks(10, 90);
        let snap = s.snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.aborts_by_reason[AbortReason::ReadLocked.index()], 1);
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.val_locks_processed, 10);
        assert_eq!(snap.val_locks_skipped, 90);
    }

    #[test]
    fn merged_sums_everything() {
        let a = ThreadStats::default();
        a.bump_commit();
        a.bump_write();
        let b = ThreadStats::default();
        b.bump_commit();
        b.bump_abort(AbortReason::WriteLocked);
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.commits, 2);
        assert_eq!(m.writes, 1);
        assert_eq!(m.aborts, 1);
    }

    #[test]
    fn since_is_monotone_delta() {
        let s = ThreadStats::default();
        s.bump_commit();
        let t0 = s.snapshot();
        s.bump_commit();
        s.bump_extension();
        let t1 = s.snapshot();
        let d = t1.since(&t0);
        assert_eq!(d.commits, 1);
        assert_eq!(d.extensions, 1);
        assert_eq!(d.aborts, 0);
    }

    #[test]
    fn basic_projection() {
        let s = ThreadStats::default();
        s.bump_commit();
        s.bump_abort(AbortReason::ValidationFailed);
        let b = s.snapshot().basic();
        assert_eq!(b.commits, 1);
        assert_eq!(b.aborts, 1);
        assert_eq!(b.aborts_by_reason[AbortReason::ValidationFailed.index()], 1);
    }
}
