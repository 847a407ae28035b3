//! Per-thread statistics counters.
//!
//! Each registered thread owns a `ThreadStats` and is its only writer;
//! every other thread only calls [`ThreadStats::snapshot`] (site T1,
//! DESIGN.md §3.8). With one writer an increment needs no read-modify-
//! write: a Relaxed load plus a Relaxed store of the sum loses nothing
//! and keeps the transactional read and write paths free of locked
//! instructions. The counters stay atomic, so a concurrent snapshot is
//! race-free, never sees a torn value, and (by coherence) never sees a
//! counter go backwards. Figure 12 of the paper plots two of these
//! counters: read-set locks *processed* vs *skipped* during validation.

use core::sync::atomic::{AtomicU64, Ordering};
use stm_api::stats::BasicStats;
use stm_api::AbortReason;

/// Live counters owned by one thread (one per thread × STM instance).
///
/// Only the owner thread calls the `bump_*`/`add_*` methods: they are
/// load-then-store, so two concurrent writers would lose increments
/// (never memory safety). Anyone may call [`ThreadStats::snapshot`].
#[derive(Debug, Default)]
pub struct ThreadStats {
    /// Committed transactions.
    commits: AtomicU64,
    /// Committed read-only transactions (subset of `commits`).
    ro_commits: AtomicU64,
    /// Aborted attempts.
    aborts: AtomicU64,
    /// Aborts by [`AbortReason::index`].
    aborts_by_reason: [AtomicU64; AbortReason::ALL.len()],
    /// Transactional loads performed.
    reads: AtomicU64,
    /// Loads performed by attempts that later aborted — the "useless
    /// work" encounter-time locking avoids (Section 3).
    wasted_reads: AtomicU64,
    /// Transactional stores performed.
    writes: AtomicU64,
    /// Successful snapshot extensions.
    extensions: AtomicU64,
    /// Failed snapshot extensions (each also aborts).
    extend_failures: AtomicU64,
    /// Full read-set validations performed (extension + commit time).
    validations: AtomicU64,
    /// Read-set entries whose lock was checked during validation.
    val_locks_processed: AtomicU64,
    /// Read-set entries skipped thanks to the hierarchical fast path.
    val_locks_skipped: AtomicU64,
    /// Commit-time validations skipped because `wv == end + 1`.
    commit_validation_skips: AtomicU64,
    /// Transactional allocations.
    allocs: AtomicU64,
    /// Transactional frees (deferred to commit).
    frees: AtomicU64,
    /// Commit-timestamp acquisition conflicts: foreign commit
    /// timestamps that landed on the shared clock between this
    /// transaction's (last validated) snapshot and its own commit
    /// increment. Measures commit-clock *contention* independently of
    /// throughput — a partitioned (per-shard) clock drives it down even
    /// on a single core.
    clock_conflicts: AtomicU64,
}

/// Add `n` to an owner-written counter: Relaxed load + Relaxed store
/// (site T1), not a locked read-modify-write.
#[inline(always)]
fn add(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

macro_rules! bump {
    ($($name:ident => $field:ident),* $(,)?) => {
        $(
            #[doc = concat!("Increment `", stringify!($field), "` by one (owner thread only).")]
            #[inline]
            pub fn $name(&self) {
                add(&self.$field, 1);
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

    /// Transactional loads performed so far.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Charge an ended attempt's allocations and frees.
    #[inline]
    pub fn add_mem(&self, allocs: u64, frees: u64) {
        add(&self.allocs, allocs);
        add(&self.frees, frees);
    }

    /// Record an abort with its reason.
    #[inline]
    pub fn bump_abort(&self, reason: AbortReason) {
        add(&self.aborts, 1);
        add(&self.aborts_by_reason[reason.index()], 1);
    }

    /// Charge `n` reads to the wasted-work account (attempt aborted).
    #[inline]
    pub fn add_wasted_reads(&self, n: u64) {
        add(&self.wasted_reads, n);
    }

    /// Charge `n` foreign commit timestamps to the clock-conflict tally.
    #[inline]
    pub fn add_clock_conflicts(&self, n: u64) {
        add(&self.clock_conflicts, n);
    }

    /// Add to the validation processed/skipped tallies.
    #[inline]
    pub fn add_validation_locks(&self, processed: u64, skipped: u64) {
        add(&self.val_locks_processed, processed);
        add(&self.val_locks_skipped, skipped);
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
