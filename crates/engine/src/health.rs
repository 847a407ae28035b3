//! Per-shard health tracking.
//!
//! ## The state machine
//!
//! ```text
//!            torn append / permanent append / fsync failed
//!  Healthy ──────────────────────────────────────────────▶ Degraded
//!     ▲                                                       │
//!     │ rejoin: re-checkpoint from memory succeeded           │ rejoin
//!     └───────────────────────────────────────────────────────┤ checkpoint
//!                                                             │ failed
//!                                                             ▼
//!                                                        Quarantined
//! ```
//!
//! * **Healthy** — writes publish to the WAL; normal operation.
//! * **Degraded** — the shard's store failed a publish. Reads still
//!   serve (memory is intact — a failed publish aborts the commit
//!   before any memory effect), writes are rejected with a typed error
//!   until [`crate::DurableEngine::rejoin`] brings the store back.
//! * **Quarantined** — a rejoin attempt could not re-checkpoint the
//!   store. Terminal for writes; reads still serve.
//!
//! Transient append errors never reach this machine: the group
//! committer retries them in place ([`stm_wal::RetryPolicy`]), and if
//! the retries run out only that batch fails — nothing persisted, so
//! the shard stays Healthy.
//!
//! Degradation happens *inside* the failed batch's critical sections
//! (the sink refuses before anything else can append), so a degraded
//! shard's log is exactly the acked prefix plus, at worst, the
//! in-doubt records of one batch whose fsync failed (tracked by the
//! engine and cleared by the rejoin checkpoint).

use core::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Health of one durable shard (see the module docs for the machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Writes publish; normal operation.
    Healthy,
    /// Store failed; writes rejected, reads serve, rejoin possible.
    Degraded,
    /// Rejoin failed; writes rejected, reads serve. Terminal.
    Quarantined,
}

impl std::fmt::Display for ShardHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Quarantined => "quarantined",
        })
    }
}

const HEALTHY: u8 = 0;
const DEGRADED: u8 = 1;
const QUARANTINED: u8 = 2;

/// Lock-free holder of one shard's [`ShardHealth`].
///
/// Loads are `Acquire` (the sink checks it on every publish), stores
/// `Release`. Transitions race only in one benign direction: two
/// commits can both degrade an already-degraded shard.
#[derive(Debug)]
pub struct HealthSlot {
    state: AtomicU8,
    /// Count of *actual* state changes (a `set` to the current state
    /// does not count) — exposed as `stm_shard_health_transitions_total`.
    transitions: AtomicU64,
}

impl Default for HealthSlot {
    fn default() -> HealthSlot {
        HealthSlot {
            state: AtomicU8::new(HEALTHY),
            transitions: AtomicU64::new(0),
        }
    }
}

impl HealthSlot {
    /// A fresh, healthy slot.
    pub fn new() -> HealthSlot {
        HealthSlot::default()
    }

    /// Current health.
    pub fn get(&self) -> ShardHealth {
        match self.state.load(Ordering::Acquire) {
            HEALTHY => ShardHealth::Healthy,
            DEGRADED => ShardHealth::Degraded,
            _ => ShardHealth::Quarantined,
        }
    }

    /// Set the health (engine-side transitions: degrade, rejoin,
    /// quarantine). A swap to the same state is not counted as a
    /// transition; two racing degrades count once.
    pub fn set(&self, health: ShardHealth) {
        let raw = match health {
            ShardHealth::Healthy => HEALTHY,
            ShardHealth::Degraded => DEGRADED,
            ShardHealth::Quarantined => QUARANTINED,
        };
        if self.state.swap(raw, Ordering::AcqRel) != raw {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True iff the shard accepts writes.
    pub fn is_healthy(&self) -> bool {
        self.state.load(Ordering::Acquire) == HEALTHY
    }

    /// Number of actual state changes this slot has seen.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_starts_healthy_and_transitions() {
        let slot = HealthSlot::new();
        assert_eq!(slot.get(), ShardHealth::Healthy);
        assert!(slot.is_healthy());
        slot.set(ShardHealth::Degraded);
        assert_eq!(slot.get(), ShardHealth::Degraded);
        assert!(!slot.is_healthy());
        slot.set(ShardHealth::Quarantined);
        assert_eq!(slot.get(), ShardHealth::Quarantined);
        slot.set(ShardHealth::Healthy);
        assert!(slot.is_healthy());
        assert_eq!(slot.transitions(), 3);
    }

    #[test]
    fn same_state_set_is_not_a_transition() {
        let slot = HealthSlot::new();
        assert_eq!(slot.transitions(), 0);
        slot.set(ShardHealth::Healthy); // no-op: already healthy
        assert_eq!(slot.transitions(), 0);
        slot.set(ShardHealth::Degraded);
        slot.set(ShardHealth::Degraded); // racing double-degrade counts once
        assert_eq!(slot.transitions(), 1);
    }

    #[test]
    fn display_labels() {
        assert_eq!(ShardHealth::Healthy.to_string(), "healthy");
        assert_eq!(ShardHealth::Degraded.to_string(), "degraded");
        assert_eq!(ShardHealth::Quarantined.to_string(), "quarantined");
    }
}
