//! The one retry policy for transient store errors.
//!
//! Transient errors ([`StoreError::Transient`] — nothing persisted, so
//! re-issuing the same bytes is safe) are retried in place with bounded
//! exponential backoff plus deterministic jitter. The group committer's
//! batch append runs this loop **with its members' stripe locks held**,
//! so the budget is µs-scale and hard-bounded (worst case well under
//! 2 ms): stalling conflicting writers briefly beats failing a batch on
//! a hiccup. Torn errors are *never* retried in place — the store
//! already holds a damaged frame, and appending the same bytes again
//! would turn a recoverable torn tail into interior corruption.

use crate::fault::splitmix64;
use crate::store::StoreError;
use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter for transient
/// store errors.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first failure (total attempts = retries + 1).
    pub max_retries: u32,
    /// Backoff before the first retry, microseconds.
    pub base_us: u64,
    /// Backoff cap per retry, microseconds.
    pub max_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        // Worst case, ignoring jitter: 50 + 100 + 200 + 400 = 750 µs of
        // sleeping across 4 retries; jitter adds at most 50% per step.
        // Bounded well under 2 ms — tolerable with stripe locks held.
        RetryPolicy {
            max_retries: 4,
            base_us: 50,
            max_us: 400,
        }
    }
}

impl RetryPolicy {
    /// Backoff duration before retry `attempt` (0-based), jittered
    /// deterministically by `salt` (callers pass an operation identity
    /// so concurrent retries desynchronize without a global RNG).
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base_us
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.max_us);
        // Up to +50% deterministic jitter.
        let jitter = splitmix64(&mut (salt ^ u64::from(attempt))) % (exp / 2 + 1);
        Duration::from_micros(exp + jitter)
    }

    /// Run `op`, retrying transient failures in place under this
    /// policy. Returns the final outcome and the retries spent on it.
    pub fn run(
        &self,
        salt: u64,
        mut op: impl FnMut() -> Result<(), StoreError>,
    ) -> (Result<(), StoreError>, u32) {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if e.is_transient() && attempt < self.max_retries => {
                    std::thread::sleep(self.backoff(attempt, salt));
                    attempt += 1;
                }
                outcome => return (outcome, attempt),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_monotonic_in_the_cap() {
        let policy = RetryPolicy::default();
        let mut total = Duration::ZERO;
        for attempt in 0..policy.max_retries {
            let d = policy.backoff(attempt, 0xDEAD_BEEF);
            // exp ≤ max_us, jitter ≤ exp/2.
            assert!(d <= Duration::from_micros(policy.max_us * 3 / 2));
            total += d;
        }
        assert!(total < Duration::from_millis(2), "budget blown: {total:?}");
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(2, 77), policy.backoff(2, 77));
        // Different salts usually differ (this pair does).
        assert_ne!(policy.backoff(2, 77), policy.backoff(2, 78));
    }
}
