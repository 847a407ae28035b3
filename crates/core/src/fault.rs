//! Fault injection for the checker self-tests (`fault-inject` feature).
//!
//! The `stm-check` oracle is only trustworthy if it is demonstrably
//! *live*: a mutation that breaks the protocol must make the checker
//! report a violation. These hooks implement such mutations. Every
//! build carries the switch, but only the `fault-inject` feature
//! exposes `inject_fault` and makes the protocols consult it (without
//! it the check is a constant `false` and compiles away). Never enable
//! the feature in a build whose results you intend to trust.

use core::sync::atomic::{AtomicU8, Ordering};

/// A deliberate protocol mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultInjection {
    /// No mutation (the default).
    #[default]
    None,
    /// Commit-time read-set validation reports success unconditionally,
    /// so a transaction whose snapshot went stale commits anyway — the
    /// canonical serializability violation.
    SkipCommitValidation,
    /// Snapshot-extension validation reports success unconditionally,
    /// so reads performed after the extension may belong to a different
    /// snapshot than reads before it — the canonical opacity violation
    /// (observable even in attempts that later abort).
    SkipExtendValidation,
}

impl FaultInjection {
    /// Stable wire encoding for the per-instance atomic.
    pub(crate) fn encode(self) -> u8 {
        match self {
            FaultInjection::None => 0,
            FaultInjection::SkipCommitValidation => 1,
            FaultInjection::SkipExtendValidation => 2,
        }
    }

    pub(crate) fn decode(v: u8) -> FaultInjection {
        match v {
            1 => FaultInjection::SkipCommitValidation,
            2 => FaultInjection::SkipExtendValidation,
            _ => FaultInjection::None,
        }
    }
}

/// Per-instance fault switch (an atomic so tests can flip it while
/// worker threads run).
#[derive(Debug, Default)]
pub struct FaultSwitch {
    mode: AtomicU8,
}

impl FaultSwitch {
    /// Set the active mutation.
    pub fn set(&self, fault: FaultInjection) {
        self.mode.store(fault.encode(), Ordering::Release);
    }

    /// The active mutation.
    #[inline]
    pub fn get(&self) -> FaultInjection {
        FaultInjection::decode(self.mode.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for f in [
            FaultInjection::None,
            FaultInjection::SkipCommitValidation,
            FaultInjection::SkipExtendValidation,
        ] {
            assert_eq!(FaultInjection::decode(f.encode()), f);
        }
    }

    #[test]
    fn switch_defaults_to_none() {
        let s = FaultSwitch::default();
        assert_eq!(s.get(), FaultInjection::None);
        s.set(FaultInjection::SkipCommitValidation);
        assert_eq!(s.get(), FaultInjection::SkipCommitValidation);
    }
}
