//! Deterministic fault injection for [`WalStore`]s: a [`FaultStore`]
//! wraps any store and fails operations on a pre-computed schedule.
//!
//! Chaos testing is only useful if a failure reproduces: the schedule
//! ([`FaultPlan`]) is either written out explicitly or derived from a
//! seed by a self-contained splitmix64 generator — same seed, same
//! faults, byte for byte. Positions are counted in append *attempts*
//! (including failed ones), so a caller's retry policy does not shift
//! later events.
//!
//! The injected fault kinds mirror the [`StoreError`] taxonomy:
//!
//! * [`FaultKind::TransientBurst`] — the next `len` append attempts
//!   fail with [`StoreError::Transient`]; nothing persists. A burst no
//!   longer than the caller's retry budget is absorbed invisibly; a
//!   longer one forces a degrade.
//! * [`FaultKind::TornAppend`] — half the frame persists, then the
//!   append fails with [`StoreError::Torn`]. Not retryable: the log
//!   now ends in a damaged frame until a checkpoint truncates it.
//! * [`FaultKind::PermanentAppend`] — the device dies; this and every
//!   later append/checkpoint fails with [`StoreError::Permanent`].
//! * [`FaultKind::SyncFail`] — the append lands, but the *next*
//!   [`WalStore::sync`] fails (fsyncgate: reported as permanent for
//!   that sync, and the appended record's durability is now in doubt).
//!   The store itself recovers afterwards — the interesting case,
//!   because the shard can rejoin.

use crate::store::{StoreError, WalStore};
use parking_lot::Mutex;
use std::sync::Arc;

/// What to inject at a scheduled append attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this and the next `len - 1` append attempts transiently.
    TransientBurst {
        /// Number of consecutive failing attempts (≥ 1).
        len: u32,
    },
    /// Persist half the frame, fail the append as torn.
    TornAppend,
    /// The device dies: every subsequent operation fails permanently.
    PermanentAppend,
    /// Let the append land but fail the next `sync` call.
    SyncFail,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::TransientBurst { len } => write!(f, "transient-burst(len={len})"),
            FaultKind::TornAppend => write!(f, "torn-append"),
            FaultKind::PermanentAppend => write!(f, "permanent-append"),
            FaultKind::SyncFail => write!(f, "sync-fail"),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Zero-based append *attempt* index the fault fires at.
    pub at_append: u64,
    /// What happens there.
    pub kind: FaultKind,
}

/// A full, deterministic fault schedule for one store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Events sorted by [`FaultEvent::at_append`], one per position.
    pub events: Vec<FaultEvent>,
}

/// The self-contained seeded generator (splitmix64): no dependency on
/// the `rand` stand-in, identical output everywhere, forever. Also the
/// retry policy's jitter source.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty schedule (a transparent wrapper).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derive `n_events` faults over append positions `0..horizon` from
    /// `seed`. Deterministic: the same `(seed, n_events, horizon)`
    /// always yields the same plan. Duplicate positions collapse to
    /// the first-drawn event, so the realized plan may be shorter.
    pub fn random(seed: u64, n_events: usize, horizon: u64) -> FaultPlan {
        let mut state = seed ^ 0xC0FF_EE00_D15E_A5E5;
        let mut events: Vec<FaultEvent> = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let at_append = if horizon == 0 {
                0
            } else {
                splitmix64(&mut state) % horizon
            };
            let kind = match splitmix64(&mut state) % 4 {
                0 => FaultKind::TransientBurst {
                    len: 1 + (splitmix64(&mut state) % 5) as u32,
                },
                1 => FaultKind::TornAppend,
                2 => FaultKind::PermanentAppend,
                _ => FaultKind::SyncFail,
            };
            if !events.iter().any(|e| e.at_append == at_append) {
                events.push(FaultEvent { at_append, kind });
            }
        }
        events.sort_by_key(|e| e.at_append);
        FaultPlan { events }
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.events.is_empty() {
            return write!(f, "(no faults)");
        }
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "append#{}:{}", e.at_append, e.kind)?;
        }
        Ok(())
    }
}

struct FaultState {
    /// Append attempts seen so far (the schedule's clock).
    appends: u64,
    /// Remaining attempts of an active transient burst.
    burst_remaining: u32,
    /// The device has died.
    dead: bool,
    /// The next `sync` call fails.
    fail_next_sync: bool,
    /// Next schedule entry to consider.
    cursor: usize,
}

/// A [`WalStore`] wrapper that injects the faults of a [`FaultPlan`].
pub struct FaultStore {
    inner: Arc<dyn WalStore>,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultStore {
    /// Wrap `inner`, injecting `plan`.
    pub fn new(inner: Arc<dyn WalStore>, plan: FaultPlan) -> Arc<FaultStore> {
        Arc::new(FaultStore {
            inner,
            plan,
            state: Mutex::new(FaultState {
                appends: 0,
                burst_remaining: 0,
                dead: false,
                fail_next_sync: false,
                cursor: 0,
            }),
        })
    }

    /// The wrapped store (reboot paths read the surviving bytes here).
    pub fn inner(&self) -> &Arc<dyn WalStore> {
        &self.inner
    }

    /// The schedule this store is executing.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Append attempts observed so far.
    pub fn appends(&self) -> u64 {
        self.state.lock().appends
    }
}

impl WalStore for FaultStore {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut st = self.state.lock();
        let n = st.appends;
        st.appends += 1;
        if st.dead {
            return Err(StoreError::Permanent("injected: device dead".into()));
        }
        if st.burst_remaining > 0 {
            st.burst_remaining -= 1;
            return Err(StoreError::Transient(format!(
                "injected: transient burst at append #{n}"
            )));
        }
        let due = self
            .plan
            .events
            .get(st.cursor)
            .filter(|e| e.at_append <= n)
            .copied();
        if let Some(event) = due {
            st.cursor += 1;
            match event.kind {
                FaultKind::TransientBurst { len } => {
                    st.burst_remaining = len.saturating_sub(1);
                    return Err(StoreError::Transient(format!(
                        "injected: transient burst at append #{n}"
                    )));
                }
                FaultKind::TornAppend => {
                    let persisted = bytes.len() / 2;
                    // Land a strict prefix, then fail: the log now ends
                    // in a damaged frame only a checkpoint can clear.
                    self.inner.append(&bytes[..persisted])?;
                    return Err(StoreError::Torn {
                        persisted,
                        detail: format!("injected: torn append at #{n}"),
                    });
                }
                FaultKind::PermanentAppend => {
                    st.dead = true;
                    return Err(StoreError::Permanent(format!(
                        "injected: device died at append #{n}"
                    )));
                }
                FaultKind::SyncFail => {
                    st.fail_next_sync = true;
                    // fall through: the append itself succeeds
                }
            }
        }
        drop(st);
        self.inner.append(bytes)
    }

    fn sync(&self) -> Result<(), StoreError> {
        let mut st = self.state.lock();
        if st.dead {
            return Err(StoreError::Permanent("injected: device dead".into()));
        }
        if st.fail_next_sync {
            st.fail_next_sync = false;
            return Err(StoreError::Permanent(
                "injected: fsync failed (record durability in doubt)".into(),
            ));
        }
        drop(st);
        self.inner.sync()
    }

    fn log_bytes(&self) -> Vec<u8> {
        self.inner.log_bytes()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }

    fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        if self.state.lock().dead {
            return Err(StoreError::Permanent("injected: device dead".into()));
        }
        self.inner.checkpoint(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{BatchError, GroupCommitConfig, GroupCommitter};
    use crate::log::{decode_log, recover_store, TailStatus};
    use crate::store::MemStore;
    use crate::writer::LogWriter;

    fn committer(store: &Arc<FaultStore>) -> Arc<GroupCommitter> {
        let writer = LogWriter::new(0, Arc::clone(store) as Arc<dyn WalStore>, 0);
        GroupCommitter::new(Arc::new(writer), GroupCommitConfig::default())
    }

    fn plan(events: &[(u64, FaultKind)]) -> FaultPlan {
        FaultPlan {
            events: events
                .iter()
                .map(|&(at_append, kind)| FaultEvent { at_append, kind })
                .collect(),
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::random(42, 6, 1000);
        let b = FaultPlan::random(42, 6, 1000);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 6, 1000);
        assert_ne!(a, c, "different seed should virtually always differ");
        assert!(a.events.windows(2).all(|w| w[0].at_append < w[1].at_append));
    }

    #[test]
    fn transient_burst_fails_then_recovers() {
        let store = FaultStore::new(
            MemStore::healthy() as Arc<dyn WalStore>,
            plan(&[(1, FaultKind::TransientBurst { len: 2 })]),
        );
        assert!(store.append(b"aa").is_ok());
        let e = store.append(b"bb").unwrap_err();
        assert!(e.is_transient());
        assert!(store.append(b"bb").unwrap_err().is_transient());
        assert!(store.append(b"bb").is_ok(), "burst over, retry lands");
        assert_eq!(
            store.log_bytes(),
            b"aabb",
            "failed attempts persisted nothing"
        );
    }

    #[test]
    fn torn_append_persists_half_and_checkpoint_clears_it() {
        let writer_plan = plan(&[(1, FaultKind::TornAppend)]);
        let store = FaultStore::new(MemStore::healthy() as Arc<dyn WalStore>, writer_plan);
        let gc = committer(&store);
        gc.commit(0, 1, &[(1, 10)]).unwrap();
        let err = gc.commit(0, 2, &[(2, 20)]).unwrap_err();
        assert!(matches!(
            err.error,
            BatchError::Append(StoreError::Torn { persisted, .. }) if persisted > 0
        ));
        // The log now ends in a damaged frame; recovery keeps the prefix.
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(tail, TailStatus::Torn { .. }));
        // A checkpoint truncates the damage; appends can resume cleanly.
        let snap = crate::snapshot::Snapshot {
            epoch: 0,
            entries: vec![(1, 10)],
        };
        store.checkpoint(&snap.encode()).unwrap();
        gc.commit(0, 3, &[(3, 30)]).unwrap();
        let r = recover_store(&*store).unwrap();
        assert!(r.tail.is_clean());
        assert_eq!(
            r.state.into_iter().collect::<Vec<_>>(),
            vec![(1, 10), (3, 30)]
        );
    }

    #[test]
    fn permanent_fault_is_sticky() {
        let store = FaultStore::new(
            MemStore::healthy() as Arc<dyn WalStore>,
            plan(&[(0, FaultKind::PermanentAppend)]),
        );
        assert!(matches!(store.append(b"x"), Err(StoreError::Permanent(_))));
        assert!(matches!(store.append(b"y"), Err(StoreError::Permanent(_))));
        assert!(matches!(store.sync(), Err(StoreError::Permanent(_))));
        assert!(matches!(
            store.checkpoint(b"snap"),
            Err(StoreError::Permanent(_))
        ));
        assert!(store.log_bytes().is_empty());
    }

    #[test]
    fn sync_fail_fires_once_after_the_marked_append() {
        let store = FaultStore::new(
            MemStore::healthy() as Arc<dyn WalStore>,
            plan(&[(0, FaultKind::SyncFail)]),
        );
        assert!(store.append(b"aa").is_ok(), "the append itself lands");
        assert!(matches!(store.sync(), Err(StoreError::Permanent(_))));
        assert!(store.sync().is_ok(), "one-shot: the store recovers");
        assert_eq!(store.log_bytes(), b"aa");
    }

    #[test]
    fn fsync_failure_over_a_file_store_leaves_prefix_recoverable() {
        use crate::file::FileStore;
        use std::path::PathBuf;
        let dir: PathBuf =
            std::env::temp_dir().join(format!("stm-wal-faultfile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FaultStore::new(
            FileStore::open(&dir).unwrap() as Arc<dyn WalStore>,
            plan(&[(1, FaultKind::SyncFail)]),
        );
        let gc = committer(&store);
        gc.commit(0, 1, &[(1, 10)]).unwrap();
        let err = gc.commit(0, 2, &[(2, 20)]).unwrap_err();
        assert!(
            matches!(err.error, BatchError::Sync(_)),
            "injected fsync failure"
        );
        // Reopen the real files: everything appended before the failed
        // sync is still a decodable log (the simulated failure did not
        // actually drop bytes — which is exactly why the record is "in
        // doubt" rather than known-lost).
        drop(gc);
        drop(store);
        let rebooted = FileStore::open(&dir).unwrap();
        let r = recover_store(&*rebooted).unwrap();
        assert!(!r.records.is_empty());
        assert_eq!(r.records[0].commit_ts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
