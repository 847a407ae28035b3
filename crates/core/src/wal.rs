//! WAL plumbing for the commit path (the runtime's, for both
//! protocols): an instance-level [`WalControl`] holding
//! the attached [`stm_api::wal::WalSink`] and the instance's durability
//! epoch, and a per-thread [`WalLocal`] caching the sink pointer.
//!
//! The shape mirrors `trace` (the `record` feature's plumbing), minus
//! the activation handshake: a WAL sink is never drained while workers
//! run — recovery reads the *store*, which synchronizes internally —
//! so the per-attempt cost is one `Relaxed` load when detached and one
//! branch on a cached `Option` when attached.
//!
//! The durability epoch differs from the trace epoch in one way: it
//! also advances on clock roll-over. Recording must poison its sink
//! there (stripe versions renumber with no boundary the checker could
//! segment on), but the WAL only needs `(epoch, commit_ts)` uniqueness
//! and per-key monotonicity — properties an epoch bump restores — so
//! durability survives roll-over where recording cannot.

use core::sync::atomic::{AtomicU64, Ordering};
use parking_lot::Mutex;
use std::sync::Arc;
use stm_api::wal::WalSink;

/// Instance-level durability state: the attached sink (if any) and the
/// durability epoch every published record is stamped with.
#[derive(Default)]
pub struct WalControl {
    /// The attached sink; swapped under the mutex.
    sink: Mutex<Option<Arc<dyn WalSink>>>,
    /// Bumped on every attach/detach; 0 means "never attached".
    generation: AtomicU64,
    /// Durability epoch. Bumped only inside quiesce fences (reconfigure
    /// and clock roll-over), which exclude entered transactions, so a
    /// `Relaxed` read inside the gate is race-free.
    epoch: AtomicU64,
}

impl WalControl {
    /// Fresh control with nothing attached.
    pub fn new() -> WalControl {
        WalControl::default()
    }

    /// Attach a sink: every subsequently committed update transaction
    /// publishes its write set before releasing its stripe locks.
    pub fn attach(&self, sink: &Arc<dyn WalSink>) {
        let mut guard = self.sink.lock();
        *guard = Some(Arc::clone(sink));
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Detach the current sink; threads stop publishing at their next
    /// attempt. A commit already in its critical section may publish
    /// once more — the `Arc` keeps the sink valid for it.
    pub fn detach(&self) {
        let mut guard = self.sink.lock();
        *guard = None;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Current generation (pairs with [`WalLocal::sink`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Current durability epoch (read inside the quiesce gate only).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Bump the durability epoch. Must be called inside a quiesce fence
    /// (no transaction can be mid-commit).
    pub fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the attached sink (slow path).
    fn current(&self) -> (u64, Option<Arc<dyn WalSink>>) {
        let guard = self.sink.lock();
        (self.generation.load(Ordering::Acquire), guard.clone())
    }
}

/// Per-thread cache of the attached sink.
#[derive(Default)]
pub struct WalLocal {
    /// Generation this cache was refreshed at (0 = never attached).
    generation: u64,
    /// The sink to publish through, if durability is on.
    sink: Option<Arc<dyn WalSink>>,
}

impl WalLocal {
    /// Fresh, detached cache.
    pub fn new() -> WalLocal {
        WalLocal::default()
    }

    /// The sink to publish this attempt's commit through, refreshing
    /// the cache if the control's generation moved (attach/detach).
    #[inline]
    pub fn sink(&mut self, control: &WalControl) -> Option<&Arc<dyn WalSink>> {
        let generation = control.generation();
        if generation != self.generation {
            let (generation, sink) = control.current();
            self.sink = sink;
            self.generation = generation;
        }
        self.sink.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountingSink {
        published: AtomicU64,
    }

    impl WalSink for CountingSink {
        fn publish(
            &self,
            _epoch: u64,
            _commit_ts: u64,
            _writes: &[(usize, usize)],
        ) -> Result<(), stm_api::wal::PublishError> {
            self.published.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn detached_control_yields_no_sink_without_locking() {
        let control = WalControl::new();
        let mut local = WalLocal::new();
        assert!(local.sink(&control).is_none());
        assert_eq!(control.generation(), 0);
        assert_eq!(control.epoch(), 0);
    }

    #[test]
    fn attach_publish_detach_cycle() {
        let control = WalControl::new();
        let sink = Arc::new(CountingSink::default());
        let dyn_sink: Arc<dyn WalSink> = Arc::clone(&sink) as Arc<dyn WalSink>;
        control.attach(&dyn_sink);
        let mut local = WalLocal::new();
        local
            .sink(&control)
            .expect("attached")
            .publish(0, 1, &[(8, 9)])
            .unwrap();
        control.detach();
        assert!(local.sink(&control).is_none());
        assert_eq!(sink.published.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn epoch_advances() {
        let control = WalControl::new();
        control.advance_epoch();
        control.advance_epoch();
        assert_eq!(control.epoch(), 2);
    }
}
