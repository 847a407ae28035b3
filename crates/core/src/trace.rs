//! Recording plumbing for the `record` cargo feature (the runtime's,
//! for both protocols): an instance-level [`TraceControl`]
//! holding the attached [`stm_check::TraceSink`] and the instance's
//! reconfigure-epoch counter, and a per-thread [`TraceLocal`] that
//! caches this thread's registered session log.
//!
//! Cost model: with no sink attached (or after detach) the per-attempt
//! cost is one `Relaxed` atomic load (the generation check); per-access
//! cost is one branch on a cached `Option`. When recording, each
//! attempt additionally pays the activation handshake (one SeqCst
//! store + one SeqCst load) that makes [`TraceSink::drain_history`]
//! safe. The registry mutex is only taken when a thread first observes
//! a new generation. With the feature disabled none of this exists.

use core::sync::atomic::{AtomicU64, Ordering};
use parking_lot::Mutex;
use std::sync::Arc;
use stm_check::{SessionLog, TraceSink};

/// Instance-level recording state: which sink (if any) is attached,
/// and the reconfigure epoch every recorded `Begin` is stamped with.
#[derive(Debug, Default)]
pub struct TraceControl {
    /// The attached sink; swapped under the mutex.
    sink: Mutex<Option<Arc<TraceSink>>>,
    /// Bumped on every attach/detach; 0 means "never attached", which
    /// lets threads skip the mutex entirely on the common path.
    generation: AtomicU64,
    /// Reconfigure epoch. Bumped only inside the reconfiguration's
    /// quiesce fence (which excludes entered transactions), so a
    /// `Relaxed` read inside the gate is race-free — the fence's own
    /// synchronization publishes the bump.
    epoch: AtomicU64,
}

impl TraceControl {
    /// Fresh control with nothing attached.
    pub fn new() -> TraceControl {
        TraceControl::default()
    }

    /// Attach a sink: subsequent transaction attempts on every thread
    /// record into sessions registered with it.
    pub fn attach(&self, sink: &Arc<TraceSink>) {
        let mut guard = self.sink.lock();
        *guard = Some(Arc::clone(sink));
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Detach the current sink; threads stop recording at their next
    /// attempt (their already-registered session logs stay alive in the
    /// sink for draining).
    pub fn detach(&self) {
        let mut guard = self.sink.lock();
        *guard = None;
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Current generation (Relaxed; pairs with [`TraceLocal::session`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Current reconfigure epoch (read inside the quiesce gate only;
    /// see the field docs for why `Relaxed` suffices).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Bump the reconfigure epoch. Must be called inside a quiesce
    /// fence (no transaction can be mid-attempt).
    pub fn advance_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Poison the attached sink (if any) because the clock rolled over
    /// mid-recording: versions renumber without an epoch boundary, so
    /// the history would be unsound. Called inside the roll-over fence.
    pub fn mark_rollover(&self) {
        if let Some(sink) = &*self.sink.lock() {
            sink.mark_rollover();
        }
    }

    /// Snapshot the attached sink (slow path).
    fn current(&self) -> (u64, Option<Arc<TraceSink>>) {
        let guard = self.sink.lock();
        (self.generation.load(Ordering::Acquire), guard.clone())
    }
}

/// Per-thread cache of the registered session log.
#[derive(Debug, Default)]
pub struct TraceLocal {
    /// Generation this cache was refreshed at (0 = never attached).
    generation: u64,
    /// This thread's session in the attached sink, if recording.
    log: Option<(Arc<TraceSink>, Arc<SessionLog>)>,
}

impl TraceLocal {
    /// Fresh, detached cache.
    pub fn new() -> TraceLocal {
        TraceLocal::default()
    }

    /// The session log to record this attempt into, refreshing the
    /// cache if the control's generation moved (attach/detach). On
    /// success the session has been *activated* for this attempt — the
    /// caller must bracket it with an [`stm_check::AttemptGuard`] so it
    /// deactivates when the attempt ends (commit, abort, or panic).
    /// Returns `None` when not recording or when the sink has been
    /// closed for draining.
    #[inline]
    pub fn session(&mut self, control: &TraceControl) -> Option<&SessionLog> {
        let generation = control.generation();
        if generation != self.generation {
            let (generation, sink) = control.current();
            self.log = sink.map(|s| {
                let log = s.register_session();
                (s, log)
            });
            self.generation = generation;
        }
        let activated = match &self.log {
            Some((sink, log)) => log.try_activate(sink),
            None => return None,
        };
        if !activated {
            // The sink was closed for draining: stop recording for good
            // (a fresh attach bumps the generation and re-registers).
            self.log = None;
            return None;
        }
        self.log.as_ref().map(|(_, log)| &**log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_check::Event;

    #[test]
    fn detached_control_yields_no_session_without_locking() {
        let control = TraceControl::new();
        let mut local = TraceLocal::new();
        assert!(local.session(&control).is_none());
        assert_eq!(control.generation(), 0);
        assert_eq!(control.epoch(), 0);
    }

    #[test]
    fn attach_registers_one_session_per_thread_cache() {
        let control = TraceControl::new();
        let sink = TraceSink::new();
        control.attach(&sink);
        let mut local = TraceLocal::new();
        // Two attempts reuse the same session.
        for start in 0..2 {
            let log = local.session(&control).expect("recording");
            // SAFETY: single-threaded test, this is the owning thread,
            // and the session was activated by `session`.
            unsafe {
                log.push(Event::Begin { start, epoch: 0 });
                log.push(Event::Commit { version: None });
            }
            log.deactivate();
        }
        assert_eq!(sink.session_count(), 1);
        let history = sink.drain_history().unwrap();
        assert_eq!(history.sessions.len(), 1);
        assert_eq!(history.sessions[0].len(), 2);
    }

    #[test]
    fn detach_stops_recording_at_next_attempt() {
        let control = TraceControl::new();
        let sink = TraceSink::new();
        control.attach(&sink);
        let mut local = TraceLocal::new();
        local.session(&control).expect("recording").deactivate();
        control.detach();
        assert!(local.session(&control).is_none());
        // Re-attach registers a fresh session.
        control.attach(&sink);
        local.session(&control).expect("recording").deactivate();
        assert_eq!(sink.session_count(), 2);
    }

    #[test]
    fn closed_sink_stops_recording_without_detach() {
        let control = TraceControl::new();
        let sink = TraceSink::new();
        control.attach(&sink);
        let mut local = TraceLocal::new();
        local.session(&control).expect("recording").deactivate();
        let _ = sink.drain_history().unwrap();
        // The drain closed the sink: the next attempt must not record.
        assert!(local.session(&control).is_none());
        assert!(local.session(&control).is_none(), "stays off");
    }

    #[test]
    fn epoch_advances_and_marks_rollover() {
        let control = TraceControl::new();
        assert_eq!(control.epoch(), 0);
        control.advance_epoch();
        control.advance_epoch();
        assert_eq!(control.epoch(), 2);
        // No sink attached: marking a roll-over is a no-op.
        control.mark_rollover();
        let sink = TraceSink::new();
        control.attach(&sink);
        control.mark_rollover();
        assert!(matches!(
            sink.drain_history(),
            Err(stm_check::RecordingError::ClockRollover { rollovers: 1 })
        ));
    }
}
