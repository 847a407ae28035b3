//! Fail-fast thread joins for the stress and engine tests: a wedged
//! worker panics the test within [`DEADLINE`], after dumping the
//! flight recorder's last events to stderr, instead of hanging the
//! suite. Included by `#[path]` (no crate of its own); the including
//! test file imports the telemetry crate's `flight` module at its root.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::flight;

/// How long one run may take before it counts as wedged.
pub const DEADLINE: Duration = Duration::from_secs(20);

/// The deadline for a run starting now. Turns the flight recorder on
/// (process-wide) so a wedge has events to dump.
pub fn deadline() -> Instant {
    flight::set_enabled(true);
    Instant::now() + DEADLINE
}

/// Panic, after dumping the flight recorder, once `deadline` passes.
pub fn check_deadline(deadline: Instant, what: &str) {
    if Instant::now() > deadline {
        flight::dump_to_stderr(what);
        panic!("{what}: still running after {DEADLINE:?}");
    }
}

/// Join every handle and return the workers' results in order, failing
/// via [`check_deadline`] if any is still running at `deadline`. A
/// worker's panic propagates.
pub fn join_by<T>(handles: Vec<JoinHandle<T>>, deadline: Instant, what: &str) -> Vec<T> {
    while !handles.iter().all(|h| h.is_finished()) {
        check_deadline(deadline, what);
        std::thread::sleep(Duration::from_millis(10));
    }
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}
