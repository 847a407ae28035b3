//! The closed-loop trial runner every workload shares: `CLIENTS`
//! threads, each issuing its next operation when the previous one
//! returned, through a warm-up and a measured window per trial.

use crate::hist::Hist;
use crate::report::Outcome;
use crate::span::Span;
use crate::spec;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one client measured in one trial's window.
pub struct Recorder {
    /// Operations begun inside the window.
    pub ops: u64,
    /// Of those, operations the system failed or refused.
    pub failed: u64,
    /// Nanoseconds per timed operation.
    pub op_hist: Hist,
    /// Nanoseconds per burst of `READ_BURST` reads.
    pub read_hist: Hist,
    /// Milliseconds per `StmService::checkpoint()` call.
    pub checkpoints_ms: Vec<f64>,
    /// `client.put` spans; `Some` in a traced trial.
    pub spans: Option<Vec<Span>>,
}

impl Recorder {
    fn new(traced: bool) -> Recorder {
        Recorder {
            ops: 0,
            failed: 0,
            op_hist: Hist::new(),
            read_hist: Hist::new(),
            checkpoints_ms: Vec::new(),
            spans: traced.then(Vec::new),
        }
    }
}

/// One closed-loop client. It owns its key schedule and whatever it
/// must remember to verify the outputs afterwards.
pub trait Client: Send {
    /// Issue one operation and wait for it. `rec` is `Some` while the
    /// measured window is open.
    fn step(&mut self, rec: Option<&mut Recorder>);

    /// Issue one burst of `READ_BURST` reads.
    fn read_burst(&mut self);

    /// A timed read burst follows every this many steps.
    fn read_every(&self) -> u64 {
        spec::READ_EVERY
    }
}

pub struct Trial {
    /// Length of the measured window.
    pub elapsed: Duration,
    /// One recorder per client, in client order.
    pub recorders: Vec<Recorder>,
}

impl Trial {
    pub fn ops(&self) -> u64 {
        self.recorders.iter().map(|r| r.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.recorders.iter().map(|r| r.failed).sum()
    }

    pub fn op_hist(&self) -> Hist {
        self.merged(|r| &r.op_hist)
    }

    pub fn read_hist(&self) -> Hist {
        self.merged(|r| &r.read_hist)
    }

    fn merged(&self, of: impl Fn(&Recorder) -> &Hist) -> Hist {
        let mut all = Hist::new();
        for r in &self.recorders {
            all.merge(of(r));
        }
        all
    }
}

const PAUSE: u8 = 0;
const WARM: u8 = 1;
const MEASURE: u8 = 2;
const STOP: u8 = 3;

/// What the coordinator and the client threads share.
struct Shared {
    phase: AtomicU8,
    /// Whether the trial now running records `client.put` spans.
    traced: AtomicBool,
    /// Paused clients sleep here until the phase moves on.
    lock: Mutex<()>,
    moved: Condvar,
}

impl Shared {
    fn set_phase(&self, phase: u8) {
        // Under the lock, so a client about to sleep on PAUSE cannot
        // miss the wake-up.
        let _guard = self.lock.lock().expect("phase lock poisoned");
        self.phase.store(phase, Ordering::Release);
        self.moved.notify_all();
    }

    fn sleep_while_paused(&self) {
        let mut guard = self.lock.lock().expect("phase lock poisoned");
        while self.phase.load(Ordering::Acquire) == PAUSE {
            guard = self.moved.wait(guard).expect("phase lock poisoned");
        }
    }
}

/// Stops the client threads when the coordinator is done with them —
/// also when it panics, so the scope's join cannot hang.
struct StopOnDrop<'a>(&'a Shared);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set_phase(STOP);
    }
}

fn client_loop<C: Client>(
    index: usize,
    client: &mut C,
    shared: &Shared,
    results: mpsc::Sender<(usize, Recorder)>,
) {
    let read_every = client.read_every();
    let mut steps = 0u64;
    let mut rec: Option<Recorder> = None;
    loop {
        let phase = shared.phase.load(Ordering::Acquire);
        if phase == PAUSE || phase == STOP {
            // The window just closed: hand its recorder over.
            if let Some(done) = rec.take() {
                let _ = results.send((index, done));
            }
            if phase == STOP {
                return;
            }
            shared.sleep_while_paused();
            continue;
        }
        let measuring = phase == MEASURE;
        if measuring && rec.is_none() {
            rec = Some(Recorder::new(shared.traced.load(Ordering::Relaxed)));
        }
        client.step(rec.as_mut());
        steps += 1;
        if steps.is_multiple_of(read_every) {
            let started = Instant::now();
            client.read_burst();
            if let Some(rec) = rec.as_mut() {
                rec.read_hist.record(started.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// The running clients, as the coordinator sees them.
pub struct Session<'a> {
    shared: &'a Shared,
    results: mpsc::Receiver<(usize, Recorder)>,
    clients: usize,
}

impl Session<'_> {
    /// Run one trial: every client loops through `warmup`, then through
    /// the measured `window`, timing a read burst every `read_every`
    /// steps, then pauses. `on_open` runs as the window opens,
    /// `on_close` right after it closed, while requests may still be
    /// in flight.
    pub fn trial(
        &self,
        warmup: Duration,
        window: Duration,
        traced: bool,
        on_open: impl FnOnce(),
        on_close: impl FnOnce(),
    ) -> Trial {
        self.shared.traced.store(traced, Ordering::Relaxed);
        self.shared.set_phase(WARM);
        std::thread::sleep(warmup);
        on_open();
        self.shared.set_phase(MEASURE);
        let opened = Instant::now();
        std::thread::sleep(window);
        self.shared.set_phase(PAUSE);
        let elapsed = opened.elapsed();
        on_close();
        let mut recorders: Vec<(usize, Recorder)> = (0..self.clients)
            .map(|_| self.results.recv().expect("a client thread died"))
            .collect();
        recorders.sort_by_key(|(index, _)| *index);
        Trial {
            elapsed,
            recorders: recorders.into_iter().map(|(_, r)| r).collect(),
        }
    }
}

/// Start one thread per client, hand the coordinator a [`Session`] to
/// run trials on, and stop the threads when it returns. The threads
/// live across the trials, as a service's callers would (and so the
/// allocator sees one set of threads, not a new one per trial).
pub fn with_clients<C: Client, R>(clients: &mut [C], body: impl FnOnce(&Session<'_>) -> R) -> R {
    let shared = Shared {
        phase: AtomicU8::new(PAUSE),
        traced: AtomicBool::new(false),
        lock: Mutex::new(()),
        moved: Condvar::new(),
    };
    let (tx, rx) = mpsc::channel();
    let n = clients.len();
    std::thread::scope(|scope| {
        for (index, client) in clients.iter_mut().enumerate() {
            let (shared, tx) = (&shared, tx.clone());
            scope.spawn(move || client_loop(index, client, shared, tx));
        }
        let _stop = StopOnDrop(&shared);
        body(&Session {
            shared: &shared,
            results: rx,
            clients: n,
        })
    })
}

/// Record the end-to-end metrics every workload reads off its
/// windows. `ops_per_s` holds one value per trial; a timed operation
/// stands for `ops_per_timed` operations (the `intset-*` batches).
pub fn put_window_metrics(
    out: &mut Outcome,
    trials: &[&Trial],
    ops_per_s: &[f64],
    ops_per_timed: u64,
) {
    let op_hists: Vec<Hist> = trials.iter().map(|t| t.op_hist()).collect();
    let read_hists: Vec<Hist> = trials.iter().map(|t| t.read_hist()).collect();
    let per_op_us = |h: &Hist, p: f64| h.percentile(p) / ops_per_timed as f64 / 1_000.0;
    let samples = |hs: &[Hist]| hs.iter().map(Hist::count).min().unwrap_or(0);
    let p50: Vec<f64> = op_hists.iter().map(|h| per_op_us(h, 50.0)).collect();
    let p99: Vec<f64> = op_hists.iter().map(|h| per_op_us(h, 99.0)).collect();
    let read: Vec<f64> = read_hists
        .iter()
        .map(|h| h.percentile(50.0) / 1_000.0)
        .collect();
    out.put_best("ops_per_s", ops_per_s, 0);
    out.put_best("op_p50_us", &p50, samples(&op_hists));
    out.put_best("op_p99_us", &p99, samples(&op_hists));
    out.put_best("read16_p50_us", &read, samples(&read_hists));
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        steps: u64,
        bursts: u64,
        read_every: u64,
    }

    impl Client for Counting {
        fn step(&mut self, rec: Option<&mut Recorder>) {
            self.steps += 1;
            std::thread::sleep(Duration::from_micros(200));
            if let Some(rec) = rec {
                rec.ops += 1;
                rec.op_hist.record(200_000);
            }
        }

        fn read_burst(&mut self) {
            self.bursts += 1;
        }

        fn read_every(&self) -> u64 {
            self.read_every
        }
    }

    #[test]
    fn only_the_window_is_recorded_and_reads_follow_every_nth_step() {
        let mut clients = vec![
            Counting {
                steps: 0,
                bursts: 0,
                read_every: 1,
            },
            Counting {
                steps: 0,
                bursts: 0,
                read_every: 4,
            },
        ];
        let mut opened = 0;
        let mut closed = 0;
        let trials: Vec<Trial> = with_clients(&mut clients, |session| {
            [false, true]
                .into_iter()
                .map(|traced| {
                    session.trial(
                        Duration::from_millis(20),
                        Duration::from_millis(40),
                        traced,
                        || opened += 1,
                        || closed += 1,
                    )
                })
                .collect()
        });
        assert_eq!((opened, closed), (2, 2));
        for (trial, traced) in trials.iter().zip([false, true]) {
            assert!(trial.elapsed >= Duration::from_millis(40));
            for rec in &trial.recorders {
                assert!(rec.ops > 0);
                assert_eq!(rec.op_hist.count(), rec.ops);
                assert_eq!(rec.spans.is_some(), traced);
            }
            assert_eq!(trial.ops(), trial.op_hist().count());
        }
        for (i, client) in clients.iter().enumerate() {
            let recorded: u64 = trials.iter().map(|t| t.recorders[i].ops).sum();
            assert!(client.steps > recorded, "warm-up steps are not recorded");
            assert_eq!(client.bursts, client.steps / client.read_every);
            let bursts: u64 = trials
                .iter()
                .map(|t| t.recorders[i].read_hist.count())
                .sum();
            assert!(bursts <= client.bursts && bursts + 2 >= recorded / client.read_every);
        }
    }
}
