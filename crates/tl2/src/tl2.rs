//! The TL2 algorithm (Dice, Shalev, Shavit — DISC 2006), word-based,
//! as the comparison baseline of the TinySTM paper.
//!
//! Key contrasts with TinySTM that the paper's figures exercise:
//!
//! * **commit-time locking** — writes are buffered and locks acquired
//!   only at commit, so doomed transactions keep running (the linked-
//!   list figures show this as wasted traversal work);
//! * **no snapshot extension** — a read observing a version newer than
//!   the start timestamp `rv` aborts immediately;
//! * **read-after-write via Bloom filter + write-set scan** instead of
//!   lock-resident entry chains.
//!
//! The global clock, quiesce fence, and limbo reclamation substrates are
//! shared with the `tinystm` crate.
//!
//! ## Memory ordering
//!
//! Same per-site protocol as `tinystm::tx` (DESIGN.md §3), so the
//! TinySTM-vs-TL2 comparison measures algorithms, not fence budgets:
//! Acquire lock loads (R1/R5), the Relaxed-data + Acquire-fence +
//! Relaxed-l2 seqlock re-check (R3/F1/R4), AcqRel acquiring CAS (W1),
//! Release write-back and lock-release stores (W3/W4/W5), SeqCst kept
//! only on the quiesce gate (Q1), the clock (C1/C2), and the
//! `active_start` begin-path publication (S2). TL2 never writes data
//! before commit-time validation, so there is no write-through W2/W6
//! analogue.

use crate::bloom::Bloom;
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::sync::Arc;
use stm_api::{atomic_view, Abort, AbortReason, RunError, TmHandle, TmTx, TxKind, TxResult};
use tinystm::clock::GlobalClock;
use tinystm::config::{CmPolicy, ConfigError, MAX_LOCKS_LOG2, MAX_SHIFTS};
use tinystm::mem::Limbo;
use tinystm::quiesce::Quiesce;
use tinystm::stats::{StatsSnapshot, ThreadStats};

/// Bound on l1/value/l2 re-read loops, as in the TinySTM core.
const MAX_READ_RETRIES: u32 = 64;

/// TL2 configuration. The reference implementation fixes its parameters
/// at build time; they are constructor arguments here. [`Tl2::reconfigure`]
/// can swap them at runtime through the shared quiesce fence — kept for
/// operational parity with the TinySTM core (recorded runs must survive
/// a mid-window lock-array swap on every backend); the *tuner* still
/// targets TinySTM only, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tl2Config {
    /// log2 of the lock-array size. TL2's default sizing (2^20).
    pub locks_log2: u32,
    /// Extra right shifts in the address hash (word shift of 3 implied).
    pub shifts: u32,
    /// Clock roll-over threshold (kept configurable for tests).
    pub max_clock: u64,
    /// Retry-loop contention management.
    pub cm: CmPolicy,
}

impl Default for Tl2Config {
    fn default() -> Self {
        Tl2Config {
            locks_log2: 20,
            shifts: 0,
            max_clock: 1 << 50,
            cm: CmPolicy::Immediate,
        }
    }
}

impl Tl2Config {
    /// Builder-style setter for `locks_log2`.
    pub fn with_locks_log2(mut self, v: u32) -> Self {
        self.locks_log2 = v;
        self
    }

    /// Builder-style setter for `shifts`.
    pub fn with_shifts(mut self, v: u32) -> Self {
        self.shifts = v;
        self
    }

    /// Builder-style setter for the roll-over threshold.
    pub fn with_max_clock(mut self, v: u64) -> Self {
        self.max_clock = v;
        self
    }

    /// Builder-style setter for contention management.
    pub fn with_cm(mut self, cm: CmPolicy) -> Self {
        self.cm = cm;
        self
    }

    /// Check invariants (same bounds as the TinySTM core).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.locks_log2 == 0 || self.locks_log2 > MAX_LOCKS_LOG2 {
            return Err(ConfigError::LocksOutOfRange(self.locks_log2));
        }
        if self.shifts > MAX_SHIFTS {
            return Err(ConfigError::ShiftsOutOfRange(self.shifts));
        }
        if self.max_clock < 16 {
            return Err(ConfigError::MaxClockTooSmall(self.max_clock));
        }
        Ok(())
    }
}

/// A buffered write.
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    addr: *mut usize,
    value: usize,
    lock_idx: usize,
}

/// Per-thread TL2 transaction state.
struct Tl2Ctx {
    kind: TxKind,
    /// Read (start) timestamp `rv`.
    rv: u64,
    rset: Vec<usize>,
    wset: Vec<WriteEntry>,
    bloom: Bloom,
    /// Locks acquired at commit: `(lock_idx, prior_word)`.
    acquired: Vec<(usize, usize)>,
    alloc_log: Vec<(usize, usize)>,
    free_log: Vec<(usize, usize)>,
    alloc_freed: Vec<(usize, usize)>,
    attempt_reads: u64,
    /// Lock index of the stripe the last abort collided on (consumed by
    /// the CM_DELAY policy at the next attempt's start).
    last_contended: Option<usize>,
    consecutive_aborts: u32,
    rng: u64,
    /// Scratch buffer for the commit-path WAL publish (recycled).
    wal_scratch: Vec<(usize, usize)>,
}

impl Tl2Ctx {
    fn new(seed: u64) -> Tl2Ctx {
        Tl2Ctx {
            kind: TxKind::ReadWrite,
            rv: 0,
            rset: Vec::new(),
            wset: Vec::new(),
            bloom: Bloom::new(),
            acquired: Vec::new(),
            alloc_log: Vec::new(),
            free_log: Vec::new(),
            alloc_freed: Vec::new(),
            attempt_reads: 0,
            last_contended: None,
            consecutive_aborts: 0,
            rng: seed | 1,
            wal_scratch: Vec::new(),
        }
    }

    fn begin(&mut self, kind: TxKind, rv: u64) {
        self.kind = kind;
        self.rv = rv;
        self.rset.clear();
        self.wset.clear();
        self.bloom.clear();
        self.acquired.clear();
        self.alloc_log.clear();
        self.free_log.clear();
        self.alloc_freed.clear();
        self.attempt_reads = 0;
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Per-(thread × instance) state, pinned in the registry.
struct ThreadState {
    stats: ThreadStats,
    /// Bloom hits that the write-set scan disconfirmed.
    bloom_false_positives: AtomicU64,
    active_start: AtomicU64,
    ctx: UnsafeCell<Tl2Ctx>,
    /// Cached recording session — owning thread only.
    #[cfg(feature = "record")]
    trace: UnsafeCell<tinystm::trace::TraceLocal>,
    /// Cached WAL sink — owning thread only.
    wal: UnsafeCell<tinystm::wal::WalLocal>,
}

// SAFETY: ctx is only touched by the owning thread; everything else is
// atomic.
unsafe impl Sync for ThreadState {}
unsafe impl Send for ThreadState {}

/// The swappable per-configuration state: the lock array and the hash
/// parameters derived from the configuration. Pinned for the duration
/// of an attempt (the quiesce gate excludes [`Tl2::reconfigure`]'s
/// fence), swapped wholesale inside the fence.
struct Tl2Map {
    locks: Box<[AtomicUsize]>,
    lock_mask: usize,
    addr_shift: u32,
    config: Tl2Config,
}

impl Tl2Map {
    fn new(config: Tl2Config) -> Tl2Map {
        let n = 1usize << config.locks_log2;
        let locks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        Tl2Map {
            locks: locks.into_boxed_slice(),
            lock_mask: n - 1,
            addr_shift: 3 + config.shifts,
            config,
        }
    }
}

struct Tl2Inner {
    id: u64,
    clock: GlobalClock,
    quiesce: Quiesce,
    /// Site S1 (as in `tinystm::stm`): Acquire load in the run loop,
    /// AcqRel swap inside the reconfigure fence.
    map: AtomicPtr<Tl2Map>,
    limbo: Limbo,
    registry: Mutex<Vec<Arc<ThreadState>>>,
    /// Mirror of the active configuration (the authoritative copy lives
    /// in the map; this one is readable without pinning).
    config_mirror: Mutex<Tl2Config>,
    rollovers: AtomicU64,
    reconfigurations: AtomicU64,
    /// Hot-path telemetry instruments (commit latency / retries),
    /// runtime-gated — disabled they cost one Relaxed load per `run`.
    telemetry: stm_telemetry::TxMetrics,
    /// Attached event-recording sink, if any.
    #[cfg(feature = "record")]
    trace: tinystm::trace::TraceControl,
    /// Attached WAL sink + durability epoch, if any.
    wal: tinystm::wal::WalControl,
    /// Active protocol mutation (checker self-tests only).
    #[cfg(feature = "fault-inject")]
    fault: tinystm::fault::FaultSwitch,
}

/// Aggregate TL2 statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tl2Stats {
    /// Sum of per-thread counters (same layout as the TinySTM core).
    pub totals: StatsSnapshot,
    /// Bloom-filter hits disconfirmed by the write-set scan.
    pub bloom_false_positives: u64,
    /// Clock roll-overs performed.
    pub rollovers: u64,
    /// Dynamic reconfigurations performed.
    pub reconfigurations: u64,
    /// Blocks awaiting reclamation.
    pub limbo_pending: usize,
    /// Registered threads.
    pub threads: usize,
}

/// A TL2 software transactional memory instance.
#[derive(Clone)]
pub struct Tl2 {
    inner: Arc<Tl2Inner>,
}

static NEXT_TL2_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_STATES: RefCell<Vec<(u64, Arc<ThreadState>)>> =
        const { RefCell::new(Vec::new()) };
}

impl Drop for Tl2Inner {
    fn drop(&mut self) {
        // Uniquely owned at drop; Acquire covers a reconfigure on
        // another thread just before the last handle moved here.
        let ptr = self.map.load(Ordering::Acquire);
        if !ptr.is_null() {
            // SAFETY: uniquely owned at drop; no transactions active.
            unsafe { drop(Box::from_raw(ptr)) };
        }
        self.limbo.reclaim_all();
    }
}

#[inline(always)]
fn is_owned(word: usize) -> bool {
    word & 1 != 0
}

#[inline(always)]
fn version_of(word: usize) -> u64 {
    debug_assert!(!is_owned(word));
    (word >> 1) as u64
}

#[inline(always)]
fn make_version(v: u64) -> usize {
    (v as usize) << 1
}

impl Tl2 {
    /// Create an instance with the given configuration.
    pub fn new(config: Tl2Config) -> Result<Tl2, ConfigError> {
        config.validate()?;
        let map = Box::into_raw(Box::new(Tl2Map::new(config)));
        Ok(Tl2 {
            inner: Arc::new(Tl2Inner {
                id: NEXT_TL2_ID.fetch_add(1, Ordering::Relaxed),
                clock: GlobalClock::new(config.max_clock),
                quiesce: Quiesce::new(),
                map: AtomicPtr::new(map),
                limbo: Limbo::new(),
                registry: Mutex::new(Vec::new()),
                config_mirror: Mutex::new(config),
                rollovers: AtomicU64::new(0),
                reconfigurations: AtomicU64::new(0),
                telemetry: stm_telemetry::TxMetrics::new(),
                #[cfg(feature = "record")]
                trace: tinystm::trace::TraceControl::new(),
                wal: tinystm::wal::WalControl::new(),
                #[cfg(feature = "fault-inject")]
                fault: tinystm::fault::FaultSwitch::default(),
            }),
        })
    }

    /// Create an instance with the default configuration.
    pub fn with_defaults() -> Tl2 {
        Tl2::new(Tl2Config::default()).expect("default config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> Tl2Config {
        *self.inner.config_mirror.lock()
    }

    fn thread_state(&self) -> Arc<ThreadState> {
        let id = self.inner.id;
        THREAD_STATES.with(|cell| {
            let mut v = cell.borrow_mut();
            if let Some((_, ts)) = v.iter().find(|(tid, _)| *tid == id) {
                return Arc::clone(ts);
            }
            v.retain(|(_, ts)| Arc::strong_count(ts) > 1);
            let ts = Arc::new(ThreadState {
                stats: ThreadStats::default(),
                bloom_false_positives: AtomicU64::new(0),
                active_start: AtomicU64::new(u64::MAX),
                ctx: UnsafeCell::new(Tl2Ctx::new(0xD1CE_5EED ^ (id << 20))),
                #[cfg(feature = "record")]
                trace: UnsafeCell::new(tinystm::trace::TraceLocal::new()),
                wal: UnsafeCell::new(tinystm::wal::WalLocal::new()),
            });
            self.inner.registry.lock().push(Arc::clone(&ts));
            v.push((id, Arc::clone(&ts)));
            ts
        })
    }

    /// Run `body` as a transaction, retrying until commit.
    ///
    /// # Panics
    ///
    /// Panics if the attempt hits a terminal failure ([`RunError`],
    /// e.g. a WAL publish error). The transaction is rolled back
    /// cleanly first; use [`Tl2::try_run`] to handle the error instead.
    pub fn run<R, F>(&self, kind: TxKind, body: F) -> R
    where
        F: for<'x> FnMut(&mut Tl2Tx<'x>) -> TxResult<R>,
    {
        match self.try_run(kind, body) {
            Ok(value) => value,
            Err(e) => panic!("Tl2::run: {e} (use try_run to handle this)"),
        }
    }

    /// Run `body` as a transaction, retrying until commit — or until a
    /// terminal failure (a WAL publish error) aborts the retry loop.
    /// The failed attempt is rolled back cleanly before returning.
    pub fn try_run<R, F>(&self, kind: TxKind, mut body: F) -> Result<R, RunError>
    where
        F: for<'x> FnMut(&mut Tl2Tx<'x>) -> TxResult<R>,
    {
        let ts = self.thread_state();
        let inner: &Tl2Inner = &self.inner;
        // Telemetry sampled once per `run` call (latency spans retries);
        // one Relaxed load each when disabled — see `tinystm::Stm`.
        let tele = &inner.telemetry;
        let tele_start = tele.enabled().then(std::time::Instant::now);
        let flight_on = stm_telemetry::flight::enabled();
        if flight_on {
            stm_telemetry::flight::record(
                tele.tag(),
                stm_telemetry::flight::FlightKind::Begin,
                0,
                0,
            );
        }
        loop {
            if inner.clock.overflowed() {
                self.handle_overflow();
            }
            // Guard form: exits the gate on drop even if `body` panics
            // (the harness tolerates panicking workers; a leaked enter
            // would wedge every later fence).
            let active = inner.quiesce.enter_guarded(&ts.active_start);
            // Site S1: the map is pinned for the attempt —
            // reconfiguration swaps it only inside a fence, which
            // excludes entered transactions.
            let map = unsafe { &*inner.map.load(Ordering::Acquire) };
            let cm = map.config.cm;
            // SAFETY: ctx belongs to this thread exclusively.
            let ctx = unsafe { &mut *ts.ctx.get() };
            // CM_DELAY: wait (bounded) for the stripe the last abort
            // collided on to drain before retrying; before the `rv`
            // sample so the wait cannot stale the snapshot.
            if let (CmPolicy::Delay, Some(idx)) = (cm, ctx.last_contended.take()) {
                delay_wait(&map.locks, idx);
            }
            // Site S2 (see tinystm::stm): publish the oldest-reader
            // marker before sampling `rv` — SeqCst for the Dekker race
            // with the limbo reclaimer; marker ≤ rv keeps reclamation
            // conservative.
            ts.active_start.store(inner.clock.now(), Ordering::SeqCst);
            let rv = inner.clock.now();
            ctx.begin(kind, rv);
            #[cfg(feature = "record")]
            // SAFETY: the trace local belongs to this thread.
            let trace = unsafe { &mut *ts.trace.get() }.session(&inner.trace);
            // Deactivates the session when the attempt ends, even if
            // `body` panics (a session left active would make every
            // later safe drain time out).
            #[cfg(feature = "record")]
            let _trace_attempt = trace.map(stm_check::AttemptGuard::new);
            #[cfg(feature = "record")]
            if let Some(log) = trace {
                // SAFETY: this thread owns the session log and
                // activated it above.
                unsafe {
                    log.push(stm_check::Event::Begin {
                        start: rv,
                        epoch: inner.trace.epoch(),
                    })
                };
            }

            // The WAL sink the commit publishes through, if attached.
            // SAFETY: the wal local belongs to this thread.
            let wal = unsafe { &mut *ts.wal.get() }.sink(&inner.wal);
            let outcome: Result<R, AbortReason> = {
                let mut tx = Tl2Tx {
                    inner,
                    map,
                    ts: &ts,
                    ctx,
                    finished: false,
                    #[cfg(feature = "record")]
                    trace,
                    wal: wal.map(|s| &**s),
                };
                match body(&mut tx) {
                    Ok(value) => match tx.commit() {
                        Ok(()) => Ok(value),
                        Err(r) => Err(r),
                    },
                    Err(Abort(reason)) => {
                        tx.rollback(reason);
                        Err(reason)
                    }
                }
            };

            drop(active);

            let ctx = unsafe { &mut *ts.ctx.get() };
            match outcome {
                Ok(value) => {
                    let retries = ctx.consecutive_aborts;
                    if let Some(start) = tele_start {
                        tele.record_commit(start.elapsed().as_nanos() as u64, u64::from(retries));
                    }
                    if flight_on {
                        stm_telemetry::flight::record(
                            tele.tag(),
                            stm_telemetry::flight::FlightKind::Commit,
                            0,
                            retries.min(u32::from(u16::MAX)) as u16,
                        );
                    }
                    ctx.consecutive_aborts = 0;
                    return Ok(value);
                }
                // Terminal: the attempt rolled back cleanly, but the
                // durable store refused the commit — retrying would
                // re-publish into the same failed sink.
                Err(AbortReason::WalFailed) => {
                    if flight_on {
                        stm_telemetry::flight::record(
                            tele.tag(),
                            stm_telemetry::flight::FlightKind::Abort,
                            AbortReason::WalFailed.index() as u8,
                            0,
                        );
                    }
                    return Err(RunError::WalFailed);
                }
                Err(reason) => {
                    if flight_on {
                        stm_telemetry::flight::record(
                            tele.tag(),
                            stm_telemetry::flight::FlightKind::Retry,
                            reason.index() as u8,
                            0,
                        );
                    }
                    ctx.consecutive_aborts = ctx.consecutive_aborts.saturating_add(1);
                    if matches!(reason, AbortReason::ClockOverflow) {
                        self.handle_overflow();
                    } else {
                        backoff(ctx, cm);
                    }
                }
            }
        }
    }

    /// Convenience: read-only transaction.
    pub fn run_ro<R, F>(&self, body: F) -> R
    where
        F: for<'x> FnMut(&mut Tl2Tx<'x>) -> TxResult<R>,
    {
        self.run(TxKind::ReadOnly, body)
    }

    fn handle_overflow(&self) {
        let inner: &Tl2Inner = &self.inner;
        inner.quiesce.fence(|| {
            if !inner.clock.overflowed() {
                return;
            }
            // SAFETY: fence ⇒ no transaction is active; the map cannot
            // be swapped concurrently (fencers are serialized).
            let map = unsafe { &*inner.map.load(Ordering::Acquire) };
            for l in map.locks.iter() {
                debug_assert!(!is_owned(l.load(Ordering::Relaxed)));
                // Relaxed: inside the fence; the gate (site Q1)
                // publishes to transactions entering after it lifts.
                l.store(0, Ordering::Relaxed);
            }
            inner.clock.reset();
            inner.limbo.reclaim_all();
            // Versions renumber with no epoch boundary: poison any
            // attached recording sink so the drain fails loudly.
            #[cfg(feature = "record")]
            inner.trace.mark_rollover();
            // Commit timestamps renumber for the WAL too, but an epoch
            // bump restores per-epoch monotonicity — durability
            // survives roll-over where recording cannot.
            inner.wal.advance_epoch();
            // Diagnostic counter (site S3).
            inner.rollovers.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Atomically switch to a new configuration: quiesce, swap the lock
    /// array + hash parameters, reset the clock and reclaim limbo. Same
    /// mechanism as [`tinystm::Stm::reconfigure`]; kept so recorded
    /// runs can cross a lock-array swap on every backend.
    ///
    /// Must not be called from inside a transaction closure (deadlock:
    /// the fence waits for the calling transaction itself).
    pub fn reconfigure(&self, config: Tl2Config) -> Result<(), ConfigError> {
        config.validate()?;
        let inner: &Tl2Inner = &self.inner;
        inner.quiesce.fence(|| {
            let fresh = Box::into_raw(Box::new(Tl2Map::new(config)));
            // Site S1: Release half publishes the fresh map's contents
            // to the run loop's Acquire load.
            let old = inner.map.swap(fresh, Ordering::AcqRel);
            // SAFETY: no transaction is active inside the fence, so no
            // one holds the old map.
            unsafe { drop(Box::from_raw(old)) };
            inner.clock.reset();
            inner.clock.set_max(config.max_clock);
            inner.limbo.reclaim_all();
            *inner.config_mirror.lock() = config;
            // Stripe IDs and clock values renumber across this fence:
            // recorded histories segment on the epoch.
            #[cfg(feature = "record")]
            inner.trace.advance_epoch();
            inner.wal.advance_epoch();
            inner.reconfigurations.fetch_add(1, Ordering::Relaxed);
        });
        Ok(())
    }

    /// Force limbo reclamation of safely reclaimable blocks.
    pub fn reclaim_now(&self) -> usize {
        let min_active = self
            .inner
            .registry
            .lock()
            .iter()
            // Site S2 (reclaimer side of the Dekker pattern): SeqCst.
            .map(|t| t.active_start.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        self.inner.limbo.try_reclaim(min_active)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> Tl2Stats {
        let registry = self.inner.registry.lock();
        let mut totals = StatsSnapshot::default();
        let mut fp = 0;
        for ts in registry.iter() {
            totals = totals.merged(&ts.stats.snapshot());
            fp += ts.bloom_false_positives.load(Ordering::Relaxed);
        }
        Tl2Stats {
            totals,
            bloom_false_positives: fp,
            rollovers: self.inner.rollovers.load(Ordering::Relaxed),
            reconfigurations: self.inner.reconfigurations.load(Ordering::Relaxed),
            limbo_pending: self.inner.limbo.len(),
            threads: registry.len(),
        }
    }

    /// Current clock value (diagnostics).
    pub fn clock_now(&self) -> u64 {
        self.inner.clock.now()
    }

    /// This instance's hot-path telemetry instruments (see
    /// [`tinystm::Stm::telemetry`] — same contract: disabled by
    /// default, the sharded engine tags each shard's instance here).
    pub fn telemetry(&self) -> &stm_telemetry::TxMetrics {
        &self.inner.telemetry
    }

    /// Attach an event-recording sink (see [`tinystm::Stm::attach_trace`]
    /// — same contract: [`Tl2::reconfigure`] during the window is fine,
    /// every `Begin` carries the reconfigure epoch; a clock roll-over
    /// poisons the sink and the safe drain fails loudly).
    #[cfg(feature = "record")]
    pub fn attach_trace(&self, sink: &std::sync::Arc<stm_check::TraceSink>) {
        self.inner.trace.attach(sink);
    }

    /// Current reconfigure epoch (see [`tinystm::Stm::record_epoch`]).
    #[cfg(feature = "record")]
    pub fn record_epoch(&self) -> u64 {
        self.inner.trace.epoch()
    }

    /// Stop recording; threads notice at their next attempt.
    #[cfg(feature = "record")]
    pub fn detach_trace(&self) {
        self.inner.trace.detach();
    }

    /// Activate a protocol mutation (checker self-tests only).
    #[cfg(feature = "fault-inject")]
    pub fn inject_fault(&self, fault: tinystm::fault::FaultInjection) {
        self.inner.fault.set(fault);
    }

    /// Run `critical` inside this instance's quiesce fence: no
    /// transaction is active while it runs and every prior commit is
    /// fully published. The checkpoint boundary of the durable layer.
    ///
    /// Must not be called from inside a transaction closure (deadlock:
    /// the fence waits for the calling transaction itself).
    pub fn quiesce<R>(&self, critical: impl FnOnce() -> R) -> R {
        self.inner.quiesce.fence(critical)
    }

    /// Attach a WAL sink (see [`tinystm::Stm::attach_wal`] — same
    /// contract: committed update transactions publish their write set
    /// before releasing their stripe locks).
    pub fn attach_wal(&self, sink: &std::sync::Arc<dyn stm_api::wal::WalSink>) {
        self.inner.wal.attach(sink);
    }

    /// Stop publishing to the WAL sink; threads notice at their next
    /// attempt.
    pub fn detach_wal(&self) {
        self.inner.wal.detach();
    }

    /// Current durability epoch (advances on reconfigure *and* clock
    /// roll-over).
    pub fn wal_epoch(&self) -> u64 {
        self.inner.wal.epoch()
    }
}

impl stm_api::TmLifecycle for Tl2 {
    type Config = Tl2Config;

    fn build(config: &Tl2Config) -> Result<Tl2, stm_api::LifecycleError> {
        Tl2::new(*config).map_err(Into::into)
    }

    fn reconfigure(&self, config: &Tl2Config) -> Result<(), stm_api::LifecycleError> {
        Tl2::reconfigure(self, *config).map_err(Into::into)
    }

    fn clock_now(&self) -> u64 {
        Tl2::clock_now(self)
    }

    fn quiesce<R>(&self, critical: impl FnOnce() -> R) -> R {
        Tl2::quiesce(self, critical)
    }

    fn attach_wal(&self, sink: &std::sync::Arc<dyn stm_api::wal::WalSink>) {
        Tl2::attach_wal(self, sink)
    }

    fn detach_wal(&self) {
        Tl2::detach_wal(self)
    }

    fn wal_epoch(&self) -> u64 {
        Tl2::wal_epoch(self)
    }
}

/// Bound on the CM_DELAY wait loop (contention management, not a
/// correctness mechanism — must terminate regardless).
const DELAY_MAX_SPINS: u32 = 1 << 14;

/// CM_DELAY: spin (bounded) until the contended stripe is released.
#[cold]
fn delay_wait(locks: &[AtomicUsize], idx: usize) {
    let Some(lock) = locks.get(idx) else { return };
    for i in 0..DELAY_MAX_SPINS {
        if !is_owned(lock.load(Ordering::Acquire)) {
            return;
        }
        if i % 64 == 63 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

impl TmHandle for Tl2 {
    type Tx<'a> = Tl2Tx<'a>;

    fn run<R, F>(&self, kind: TxKind, body: F) -> R
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>,
    {
        Tl2::run(self, kind, body)
    }

    fn try_run<R, F>(&self, kind: TxKind, body: F) -> Result<R, RunError>
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>,
    {
        Tl2::try_run(self, kind, body)
    }

    fn stats_snapshot(&self) -> stm_api::stats::BasicStats {
        self.stats().totals.basic()
    }

    fn backend_name(&self) -> &'static str {
        "tl2"
    }
}

impl stm_telemetry::MetricsSource for Tl2 {
    fn collect(&self, frame: &mut stm_telemetry::MetricsFrame) {
        let stats = self.stats();
        let backend = stm_api::TmHandle::backend_name(self);
        let tag = self.inner.telemetry.tag();
        let shard;
        let mut labels: Vec<(&str, &str)> = vec![("backend", backend)];
        if tag != stm_telemetry::UNTAGGED {
            shard = tag.to_string();
            labels.push(("shard", shard.as_str()));
        }
        stm_telemetry::collect_tx_counters(
            frame,
            &labels,
            &stats.totals.basic(),
            stats.rollovers,
            stats.reconfigurations,
        );
        self.inner.telemetry.collect_into(frame, &labels);
    }
}

/// An in-flight TL2 transaction attempt.
pub struct Tl2Tx<'a> {
    inner: &'a Tl2Inner,
    /// Lock array + hash parameters pinned for this attempt (site S1).
    map: &'a Tl2Map,
    ts: &'a ThreadState,
    ctx: &'a mut Tl2Ctx,
    finished: bool,
    /// This thread's recording session, if a trace sink is attached.
    #[cfg(feature = "record")]
    trace: Option<&'a stm_check::SessionLog>,
    /// The attached WAL sink, if durability is on for this attempt.
    wal: Option<&'a dyn stm_api::wal::WalSink>,
}

impl<'a> Drop for Tl2Tx<'a> {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback(AbortReason::Explicit);
        }
    }
}

impl<'a> Tl2Tx<'a> {
    #[inline(always)]
    fn me(&self) -> usize {
        self.ts as *const ThreadState as usize
    }

    /// Append one event to this thread's recording session (no-op when
    /// no sink is attached).
    #[cfg(feature = "record")]
    #[inline(always)]
    fn emit(&self, event: stm_check::Event) {
        if let Some(log) = self.trace {
            // SAFETY: the run loop handed this attempt the session log
            // registered by (and owned by) the current thread.
            unsafe { log.push(event) };
        }
    }

    #[inline(always)]
    fn lock_index(&self, addr: usize) -> usize {
        (addr >> self.map.addr_shift) & self.map.lock_mask
    }

    /// Read timestamp of this attempt (tests).
    pub fn rv(&self) -> u64 {
        self.ctx.rv
    }

    /// Current write-set size (tests/diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.ctx.wset.len()
    }

    /// Validate the read set against `rv` (commit time). Uses the saved
    /// prior word for stripes we locked ourselves.
    fn validate(&mut self) -> bool {
        self.ts.stats.bump_validation();
        let me = self.me();
        let mut processed = 0u64;
        let mut ok = true;
        for &idx in &self.ctx.rset {
            processed += 1;
            // Site R5: Acquire (freshness via the clock edge C1/C2).
            let w = self.map.locks[idx].load(Ordering::Acquire);
            if is_owned(w) {
                if w & !1 != me {
                    ok = false;
                    break;
                }
                // Locked by us at commit: check the pre-acquisition
                // version (linear scan; `acquired` is small relative to
                // the read set in the paper's workloads).
                let prior = self
                    .ctx
                    .acquired
                    .iter()
                    .find(|&&(i, _)| i == idx)
                    .map(|&(_, p)| p)
                    .expect("owned-by-me lock missing from acquired list");
                if version_of(prior) > self.ctx.rv {
                    ok = false;
                    break;
                }
            } else if version_of(w) > self.ctx.rv {
                ok = false;
                break;
            }
        }
        self.ts.stats.add_validation_locks(processed, 0);
        ok
    }

    fn release_acquired(&mut self) {
        for &(idx, prior) in self.ctx.acquired.iter().rev() {
            // Site W5: Release — restoring the prior word must re-grant
            // readers the data visibility the original releaser
            // published (we acquired it through the W1 CAS and pass it
            // on here); no data writes of ours need covering, commit
            // aborts before write-back.
            self.map.locks[idx].store(prior, Ordering::Release);
        }
        self.ctx.acquired.clear();
    }

    /// Commit-time lock acquisition + validation + write-back.
    fn commit(mut self) -> Result<(), AbortReason> {
        if self.ctx.wset.is_empty() {
            // Read-only fast path (by kind or by behaviour).
            debug_assert!(self.ctx.free_log.is_empty());
            self.ts.stats.bump_commit();
            if matches!(self.ctx.kind, TxKind::ReadOnly) {
                self.ts.stats.bump_ro_commit();
            }
            self.ctx.alloc_log.clear();
            #[cfg(feature = "record")]
            self.emit(stm_check::Event::Commit { version: None });
            self.finished = true;
            return Ok(());
        }

        // Acquire every write lock, write-set order, no waiting.
        let me = self.me();
        for i in 0..self.ctx.wset.len() {
            let idx = self.ctx.wset[i].lock_idx;
            let lock = &self.map.locks[idx];
            loop {
                // Site R1: Acquire.
                let w = lock.load(Ordering::Acquire);
                if is_owned(w) {
                    if w & !1 == me {
                        break; // already ours (earlier entry, same stripe)
                    }
                    self.release_acquired();
                    self.ctx.last_contended = Some(idx);
                    let reason = AbortReason::WriteLocked;
                    self.rollback(reason);
                    return Err(reason);
                }
                // Note: a version newer than rv is caught by read-set
                // validation iff we also read the stripe; blind writes
                // are allowed to overwrite newer data (as in TL2).
                // Site W1: AcqRel on success (Acquire syncs with the
                // prior releaser; Release publishes ownership for the
                // seqlock re-check), Relaxed on failure (loop re-reads
                // via R1).
                if lock
                    .compare_exchange(w, me | 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.ctx.acquired.push((idx, w));
                    break;
                }
            }
        }

        let wv = match self.inner.clock.increment() {
            Ok(v) => v,
            Err(_) => {
                self.release_acquired();
                let reason = AbortReason::ClockOverflow;
                self.rollback(reason);
                return Err(reason);
            }
        };
        // Foreign commit timestamps consumed between our read version
        // and our own increment: the steps a CAS-from-snapshot
        // timestamp acquisition would retry over. TL2 never extends the
        // snapshot, so the distance is measured from `rv` directly.
        let clock_lag = (wv - 1).saturating_sub(self.ctx.rv);
        if clock_lag > 0 {
            self.ts.stats.add_clock_conflicts(clock_lag);
        }

        #[cfg(feature = "fault-inject")]
        let skip_validation = matches!(
            self.inner.fault.get(),
            tinystm::fault::FaultInjection::SkipCommitValidation
        );
        #[cfg(not(feature = "fault-inject"))]
        let skip_validation = false;
        if wv == self.ctx.rv + 1 {
            self.ts.stats.bump_commit_validation_skip();
        } else if !skip_validation && !self.validate() {
            self.release_acquired();
            let reason = AbortReason::ValidationFailed;
            self.rollback(reason);
            return Err(reason);
        }

        // WAL publish — inside the commit critical section, before the
        // lock releases, so conflicting records enter the sink in
        // commit-timestamp order (see tinystm::tx for the argument) —
        // and before the write-back, so a failed publish aborts with
        // zero memory effect: the locks are released with their prior
        // words and no reader ever saw the doomed values.
        // The write set is already unique per address (store_word
        // updates in place); sort for a canonical record.
        if let Some(wal) = self.wal {
            let Tl2Ctx {
                wset, wal_scratch, ..
            } = &mut *self.ctx;
            wal_scratch.clear();
            wal_scratch.extend(wset.iter().map(|e| (e.addr as usize, e.value)));
            wal_scratch.sort_unstable_by_key(|&(addr, _)| addr);
            if wal
                .publish(self.inner.wal.epoch(), wv, wal_scratch)
                .is_err()
            {
                self.release_acquired();
                let reason = AbortReason::WalFailed;
                self.rollback(reason);
                return Err(reason);
            }
        }
        // Point of no return: write back, then release with the new
        // version.
        for e in &self.ctx.wset {
            // SAFETY: caller contract of store_word.
            // Site W3: Release, for racing seqlock readers (F1).
            unsafe { atomic_view(e.addr).store(e.value, Ordering::Release) };
        }
        for &(idx, _) in &self.ctx.acquired {
            // Site W4: lock release — Release covers the write-back.
            self.map.locks[idx].store(make_version(wv), Ordering::Release);
        }
        self.ctx.acquired.clear();

        if !self.ctx.free_log.is_empty() {
            self.inner.limbo.push(self.ctx.free_log.drain(..), wv);
        }
        self.ctx.alloc_log.clear();
        self.ctx.alloc_freed.clear();
        self.ts.stats.bump_commit();
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Commit { version: Some(wv) });
        self.finished = true;
        Ok(())
    }

    fn rollback(&mut self, reason: AbortReason) {
        if self.finished {
            return;
        }
        // Locks are only held mid-commit; any left here are released
        // with their prior words (no memory was written yet).
        self.release_acquired();
        for (ptr, words) in self
            .ctx
            .alloc_log
            .drain(..)
            .chain(self.ctx.alloc_freed.drain(..))
        {
            // SAFETY: allocated by this attempt, never published.
            unsafe { stm_api::mem::dealloc_words(ptr as *mut usize, words) };
        }
        self.ctx.free_log.clear();
        self.ts.stats.add_wasted_reads(self.ctx.attempt_reads);
        self.ts.stats.bump_abort(reason);
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Abort);
        self.finished = true;
    }
}

impl<'a> TmTx for Tl2Tx<'a> {
    unsafe fn load_word(&mut self, addr: *const usize) -> TxResult<usize> {
        self.ts.stats.bump_read();
        self.ctx.attempt_reads += 1;
        // Read-after-write: Bloom filter, then backward scan.
        if !self.ctx.wset.is_empty() && self.ctx.bloom.maybe_contains(addr as usize) {
            if let Some(e) = self
                .ctx
                .wset
                .iter()
                .rev()
                .find(|e| std::ptr::eq(e.addr, addr))
            {
                return Ok(e.value);
            }
            self.ts
                .bloom_false_positives
                .fetch_add(1, Ordering::Relaxed);
        }
        let idx = self.lock_index(addr as usize);
        let lock = &self.map.locks[idx];
        let mut retries = 0u32;
        loop {
            // Site R1: Acquire.
            let l1 = lock.load(Ordering::Acquire);
            if is_owned(l1) {
                // Locks are only held by committing transactions; TL2
                // aborts rather than waiting (CM_DELAY consumes the
                // index at the next attempt's start).
                self.ctx.last_contended = Some(idx);
                return Err(Abort(AbortReason::ReadLocked));
            }
            // Sites R3 + F1 + R4: the seqlock re-check (see module
            // docs / tinystm::tx).
            let value = atomic_view(addr).load(Ordering::Relaxed);
            core::sync::atomic::fence(Ordering::Acquire);
            let l2 = lock.load(Ordering::Relaxed);
            if l1 != l2 {
                retries += 1;
                if retries > MAX_READ_RETRIES {
                    return Err(Abort(AbortReason::InconsistentRead));
                }
                continue;
            }
            if version_of(l1) > self.ctx.rv {
                // No extension in TL2: restart with a fresh rv.
                return Err(Abort(AbortReason::ExtendFailed));
            }
            if matches!(self.ctx.kind, TxKind::ReadWrite) {
                self.ctx.rset.push(idx);
            }
            // Recorded at the success point only (reads that abort
            // never returned a value; read-after-write hits above are
            // internal and carry no version).
            #[cfg(feature = "record")]
            self.emit(stm_check::Event::Read {
                stripe: idx as u64,
                version: version_of(l1),
            });
            return Ok(value);
        }
    }

    unsafe fn store_word(&mut self, addr: *mut usize, value: usize) -> TxResult<()> {
        assert!(
            matches!(self.ctx.kind, TxKind::ReadWrite),
            "store inside a read-only transaction"
        );
        self.ts.stats.bump_write();
        // Update in place when the address was already written (keeps
        // the write set and the commit loop compact).
        if self.ctx.bloom.maybe_contains(addr as usize) {
            if let Some(e) = self.ctx.wset.iter_mut().rev().find(|e| e.addr == addr) {
                e.value = value;
                return Ok(());
            }
            self.ts
                .bloom_false_positives
                .fetch_add(1, Ordering::Relaxed);
        }
        let lock_idx = self.lock_index(addr as usize);
        self.ctx.wset.push(WriteEntry {
            addr,
            value,
            lock_idx,
        });
        self.ctx.bloom.insert(addr as usize);
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Write {
            stripe: lock_idx as u64,
        });
        Ok(())
    }

    fn malloc(&mut self, words: usize) -> TxResult<*mut usize> {
        let ptr = stm_api::mem::alloc_words(words);
        self.ctx.alloc_log.push((ptr as usize, words));
        self.ts.stats.bump_alloc();
        Ok(ptr)
    }

    unsafe fn free(&mut self, ptr: *mut usize, words: usize) -> TxResult<()> {
        assert!(
            matches!(self.ctx.kind, TxKind::ReadWrite),
            "free inside a read-only transaction"
        );
        // A free is an update: write back every word with its current
        // value so the covering locks are acquired (and conflicts
        // detected) at commit.
        for i in 0..words {
            let a = ptr.add(i);
            let v = self.load_word(a)?;
            self.store_word(a, v)?;
        }
        if let Some(pos) = self
            .ctx
            .alloc_log
            .iter()
            .position(|&(p, _)| p == ptr as usize)
        {
            let entry = self.ctx.alloc_log.swap_remove(pos);
            self.ctx.alloc_freed.push(entry);
        }
        self.ctx.free_log.push((ptr as usize, words));
        self.ts.stats.bump_free();
        Ok(())
    }

    fn kind(&self) -> TxKind {
        self.ctx.kind
    }
}

/// Retry-loop backoff (same policy type as the TinySTM core).
fn backoff(ctx: &mut Tl2Ctx, cm: CmPolicy) {
    match cm {
        // Suicide == immediate restart; Delay waits at the top of the
        // next attempt (see `delay_wait`), not here.
        CmPolicy::Immediate | CmPolicy::Suicide | CmPolicy::Delay => {}
        CmPolicy::Backoff { base, max_spins } => {
            let shift = ctx.consecutive_aborts.min(16);
            let bound = (u64::from(base) << shift).min(u64::from(max_spins));
            if bound == 0 {
                return;
            }
            let spins = ctx.next_rand() % bound;
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            if ctx.consecutive_aborts > 4 {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_word_encoding_roundtrip() {
        for v in [0u64, 1, 77, 1 << 40] {
            let w = make_version(v);
            assert!(!is_owned(w));
            assert_eq!(version_of(w), v);
        }
        // Owner encoding: any aligned address with the low bit set.
        let me = 0xAB_CDE0usize;
        assert!(is_owned(me | 1));
        assert_eq!((me | 1) & !1, me);
    }

    #[test]
    fn ctx_begin_clears_all_state() {
        let mut ctx = Tl2Ctx::new(7);
        ctx.rset.push(3);
        ctx.wset.push(WriteEntry {
            addr: core::ptr::null_mut(),
            value: 1,
            lock_idx: 0,
        });
        ctx.bloom.insert(0x1000);
        ctx.acquired.push((0, 0));
        ctx.attempt_reads = 9;
        ctx.begin(TxKind::ReadOnly, 42);
        assert_eq!(ctx.rv, 42);
        assert!(ctx.rset.is_empty());
        assert!(ctx.wset.is_empty());
        assert!(ctx.bloom.is_empty());
        assert!(ctx.acquired.is_empty());
        assert_eq!(ctx.attempt_reads, 0);
        assert!(matches!(ctx.kind, TxKind::ReadOnly));
    }

    #[test]
    fn config_validation_bounds() {
        assert!(Tl2Config::default().validate().is_ok());
        assert!(Tl2Config::default().with_locks_log2(0).validate().is_err());
        assert!(Tl2Config::default().with_locks_log2(27).validate().is_err());
        assert!(Tl2Config::default().with_shifts(17).validate().is_err());
        assert!(Tl2Config::default().with_max_clock(2).validate().is_err());
    }

    #[test]
    fn xorshift_streams_differ_by_seed() {
        let mut a = Tl2Ctx::new(1);
        let mut b = Tl2Ctx::new(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_rand()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_rand()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn reconfigure_swaps_lock_array_and_preserves_data() {
        use stm_api::mem::WordBlock;
        let tm = Tl2::with_defaults();
        let block = WordBlock::new(8);
        tm.run(TxKind::ReadWrite, |tx| {
            for i in 0..8 {
                unsafe { tx.store_word(block.as_ptr().add(i), 100 + i) }?;
            }
            Ok(())
        });
        tm.reconfigure(Tl2Config::default().with_locks_log2(12).with_shifts(1))
            .expect("valid config");
        assert_eq!(tm.config().locks_log2, 12);
        assert_eq!(tm.config().shifts, 1);
        // Data survives the swap; the fresh lock array serves reads and
        // further updates.
        let sum = tm.run_ro(|tx| {
            let mut acc = 0;
            for i in 0..8 {
                acc += unsafe { tx.load_word(block.as_ptr().add(i)) }?;
            }
            Ok(acc)
        });
        assert_eq!(sum, (0..8).map(|i| 100 + i).sum::<usize>());
        tm.run(TxKind::ReadWrite, |tx| unsafe {
            tx.store_word(block.as_ptr(), 1)
        });
        assert_eq!(tm.stats().reconfigurations, 1);
        assert!(tm
            .reconfigure(Tl2Config::default().with_locks_log2(0))
            .is_err());
        assert_eq!(tm.stats().reconfigurations, 1, "invalid config rejected");
    }

    #[test]
    fn bloom_false_positive_counter_exposed() {
        use stm_api::mem::WordBlock;
        let tm = Tl2::with_defaults();
        let block = WordBlock::new(512);
        // Write a few words, then read many others: Bloom hits that the
        // scan disconfirms bump the counter (probabilistic, so just
        // check the plumbing doesn't crash and stats are readable).
        tm.run(TxKind::ReadWrite, |tx| {
            for i in 0..16 {
                unsafe { tx.store_word(block.as_ptr().add(i), i) }?;
            }
            let mut acc = 0;
            for i in 16..512 {
                acc += unsafe { tx.load_word(block.as_ptr().add(i)) }?;
            }
            Ok(acc)
        });
        let s = tm.stats();
        assert_eq!(s.totals.commits, 1);
        assert_eq!(s.totals.writes, 16);
        assert_eq!(s.totals.reads, 496);
        // The counter is a valid u64 (possibly 0 for a lucky hash).
        let _ = s.bloom_false_positives;
    }
}
