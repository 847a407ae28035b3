//! The `Stm` front-end: thread registration, the retry loop, clock
//! roll-over, dynamic reconfiguration, and statistics aggregation.
//!
//! ## Memory ordering (DESIGN.md §3, sites S1–S3)
//!
//! * **S1 mapping pointer** — Acquire load in the run loop / AcqRel
//!   swap in `reconfigure`. The swap only happens inside a quiesce
//!   fence (which excludes entered transactions), so Acquire/Release is
//!   ample; the load must still be Acquire so the fresh `Mapping`'s
//!   contents (lock array, masks) are visible to the attempt.
//! * **S2 `active_start` begin-path publication** — SeqCst store,
//!   *before* the snapshot clock sample (also SeqCst, site C2). This is
//!   a Dekker pattern with the limbo reclaimer: a committing freer
//!   RMWs the clock (C1) and the reclaimer then reads `active_start`;
//!   the starting transaction stores `active_start` and then reads the
//!   clock. If the transaction's sample missed the freer's increment
//!   (snapshot older than the free), the SeqCst total order forces the
//!   reclaimer's later read to see the published marker, so the block
//!   outlives the snapshot that can still reach it. Publishing a
//!   conservative marker (a clock value sampled *no later than* the
//!   snapshot) before sampling the snapshot closes the window the
//!   previous sample-then-publish order left open.
//! * **S3 `rollovers`/`reconfigurations`/`commits_since_reclaim`** —
//!   Relaxed: monotonic diagnostics with no ordering role.

use crate::clock::GlobalClock;
use crate::config::{CmPolicy, ConfigError, StmConfig};
use crate::mapping::Mapping;
use crate::mem::Limbo;
use crate::quiesce::Quiesce;
use crate::stats::{StatsSnapshot, ThreadStats};
use crate::tx::{AttemptEnd, Tx, TxCtx};
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::sync::Arc;
use stm_api::{Abort, AbortReason, RunError, TmHandle, TxKind, TxResult};

/// Commits between opportunistic limbo-reclamation attempts (per thread).
const RECLAIM_PERIOD: u64 = 1024;

/// Per-(thread × STM) state. Pinned in the STM's registry so stripe
/// records published through lock words stay dereferenceable for the
/// lifetime of the STM even after the thread exits.
pub(crate) struct ThreadState {
    /// Statistics counters (atomics; aggregated by `Stm::stats`).
    pub stats: ThreadStats,
    /// Start timestamp of the in-flight transaction, `u64::MAX` when
    /// idle. Read by the limbo reclaimer.
    pub active_start: AtomicU64,
    /// Mutable transactional state — owning thread only.
    ctx: UnsafeCell<TxCtx>,
    /// Commits since the last reclamation attempt (owning thread only;
    /// atomic for the shared-reference API, relaxed everywhere).
    commits_since_reclaim: AtomicU64,
    /// Cached recording session — owning thread only.
    #[cfg(feature = "record")]
    trace: UnsafeCell<crate::trace::TraceLocal>,
    /// Cached WAL sink — owning thread only.
    wal: UnsafeCell<crate::wal::WalLocal>,
}

// SAFETY: `ctx` is only touched by the owning thread (enforced by the
// thread-local registry handing each thread its own state); all shared
// fields are atomics.
unsafe impl Sync for ThreadState {}
unsafe impl Send for ThreadState {}

impl ThreadState {
    fn new(seed: u64) -> ThreadState {
        ThreadState {
            stats: ThreadStats::default(),
            active_start: AtomicU64::new(u64::MAX),
            ctx: UnsafeCell::new(TxCtx::new(seed)),
            commits_since_reclaim: AtomicU64::new(0),
            #[cfg(feature = "record")]
            trace: UnsafeCell::new(crate::trace::TraceLocal::new()),
            wal: UnsafeCell::new(crate::wal::WalLocal::new()),
        }
    }
}

/// Shared state behind an [`Stm`] handle.
pub(crate) struct StmInner {
    id: u64,
    pub(crate) clock: GlobalClock,
    pub(crate) quiesce: Quiesce,
    mapping: AtomicPtr<Mapping>,
    pub(crate) limbo: Limbo,
    registry: Mutex<Vec<Arc<ThreadState>>>,
    /// Mirror of the active configuration (the authoritative copy lives
    /// in the mapping; this one is readable without pinning).
    config_mirror: Mutex<StmConfig>,
    rollovers: AtomicU64,
    reconfigurations: AtomicU64,
    /// Hot-path telemetry instruments (commit latency / retries),
    /// runtime-gated — disabled they cost one Relaxed load per `run`.
    telemetry: stm_telemetry::TxMetrics,
    /// Attached event-recording sink, if any.
    #[cfg(feature = "record")]
    pub(crate) trace: crate::trace::TraceControl,
    /// Attached WAL sink + durability epoch, if any.
    pub(crate) wal: crate::wal::WalControl,
    /// Active protocol mutation (checker self-tests only).
    #[cfg(feature = "fault-inject")]
    pub(crate) fault: crate::fault::FaultSwitch,
}

impl Drop for StmInner {
    fn drop(&mut self) {
        // Uniquely owned at drop; Acquire covers a reconfigure on
        // another thread just before the last handle moved here.
        let ptr = self.mapping.load(Ordering::Acquire);
        if !ptr.is_null() {
            // SAFETY: uniquely owned at drop; no transactions can be
            // active (they hold Arc clones of this inner).
            unsafe { drop(Box::from_raw(ptr)) };
        }
        // Limbo drops (and reclaims) after this.
    }
}

/// Aggregate statistics for an STM instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct StmStats {
    /// Sum of all per-thread counters.
    pub totals: StatsSnapshot,
    /// Clock roll-overs performed.
    pub rollovers: u64,
    /// Dynamic reconfigurations performed.
    pub reconfigurations: u64,
    /// Blocks currently awaiting safe reclamation.
    pub limbo_pending: usize,
    /// Threads that have registered with this STM.
    pub threads: usize,
}

impl std::fmt::Display for StmStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.totals)?;
        write!(
            f,
            "  rollovers: {}, reconfigurations: {}, limbo pending: {}, threads: {}",
            self.rollovers, self.reconfigurations, self.limbo_pending, self.threads
        )
    }
}

/// A word-based, time-based software transactional memory instance
/// (TinySTM, PPoPP 2008).
///
/// Cheap to clone; clones share all state. Each OS thread using the
/// instance gets its own transaction descriptor on first use.
///
/// ```
/// use tinystm::{Stm, StmConfig};
/// use stm_api::{TmTx, TxKind};
/// use stm_api::mem::WordBlock;
///
/// let stm = Stm::new(StmConfig::default()).unwrap();
/// let cell = WordBlock::new(1);
/// let addr = cell.as_ptr();
/// stm.run(TxKind::ReadWrite, |tx| {
///     let v = unsafe { tx.load_word(addr) }?;
///     unsafe { tx.store_word(addr, v + 1) }
/// });
/// assert_eq!(cell.read(0), 1);
/// ```
#[derive(Clone)]
pub struct Stm {
    inner: Arc<StmInner>,
}

static NEXT_STM_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread descriptors, keyed by STM instance id.
    static THREAD_STATES: RefCell<Vec<(u64, Arc<ThreadState>)>> =
        const { RefCell::new(Vec::new()) };
}

impl Stm {
    /// Create an STM with the given configuration.
    pub fn new(config: StmConfig) -> Result<Stm, ConfigError> {
        config.validate()?;
        let mapping = Box::into_raw(Box::new(Mapping::new(config)));
        Ok(Stm {
            inner: Arc::new(StmInner {
                id: NEXT_STM_ID.fetch_add(1, Ordering::Relaxed),
                clock: GlobalClock::new(config.max_clock),
                quiesce: Quiesce::new(),
                mapping: AtomicPtr::new(mapping),
                limbo: Limbo::new(),
                registry: Mutex::new(Vec::new()),
                config_mirror: Mutex::new(config),
                rollovers: AtomicU64::new(0),
                reconfigurations: AtomicU64::new(0),
                telemetry: stm_telemetry::TxMetrics::new(),
                #[cfg(feature = "record")]
                trace: crate::trace::TraceControl::new(),
                wal: crate::wal::WalControl::new(),
                #[cfg(feature = "fault-inject")]
                fault: crate::fault::FaultSwitch::default(),
            }),
        })
    }

    /// Create an STM with the default (paper) configuration.
    pub fn with_defaults() -> Stm {
        Stm::new(StmConfig::default()).expect("default config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> StmConfig {
        *self.inner.config_mirror.lock()
    }

    /// This thread's descriptor for this STM (created and registered on
    /// first use).
    fn thread_state(&self) -> Arc<ThreadState> {
        let id = self.inner.id;
        THREAD_STATES.with(|cell| {
            let mut v = cell.borrow_mut();
            if let Some((_, ts)) = v.iter().find(|(tid, _)| *tid == id) {
                return Arc::clone(ts);
            }
            // Purge descriptors of dropped STM instances (registry gone
            // means we hold the last reference).
            v.retain(|(_, ts)| Arc::strong_count(ts) > 1);
            let seed = 0x9E37_79B9_7F4A_7C15u64 ^ (id << 32) ^ (&*v as *const _ as u64);
            let ts = Arc::new(ThreadState::new(seed));
            self.inner.registry.lock().push(Arc::clone(&ts));
            v.push((id, Arc::clone(&ts)));
            ts
        })
    }

    /// Run `body` as a transaction, retrying until commit. See
    /// [`stm_api::TmHandle::run`] for the contract.
    ///
    /// # Panics
    /// On a terminal failure ([`RunError`], e.g. the attached WAL sink
    /// giving up) — the transaction was already rolled back cleanly at
    /// that point. Callers that must survive storage faults use
    /// [`Stm::try_run`].
    pub fn run<R, F>(&self, kind: TxKind, body: F) -> R
    where
        F: for<'x> FnMut(&mut Tx<'x>) -> TxResult<R>,
    {
        match self.try_run(kind, body) {
            Ok(value) => value,
            Err(e) => panic!("Stm::run: {e} (use try_run to handle this)"),
        }
    }

    /// [`Stm::run`], but a terminal failure surfaces as `Err` instead
    /// of panicking: the attempt is rolled back (no memory effect, no
    /// log effect, locks released) and the retry loop exits — retrying
    /// cannot help when the WAL sink has already exhausted its own
    /// retry budget.
    pub fn try_run<R, F>(&self, kind: TxKind, mut body: F) -> Result<R, RunError>
    where
        F: for<'x> FnMut(&mut Tx<'x>) -> TxResult<R>,
    {
        let ts = self.thread_state();
        let inner: &StmInner = &self.inner;
        // Telemetry is sampled once per `run` call: latency covers the
        // whole call (retries included), and the flight recorder traces
        // the attempt lifecycle. Both checks are one Relaxed load; off
        // (the default, and the perf gate's configuration) they cost an
        // untaken branch.
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
            // The guard exits the gate on drop even if `body` panics:
            // the harness tolerates panicking workers, and a leaked
            // enter would wedge every later fence.
            let active = inner.quiesce.enter_guarded(&ts.active_start);
            // Site S1: the mapping is pinned for the attempt —
            // reconfiguration swaps it only inside a fence, which
            // excludes entered transactions.
            let map = unsafe { &*inner.mapping.load(Ordering::Acquire) };
            let cm = map.config().cm;
            // SAFETY: ctx belongs to this thread exclusively.
            let ctx = unsafe { &mut *ts.ctx.get() };
            // CM_DELAY: before retrying after a lock conflict, wait
            // (bounded) for the contended stripe to drain so the retry
            // does not re-collide with the same owner. Must run before
            // the snapshot sample below, or the wait would just stale
            // the snapshot.
            if let (CmPolicy::Delay, Some(idx)) = (cm, ctx.last_contended.take()) {
                delay_wait(map, idx);
            }
            // Site S2: publish the oldest-reader marker *before*
            // sampling the snapshot (a marker sampled first is ≤ the
            // snapshot, so reclamation stays conservative); SeqCst for
            // the Dekker race with the limbo reclaimer — see module
            // docs.
            ts.active_start.store(inner.clock.now(), Ordering::SeqCst);
            let now = inner.clock.now();
            ctx.begin(kind, map, now);
            #[cfg(feature = "record")]
            // SAFETY: the trace local belongs to this thread.
            let trace = unsafe { &mut *ts.trace.get() }.session(&inner.trace);
            // The guard deactivates the session when the attempt ends,
            // even if `body` panics — a session left active would make
            // every later (safe) drain time out.
            #[cfg(feature = "record")]
            let _trace_attempt = trace.map(stm_check::AttemptGuard::new);
            #[cfg(feature = "record")]
            if let Some(log) = trace {
                // SAFETY: this thread owns the session log and
                // activated it above.
                unsafe {
                    log.push(stm_check::Event::Begin {
                        start: now,
                        epoch: inner.trace.epoch(),
                    })
                };
            }
            // The WAL sink the commit publishes through, if attached.
            // SAFETY: the wal local belongs to this thread.
            let wal = unsafe { &mut *ts.wal.get() }.sink(&inner.wal);
            let outcome: Result<R, AbortReason> = {
                let mut tx = Tx {
                    inner,
                    map,
                    ts: &ts,
                    ctx,
                    finished: false,
                    strategy: map.config().strategy,
                    hier_on: map.hier_enabled(),
                    me: Arc::as_ptr(&ts) as usize,
                    #[cfg(feature = "record")]
                    trace,
                    wal: wal.map(|s| &**s),
                };
                match body(&mut tx) {
                    Ok(value) => match tx.commit() {
                        AttemptEnd::Committed => Ok(value),
                        AttemptEnd::Aborted(r) => Err(r),
                    },
                    Err(Abort(reason)) => {
                        tx.rollback(reason);
                        Err(reason)
                    }
                }
            };

            drop(active);

            // SAFETY: tx is gone; re-borrow for the epilogue.
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
                    self.maybe_reclaim(&ts);
                    return Ok(value);
                }
                Err(AbortReason::WalFailed) => {
                    if flight_on {
                        stm_telemetry::flight::record(
                            tele.tag(),
                            stm_telemetry::flight::FlightKind::Abort,
                            AbortReason::WalFailed.index() as u8,
                            0,
                        );
                    }
                    // Terminal: the sink already rolled through its own
                    // retry policy; the attempt is rolled back. Exit
                    // the loop instead of retrying a doomed commit.
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

    /// Convenience: run a read-only transaction (no read set, no
    /// commit-time validation — the paper's read-only fast path).
    pub fn run_ro<R, F>(&self, body: F) -> R
    where
        F: for<'x> FnMut(&mut Tx<'x>) -> TxResult<R>,
    {
        self.run(TxKind::ReadOnly, body)
    }

    /// Run the clock roll-over protocol if the clock is (still) past its
    /// threshold: quiesce, zero every version, reset the clock.
    pub(crate) fn handle_overflow(&self) {
        let inner: &StmInner = &self.inner;
        inner.quiesce.fence(|| {
            if !inner.clock.overflowed() {
                return; // another thread rolled over first
            }
            // SAFETY: fence ⇒ no transaction is active; the mapping
            // cannot be swapped concurrently (fencers are serialized).
            let map = unsafe { &*inner.mapping.load(Ordering::Acquire) };
            map.reset_versions();
            inner.clock.reset();
            inner.limbo.reclaim_all();
            // Versions renumber with no epoch boundary: an attached
            // recording sink can no longer produce a sound history, so
            // poison it (the drain fails with a dedicated error).
            #[cfg(feature = "record")]
            inner.trace.mark_rollover();
            // Commit timestamps also renumber for the WAL — but an
            // epoch bump is all the log format needs to stay sound
            // (per-key monotonicity is scoped to an epoch), so
            // durability survives roll-over where recording cannot.
            inner.wal.advance_epoch();
            // Site S3: diagnostic counter.
            inner.rollovers.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Atomically switch to a new configuration (Section 4.2's
    /// reconfiguration, built on the roll-over mechanism): quiesce,
    /// replace lock array + hierarchy + hash parameters, reset the
    /// clock and reclaim limbo.
    ///
    /// Must not be called from inside a transaction closure (deadlock:
    /// the fence waits for the calling transaction itself).
    pub fn reconfigure(&self, config: StmConfig) -> Result<(), ConfigError> {
        config.validate()?;
        let inner: &StmInner = &self.inner;
        inner.quiesce.fence(|| {
            let fresh = Box::into_raw(Box::new(Mapping::new(config)));
            // Site S1: Release half publishes the fresh mapping's
            // contents to the run loop's Acquire load.
            let old = inner.mapping.swap(fresh, Ordering::AcqRel);
            // SAFETY: no transaction is active inside the fence, so no
            // one holds the old mapping.
            unsafe { drop(Box::from_raw(old)) };
            inner.clock.reset();
            inner.clock.set_max(config.max_clock);
            inner.limbo.reclaim_all();
            *inner.config_mirror.lock() = config;
            // Stripe IDs and clock values renumber across this fence:
            // recorded histories segment on the epoch (stm-check's
            // per-epoch checking), so recording stays sound through
            // the switch.
            #[cfg(feature = "record")]
            inner.trace.advance_epoch();
            // The durability epoch segments the WAL the same way.
            inner.wal.advance_epoch();
            // Site S3: diagnostic counter.
            inner.reconfigurations.fetch_add(1, Ordering::Relaxed);
        });
        Ok(())
    }

    /// Opportunistically reclaim limbo blocks whose epoch has passed.
    fn maybe_reclaim(&self, ts: &ThreadState) {
        let n = ts.commits_since_reclaim.load(Ordering::Relaxed) + 1;
        if n < RECLAIM_PERIOD {
            ts.commits_since_reclaim.store(n, Ordering::Relaxed);
            return;
        }
        ts.commits_since_reclaim.store(0, Ordering::Relaxed);
        if self.inner.limbo.is_empty() {
            return;
        }
        let min_active = self
            .inner
            .registry
            .lock()
            .iter()
            // Site S2 (reclaimer side of the Dekker pattern): SeqCst.
            .map(|t| t.active_start.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        self.inner.limbo.try_reclaim(min_active);
    }

    /// Force reclamation of all safely reclaimable limbo blocks now
    /// (tests / teardown).
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

    /// Aggregate statistics across all registered threads.
    pub fn stats(&self) -> StmStats {
        let registry = self.inner.registry.lock();
        let mut totals = StatsSnapshot::default();
        for ts in registry.iter() {
            totals = totals.merged(&ts.stats.snapshot());
        }
        StmStats {
            totals,
            rollovers: self.inner.rollovers.load(Ordering::Relaxed),
            reconfigurations: self.inner.reconfigurations.load(Ordering::Relaxed),
            limbo_pending: self.inner.limbo.len(),
            threads: registry.len(),
        }
    }

    /// Current global clock value (diagnostics/tests).
    pub fn clock_now(&self) -> u64 {
        self.inner.clock.now()
    }

    /// This instance's hot-path telemetry instruments. Disabled by
    /// default; enable via [`stm_telemetry::TxMetrics::set_enabled`] to
    /// start recording commit-latency and retries histograms (the
    /// sharded engine also tags each shard's instance here).
    pub fn telemetry(&self) -> &stm_telemetry::TxMetrics {
        &self.inner.telemetry
    }

    /// Attach an event-recording sink: every thread's subsequent
    /// transaction attempts are recorded as a session of the sink
    /// (txn begin/commit/abort, per-stripe reads with observed
    /// versions, per-stripe writes). Drain with the safe
    /// [`stm_check::TraceSink::drain_history`] once all workers have
    /// joined (or stopped running transactions).
    ///
    /// [`Stm::reconfigure`] *is* supported during the recorded window:
    /// every `Begin` is stamped with the reconfigure epoch (bumped
    /// inside the quiesce fence) and the checker segments the history
    /// per epoch, so stripe renumbering cannot alias. Clock roll-over
    /// has no epoch boundary and instead poisons the sink — the drain
    /// fails loudly with
    /// [`stm_check::RecordingError::ClockRollover`] rather than
    /// producing an unsound history.
    #[cfg(feature = "record")]
    pub fn attach_trace(&self, sink: &std::sync::Arc<stm_check::TraceSink>) {
        self.inner.trace.attach(sink);
    }

    /// Current reconfigure epoch recorded `Begin` events are stamped
    /// with (advances on every [`Stm::reconfigure`]). Lets a driver
    /// that attaches recording mid-run discard the partial first epoch
    /// via [`stm_check::History::retain_epochs_from`].
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
    pub fn inject_fault(&self, fault: crate::fault::FaultInjection) {
        self.inner.fault.set(fault);
    }

    /// Run `critical` inside this instance's quiesce fence: no
    /// transaction is active while it runs and every prior commit is
    /// fully published (locks released, write-backs visible). This is
    /// the checkpoint boundary the durable layer snapshots under.
    ///
    /// Must not be called from inside a transaction closure (deadlock:
    /// the fence waits for the calling transaction itself).
    pub fn quiesce<R>(&self, critical: impl FnOnce() -> R) -> R {
        self.inner.quiesce.fence(critical)
    }

    /// Attach a WAL sink: every subsequently committed update
    /// transaction publishes its write set (epoch, commit timestamp,
    /// deduplicated `(addr, value)` pairs) through the sink *before*
    /// releasing its stripe locks, so conflicting commits appear in the
    /// log in commit order. Replaces any previous sink.
    pub fn attach_wal(&self, sink: &std::sync::Arc<dyn stm_api::wal::WalSink>) {
        self.inner.wal.attach(sink);
    }

    /// Stop publishing to the WAL sink; threads notice at their next
    /// attempt (an in-flight commit may publish once more — the sink's
    /// `Arc` keeps it valid).
    pub fn detach_wal(&self) {
        self.inner.wal.detach();
    }

    /// Current durability epoch (advances on reconfigure *and* clock
    /// roll-over — every fence that renumbers commit timestamps).
    pub fn wal_epoch(&self) -> u64 {
        self.inner.wal.epoch()
    }
}

impl From<ConfigError> for stm_api::LifecycleError {
    fn from(e: ConfigError) -> stm_api::LifecycleError {
        stm_api::LifecycleError::InvalidConfig(e.to_string())
    }
}

impl stm_api::TmLifecycle for Stm {
    type Config = StmConfig;

    fn build(config: &StmConfig) -> Result<Stm, stm_api::LifecycleError> {
        Stm::new(*config).map_err(Into::into)
    }

    fn reconfigure(&self, config: &StmConfig) -> Result<(), stm_api::LifecycleError> {
        Stm::reconfigure(self, *config).map_err(Into::into)
    }

    fn clock_now(&self) -> u64 {
        Stm::clock_now(self)
    }

    fn quiesce<R>(&self, critical: impl FnOnce() -> R) -> R {
        Stm::quiesce(self, critical)
    }

    fn attach_wal(&self, sink: &std::sync::Arc<dyn stm_api::wal::WalSink>) {
        Stm::attach_wal(self, sink)
    }

    fn detach_wal(&self) {
        Stm::detach_wal(self)
    }

    fn wal_epoch(&self) -> u64 {
        Stm::wal_epoch(self)
    }
}

impl TmHandle for Stm {
    type Tx<'a> = Tx<'a>;

    fn run<R, F>(&self, kind: TxKind, body: F) -> R
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>,
    {
        Stm::run(self, kind, body)
    }

    fn try_run<R, F>(&self, kind: TxKind, body: F) -> Result<R, RunError>
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>,
    {
        Stm::try_run(self, kind, body)
    }

    fn stats_snapshot(&self) -> stm_api::stats::BasicStats {
        self.stats().totals.basic()
    }

    fn backend_name(&self) -> &'static str {
        match self.config().strategy {
            crate::config::AccessStrategy::WriteBack => "tinystm-wb",
            crate::config::AccessStrategy::WriteThrough => "tinystm-wt",
        }
    }
}

impl stm_telemetry::MetricsSource for Stm {
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

/// Bound on the CM_DELAY wait loop. The wait happens while holding the
/// quiesce gate, so it must terminate even if the owner somehow never
/// releases (it is contention management, not a correctness mechanism).
const DELAY_MAX_SPINS: u32 = 1 << 14;

/// CM_DELAY: spin (bounded) until the contended stripe's lock is
/// released. Called at the top of the next attempt, inside the gate, so
/// the mapping is pinned; a stale index from before a reconfiguration
/// is simply skipped.
#[cold]
fn delay_wait(map: &Mapping, idx: usize) {
    if idx >= map.n_locks() {
        return;
    }
    let lock = map.lock(idx);
    for i in 0..DELAY_MAX_SPINS {
        // Site R1-adjacent: Acquire so a subsequent read of the stripe
        // sees the releaser's publication (same edge as the run path).
        if !crate::lockword::is_owned(lock.load(Ordering::Acquire)) {
            return;
        }
        if i % 64 == 63 {
            // The owner may be descheduled on an oversubscribed host.
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Retry-loop backoff per the configured contention-management policy.
fn backoff(ctx: &mut TxCtx, cm: CmPolicy) {
    match cm {
        // Suicide == the paper's immediate restart; Delay waits at the
        // top of the next attempt (see `delay_wait`), not here.
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
            // Under oversubscription spinning alone cannot make the
            // conflicting thread run; yield occasionally.
            if ctx.consecutive_aborts > 4 {
                std::thread::yield_now();
            }
        }
    }
}
