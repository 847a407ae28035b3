//! The runtime both locking protocols run on: one retry loop, one
//! thread registry, one clock, quiesce gate and limbo list.
//!
//! TinySTM (encounter-time locking with LSA snapshot extension,
//! [`crate::stm::Lsa`]) and its TL2 baseline (commit-time locking with
//! no extension, the `stm-tl2` crate) are two locking policies on one
//! time-based design (paper §3): a shared clock, a quiesce fence for
//! roll-over and reconfiguration, and deferred frees. [`Runtime<P>`]
//! owns that design once: the registry and per-thread state, the lock
//! [`Mapping`] (TL2 uses it with the hierarchy disabled), the run loop
//! with its telemetry, recording and WAL plumbing, roll-over,
//! reconfiguration, limbo reclamation and statistics. A [`Protocol`]
//! supplies only what differs: its configuration (and the mapping that
//! asks for), its per-thread context and its transaction attempt.
//! Everything is generic, so each protocol gets its own monomorphised
//! copy of the loop and the hot path has no dynamic dispatch.
//!
//! The handle's trait impls (`TmHandle`, `TmLifecycle`,
//! `MetricsSource`) are blanket impls in this module: the orphan rule
//! forbids `stm-tl2` from implementing those foreign traits for
//! `Runtime<Tl2Protocol>`.
//!
//! ## Memory ordering (DESIGN.md §3, sites S1–S3)
//!
//! * **S1 mapping pointer** — Acquire load in the run loop / AcqRel
//!   swap in `reconfigure`. The swap only happens inside a quiesce
//!   fence (which excludes entered transactions), so Acquire/Release is
//!   ample; the load must still be Acquire so the fresh mapping's
//!   contents (lock array, masks) are visible to the attempt.
//! * **S2 `active_start` begin-path publication** — SeqCst store,
//!   *before* the snapshot clock sample (also SeqCst, site C2). This is
//!   a Dekker pattern with the limbo reclaimer: a committing freer
//!   RMWs the clock (C1) and the reclaimer reads the clock and then
//!   every `active_start`; the starting transaction stores
//!   `active_start` and then reads the clock. If the transaction's
//!   sample missed the freer's increment (snapshot older than the
//!   free), the SeqCst total order forces a reclaimer whose clock read
//!   covers the free to see the published marker, so the block
//!   outlives the snapshot that can still reach it. The reclaimer caps
//!   its bound with that clock read, so a block freed after the read is
//!   never in range, however idle the scan found the threads (see
//!   `Runtime::reclaim`).
//! * **S3 `rollovers`/`reconfigurations`** — Relaxed: monotonic
//!   diagnostics with no ordering role.

use crate::clock::GlobalClock;
use crate::config::{CmPolicy, ConfigError, StmConfig};
use crate::fault::{FaultInjection, FaultSwitch};
use crate::mapping::Mapping;
use crate::mem::Limbo;
use crate::quiesce::Quiesce;
use crate::stats::{StatsSnapshot, ThreadStats};
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use parking_lot::Mutex;
use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::sync::Arc;
use stm_api::wal::WalSink;
use stm_api::{Abort, AbortReason, RunError, TmHandle, TmTx, TxKind, TxResult};

/// Commits between opportunistic limbo-reclamation attempts (per thread).
const RECLAIM_PERIOD: u64 = 1024;

/// Bound on the CM_DELAY wait loop. The wait happens while holding the
/// quiesce gate, so it must terminate even if the owner somehow never
/// releases (it is contention management, not a correctness mechanism).
const DELAY_MAX_SPINS: u32 = 1 << 14;

/// One locking protocol on the shared runtime: what TinySTM-LSA and TL2
/// do differently. The runtime calls these from its run loop,
/// roll-over and reconfiguration fences; nothing here is dispatched
/// dynamically.
pub trait Protocol: Sized + Send + Sync + 'static {
    /// The protocol's configuration.
    type Config: Copy + Default + std::fmt::Debug + Send + Sync + 'static;
    /// Per-thread transactional state, recycled across attempts and
    /// touched only by its owning thread.
    type Ctx: Default + 'static;
    /// One transaction attempt.
    type Tx<'a>: TmTx
    where
        Self: 'a;

    /// The [`Mapping`] a configuration asks for: lock array and hash,
    /// plus the roll-over threshold and contention policy the runtime
    /// applies. Validating it validates the configuration.
    fn mapping(config: &Self::Config) -> StmConfig;
    /// Backend name for reports ("tinystm-wb", "tl2", …).
    fn backend_name(config: &Self::Config) -> &'static str;

    /// Start an attempt with snapshot time `now`.
    fn begin<'a>(attempt: Attempt<'a, Self>, kind: TxKind, now: u64) -> Self::Tx<'a>;
    /// Commit the attempt, or roll it back fully and say why not.
    fn commit(tx: Self::Tx<'_>) -> Result<(), AbortReason>;
    /// Roll back an attempt whose body returned an abort.
    fn rollback(tx: &mut Self::Tx<'_>, reason: AbortReason);
}

/// What the runtime hands [`Protocol::begin`] for one attempt.
pub struct Attempt<'a, P: Protocol> {
    /// Instance-wide state: clock, limbo, WAL epoch, fault switch.
    pub shared: &'a Shared<P>,
    /// The mapping pinned for this attempt (site S1).
    pub map: &'a Mapping,
    /// This thread's descriptor. Its address identifies the owning
    /// thread (in TL2 lock words and TinySTM stripe records).
    pub ts: &'a ThreadState<P>,
    /// This thread's protocol context.
    pub ctx: &'a mut P::Ctx,
    /// Recording session and WAL sink for this attempt.
    pub hooks: Hooks<'a>,
}

/// What an attempt publishes through: this thread's recording session
/// (feature `record`) and the attached WAL sink. Without `record` the
/// event calls are empty and inline away, so protocols call them
/// unconditionally.
#[derive(Clone, Copy)]
pub struct Hooks<'a> {
    #[cfg(feature = "record")]
    trace: Option<&'a stm_check::SessionLog>,
    wal: Option<&'a dyn WalSink>,
}

impl<'a> Hooks<'a> {
    /// The WAL sink the commit publishes through, if attached.
    #[inline(always)]
    pub fn wal(&self) -> Option<&'a dyn WalSink> {
        self.wal
    }

    /// Record a read of `stripe` that returned a value at `version`.
    #[inline(always)]
    pub fn record_read(&self, _stripe: usize, _version: u64) {
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Read {
            stripe: _stripe as u64,
            version: _version,
        });
    }

    /// Record a write to `stripe`.
    #[inline(always)]
    pub fn record_write(&self, _stripe: usize) {
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Write {
            stripe: _stripe as u64,
        });
    }

    /// Record a commit (`None` for a read-only commit).
    #[inline(always)]
    pub fn record_commit(&self, _version: Option<u64>) {
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Commit { version: _version });
    }

    /// Record an abort.
    #[inline(always)]
    pub fn record_abort(&self) {
        #[cfg(feature = "record")]
        self.emit(stm_check::Event::Abort);
    }

    #[cfg(feature = "record")]
    #[inline(always)]
    fn emit(&self, event: stm_check::Event) {
        if let Some(log) = self.trace {
            // SAFETY: the run loop hands each attempt the session log
            // registered by (and owned by) the current thread, and
            // activated it for this attempt.
            unsafe { log.push(event) };
        }
    }
}

/// Per-(thread × instance) state. Pinned in the instance's registry so
/// owner identities published through lock words (the address of this
/// struct, or stripe records in its context's arenas) stay
/// dereferenceable for the instance's lifetime, even after the thread
/// exits.
pub struct ThreadState<P: Protocol> {
    /// Statistics counters (aggregated by [`Runtime::stats`]).
    pub stats: ThreadStats,
    /// Start timestamp of the in-flight attempt, `u64::MAX` when idle.
    /// Read by the limbo reclaimer (site S2).
    active_start: AtomicU64,
    /// Lock index of the stripe the last abort collided on (consumed by
    /// CM_DELAY at the next attempt's start).
    last_contended: Cell<Option<usize>>,
    /// Consecutive aborts of the current `run` call (backoff, retries
    /// telemetry).
    consecutive_aborts: Cell<u32>,
    /// xorshift state for randomized backoff.
    rng: Cell<u64>,
    /// Commits since the last reclamation attempt.
    commits_since_reclaim: Cell<u64>,
    /// The protocol's transactional state.
    ctx: UnsafeCell<P::Ctx>,
    /// Cached recording session.
    #[cfg(feature = "record")]
    trace: UnsafeCell<crate::trace::TraceLocal>,
    /// Cached WAL sink.
    wal: UnsafeCell<crate::wal::WalLocal>,
}

// SAFETY: foreign threads touch only `stats` and `active_start`, which
// are atomics. Every other field (the cells, the protocol context and
// the trace/WAL caches) is read and written only by the owning thread:
// the thread-local registry hands each thread its own state. Dropping
// on another thread (the last `Arc` may go there) frees only owned
// buffers; raw addresses a context holds are never dereferenced on
// drop.
unsafe impl<P: Protocol> Sync for ThreadState<P> {}
unsafe impl<P: Protocol> Send for ThreadState<P> {}

impl<P: Protocol> ThreadState<P> {
    fn new(seed: u64) -> ThreadState<P> {
        ThreadState {
            stats: ThreadStats::default(),
            active_start: AtomicU64::new(u64::MAX),
            last_contended: Cell::new(None),
            consecutive_aborts: Cell::new(0),
            rng: Cell::new(seed | 1),
            commits_since_reclaim: Cell::new(0),
            ctx: UnsafeCell::new(P::Ctx::default()),
            #[cfg(feature = "record")]
            trace: UnsafeCell::new(crate::trace::TraceLocal::new()),
            wal: UnsafeCell::new(crate::wal::WalLocal::new()),
        }
    }

    /// Note the stripe an abort collided on, for CM_DELAY.
    #[inline(always)]
    pub fn set_contended(&self, idx: usize) {
        self.last_contended.set(Some(idx));
    }

    /// Next pseudo-random number (xorshift64*), for backoff jitter.
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng.set(x);
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Instance-wide state behind a [`Runtime`] handle.
pub struct Shared<P: Protocol> {
    id: u64,
    clock: GlobalClock,
    quiesce: Quiesce,
    /// Site S1.
    map: AtomicPtr<Mapping>,
    limbo: Limbo,
    registry: Mutex<Vec<Arc<ThreadState<P>>>>,
    /// Mirror of the active configuration (the authoritative copy lives
    /// in the mapping; this one is readable without pinning).
    config_mirror: Mutex<P::Config>,
    rollovers: AtomicU64,
    reconfigurations: AtomicU64,
    /// Hot-path telemetry instruments (commit latency / retries),
    /// runtime-gated — disabled they cost one Relaxed load per `run`.
    telemetry: stm_telemetry::TxMetrics,
    /// Attached event-recording sink, if any.
    #[cfg(feature = "record")]
    trace: crate::trace::TraceControl,
    /// Attached WAL sink + durability epoch, if any.
    wal: crate::wal::WalControl,
    /// Active protocol mutation (checker self-tests only).
    fault: FaultSwitch,
}

impl<P: Protocol> Shared<P> {
    /// The global version clock.
    #[inline(always)]
    pub fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    /// The limbo list committed frees enter, stamped with their commit
    /// timestamp.
    #[inline(always)]
    pub fn limbo(&self) -> &Limbo {
        &self.limbo
    }

    /// Current durability epoch (read inside the quiesce gate only).
    #[inline(always)]
    pub fn wal_epoch(&self) -> u64 {
        self.wal.epoch()
    }

    /// Whether `fault` is the active protocol mutation. Always false
    /// without the `fault-inject` feature, at no runtime cost.
    #[inline(always)]
    pub fn fault_active(&self, fault: FaultInjection) -> bool {
        cfg!(feature = "fault-inject") && self.fault.get() == fault
    }
}

impl<P: Protocol> Drop for Shared<P> {
    fn drop(&mut self) {
        // Uniquely owned at drop; Acquire covers a reconfigure on
        // another thread just before the last handle moved here.
        let ptr = self.map.load(Ordering::Acquire);
        if !ptr.is_null() {
            // SAFETY: uniquely owned at drop; no transactions can be
            // active (they hold Arc clones of this state).
            unsafe { drop(Box::from_raw(ptr)) };
        }
        // Limbo drops (and reclaims) after this.
    }
}

/// Aggregate statistics for an instance.
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
    /// Threads that have registered with this instance.
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
/// running protocol `P` ([`crate::Stm`] for TinySTM, `stm_tl2::Tl2` for
/// the TL2 baseline).
///
/// Cheap to clone; clones share all state. Each OS thread using the
/// instance gets its own transaction descriptor on first use.
pub struct Runtime<P: Protocol> {
    inner: Arc<Shared<P>>,
}

impl<P: Protocol> Clone for Runtime<P> {
    fn clone(&self) -> Self {
        Runtime {
            inner: Arc::clone(&self.inner),
        }
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A type-erased `ThreadState<P>`.
type ErasedState = Arc<dyn Any + Send + Sync>;

thread_local! {
    /// Per-thread descriptors, keyed by instance id. One list serves
    /// every protocol (a `thread_local!` cannot be generic); ids are
    /// unique across protocols, so an id also fixes its entry's
    /// concrete `ThreadState<P>` type.
    static THREAD_STATES: RefCell<Vec<(u64, ErasedState)>> =
        const { RefCell::new(Vec::new()) };
}

impl<P: Protocol> Runtime<P> {
    /// Create an instance with the given configuration.
    pub fn new(config: P::Config) -> Result<Self, ConfigError> {
        let mapping = P::mapping(&config);
        mapping.validate()?;
        let map = Box::into_raw(Box::new(Mapping::new(mapping)));
        Ok(Runtime {
            inner: Arc::new(Shared {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                clock: GlobalClock::new(mapping.max_clock),
                quiesce: Quiesce::new(),
                map: AtomicPtr::new(map),
                limbo: Limbo::new(),
                registry: Mutex::new(Vec::new()),
                config_mirror: Mutex::new(config),
                rollovers: AtomicU64::new(0),
                reconfigurations: AtomicU64::new(0),
                telemetry: stm_telemetry::TxMetrics::new(),
                #[cfg(feature = "record")]
                trace: crate::trace::TraceControl::new(),
                wal: crate::wal::WalControl::new(),
                fault: FaultSwitch::default(),
            }),
        })
    }

    /// Create an instance with the protocol's default configuration.
    pub fn with_defaults() -> Self {
        Self::new(P::Config::default()).expect("default config is valid")
    }

    /// The active configuration.
    pub fn config(&self) -> P::Config {
        *self.inner.config_mirror.lock()
    }

    /// This thread's descriptor for this instance (created and
    /// registered on first use). No atomic RMW on the lookup path.
    #[inline]
    fn thread_state(&self) -> &ThreadState<P> {
        let id = self.inner.id;
        let ptr = THREAD_STATES.with(|cell| {
            let found = cell
                .borrow()
                .iter()
                .find(|(tid, _)| *tid == id)
                .map(|(_, ts)| Arc::as_ptr(ts));
            found.unwrap_or_else(|| self.register(&mut cell.borrow_mut()))
        });
        // SAFETY: ids are unique across instances of every protocol, so
        // the entry for `id` was created by `register` on this instance
        // and is a `ThreadState<P>`. The instance's registry holds an
        // `Arc` of it until `Shared` drops, which `&self` rules out for
        // the returned lifetime.
        unsafe { &*(ptr as *const ThreadState<P>) }
    }

    #[cold]
    fn register(&self, states: &mut Vec<(u64, ErasedState)>) -> *const (dyn Any + Send + Sync) {
        // Purge descriptors of dropped instances (registry gone means
        // this list holds the last reference).
        states.retain(|(_, ts)| Arc::strong_count(ts) > 1);
        let id = self.inner.id;
        let seed = 0x9E37_79B9_7F4A_7C15u64 ^ (id << 32) ^ (states as *const _ as u64);
        let ts = Arc::new(ThreadState::<P>::new(seed));
        self.inner.registry.lock().push(Arc::clone(&ts));
        let ts: ErasedState = ts;
        let ptr = Arc::as_ptr(&ts);
        states.push((id, ts));
        ptr
    }

    /// Run `body` as a transaction, retrying until commit. See
    /// [`stm_api::TmHandle::run`] for the contract.
    ///
    /// # Panics
    /// On a terminal failure ([`RunError`], e.g. the attached WAL sink
    /// giving up) — the transaction was already rolled back cleanly at
    /// that point. Callers that must survive storage faults use
    /// [`Runtime::try_run`].
    pub fn run<R, F>(&self, kind: TxKind, body: F) -> R
    where
        F: for<'x> FnMut(&mut P::Tx<'x>) -> TxResult<R>,
    {
        match self.try_run(kind, body) {
            Ok(value) => value,
            Err(e) => panic!(
                "{}::run: {e} (use try_run to handle this)",
                self.backend_name()
            ),
        }
    }

    /// [`Runtime::run`], but a terminal failure surfaces as `Err`
    /// instead of panicking: the attempt is rolled back (no memory
    /// effect, no log effect, locks released) and the retry loop exits
    /// — retrying cannot help when the WAL sink has already exhausted
    /// its own retry budget.
    pub fn try_run<R, F>(&self, kind: TxKind, mut body: F) -> Result<R, RunError>
    where
        F: for<'x> FnMut(&mut P::Tx<'x>) -> TxResult<R>,
    {
        let ts = self.thread_state();
        let inner: &Shared<P> = &self.inner;
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
            let map = unsafe { &*inner.map.load(Ordering::Acquire) };
            let cm = map.config().cm;
            // CM_DELAY: before retrying after a lock conflict, wait
            // (bounded) for the contended stripe to drain so the retry
            // does not re-collide with the same owner. Must run before
            // the snapshot sample below, or the wait would just stale
            // the snapshot.
            if let (CmPolicy::Delay, Some(idx)) = (cm, ts.last_contended.take()) {
                delay_wait(map, idx);
            }
            // Site S2: publish the oldest-reader marker *before*
            // sampling the snapshot (a marker sampled first is ≤ the
            // snapshot, so reclamation stays conservative); SeqCst for
            // the Dekker race with the limbo reclaimer — see module
            // docs.
            ts.active_start.store(inner.clock.now(), Ordering::SeqCst);
            let now = inner.clock.now();
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
            // SAFETY: the wal local belongs to this thread.
            let wal = unsafe { &mut *ts.wal.get() }.sink(&inner.wal);
            let hooks = Hooks {
                #[cfg(feature = "record")]
                trace,
                wal: wal.map(|s| &**s),
            };
            let outcome: Result<R, AbortReason> = {
                // SAFETY: ctx belongs to this thread exclusively, and
                // the previous attempt's borrow ended with its `Tx`.
                let ctx = unsafe { &mut *ts.ctx.get() };
                let attempt = Attempt {
                    shared: inner,
                    map,
                    ts,
                    ctx,
                    hooks,
                };
                let mut tx = P::begin(attempt, kind, now);
                match body(&mut tx) {
                    Ok(value) => P::commit(tx).map(|()| value),
                    Err(Abort(reason)) => {
                        P::rollback(&mut tx, reason);
                        Err(reason)
                    }
                }
            };

            drop(active);

            match outcome {
                Ok(value) => {
                    let retries = ts.consecutive_aborts.replace(0);
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
                    self.maybe_reclaim(ts);
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
                    ts.consecutive_aborts
                        .set(ts.consecutive_aborts.get().saturating_add(1));
                    if matches!(reason, AbortReason::ClockOverflow) {
                        self.handle_overflow();
                    } else {
                        backoff(ts, cm);
                    }
                }
            }
        }
    }

    /// Convenience: run a read-only transaction (no read set, no
    /// commit-time validation — the paper's read-only fast path).
    pub fn run_ro<R, F>(&self, body: F) -> R
    where
        F: for<'x> FnMut(&mut P::Tx<'x>) -> TxResult<R>,
    {
        self.run(TxKind::ReadOnly, body)
    }

    /// Run the clock roll-over protocol if the clock is (still) past its
    /// threshold: quiesce, zero every version, reset the clock.
    fn handle_overflow(&self) {
        let inner: &Shared<P> = &self.inner;
        inner.quiesce.fence(|| {
            if !inner.clock.overflowed() {
                return; // another thread rolled over first
            }
            // SAFETY: fence ⇒ no transaction is active; the mapping
            // cannot be swapped concurrently (fencers are serialized).
            let map = unsafe { &*inner.map.load(Ordering::Acquire) };
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
    /// replace the mapping, reset the clock and reclaim limbo.
    ///
    /// Must not be called from inside a transaction closure (deadlock:
    /// the fence waits for the calling transaction itself).
    pub fn reconfigure(&self, config: P::Config) -> Result<(), ConfigError> {
        let mapping = P::mapping(&config);
        mapping.validate()?;
        let inner: &Shared<P> = &self.inner;
        inner.quiesce.fence(|| {
            let fresh = Box::into_raw(Box::new(Mapping::new(mapping)));
            // Site S1: Release half publishes the fresh mapping's
            // contents to the run loop's Acquire load.
            let old = inner.map.swap(fresh, Ordering::AcqRel);
            // SAFETY: no transaction is active inside the fence, so no
            // one holds the old mapping.
            unsafe { drop(Box::from_raw(old)) };
            inner.clock.reset();
            inner.clock.set_max(mapping.max_clock);
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

    /// Every [`RECLAIM_PERIOD`] commits of this thread, reclaim the
    /// limbo blocks no snapshot can reach any more.
    fn maybe_reclaim(&self, ts: &ThreadState<P>) {
        let n = ts.commits_since_reclaim.get() + 1;
        if n < RECLAIM_PERIOD {
            ts.commits_since_reclaim.set(n);
            return;
        }
        ts.commits_since_reclaim.set(0);
        if !self.inner.limbo.is_empty() {
            self.reclaim(|| {});
        }
    }

    /// Force reclamation of all safely reclaimable limbo blocks now
    /// (tests / teardown); returns how many were freed.
    ///
    /// Must not be called from inside a transaction closure: it enters
    /// the quiesce gate, so a fence pending behind the calling
    /// transaction would deadlock it.
    pub fn reclaim_now(&self) -> usize {
        self.reclaim(|| {})
    }

    /// The one limbo reclamation routine (site S2, reclaimer side).
    ///
    /// Frees entries stamped at or below `min(clock, min_active)`. The
    /// clock is read (SeqCst) *before* the scan: a transaction the scan
    /// found idle begins after the read, so its snapshot is at least
    /// the clock value and every block freed under it is stamped above
    /// it. Without the cap an all-idle scan yields `u64::MAX`, and a
    /// block freed between the scan and the free would go while a
    /// snapshot taken after the scan still reaches it. The read, scan
    /// and free run inside the quiesce gate, so no roll-over or
    /// reconfiguration can renumber stamps in between. `between` runs
    /// after the scan (production passes `|| {}`; the regression test
    /// forces the interleaving there).
    fn reclaim(&self, between: impl FnOnce()) -> usize {
        let inner: &Shared<P> = &self.inner;
        inner.quiesce.enter();
        let now = inner.clock.now();
        let min_active = inner
            .registry
            .lock()
            .iter()
            // Site S2 (reclaimer side of the Dekker pattern): SeqCst.
            .map(|t| t.active_start.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        between();
        let freed = inner.limbo.try_reclaim(now.min(min_active));
        inner.quiesce.exit();
        freed
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
    /// [`Runtime::reconfigure`] *is* supported during the recorded
    /// window: every `Begin` is stamped with the reconfigure epoch
    /// (bumped inside the quiesce fence) and the checker segments the
    /// history per epoch, so stripe renumbering cannot alias. Clock
    /// roll-over has no epoch boundary and instead poisons the sink —
    /// the drain fails loudly with
    /// [`stm_check::RecordingError::ClockRollover`] rather than
    /// producing an unsound history.
    #[cfg(feature = "record")]
    pub fn attach_trace(&self, sink: &Arc<stm_check::TraceSink>) {
        self.inner.trace.attach(sink);
    }

    /// Current reconfigure epoch recorded `Begin` events are stamped
    /// with (advances on every [`Runtime::reconfigure`]). Lets a driver
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
    pub fn inject_fault(&self, fault: FaultInjection) {
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
    pub fn attach_wal(&self, sink: &Arc<dyn WalSink>) {
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
fn backoff<P: Protocol>(ts: &ThreadState<P>, cm: CmPolicy) {
    match cm {
        // Suicide == the paper's immediate restart; Delay waits at the
        // top of the next attempt (see `delay_wait`), not here.
        CmPolicy::Immediate | CmPolicy::Suicide | CmPolicy::Delay => {}
        CmPolicy::Backoff { base, max_spins } => {
            let aborts = ts.consecutive_aborts.get();
            let bound = (u64::from(base) << aborts.min(16)).min(u64::from(max_spins));
            if bound == 0 {
                return;
            }
            let spins = ts.next_rand() % bound;
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            // Under oversubscription spinning alone cannot make the
            // conflicting thread run; yield occasionally.
            if aborts > 4 {
                std::thread::yield_now();
            }
        }
    }
}

impl From<ConfigError> for stm_api::LifecycleError {
    fn from(e: ConfigError) -> stm_api::LifecycleError {
        stm_api::LifecycleError::InvalidConfig(e.to_string())
    }
}

impl<P: Protocol> stm_api::TmLifecycle for Runtime<P> {
    type Config = P::Config;

    fn build(config: &P::Config) -> Result<Self, stm_api::LifecycleError> {
        Self::new(*config).map_err(Into::into)
    }

    fn reconfigure(&self, config: &P::Config) -> Result<(), stm_api::LifecycleError> {
        Runtime::reconfigure(self, *config).map_err(Into::into)
    }

    fn clock_now(&self) -> u64 {
        Runtime::clock_now(self)
    }

    fn quiesce<R>(&self, critical: impl FnOnce() -> R) -> R {
        Runtime::quiesce(self, critical)
    }

    fn attach_wal(&self, sink: &Arc<dyn WalSink>) {
        Runtime::attach_wal(self, sink)
    }

    fn detach_wal(&self) {
        Runtime::detach_wal(self)
    }

    fn wal_epoch(&self) -> u64 {
        Runtime::wal_epoch(self)
    }
}

impl<P: Protocol> TmHandle for Runtime<P> {
    type Tx<'a> = P::Tx<'a>;

    fn run<R, F>(&self, kind: TxKind, body: F) -> R
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>,
    {
        Runtime::run(self, kind, body)
    }

    fn try_run<R, F>(&self, kind: TxKind, body: F) -> Result<R, RunError>
    where
        F: for<'a> FnMut(&mut Self::Tx<'a>) -> TxResult<R>,
    {
        Runtime::try_run(self, kind, body)
    }

    fn stats_snapshot(&self) -> stm_api::stats::BasicStats {
        self.stats().totals.basic()
    }

    fn backend_name(&self) -> &'static str {
        P::backend_name(&self.config())
    }
}

impl<P: Protocol> stm_telemetry::MetricsSource for Runtime<P> {
    fn collect(&self, frame: &mut stm_telemetry::MetricsFrame) {
        let stats = self.stats();
        let backend = TmHandle::backend_name(self);
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

#[cfg(test)]
mod tests {
    use crate::{Stm, TCell, TxExt};
    use std::sync::mpsc;
    use stm_api::{TmTx, TxKind};

    /// Regression (ROADMAP 0b): an all-idle scan must not let a free
    /// committed after it reclaim a block a later snapshot still
    /// reaches. Inside `between` (after the scan, before the free), a
    /// reader loads the pointer to block B and stays open, then a freer
    /// unlinks and frees B. The bound is capped at the pre-scan clock,
    /// below B's stamp, so B must stay in limbo until the reader ends.
    #[test]
    fn idle_scan_does_not_reclaim_a_block_freed_after_it() {
        let (stm, root) = (&Stm::with_defaults(), &TCell::new(0usize));
        stm.run(TxKind::ReadWrite, |tx| {
            let b = tx.malloc(2)?;
            tx.write(root, b as usize)
        });
        let (loaded_tx, loaded_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (reclaimed, pending) = std::thread::scope(|s| {
            let reclaimed = stm.reclaim(|| {
                s.spawn(move || {
                    stm.run_ro(|tx| {
                        let b = tx.read(root)?;
                        loaded_tx.send(b).expect("test thread waits");
                        release_rx.recv().expect("test thread releases");
                        Ok(())
                    })
                });
                let b = loaded_rx.recv().expect("reader loaded B");
                assert_ne!(b, 0, "reader saw the block");
                s.spawn(move || {
                    stm.run(TxKind::ReadWrite, |tx| {
                        let b = tx.read(root)?;
                        tx.write(root, 0)?;
                        // SAFETY: B came from `malloc(2)` and is freed once.
                        unsafe { tx.free(b as *mut usize, 2) }
                    })
                })
                .join()
                .expect("freer commits");
            });
            let pending = stm.stats().limbo_pending;
            // Release before asserting: a panic here would wait forever
            // for the parked reader.
            release_tx.send(()).expect("reader waits");
            (reclaimed, pending)
        });
        assert_eq!(reclaimed, 0, "reclaimed a block a live reader reaches");
        assert_eq!(pending, 1);
        assert_eq!(stm.reclaim_now(), 1, "freed once the reader ended");
    }

    #[test]
    fn backoff_streams_differ_by_seed() {
        use crate::stm::Lsa;
        let a = super::ThreadState::<Lsa>::new(1);
        let b = super::ThreadState::<Lsa>::new(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_rand()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_rand()).collect();
        assert_ne!(sa, sb);
    }
}
