//! The sharded engine: N independent backend instances behind one
//! key-routed front door.
//!
//! ## Why sharding
//!
//! Every backend in this workspace serializes commits through one
//! global clock — the scalability ceiling the paper itself flags
//! (Section 4's commit-time `fetch_add`). A shard is a *whole* backend
//! instance: its own clock, its own lock array, its own quiesce gate
//! and limbo list. Transactions whose keys route to different shards
//! share **nothing** on the hot path, so commit-clock contention drops
//! by the shard count even when raw throughput cannot scale (a
//! single-core host still interleaves commits, but ~1/N of them hit
//! any given clock).
//!
//! ## The contract
//!
//! The engine is safe only under the routing discipline: a single-shard
//! transaction ([`ShardedEngine::run_on`]) may touch memory belonging
//! to its routed shard and nothing else. Nothing stops a closure from
//! dereferencing foreign addresses — this is a word-based STM, addresses
//! are opaque — so the discipline is structural: each shard owns the
//! data structures built on it (see the shard-scaling bench, which
//! builds one structure per shard). Cross-shard work must go through
//! [`ShardedEngine::run_cross`], which is governed by the configured
//! [`CrossShardPolicy`].
//!
//! ## Cross-shard policy
//!
//! * [`CrossShardPolicy::Reject`] (default): multi-shard requests fail
//!   with [`EngineError::CrossShardRejected`]. This is the honest
//!   default — the engine's perf claims are about *local* commits, and
//!   silently serializing cross-shard work would hide the cost.
//! * [`CrossShardPolicy::TwoPhase`]: multi-shard requests acquire the
//!   involved shards' gates in ascending shard order (deadlock-free by
//!   global order), then run per-shard transactions under the gates.
//!   This makes cross-shard requests atomic *with respect to each
//!   other*; a concurrent single-shard transaction that races one
//!   shard of a cross-shard request can still observe its partial
//!   state — the classic 2PC-over-independent-stores caveat, documented
//!   rather than hidden (DESIGN.md §6).

use crate::router::Router;
use core::sync::atomic::{AtomicU64, Ordering};
use parking_lot::Mutex;
use std::sync::Arc;
use stm_api::stats::BasicStats;
use stm_api::{TmHandle, TxKind, TxResult};
use tinystm::{ConfigError, Protocol, Runtime};

/// What [`ShardedEngine::run_cross`] does with a multi-shard key set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CrossShardPolicy {
    /// Refuse multi-shard requests (the default).
    #[default]
    Reject,
    /// Serialize multi-shard requests against each other via ordered
    /// per-shard gates (two-phase acquire over the involved shards).
    TwoPhase,
}

/// Engine-level errors (a rejected configuration surfaces as the
/// runtime's own [`ConfigError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A multi-shard request arrived under [`CrossShardPolicy::Reject`].
    CrossShardRejected {
        /// The distinct shards the key set routed to (ascending).
        shards: Vec<usize>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::CrossShardRejected { shards } => write!(
                f,
                "cross-shard request spans shards {shards:?} but the engine policy is Reject"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// One shard: an independent backend instance plus its cross-shard gate
/// and reconfigure epoch.
struct ShardSlot<R> {
    tm: R,
    /// Cross-shard gate: only [`ShardedEngine::run_cross`] under
    /// [`CrossShardPolicy::TwoPhase`] ever locks it — the single-shard
    /// fast path never touches it.
    gate: Mutex<()>,
    /// Per-shard reconfigure epoch (bumped by
    /// [`ShardedEngine::reconfigure_shard`]); lets callers detect that
    /// *this* shard was reconfigured without asking the backend.
    epoch: AtomicU64,
}

struct EngineInner<R> {
    shards: Vec<ShardSlot<R>>,
    router: Router,
    policy: CrossShardPolicy,
}

/// N independent backend instances behind a stable key→shard router.
///
/// `R` is always a [`Runtime<P>`] (see the crate docs for why the
/// parameter names the runtime). Cheap to clone; clones share all
/// shards.
pub struct ShardedEngine<R> {
    inner: Arc<EngineInner<R>>,
}

impl<R> Clone for ShardedEngine<R> {
    fn clone(&self) -> Self {
        ShardedEngine {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<P: Protocol> ShardedEngine<Runtime<P>> {
    /// Build `shards` independent instances of `config` with the
    /// default [`CrossShardPolicy::Reject`].
    pub fn new(shards: usize, config: &P::Config) -> Result<Self, ConfigError> {
        let router = Router::new(shards); // panics on 0, like Router
        let mut slots = Vec::with_capacity(shards);
        for i in 0..shards {
            let tm = Runtime::new(*config)?;
            // Stamp the shard index into the instance's telemetry so
            // per-shard histograms and flight-recorder events carry it.
            tm.telemetry().set_tag(i as u32);
            slots.push(ShardSlot {
                tm,
                gate: Mutex::new(()),
                epoch: AtomicU64::new(0),
            });
        }
        Ok(ShardedEngine {
            inner: Arc::new(EngineInner {
                shards: slots,
                router,
                policy: CrossShardPolicy::default(),
            }),
        })
    }

    /// Builder-style cross-shard policy override (before sharing).
    pub fn with_policy(mut self, policy: CrossShardPolicy) -> Self {
        Arc::get_mut(&mut self.inner)
            .expect("set the policy before cloning the engine")
            .policy = policy;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The active cross-shard policy.
    pub fn policy(&self) -> CrossShardPolicy {
        self.inner.policy
    }

    /// Shard index `key` routes to (stable across reconfigures).
    pub fn route(&self, key: u64) -> usize {
        self.inner.router.route(key)
    }

    /// Direct handle to shard `i`'s backend (structure setup, stats).
    pub fn shard(&self, i: usize) -> &Runtime<P> {
        &self.inner.shards[i].tm
    }

    /// Borrow the backend `key` routes to (build per-shard structures
    /// without duplicating the routing math).
    pub fn with_shard<R>(&self, key: u64, f: impl FnOnce(&Runtime<P>) -> R) -> R {
        f(&self.inner.shards[self.route(key)].tm)
    }

    /// The single-shard fast path: run `body` as a transaction on the
    /// shard `key` routes to. Beyond the route (one hash + multiply),
    /// this adds **zero** synchronization over calling the backend
    /// directly — no gate, no engine-level atomics.
    #[inline]
    pub fn run_on<R, F>(&self, key: u64, kind: TxKind, body: F) -> R
    where
        F: for<'a> FnMut(&mut P::Tx<'a>) -> TxResult<R>,
    {
        self.inner.shards[self.route(key)].tm.run(kind, body)
    }

    /// [`ShardedEngine::run_on`] surfacing terminal failures (a WAL
    /// publish error) as a typed error instead of a panic. The failed attempt rolls back cleanly first.
    #[inline]
    pub fn try_run_on<R, F>(&self, key: u64, kind: TxKind, body: F) -> Result<R, stm_api::RunError>
    where
        F: for<'a> FnMut(&mut P::Tx<'a>) -> TxResult<R>,
    {
        self.inner.shards[self.route(key)].tm.try_run(kind, body)
    }

    /// Run a cross-shard request over `keys` under the engine's policy.
    ///
    /// The distinct routed shards are computed first; a key set that
    /// routes to a *single* shard degenerates to the fast path under
    /// every policy (no gates). Multi-shard sets are rejected under
    /// [`CrossShardPolicy::Reject`]; under [`CrossShardPolicy::TwoPhase`]
    /// the involved shards' gates are acquired in ascending shard order
    /// (deadlock-free) and `f` runs its per-shard transactions through
    /// the [`CrossCtx`], which enforces that every access stays inside
    /// the declared key set's shards.
    pub fn run_cross<R>(
        &self,
        keys: &[u64],
        f: impl FnOnce(&CrossCtx<'_, Runtime<P>>) -> R,
    ) -> Result<R, EngineError> {
        let mut involved: Vec<usize> = keys.iter().map(|&k| self.route(k)).collect();
        involved.sort_unstable();
        involved.dedup();
        let ctx = CrossCtx {
            engine: self,
            involved: &involved,
        };
        if involved.len() <= 1 {
            return Ok(f(&ctx));
        }
        match self.inner.policy {
            CrossShardPolicy::Reject => Err(EngineError::CrossShardRejected { shards: involved }),
            CrossShardPolicy::TwoPhase => {
                // Phase 1: gates in ascending shard order.
                let _guards: Vec<_> = involved
                    .iter()
                    .map(|&s| self.inner.shards[s].gate.lock())
                    .collect();
                // Phase 2: per-shard transactions under the gates.
                Ok(f(&ctx))
            }
        }
    }

    /// Quiesce shard `i` only and switch it to `config`; every other
    /// shard keeps running untouched. Routing is unaffected — the
    /// router depends only on the shard count.
    pub fn reconfigure_shard(&self, i: usize, config: &P::Config) -> Result<(), ConfigError> {
        self.inner.shards[i].tm.reconfigure(*config)?;
        self.inner.shards[i].epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reconfigure every shard (sequentially; each shard quiesces on
    /// its own — there is no global stop-the-world).
    pub fn reconfigure_all(&self, config: &P::Config) -> Result<(), ConfigError> {
        for i in 0..self.shards() {
            self.reconfigure_shard(i, config)?;
        }
        Ok(())
    }

    /// Reconfigure epoch of shard `i` (0 until its first reconfigure).
    pub fn reconfigure_epoch(&self, i: usize) -> u64 {
        self.inner.shards[i].epoch.load(Ordering::Relaxed)
    }

    /// Shard `i`'s commit-clock value.
    pub fn clock_now(&self, i: usize) -> u64 {
        self.inner.shards[i].tm.clock_now()
    }

    /// Commit/abort/clock-conflict counters summed over all shards.
    pub fn stats(&self) -> BasicStats {
        self.inner.shards.iter().fold(BasicStats::ZERO, |acc, s| {
            acc.merged(&s.tm.stats_snapshot())
        })
    }

    /// Attach one recording sink to every shard. Shards stamp their own
    /// session logs; drain the sink once all workers stop.
    #[cfg(feature = "record")]
    pub fn attach_trace_all(&self, sink: &std::sync::Arc<stm_check::TraceSink>) {
        for s in &self.inner.shards {
            s.tm.attach_trace(sink);
        }
    }

    /// Stop recording on every shard.
    #[cfg(feature = "record")]
    pub fn detach_trace_all(&self) {
        for s in &self.inner.shards {
            s.tm.detach_trace();
        }
    }

    /// Shard `i`'s record epoch (see the backend's `record_epoch`).
    #[cfg(feature = "record")]
    pub fn record_epoch(&self, i: usize) -> u64 {
        self.inner.shards[i].tm.record_epoch()
    }

    /// Enable or disable the per-shard commit-latency/retry histograms
    /// on every shard (one Relaxed store per shard).
    pub fn set_telemetry_enabled(&self, on: bool) {
        for s in &self.inner.shards {
            s.tm.telemetry().set_enabled(on);
        }
    }
}

impl<P: Protocol> stm_telemetry::MetricsSource for ShardedEngine<Runtime<P>> {
    fn collect(&self, frame: &mut stm_telemetry::MetricsFrame) {
        for (i, s) in self.inner.shards.iter().enumerate() {
            stm_telemetry::MetricsSource::collect(&s.tm, frame);
            let shard = i.to_string();
            frame.gauge(
                "stm_reconfigure_epoch",
                "Per-shard reconfigure epoch (0 until the shard's first reconfigure).",
                &[("shard", shard.as_str())],
                s.epoch.load(Ordering::Relaxed) as f64,
            );
        }
    }
}

/// Access scope handed to a [`ShardedEngine::run_cross`] closure: runs
/// per-shard transactions, asserting each access stays inside the
/// shards the declared key set routed to.
pub struct CrossCtx<'e, R> {
    engine: &'e ShardedEngine<R>,
    involved: &'e [usize],
}

impl<P: Protocol> CrossCtx<'_, Runtime<P>> {
    /// The involved shards (ascending).
    pub fn shards(&self) -> &[usize] {
        self.involved
    }

    /// Run a transaction on the shard `key` routes to.
    ///
    /// # Panics
    /// If `key` routes outside the declared key set's shards — that
    /// access would bypass the two-phase gates and break cross-shard
    /// atomicity silently.
    pub fn run_on<R, F>(&self, key: u64, kind: TxKind, body: F) -> R
    where
        F: for<'a> FnMut(&mut P::Tx<'a>) -> TxResult<R>,
    {
        let s = self.engine.route(key);
        assert!(
            self.involved.contains(&s),
            "cross-shard access to shard {s} outside the declared set {:?}",
            self.involved
        );
        self.engine.inner.shards[s].tm.run(kind, body)
    }
}
