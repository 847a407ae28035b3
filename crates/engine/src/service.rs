//! The multi-tenant service layer: [`StmService`]
//! lifts a [`DurableEngine`] from a library you call into a small
//! service you *submit to* — per-shard submission queues with bounded
//! backpressure, tenant key-namespacing, executor threads whose
//! concurrent commits feed the shard's group-commit batches, and
//! checkpoint scheduling that slots snapshots between batches while
//! traffic keeps flowing.
//!
//! ## Shape
//!
//! * **Tenants** own disjoint dense key ranges: tenant `t`'s key `k`
//!   maps to global key `t * keys_per_tenant + k`. Namespacing is pure
//!   arithmetic — isolation comes from the engine's transactional
//!   guarantees, not from per-tenant machinery — so tenants share the
//!   shards, the WAL batches, and the checkpoints.
//! * **Submission**: [`StmService::put`] enqueues onto the routed
//!   shard's queue and blocks until an executor has committed (and the
//!   WAL — batched, in group mode — has *acked*) the write. A full
//!   queue rejects with the typed [`ServiceError::Overloaded`] instead
//!   of queueing unboundedly; rejects are counted, never silent.
//! * **Executors**: `executors_per_shard` threads per shard drain the
//!   queue and call [`DurableEngine::put`]. Multiple executors on one
//!   shard are the point in group-commit mode: their concurrent
//!   commits land in the same [`stm_wal::GroupCommitter`] batch, so
//!   one fsync acknowledges many submissions.
//! * **Checkpoints under load**: each shard has a gate
//!   (`RwLock<()>`): executors hold it shared per request,
//!   [`StmService::checkpoint`] takes it exclusively per shard. The
//!   write acquisition drains in-flight requests for *that shard
//!   only*, the engine's quiesce fence then acquires against an idle
//!   shard instantly, and traffic on other shards never stalls. The
//!   ack-latency histogram ([`StmService::ack_latency`]) makes the
//!   resulting stall bounded and visible instead of anecdotal.
//!
//! The service is deliberately synchronous (blocking `put`): the
//! callers are load generators and tests that want per-submission ack
//! latencies, and a blocking API keeps "acked" a precise event — the
//! submission's value is durable at the engine's level when `put`
//! returns `Ok`.

use crate::durable::{DurableEngine, DurableError, WriteError};
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
use stm_telemetry::{AtomicHist, HistSnapshot};
use tinystm::{Protocol, Runtime};

/// Sizing of an [`StmService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of tenants; tenant ids are `0..tenants`.
    pub tenants: usize,
    /// Keys per tenant; tenant-local keys are `0..keys_per_tenant`.
    /// `tenants * keys_per_tenant` must not exceed the engine's
    /// `n_keys`.
    pub keys_per_tenant: usize,
    /// Bound on each shard's submission queue; a submission that finds
    /// the routed queue full is rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Executor threads per shard. More than one is what lets the
    /// group committer batch across a single shard's submissions.
    pub executors_per_shard: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            tenants: 1,
            keys_per_tenant: 1024,
            queue_depth: 256,
            executors_per_shard: 4,
        }
    }
}

impl ServiceConfig {
    /// Set the tenant count.
    pub fn with_tenants(mut self, tenants: usize) -> ServiceConfig {
        self.tenants = tenants;
        self
    }

    /// Set the per-tenant key range.
    pub fn with_keys_per_tenant(mut self, keys: usize) -> ServiceConfig {
        self.keys_per_tenant = keys;
        self
    }

    /// Set the per-shard queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> ServiceConfig {
        self.queue_depth = depth;
        self
    }

    /// Set the executor thread count per shard.
    pub fn with_executors_per_shard(mut self, n: usize) -> ServiceConfig {
        self.executors_per_shard = n;
        self
    }
}

/// A submission refused or failed by the service. Typed, counted,
/// never silent — the caller always learns which contract was broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The tenant id is outside `0..tenants`.
    NoSuchTenant {
        /// The offending tenant id.
        tenant: usize,
        /// The configured tenant count.
        tenants: usize,
    },
    /// The tenant-local key is outside `0..keys_per_tenant`.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
        /// The per-tenant key range.
        keys_per_tenant: usize,
    },
    /// The routed shard's submission queue was full: bounded
    /// backpressure chose rejection over unbounded queueing.
    Overloaded {
        /// The overloaded shard.
        shard: usize,
    },
    /// The engine refused or failed the write (shard unhealthy, WAL
    /// publish failed); the submission had no effect.
    Write(WriteError),
    /// The service is stopping; no new submissions are accepted.
    Stopped,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NoSuchTenant { tenant, tenants } => {
                write!(f, "no tenant {tenant} (service has {tenants})")
            }
            ServiceError::KeyOutOfRange {
                key,
                keys_per_tenant,
            } => {
                write!(f, "key {key} outside tenant range 0..{keys_per_tenant}")
            }
            ServiceError::Overloaded { shard } => {
                write!(f, "shard {shard} queue full; submission rejected")
            }
            ServiceError::Write(e) => write!(f, "engine write failed: {e}"),
            ServiceError::Stopped => write!(f, "service is stopped"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WriteError> for ServiceError {
    fn from(e: WriteError) -> ServiceError {
        ServiceError::Write(e)
    }
}

/// The per-submission completion slot the submitting thread blocks on.
struct DoneSlot {
    outcome: Mutex<Option<Result<(), WriteError>>>,
    cond: Condvar,
}

impl DoneSlot {
    fn new() -> Arc<DoneSlot> {
        Arc::new(DoneSlot {
            outcome: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    fn resolve(&self, outcome: Result<(), WriteError>) {
        *self.outcome.lock() = Some(outcome);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<(), WriteError> {
        let mut slot = self.outcome.lock();
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            self.cond.wait(&mut slot);
        }
    }
}

/// One queued write.
struct Request {
    /// Global (already namespaced) key.
    key: u64,
    value: u64,
    done: Arc<DoneSlot>,
}

/// One shard's submission machinery.
struct ShardQueue {
    queue: Mutex<VecDeque<Request>>,
    /// Signals executors that the queue gained work (or the service is
    /// stopping).
    cond: Condvar,
    /// The checkpoint gate: executors hold it shared per request,
    /// checkpoints take it exclusively — draining this shard's
    /// in-flight requests without touching the other shards.
    gate: RwLock<()>,
}

/// State shared between the service handle and its executor threads.
struct Shared<R> {
    engine: Arc<DurableEngine<R>>,
    config: ServiceConfig,
    shards: Vec<ShardQueue>,
    stopping: AtomicBool,
    /// Submissions accepted into a queue.
    accepted: AtomicU64,
    /// Submissions rejected by backpressure (`Overloaded`).
    overloaded: AtomicU64,
    /// Shard checkpoints completed under load.
    checkpoints: AtomicU64,
    /// Submit→ack latency of successful puts, nanoseconds.
    ack_hist: AtomicHist,
}

impl<P: Protocol> Shared<Runtime<P>> {
    /// Executor body: drain one shard's queue until the service stops
    /// *and* the queue is empty (accepted submissions are always
    /// resolved, even during shutdown).
    fn run_executor(&self, shard: usize) {
        let sq = &self.shards[shard];
        loop {
            let request = {
                let mut queue = sq.queue.lock();
                loop {
                    if let Some(r) = queue.pop_front() {
                        break r;
                    }
                    if self.stopping.load(Ordering::Acquire) {
                        return;
                    }
                    sq.cond.wait(&mut queue);
                }
            };
            // Shared gate: a concurrent checkpoint's exclusive
            // acquisition waits for in-flight requests (bounded — each
            // is one transaction) and blocks new ones until the
            // snapshot is done.
            let _gate = sq.gate.read();
            let outcome = self.engine.put(request.key, request.value);
            request.done.resolve(outcome);
        }
    }
}

/// A multi-tenant write service over a [`DurableEngine`]. See the
/// module docs for the shape.
///
/// Dropping the service stops it: executors drain the accepted backlog
/// and exit. Submissions racing a stop get [`ServiceError::Stopped`]
/// (if they lose the race at the queue) or their normal outcome (if
/// they won it — accepted work is always finished).
pub struct StmService<R> {
    shared: Arc<Shared<R>>,
    executors: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<P: Protocol> StmService<Runtime<P>> {
    /// Start a service over `engine`: per-shard queues, and
    /// `executors_per_shard` executor threads per engine shard.
    ///
    /// # Panics
    /// If the tenant key space (`tenants * keys_per_tenant`) exceeds
    /// the engine's key range, or `executors_per_shard == 0`.
    pub fn start(engine: Arc<DurableEngine<Runtime<P>>>, config: ServiceConfig) -> Self {
        let span = config.tenants * config.keys_per_tenant;
        assert!(
            span <= engine.n_keys(),
            "tenant key space {span} exceeds the engine's {} keys",
            engine.n_keys()
        );
        assert!(config.executors_per_shard > 0, "need at least one executor");
        let n_shards = engine.engine().shards();
        let shards = (0..n_shards)
            .map(|_| ShardQueue {
                queue: Mutex::new(VecDeque::new()),
                cond: Condvar::new(),
                gate: RwLock::new(()),
            })
            .collect();
        let shared = Arc::new(Shared {
            engine,
            config,
            shards,
            stopping: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            ack_hist: AtomicHist::new(),
        });
        let mut executors = Vec::with_capacity(n_shards * config.executors_per_shard);
        for shard in 0..n_shards {
            for _ in 0..config.executors_per_shard {
                let shared = Arc::clone(&shared);
                executors.push(std::thread::spawn(move || shared.run_executor(shard)));
            }
        }
        StmService {
            shared,
            executors: Mutex::new(executors),
        }
    }

    /// The engine underneath (stats, stores, health).
    pub fn engine(&self) -> &Arc<DurableEngine<Runtime<P>>> {
        &self.shared.engine
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }

    /// Map a tenant-local key to its global engine key, validating both
    /// coordinates.
    fn global_key(&self, tenant: usize, key: u64) -> Result<u64, ServiceError> {
        let cfg = &self.shared.config;
        if tenant >= cfg.tenants {
            return Err(ServiceError::NoSuchTenant {
                tenant,
                tenants: cfg.tenants,
            });
        }
        if key as usize >= cfg.keys_per_tenant {
            return Err(ServiceError::KeyOutOfRange {
                key,
                keys_per_tenant: cfg.keys_per_tenant,
            });
        }
        Ok((tenant * cfg.keys_per_tenant) as u64 + key)
    }

    /// Submit `tenant`'s write of `key := value` and block until it is
    /// committed **and acked** by the durable layer (in group-commit
    /// mode: its batch is flushed and synced). `Ok` means durable;
    /// any `Err` means the write had no effect.
    pub fn put(&self, tenant: usize, key: u64, value: u64) -> Result<(), ServiceError> {
        let global = self.global_key(tenant, key)?;
        let shard = self.shared.engine.engine().route(global);
        let done = DoneSlot::new();
        let submitted = Instant::now();
        {
            let sq = &self.shared.shards[shard];
            let mut queue = sq.queue.lock();
            if self.shared.stopping.load(Ordering::Acquire) {
                return Err(ServiceError::Stopped);
            }
            if queue.len() >= self.shared.config.queue_depth {
                self.shared.overloaded.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Overloaded { shard });
            }
            queue.push_back(Request {
                key: global,
                value,
                done: Arc::clone(&done),
            });
            self.shared.accepted.fetch_add(1, Ordering::Relaxed);
            sq.cond.notify_one();
        }
        let outcome = done.wait();
        if outcome.is_ok() {
            let ns = submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.shared.ack_hist.record(ns);
        }
        outcome.map_err(ServiceError::from)
    }

    /// Read `tenant`'s `key` directly (reads don't queue: the engine
    /// serves them transactionally in every health state).
    pub fn get(&self, tenant: usize, key: u64) -> Result<u64, ServiceError> {
        let global = self.global_key(tenant, key)?;
        Ok(self.shared.engine.get(global))
    }

    /// Checkpoint every shard **under load**: shard by shard, take the
    /// shard's gate exclusively (draining its in-flight requests,
    /// blocking new ones), snapshot it through the engine's quiesce
    /// fence, release. Other shards keep serving throughout; the
    /// blocked shard's submissions see a bounded ack-latency bump, not
    /// an error.
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        for i in 0..self.shared.shards.len() {
            let _gate = self.shared.shards[i].gate.write();
            self.shared.engine.checkpoint_one(i)?;
            self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Stopping and the counters touch only the queues, the executor
/// handles and atomics, so they need no bound (and `Drop` may not have
/// one the struct lacks).
impl<R> StmService<R> {
    /// Stop the service: reject new submissions, drain the accepted
    /// backlog, join the executors. Idempotent.
    pub fn stop(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        for sq in &self.shared.shards {
            // Take the queue lock so the wake cannot slip between an
            // executor's empty-check and its wait.
            let _queue = sq.queue.lock();
            sq.cond.notify_all();
        }
        let handles: Vec<_> = self.executors.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Submissions accepted into a queue so far.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Submissions rejected by backpressure so far.
    pub fn overloaded(&self) -> u64 {
        self.shared.overloaded.load(Ordering::Relaxed)
    }

    /// Shard checkpoints completed so far.
    pub fn checkpoints(&self) -> u64 {
        self.shared.checkpoints.load(Ordering::Relaxed)
    }

    /// Snapshot of the submit→ack latency histogram (successful puts).
    pub fn ack_latency(&self) -> HistSnapshot {
        self.shared.ack_hist.snapshot()
    }
}

impl<R> Drop for StmService<R> {
    fn drop(&mut self) {
        self.stop();
    }
}

impl<P: Protocol> stm_telemetry::MetricsSource for StmService<Runtime<P>> {
    fn collect(&self, frame: &mut stm_telemetry::MetricsFrame) {
        stm_telemetry::MetricsSource::collect(self.shared.engine.as_ref(), frame);
        frame.counter(
            "stm_service_accepted_total",
            "Submissions accepted into a shard queue.",
            &[],
            self.accepted(),
        );
        frame.counter(
            "stm_service_overloaded_total",
            "Submissions rejected by queue backpressure.",
            &[],
            self.overloaded(),
        );
        frame.counter(
            "stm_service_checkpoints_total",
            "Shard checkpoints completed under load.",
            &[],
            self.checkpoints(),
        );
        frame.summary(
            "stm_ack_latency_ns",
            "Submit-to-ack latency of successful service puts.",
            &[],
            self.ack_latency(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm_wal::{GroupCommitConfig, MemStore, WalStore};
    use tinystm::{Stm, StmConfig};

    fn service(shards: usize, config: ServiceConfig) -> (StmService<Stm>, Arc<DurableEngine<Stm>>) {
        let stores: Vec<Arc<dyn WalStore>> = (0..shards)
            .map(|_| MemStore::healthy() as Arc<dyn WalStore>)
            .collect();
        let engine = Arc::new(
            DurableEngine::<Stm>::new_grouped(
                shards,
                config.tenants * config.keys_per_tenant,
                &StmConfig::default(),
                stores,
                GroupCommitConfig::default(),
            )
            .unwrap(),
        );
        (StmService::start(Arc::clone(&engine), config), engine)
    }

    #[test]
    fn puts_ack_and_reads_see_them() {
        let cfg = ServiceConfig::default()
            .with_tenants(2)
            .with_keys_per_tenant(64);
        let (svc, engine) = service(2, cfg);
        for t in 0..2 {
            for k in 0..64u64 {
                svc.put(t, k, 1000 * t as u64 + k).unwrap();
            }
        }
        for t in 0..2 {
            for k in 0..64u64 {
                assert_eq!(svc.get(t, k).unwrap(), 1000 * t as u64 + k);
            }
        }
        assert_eq!(svc.accepted(), 128);
        assert_eq!(svc.overloaded(), 0);
        assert_eq!(svc.ack_latency().count, 128);
        // Every acked write is in the shard logs (group-commit mode).
        let (flushes, records) = engine.group_flush_stats();
        assert_eq!(records, 128);
        assert!((1..=128).contains(&flushes));
    }

    #[test]
    fn tenants_are_namespaced() {
        let cfg = ServiceConfig::default()
            .with_tenants(3)
            .with_keys_per_tenant(8);
        let (svc, _engine) = service(1, cfg);
        // Same tenant-local key, three tenants: three distinct cells.
        for t in 0..3 {
            svc.put(t, 5, 100 + t as u64).unwrap();
        }
        for t in 0..3 {
            assert_eq!(svc.get(t, 5).unwrap(), 100 + t as u64);
        }
        // Coordinates are validated, typed, and non-destructive.
        assert_eq!(
            svc.put(3, 0, 1),
            Err(ServiceError::NoSuchTenant {
                tenant: 3,
                tenants: 3
            })
        );
        assert_eq!(
            svc.put(0, 8, 1),
            Err(ServiceError::KeyOutOfRange {
                key: 8,
                keys_per_tenant: 8
            })
        );
    }

    #[test]
    fn checkpoint_under_traffic_keeps_every_ack() {
        let cfg = ServiceConfig::default()
            .with_tenants(1)
            .with_keys_per_tenant(256)
            .with_executors_per_shard(2);
        let (svc, _engine) = service(2, cfg);
        let svc = Arc::new(svc);
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = 0u64;
                    let mut last = std::collections::BTreeMap::new();
                    while !stop.load(Ordering::Relaxed) {
                        // Writer w owns keys [w*128, w*128+128).
                        let k = 128 * w + (v % 128);
                        v += 1;
                        if svc.put(0, k, v).is_ok() {
                            last.insert(k, v);
                        }
                    }
                    last
                })
            })
            .collect();
        // Checkpoints race live traffic on both shards.
        for _ in 0..5 {
            svc.checkpoint().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut acked = std::collections::BTreeMap::new();
        for w in writers {
            acked.extend(w.join().unwrap());
        }
        assert!(svc.checkpoints() >= 10, "2 shards x 5 rounds");
        for (k, v) in acked {
            assert_eq!(svc.get(0, k).unwrap(), v, "key {k} lost its last ack");
        }
    }

    #[test]
    fn stop_rejects_new_submissions() {
        let (svc, _engine) = service(1, ServiceConfig::default());
        svc.put(0, 0, 1).unwrap();
        svc.stop();
        assert_eq!(svc.put(0, 0, 2), Err(ServiceError::Stopped));
        // Reads still serve after stop.
        assert_eq!(svc.get(0, 0).unwrap(), 1);
    }

    #[test]
    fn full_queue_rejects_with_typed_backpressure() {
        // Zero-depth queue: every submission is a rejection. (A depth-N
        // race-free overflow test would need executors frozen; the
        // zero bound exercises the same branch deterministically.)
        let cfg = ServiceConfig::default().with_queue_depth(0);
        let (svc, _engine) = service(1, cfg);
        let err = svc.put(0, 0, 1).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { shard: 0 }));
        assert_eq!(svc.overloaded(), 1);
        assert_eq!(svc.accepted(), 0);
    }
}
