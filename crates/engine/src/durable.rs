//! The durable layer: a key/value facade over the sharded engine whose
//! committed state survives crashes — and whose shards degrade, not the
//! process, when their stores fail.
//!
//! ## Shape
//!
//! A [`DurableEngine`] owns one [`ShardedEngine`] plus, per shard:
//!
//! * a **table** — a [`WordBlock`] of `n_keys` words; key `k` lives at
//!   word index `k` of the table of the shard `k` routes to (words for
//!   keys routed elsewhere are simply never touched);
//! * a **WAL sink** ([`GroupWalSink`]) attached to the shard's backend:
//!   every committed update transaction publishes its `(addr, value)`
//!   write set *inside* its commit critical section; the sink maps
//!   addresses back to keys and *stages* one checksummed record into
//!   the shard's [`GroupCommitter`] batch (the stage reserves the
//!   record's sequence number and log position), then blocks for the
//!   batch flush — one append + one sync acknowledges every staged
//!   commit of the batch, so concurrent committers touching disjoint
//!   stripes of one shard share a single fsync. There is no per-commit
//!   mode: a batch of one is the uncontended case of the same path;
//! * a **health slot** ([`HealthSlot`]) — Healthy shards publish;
//!   Degraded/Quarantined shards reject writes with a typed error and
//!   keep serving reads (see `crate::health`).
//!
//! Because the publish happens before the stripe locks are released,
//! conflicting commits appear in the shard's log in commit-timestamp
//! order, so **every log prefix is conflict-closed** — replaying any
//! prefix yields a state some crash-free execution could have reached
//! (invariant M1.4 in `stm-wal`). And because the backends publish
//! *before* applying their write-back (TL2/wb) or surface the failure
//! after undo-log rollback (wt), a failed publish aborts the commit
//! with **zero memory effect**: memory never runs ahead of the acked
//! log.
//!
//! ## Fault handling
//!
//! Failures follow the [`StoreError`] taxonomy's retry contract, at
//! batch granularity: *transient* append errors (nothing persisted) are
//! retried in place by the committer under the bounded
//! [`stm_wal::RetryPolicy`]. If the retries run out, the batch fails and
//! its commits roll back (typed [`WriteError::Wal`], resubmittable), but
//! the shard stays Healthy — nothing reached the log. *Torn* and
//! *permanent* append errors and failed fsyncs degrade the shard and
//! fail the batch. A sync failure after a successful append leaves
//! **in-doubt** records: present and decodable in the log but never
//! acknowledged (the commits rolled back). The engine tracks these per
//! shard ([`DurableEngine::in_doubt`]); the rejoin checkpoint clears
//! them.
//!
//! ## Rejoin: memory is the source of truth
//!
//! [`DurableEngine::rejoin`] repairs a Degraded shard *from memory*,
//! not from its log: since every acknowledged commit reached memory and
//! every failed one rolled back, the table holds exactly the acked
//! state. Rejoin re-checkpoints that state under the shard's quiesce
//! fence — atomically replacing whatever the store holds (torn bytes,
//! in-doubt orphans) with a snapshot of the truth — and reopens the
//! shard. If even the checkpoint fails, the shard is Quarantined:
//! writes stay rejected, reads keep serving.
//!
//! ## Checkpoint = quiesce fence
//!
//! [`DurableEngine::checkpoint`] runs each shard's snapshot inside that
//! shard's quiesce fence ([`tinystm::Runtime::quiesce`]): no
//! transaction is active, every prior commit is fully published and —
//! because the sink publishes inside the commit critical section —
//! fully logged. The snapshot (all routed keys, current values) and the
//! log truncation happen atomically inside the store.
//!
//! ## Recovery
//!
//! [`DurableEngine::recover_grouped`] replays each shard's store from
//! empty state (`stm_wal::recover_store`: snapshot, then intact log
//! records, with torn/corrupt tails reported and interior damage
//! rejected loudly), seeds fresh tables with the recovered state, and
//! immediately re-checkpoints so the new incarnation's log starts
//! clean. Epochs are made monotonic across incarnations by an
//! **epoch base** in the sink: the effective epoch of a published
//! record is `base + backend_epoch`, with `base` the recovered maximum
//! epoch (a fresh engine starts at base 0).

use crate::engine::ShardedEngine;
use crate::health::{HealthSlot, ShardHealth};
use core::sync::atomic::Ordering;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use stm_api::mem::WordBlock;
use stm_api::stats::{FaultSnapshot, FaultStats};
use stm_api::wal::{PublishError, WalSink};
use stm_api::{TmTx, TxKind};
use stm_wal::{
    recover_store, snapshot_of, BatchError, GroupCommitConfig, GroupCommitter, LogWriter, Recovery,
    RetryPolicy, StoreError, WalError, WalStore,
};
use tinystm::{ConfigError, Protocol, Runtime};

/// Word size of the tables (the engine is 64-bit word based).
const WORD: usize = core::mem::size_of::<usize>();

/// Map a backend write set (`(addr, value)` words) back to the shard's
/// dense keys, enforcing the no-phantom guard (M1.5): a durable
/// transaction must only write words of its shard's table — anything
/// else cannot be replayed, and dying here beats logging garbage.
fn writes_to_keys(base: usize, words: usize, writes: &[(usize, usize)]) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = Vec::with_capacity(writes.len());
    for &(addr, value) in writes {
        let in_table =
            addr >= base && addr < base + words * WORD && (addr - base).is_multiple_of(WORD);
        assert!(
            in_table,
            "durable commit wrote {addr:#x}, outside the shard table [{:#x}, {:#x})",
            base,
            base + words * WORD
        );
        keys.push((((addr - base) / WORD) as u64, value as u64));
    }
    keys
}

/// Errors building, recovering, or maintaining a [`DurableEngine`].
#[derive(Debug)]
pub enum DurableError {
    /// A shard's store failed recovery (interior corruption, snapshot
    /// damage, or a replay-invariant violation). Never silent: the
    /// failing shard and the precise violation are carried along.
    Wal {
        /// Shard whose store failed.
        shard: usize,
        /// The violation.
        error: WalError,
    },
    /// The runtime rejected the configuration.
    Config(ConfigError),
    /// `stores.len()` did not match the shard count.
    StoreCount {
        /// Shards requested.
        shards: usize,
        /// Stores supplied.
        stores: usize,
    },
    /// A checkpoint (or rejoin checkpoint) could not be written.
    Checkpoint {
        /// Shard whose store refused the snapshot.
        shard: usize,
        /// The store's verdict.
        error: StoreError,
    },
    /// A rejoin was requested on a Quarantined shard (terminal).
    Quarantined {
        /// The quarantined shard.
        shard: usize,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal { shard, error } => {
                write!(f, "shard {shard}: WAL recovery failed: {error}")
            }
            DurableError::Config(e) => write!(f, "invalid configuration: {e}"),
            DurableError::StoreCount { shards, stores } => {
                write!(f, "{shards} shard(s) but {stores} store(s) supplied")
            }
            DurableError::Checkpoint { shard, error } => {
                write!(f, "shard {shard}: checkpoint failed: {error}")
            }
            DurableError::Quarantined { shard } => {
                write!(
                    f,
                    "shard {shard} is quarantined (rejoin checkpoint failed earlier)"
                )
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<ConfigError> for DurableError {
    fn from(e: ConfigError) -> DurableError {
        DurableError::Config(e)
    }
}

/// A write refused or failed by the durable layer. The transaction
/// never takes effect: rejections happen before it runs, WAL failures
/// roll it back cleanly inside its commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteError {
    /// The target shard is not Healthy; the write was rejected up
    /// front. Reads on the shard still serve.
    Rejected {
        /// The unhealthy shard.
        shard: usize,
        /// Its health at rejection time.
        health: ShardHealth,
    },
    /// The WAL publish inside the commit failed; the transaction rolled
    /// back with no memory effect. The shard is now Degraded, unless the
    /// batch only ran out of transient retries (it stays Healthy and the
    /// write may simply be resubmitted).
    Wal {
        /// The shard that degraded.
        shard: usize,
    },
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::Rejected { shard, health } => {
                write!(f, "write rejected: shard {shard} is {health}")
            }
            WriteError::Wal { shard } => {
                write!(f, "WAL publish failed on shard {shard}; commit rolled back")
            }
        }
    }
}

impl std::error::Error for WriteError {}

/// A commit whose record reached the log but whose durability was never
/// confirmed (the fsync after the append failed). The commit was NOT
/// acknowledged — its transaction rolled back — so recovery from the
/// log may or may not surface it. Cleared by the rejoin checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InDoubtCommit {
    /// Effective durability epoch of the record.
    pub epoch: u64,
    /// Backend commit timestamp of the record.
    pub commit_ts: u64,
    /// The `(key, value)` write set, address-sorted.
    pub writes: Vec<(u64, u64)>,
}

/// The per-shard WAL sink: maps the backend's `(addr, value)` write set
/// back to keys, stages the record into the shard's [`GroupCommitter`]
/// batch inside the commit critical section (fixing its log position
/// while the stripe locks pin the commit order), and blocks until the
/// batch is flushed and acknowledged.
///
/// Fault mapping follows "one transient fault fails the *batch*, not
/// the shard": the committer already retried transients in place, so a
/// surfacing transient append failure fails this batch's commits (they
/// roll back cleanly and can be resubmitted) while the shard stays
/// Healthy. Terminal errors — torn appends, permanent store faults,
/// failed fsyncs — degrade the shard, with the batch's *primary* member
/// doing the once-per-batch bookkeeping so counters count batches, not
/// members.
struct GroupWalSink {
    /// Shard index (error messages).
    shard: usize,
    /// Base address of the shard's table.
    base: usize,
    /// Table length in words.
    words: usize,
    /// Added to the backend's durability epoch (monotonicity across
    /// recover incarnations).
    epoch_base: u64,
    committer: Arc<GroupCommitter>,
    health: Arc<HealthSlot>,
    stats: Arc<FaultStats>,
    in_doubt: Arc<Mutex<Vec<InDoubtCommit>>>,
}

impl WalSink for GroupWalSink {
    fn publish(
        &self,
        epoch: u64,
        commit_ts: u64,
        writes: &[(usize, usize)],
    ) -> Result<(), PublishError> {
        if !self.health.is_healthy() {
            self.stats.degraded_rejects.fetch_add(1, Ordering::Relaxed);
            return Err(PublishError::new(format!(
                "shard {} is {}",
                self.shard,
                self.health.get()
            )));
        }
        let keys = writes_to_keys(self.base, self.words, writes);
        let epoch = self.epoch_base + epoch;
        match self.committer.commit(epoch, commit_ts, &keys) {
            Ok(()) => Ok(()),
            Err(g) => {
                // A sync failure leaves every record of the batch in
                // the log but unconfirmed: each member tracks its own
                // in-doubt entry (the primary flag only dedupes the
                // per-batch counters below).
                if g.in_doubt {
                    self.in_doubt.lock().push(InDoubtCommit {
                        epoch,
                        commit_ts,
                        writes: keys,
                    });
                }
                let terminal = match &g.error {
                    // Cancelled behind another batch's failure (which
                    // did the bookkeeping), or transient retries ran
                    // out: nothing of this batch reached the store and
                    // the store may well serve the next one. Just roll
                    // the commit back.
                    BatchError::Cancelled => false,
                    BatchError::Append(e) => !e.is_transient(),
                    // The records are in the log, unconfirmed.
                    BatchError::Sync(_) => true,
                };
                if terminal && g.primary {
                    self.stats.wal_faults.fetch_add(1, Ordering::Relaxed);
                    self.health.set(ShardHealth::Degraded);
                }
                Err(PublishError::new(format!(
                    "shard {} group: {g}",
                    self.shard
                )))
            }
        }
    }
}

/// One shard's durable state (the sink shares the committer, health
/// slot, and in-doubt list).
struct DurableShard {
    table: WordBlock,
    store: Arc<dyn WalStore>,
    epoch_base: u64,
    writer: Arc<LogWriter>,
    health: Arc<HealthSlot>,
    in_doubt: Arc<Mutex<Vec<InDoubtCommit>>>,
    committer: Arc<GroupCommitter>,
}

/// A crash-recoverable key/value engine over [`ShardedEngine`] with
/// per-shard fault degradation.
///
/// Keys are dense `0..n_keys`; values are words. `R` is a
/// [`Runtime<P>`], as for [`ShardedEngine`]. Not `Clone` — the tables
/// and writers have one owner (share it behind an `Arc`).
pub struct DurableEngine<R> {
    engine: ShardedEngine<R>,
    shards: Vec<DurableShard>,
    n_keys: usize,
    stats: Arc<FaultStats>,
    /// Records-per-flush distribution across all shards' committers.
    batch_hist: Arc<stm_telemetry::AtomicHist>,
}

impl<P: Protocol> DurableEngine<Runtime<P>> {
    /// Build a fresh engine: `shards` backend instances, one table and
    /// one [`GroupCommitter`] per shard, sinks attached. `stores[i]`
    /// receives shard `i`'s log; supply one store per shard. Concurrent
    /// committers on disjoint stripes of one shard share a single
    /// append + sync.
    pub fn new_grouped(
        shards: usize,
        n_keys: usize,
        config: &P::Config,
        stores: Vec<Arc<dyn WalStore>>,
        group: GroupCommitConfig,
    ) -> Result<Self, DurableError> {
        Self::build(shards, n_keys, config, stores, None, group)
    }

    /// Recover an engine from the stores of a crashed (or cleanly
    /// stopped) incarnation: replay every shard from empty state, seed
    /// fresh tables, re-checkpoint so the new logs start clean. The
    /// per-shard [`Recovery`] reports (replayed records, tail status)
    /// are returned for inspection.
    ///
    /// Fails loudly — never with a silently diverged state — if any
    /// shard's store has interior corruption, a damaged snapshot, or a
    /// replay-invariant violation.
    pub fn recover_grouped(
        shards: usize,
        n_keys: usize,
        config: &P::Config,
        stores: Vec<Arc<dyn WalStore>>,
        group: GroupCommitConfig,
    ) -> Result<(Self, Vec<Recovery>), DurableError> {
        let mut recoveries = Vec::with_capacity(shards);
        for (i, store) in stores.iter().enumerate() {
            let r = recover_store(store.as_ref())
                .map_err(|error| DurableError::Wal { shard: i, error })?;
            recoveries.push(r);
        }
        let engine = Self::build(shards, n_keys, config, stores, Some(&recoveries), group)?;
        // Re-checkpoint immediately: the recovered state becomes the
        // new snapshot and the (possibly torn-tailed) old log is
        // truncated, so the fresh incarnation appends to a clean log.
        engine.checkpoint()?;
        Ok((engine, recoveries))
    }

    fn build(
        n_shards: usize,
        n_keys: usize,
        config: &P::Config,
        stores: Vec<Arc<dyn WalStore>>,
        recovered: Option<&[Recovery]>,
        group: GroupCommitConfig,
    ) -> Result<Self, DurableError> {
        if stores.len() != n_shards {
            return Err(DurableError::StoreCount {
                shards: n_shards,
                stores: stores.len(),
            });
        }
        let engine = ShardedEngine::new(n_shards, config)?;
        let stats = Arc::new(FaultStats::new());
        let batch_hist = Arc::new(stm_telemetry::AtomicHist::new());
        let mut shards = Vec::with_capacity(n_shards);
        for (i, store) in stores.into_iter().enumerate() {
            let table = WordBlock::new(n_keys.max(1));
            let (epoch_base, first_seq) = match recovered {
                Some(rs) => {
                    let r = &rs[i];
                    for (&k, &v) in &r.state {
                        assert!(
                            (k as usize) < n_keys && engine.route(k) == i,
                            "recovered key {k} does not belong to shard {i}"
                        );
                        table.write(k as usize, v as usize);
                    }
                    (
                        r.max_epoch,
                        r.records.last().map(|rec| rec.seq + 1).unwrap_or(0),
                    )
                }
                None => (0, 0),
            };
            let writer = Arc::new(LogWriter::new(i as u32, Arc::clone(&store), first_seq));
            let health = Arc::new(HealthSlot::new());
            let in_doubt = Arc::new(Mutex::new(Vec::new()));
            let committer = GroupCommitter::new(Arc::clone(&writer), group);
            let hist = Arc::clone(&batch_hist);
            committer.set_observer(move |records, _bytes| hist.record(records as u64));
            let sink: Arc<dyn WalSink> = Arc::new(GroupWalSink {
                shard: i,
                base: table.as_ptr() as usize,
                words: table.words(),
                epoch_base,
                committer: Arc::clone(&committer),
                health: Arc::clone(&health),
                stats: Arc::clone(&stats),
                in_doubt: Arc::clone(&in_doubt),
            });
            engine.shard(i).attach_wal(&sink);
            shards.push(DurableShard {
                table,
                store,
                epoch_base,
                writer,
                health,
                in_doubt,
                committer,
            });
        }
        Ok(DurableEngine {
            engine,
            shards,
            n_keys,
            stats,
            batch_hist,
        })
    }

    /// The underlying sharded engine (stats, routing, reconfigure).
    pub fn engine(&self) -> &ShardedEngine<Runtime<P>> {
        &self.engine
    }

    /// Number of keys.
    pub fn n_keys(&self) -> usize {
        self.n_keys
    }

    /// Shard `i`'s store (corruption simulation, inspection).
    pub fn store(&self, i: usize) -> &Arc<dyn WalStore> {
        &self.shards[i].store
    }

    /// Shard `i`'s effective durability epoch (epoch base of this
    /// incarnation + the backend's epoch).
    pub fn wal_epoch(&self, i: usize) -> u64 {
        self.shards[i].epoch_base + self.engine.shard(i).wal_epoch()
    }

    /// Shard `i`'s current health.
    pub fn health(&self, i: usize) -> ShardHealth {
        self.shards[i].health.get()
    }

    /// Number of actual health-state changes shard `i` has seen.
    pub fn health_transitions(&self, i: usize) -> u64 {
        self.shards[i].health.transitions()
    }

    /// Fault counters (retries, faults, rejections, rejoins) summed
    /// over all shards. `wal_retries` adds the committers' in-place
    /// append retries to the checkpoint retries counted here.
    pub fn fault_stats(&self) -> FaultSnapshot {
        let mut f = self.stats.snapshot();
        f.wal_retries += self
            .shards
            .iter()
            .map(|s| s.committer.retries())
            .sum::<u64>();
        f
    }

    /// Shard `i`'s in-doubt commits: appended to the log but never
    /// durability-confirmed (their transactions rolled back). Cleared
    /// by a successful [`DurableEngine::rejoin`].
    pub fn in_doubt(&self, i: usize) -> Vec<InDoubtCommit> {
        self.shards[i].in_doubt.lock().clone()
    }

    /// Batches flushed and records flushed, summed over every shard's
    /// committer. The ratio is the mean batch size — the amortization
    /// group commit exists for.
    pub fn group_flush_stats(&self) -> (u64, u64) {
        let mut flushes = 0;
        let mut records = 0;
        for shard in &self.shards {
            flushes += shard.committer.flushes();
            records += shard.committer.records_flushed();
        }
        (flushes, records)
    }

    /// Mean records per flushed batch across all shards (`None` before
    /// the first flush).
    pub fn group_mean_batch(&self) -> Option<f64> {
        let (flushes, records) = self.group_flush_stats();
        (flushes > 0).then(|| records as f64 / flushes as f64)
    }

    /// Transactionally set `key` to `value`. Fails with a typed error —
    /// never a panic, never a silent drop — if the routed shard is
    /// unhealthy or degrades during the commit.
    ///
    /// # Panics
    /// If `key >= n_keys`.
    pub fn put(&self, key: u64, value: u64) -> Result<(), WriteError> {
        assert!((key as usize) < self.n_keys, "key {key} out of range");
        let shard = self.engine.route(key);
        self.check_writable(shard)?;
        let addr = unsafe { self.shards[shard].table.as_ptr().add(key as usize) };
        self.engine
            .try_run_on(key, TxKind::ReadWrite, |tx| {
                // SAFETY: addr points into the routed shard's table.
                unsafe { tx.store_word(addr, value as usize) }
            })
            .map_err(|_| WriteError::Wal { shard })
    }

    /// Transactionally read `key`. Reads serve in every health state —
    /// memory holds exactly the acknowledged writes.
    ///
    /// # Panics
    /// If `key >= n_keys`.
    pub fn get(&self, key: u64) -> u64 {
        assert!((key as usize) < self.n_keys, "key {key} out of range");
        let shard = self.engine.route(key);
        let addr = unsafe { self.shards[shard].table.as_ptr().add(key as usize) };
        self.engine.run_on(key, TxKind::ReadOnly, |tx| {
            // SAFETY: addr points into the routed shard's table.
            unsafe { tx.load_word(addr) }
        }) as u64
    }

    /// Run a multi-key update transaction on the shard all `keys` route
    /// to (they must route to one shard; use the engine's cross-shard
    /// API otherwise). Same failure semantics as [`DurableEngine::put`].
    pub fn update<R>(
        &self,
        anchor_key: u64,
        body: impl for<'a> FnMut(&mut P::Tx<'a>) -> stm_api::TxResult<R>,
    ) -> Result<R, WriteError> {
        let shard = self.engine.route(anchor_key);
        self.check_writable(shard)?;
        self.engine
            .try_run_on(anchor_key, TxKind::ReadWrite, body)
            .map_err(|_| WriteError::Wal { shard })
    }

    /// Typed up-front health gate for the write paths.
    fn check_writable(&self, shard: usize) -> Result<(), WriteError> {
        let health = self.shards[shard].health.get();
        if health == ShardHealth::Healthy {
            Ok(())
        } else {
            self.stats.degraded_rejects.fetch_add(1, Ordering::Relaxed);
            Err(WriteError::Rejected { shard, health })
        }
    }

    /// Address of `key`'s word (for multi-key closures via
    /// [`DurableEngine::update`]). The caller must keep accesses inside
    /// the anchor key's shard.
    pub fn addr_of(&self, key: u64) -> *mut usize {
        assert!((key as usize) < self.n_keys, "key {key} out of range");
        let shard = self.engine.route(key);
        unsafe { self.shards[shard].table.as_ptr().add(key as usize) }
    }

    /// Snapshot every Healthy shard inside its quiesce fence and
    /// truncate its log: the durable checkpoint. Safe to run while
    /// workers commit — each shard's fence drains that shard's
    /// transactions first. Unhealthy shards are skipped (their
    /// checkpoint is [`DurableEngine::rejoin`]'s job); a store that
    /// refuses its snapshot degrades its shard and surfaces here.
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        for i in 0..self.shards.len() {
            if !self.shards[i].health.is_healthy() {
                continue;
            }
            if let Err(error) = self.checkpoint_shard(i, false) {
                self.shards[i].health.set(ShardHealth::Degraded);
                return Err(DurableError::Checkpoint { shard: i, error });
            }
        }
        Ok(())
    }

    /// Checkpoint one shard (same semantics as
    /// [`DurableEngine::checkpoint`], scoped to shard `i`). The service
    /// layer uses this to slot per-shard checkpoints between group
    /// batches without fencing the whole engine at once. Skips — with
    /// `Ok` — a shard that is not Healthy.
    pub fn checkpoint_one(&self, i: usize) -> Result<(), DurableError> {
        if !self.shards[i].health.is_healthy() {
            return Ok(());
        }
        if let Err(error) = self.checkpoint_shard(i, false) {
            self.shards[i].health.set(ShardHealth::Degraded);
            return Err(DurableError::Checkpoint { shard: i, error });
        }
        Ok(())
    }

    /// Bring a Degraded shard back: verify what its store still holds
    /// (diagnostic only — memory, not the log, is the source of truth),
    /// atomically re-checkpoint the in-memory state over whatever the
    /// store holds, clear the in-doubt list, and mark the shard
    /// Healthy. A shard whose rejoin checkpoint fails is Quarantined.
    ///
    /// Rejoining a Healthy shard is a no-op; rejoining a Quarantined
    /// shard fails (terminal).
    pub fn rejoin(&self, i: usize) -> Result<(), DurableError> {
        let shard = &self.shards[i];
        match shard.health.get() {
            ShardHealth::Healthy => return Ok(()),
            ShardHealth::Quarantined => return Err(DurableError::Quarantined { shard: i }),
            ShardHealth::Degraded => {}
        }
        // Diagnostic pass: surfaces what survived (acked prefix, torn
        // tail, in-doubt orphan) for operators/tests. Its verdict does
        // not gate the rejoin — the checkpoint below atomically
        // replaces the store's contents with the acked state either
        // way, which also heals interior damage a recovery would
        // reject.
        let _diagnostic = recover_store(shard.store.as_ref());
        match self.checkpoint_shard(i, true) {
            Ok(()) => {
                shard.in_doubt.lock().clear();
                shard.health.set(ShardHealth::Healthy);
                self.stats.rejoins.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(error) => {
                shard.health.set(ShardHealth::Quarantined);
                // Terminal for writes on this shard: dump the flight
                // recorder so the events leading here survive in the
                // operator's log (no-op when the recorder is off).
                stm_telemetry::flight::dump_to_stderr(&format!("shard {i} quarantined"));
                Err(DurableError::Checkpoint { shard: i, error })
            }
        }
    }

    /// Snapshot shard `i` from memory inside its quiesce fence,
    /// retrying transient store errors under the committers' policy.
    /// `reset_seq` restarts the writer's record numbering for the fresh
    /// log (rejoin; safe inside the fence with publishes excluded).
    fn checkpoint_shard(&self, i: usize, reset_seq: bool) -> Result<(), StoreError> {
        let shard = &self.shards[i];
        let backend = self.engine.shard(i);
        backend.quiesce(|| {
            // Inside the fence: no transaction is active on this
            // shard, every commit is published *and* logged.
            let mut state: BTreeMap<u64, u64> = BTreeMap::new();
            for k in 0..self.n_keys {
                if self.engine.route(k as u64) == i {
                    state.insert(k as u64, shard.table.read(k) as u64);
                }
            }
            let epoch = shard.epoch_base + backend.wal_epoch();
            let snap = snapshot_of(&state, epoch).encode();
            let (written, retries) =
                RetryPolicy::default().run(epoch ^ i as u64, || shard.store.checkpoint(&snap));
            self.stats
                .wal_retries
                .fetch_add(u64::from(retries), Ordering::Relaxed);
            written?;
            if reset_seq {
                shard.writer.set_next_seq(0);
            }
            Ok(())
        })
    }

    /// Direct (non-transactional) dump of all keys. Only meaningful
    /// while no workers are running.
    pub fn read_all(&self) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for k in 0..self.n_keys {
            let shard = self.engine.route(k as u64);
            out.insert(k as u64, self.shards[shard].table.read(k) as u64);
        }
        out
    }
}

impl<P: Protocol> stm_telemetry::MetricsSource for DurableEngine<Runtime<P>> {
    fn collect(&self, frame: &mut stm_telemetry::MetricsFrame) {
        stm_telemetry::MetricsSource::collect(&self.engine, frame);
        let f = self.fault_stats();
        frame.counter(
            "stm_wal_retries_total",
            "Transient WAL store errors retried in place.",
            &[],
            f.wal_retries,
        );
        frame.counter(
            "stm_wal_faults_total",
            "WAL faults that degraded a shard (terminal store errors, failed fsyncs).",
            &[],
            f.wal_faults,
        );
        frame.counter(
            "stm_degraded_rejects_total",
            "Writes rejected because the routed shard was not healthy.",
            &[],
            f.degraded_rejects,
        );
        frame.counter(
            "stm_rejoins_total",
            "Degraded shards successfully re-checkpointed and reopened.",
            &[],
            f.rejoins,
        );
        frame.summary(
            "stm_wal_batch_size",
            "Records per flushed group-commit batch, all shards.",
            &[],
            self.batch_hist.snapshot(),
        );
        for (i, shard) in self.shards.iter().enumerate() {
            let label = i.to_string();
            let labels = [("shard", label.as_str())];
            // 0 = healthy, 1 = degraded, 2 = quarantined — matches the
            // state machine's severity order, so `max() > 0` alerts.
            let health = match shard.health.get() {
                ShardHealth::Healthy => 0.0,
                ShardHealth::Degraded => 1.0,
                ShardHealth::Quarantined => 2.0,
            };
            frame.gauge(
                "stm_shard_health",
                "Shard health (0 = healthy, 1 = degraded, 2 = quarantined).",
                &labels,
                health,
            );
            frame.counter(
                "stm_shard_health_transitions_total",
                "Actual health-state changes per shard.",
                &labels,
                shard.health.transitions(),
            );
        }
    }
}
