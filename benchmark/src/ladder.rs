//! The layer ladder: the same single-key update issued single-threaded
//! through each successive public entry point, from a bare `Stm::run`
//! to an acked `StmService::put`. Each rung adds one layer, so the
//! difference between neighbours is what that layer costs when nothing
//! else contends. Runs once, before the traced `kv-put` windows.

use crate::hist::Hist;
use crate::kv;
use crate::store::TracedStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use stm_api::mem::WordBlock;
use stm_api::{TmTx, TxKind};
use stm_engine::{DurableEngine, Router, ServiceConfig, ShardedEngine, StmService};
use stm_wal::{CrashSwitch, FileStore, GroupCommitConfig, LogWriter, MemStore, WalStore};
use tinystm::Stm;

/// Operations per nanosecond-scale rung.
const NS_OPS: u64 = 2_000_000;
/// Operations per microsecond-scale rung.
const US_OPS: u64 = 20_000;
/// Operations of the rung that pays a real `fsync` each (~150 µs).
const SYNC_OPS: u64 = 5_000;

pub struct Ladder {
    /// Rung 0: `Stm::run`, one-word read-write transaction.
    pub commit_rw1_ns: f64,
    /// Rung 1: `Router::route` and `ShardedEngine::run_on`.
    pub route_ns: f64,
    pub run_on_ns: f64,
    /// `LogWriter::stage_commit` on a private writer.
    pub stage_commit_ns: f64,
    /// Rung 2: `DurableEngine::put`, grouped, `MemStore`.
    pub put_mem_us: f64,
    /// Rung 3: the same over a real file with `sync` suppressed.
    pub put_file_nosync_us: f64,
    /// Rung 4: the same with the real `sync`.
    pub put_file_us: f64,
    /// Rung 5: `StmService::put` over the `MemStore` engine.
    pub service_put_mem_us: f64,
}

impl Ladder {
    /// Queue hand-off and ack wake: what the service adds to the
    /// engine's put when storage costs nothing.
    pub fn handoff_us(&self) -> f64 {
        self.service_put_mem_us - self.put_mem_us
    }
}

/// Mean nanoseconds per call over `ops` calls, single-threaded.
pub fn mean_ns(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..ops {
        op(i);
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Median microseconds per call, each call timed on its own: at this
/// scale the clock reads are noise, and a median is what the ledger
/// sets against `op_p50_us`.
fn p50_us(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut hist = Hist::new();
    for i in 0..ops {
        let started = Instant::now();
        op(i);
        hist.record(started.elapsed().as_nanos() as u64);
    }
    hist.percentile(50.0) / 1_000.0
}

fn mem_engine(n_keys: usize) -> Arc<DurableEngine<Stm>> {
    let stores = (0..crate::spec::SHARDS)
        .map(|_| MemStore::healthy() as Arc<dyn WalStore>)
        .collect();
    Arc::new(
        DurableEngine::new_grouped(
            crate::spec::SHARDS,
            n_keys,
            &kv::engine_config(),
            stores,
            GroupCommitConfig::default(),
        )
        .expect("a MemStore engine builds"),
    )
}

fn file_engine(
    dir: &Path,
    n_keys: usize,
    suppress_sync: bool,
) -> Result<DurableEngine<Stm>, String> {
    let switch = CrashSwitch::unlimited();
    let mut stores: Vec<Arc<dyn WalStore>> = Vec::new();
    for shard in 0..crate::spec::SHARDS {
        let file = FileStore::with_switch(dir.join(format!("shard-{shard}")), Arc::clone(&switch))
            .map_err(|e| format!("ladder store: {e}"))?;
        stores.push(TracedStore::new(
            file,
            shard,
            Arc::clone(&switch),
            suppress_sync,
        ));
    }
    DurableEngine::new_grouped(
        crate::spec::SHARDS,
        n_keys,
        &kv::engine_config(),
        stores,
        GroupCommitConfig::default(),
    )
    .map_err(|e| format!("ladder engine: {e}"))
}

/// Climb the ladder. `dir` holds the file rungs' stores; `keys` is the
/// key range the puts are drawn from (the workload's own).
pub fn climb(
    dir: &Path,
    tenants: usize,
    keys_per_tenant: usize,
    seed: u64,
) -> Result<Ladder, String> {
    let n_keys = tenants * keys_per_tenant;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1ADD);
    let mut key = move || rng.gen_range(0..n_keys as u64);

    // Rung 0: the bare transaction.
    let stm = Stm::new(kv::engine_config()).expect("the bench configuration is valid");
    let cell = WordBlock::new(1);
    let addr = cell.as_ptr();
    let commit_rw1_ns = mean_ns(NS_OPS, |i| {
        // SAFETY: `addr` is the one word of `cell`, alive for the loop.
        stm.run(TxKind::ReadWrite, |tx| unsafe {
            tx.store_word(addr, i as usize)
        });
    });

    // Rung 1: the router, then the same transaction through the engine.
    let router = Router::new(crate::spec::SHARDS);
    let route_ns = mean_ns(NS_OPS, |i| {
        black_box(router.route(black_box(i)));
    });
    let sharded: ShardedEngine<Stm> = ShardedEngine::new(crate::spec::SHARDS, &kv::engine_config())
        .map_err(|e| format!("ladder engine: {e}"))?;
    let run_on_ns = mean_ns(NS_OPS, |i| {
        // SAFETY: as above; one thread, so the shards never race on it.
        sharded.run_on(i, TxKind::ReadWrite, |tx| unsafe {
            tx.store_word(addr, i as usize)
        });
    });

    // Encoding one record into a batch buffer.
    let writer = LogWriter::new(0, MemStore::healthy() as Arc<dyn WalStore>, 0);
    let mut batch = Vec::with_capacity(1 << 16);
    let stage_commit_ns = mean_ns(NS_OPS, |i| {
        if batch.len() >= 1 << 16 {
            batch.clear();
        }
        black_box(writer.stage_commit(0, i, &[(i, i)], &mut batch));
    });

    // Rungs 2-4: the durable put over ever more real storage.
    let mem = mem_engine(n_keys);
    let put_mem_us = p50_us(US_OPS, |i| {
        mem.put(key(), i).expect("MemStore put");
    });
    let nosync = file_engine(&dir.join("nosync"), n_keys, true)?;
    let put_file_nosync_us = p50_us(US_OPS, |i| {
        nosync.put(key(), i).expect("unsynced file put");
    });
    drop(nosync);
    let synced = file_engine(&dir.join("sync"), n_keys, false)?;
    let put_file_us = p50_us(SYNC_OPS, |i| {
        synced.put(key(), i).expect("synced file put");
    });
    drop(synced);

    // Rung 5: the service's queue and ack wake on top of rung 2.
    let svc = StmService::start(
        Arc::clone(&mem),
        ServiceConfig::default()
            .with_tenants(tenants)
            .with_keys_per_tenant(keys_per_tenant),
    );
    let service_put_mem_us = p50_us(US_OPS, |i| {
        let k = key();
        svc.put(
            (k / keys_per_tenant as u64) as usize,
            k % keys_per_tenant as u64,
            i,
        )
        .expect("service put over MemStore");
    });
    svc.stop();

    Ok(Ladder {
        commit_rw1_ns,
        route_ns,
        run_on_ns,
        stage_commit_ns,
        put_mem_us,
        put_file_nosync_us,
        put_file_us,
        service_put_mem_us,
    })
}
