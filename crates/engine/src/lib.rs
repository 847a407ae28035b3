//! # stm-engine — the sharded STM engine
//!
//! Routes keys across N **independent** backend instances — each with
//! its own commit clock, lock array, quiesce gate, and limbo list — so
//! transactions on different shards share nothing on the hot path. The
//! global commit clock is the one piece of state every TinySTM/TL2
//! transaction serializes through (the scalability ceiling the paper
//! flags); sharding replaces it with N local clocks, cutting
//! commit-clock contention by the shard count. The `shard_scaling`
//! bench (`stm-bench`) measures exactly that: the engine's
//! clock-conflict counter drops strictly from 1 to 4 shards under
//! forced contention, while the 1-shard engine costs ~nothing over the
//! bare backend.
//!
//! * [`Router`] — stateless, stable key→shard map (SplitMix64 +
//!   multiply-shift);
//! * [`ShardedEngine`] — the engine: [`ShardedEngine::run_on`] fast
//!   path, [`ShardedEngine::run_cross`] under a [`CrossShardPolicy`],
//!   per-shard reconfigure with epoch tracking;
//! * [`DurableEngine`] — the crash-recoverable KV facade: per-shard
//!   group-commit WAL sinks, checkpoint inside the quiesce fence,
//!   replay-based recovery;
//! * [`StmService`] — the multi-tenant service
//!   layer: per-shard submission queues with bounded backpressure,
//!   executor pools feeding the group-commit batches, checkpoints
//!   scheduled under load.
//!
//! ## Shards are `Runtime<P>`
//!
//! Every shard is a [`tinystm::Runtime<P>`]: TinySTM (`tinystm::Stm`)
//! and the TL2 baseline (`stm_tl2::Tl2`) are two locking protocols of
//! that one runtime, so the engine calls its inherent control path
//! directly — `new`, `reconfigure`, `quiesce`, `attach_wal`,
//! `telemetry`, `attach_trace` — and a rejected configuration is the
//! runtime's [`tinystm::ConfigError`] (wrapped as
//! [`DurableError::Config`] by the durable layer). The types are
//! parameterised by the runtime, not the protocol — `ShardedEngine<Stm>`,
//! `DurableEngine<Tl2>`, `StmService<Stm>` — so callers name the same
//! handle type they would build on its own; the structs themselves are
//! unbounded and their methods live in `impl<P: Protocol> …<Runtime<P>>`.
//!
//! ```
//! use stm_engine::ShardedEngine;
//! use stm_api::{TmTx, TxKind};
//! use stm_api::mem::WordBlock;
//! use tinystm::{Stm, StmConfig};
//!
//! let engine: ShardedEngine<Stm> =
//!     ShardedEngine::new(4, &StmConfig::default()).unwrap();
//! // One cell per shard, owned by the shard its key routes to.
//! let key = 42u64;
//! let cell = WordBlock::new(1);
//! let addr = cell.as_ptr();
//! engine.run_on(key, TxKind::ReadWrite, |tx| {
//!     let v = unsafe { tx.load_word(addr) }?;
//!     unsafe { tx.store_word(addr, v + 1) }
//! });
//! assert_eq!(cell.read(0), 1);
//! ```

mod durable;
mod engine;
mod health;
mod router;
mod service;

pub use durable::{DurableEngine, DurableError, InDoubtCommit, WriteError};
pub use engine::{CrossCtx, CrossShardPolicy, EngineError, ShardedEngine};
pub use health::{HealthSlot, ShardHealth};
pub use router::Router;
pub use service::{ServiceConfig, ServiceError, StmService};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stm_api::mem::WordBlock;
    use stm_api::{TmTx, TxKind};
    use stm_tl2::{Tl2, Tl2Config, Tl2Protocol};
    use stm_wal::{GroupCommitConfig, MemStore, WalStore};
    use tinystm::config::MAX_LOCKS_LOG2;
    use tinystm::stm::Lsa;
    use tinystm::{AccessStrategy, ConfigError, Protocol, Runtime, Stm, StmConfig};

    #[test]
    fn engine_over_tinystm_counts_per_shard() {
        let engine: ShardedEngine<Stm> = ShardedEngine::new(4, &StmConfig::default()).unwrap();
        assert_eq!(engine.shards(), 4);
        let cells: Vec<WordBlock> = (0..64).map(|_| WordBlock::new(1)).collect();
        for (k, cell) in cells.iter().enumerate() {
            let addr = cell.as_ptr();
            engine.run_on(k as u64, TxKind::ReadWrite, |tx| unsafe {
                tx.store_word(addr, k)
            });
        }
        for (k, cell) in cells.iter().enumerate() {
            assert_eq!(cell.read(0), k);
        }
        let stats = engine.stats();
        assert_eq!(stats.commits, 64);
        // Commits landed on more than one clock.
        let advanced = (0..4).filter(|&i| engine.clock_now(i) > 0).count();
        assert!(advanced > 1, "only {advanced} shard clock(s) advanced");
    }

    #[test]
    fn engine_over_tl2_runs() {
        let engine: ShardedEngine<Tl2> = ShardedEngine::new(2, &Tl2Config::default()).unwrap();
        let cell = WordBlock::new(1);
        let addr = cell.as_ptr();
        engine.run_on(7, TxKind::ReadWrite, |tx| unsafe { tx.store_word(addr, 9) });
        assert_eq!(cell.read(0), 9);
        assert_eq!(engine.stats().commits, 1);
    }

    #[test]
    fn per_shard_reconfigure_leaves_others_alone() {
        let engine: ShardedEngine<Stm> = ShardedEngine::new(2, &StmConfig::default()).unwrap();
        let cfg = StmConfig::default().with_locks_log2(10);
        engine.reconfigure_shard(1, &cfg).unwrap();
        assert_eq!(engine.reconfigure_epoch(0), 0);
        assert_eq!(engine.reconfigure_epoch(1), 1);
        assert_eq!(
            engine.shard(0).config().locks_log2,
            StmConfig::default().locks_log2
        );
        assert_eq!(engine.shard(1).config().locks_log2, 10);
        // Both shards still run transactions.
        let cell = WordBlock::new(1);
        let addr = cell.as_ptr();
        for key in 0..8u64 {
            engine.run_on(key, TxKind::ReadWrite, |tx| unsafe {
                tx.store_word(addr, key as usize)
            });
        }
    }

    #[test]
    fn shards_are_telemetry_tagged_and_scrape_per_shard() {
        use stm_telemetry::{MetricsFrame, MetricsSource};
        let engine: ShardedEngine<Stm> = ShardedEngine::new(3, &StmConfig::default()).unwrap();
        for i in 0..3 {
            assert_eq!(engine.shard(i).telemetry().tag(), i as u32);
        }
        engine.set_telemetry_enabled(true);
        let cell = WordBlock::new(1);
        let addr = cell.as_ptr();
        for key in 0..16u64 {
            engine.run_on(key, TxKind::ReadWrite, |tx| unsafe {
                tx.store_word(addr, key as usize)
            });
        }
        let mut frame = MetricsFrame::new();
        engine.collect(&mut frame);
        let commits = frame
            .families()
            .iter()
            .find(|f| f.name == "stm_commits_total")
            .expect("commit family present");
        // One sample per shard, each labelled with its shard index, and
        // the per-shard counts sum to the total.
        assert_eq!(commits.samples.len(), 3);
        let total: u64 = commits
            .samples
            .iter()
            .map(|s| match s.value {
                stm_telemetry::MetricValue::Counter(v) => v,
                _ => panic!("commits must be a counter"),
            })
            .sum();
        assert_eq!(total, 16);
        for i in 0..3 {
            let want = i.to_string();
            assert!(
                commits
                    .samples
                    .iter()
                    .any(|s| s.labels.iter().any(|(k, v)| k == "shard" && *v == want)),
                "no sample labelled shard={i}"
            );
        }
        // The runtime-gated histograms recorded too.
        assert!(frame
            .families()
            .iter()
            .any(|f| f.name == "stm_commit_latency_ns"));
        // And the per-shard reconfigure-epoch gauge is present.
        assert!(frame
            .families()
            .iter()
            .any(|f| f.name == "stm_reconfigure_epoch"));
    }

    /// A configuration the runtime rejects is a typed [`ConfigError`] at
    /// every entry point, and a rejected `reconfigure_all` leaves every
    /// shard on its old geometry, serving transactions.
    fn bad_config_is_typed<P: Protocol>(good: P::Config, bad: P::Config) {
        let want = ConfigError::LocksOutOfRange(MAX_LOCKS_LOG2 + 1);
        let err = ShardedEngine::<Runtime<P>>::new(2, &bad).err();
        assert_eq!(err, Some(want.clone()));
        let stores = vec![MemStore::healthy() as Arc<dyn WalStore>; 2];
        let group = GroupCommitConfig::default();
        match DurableEngine::<Runtime<P>>::new_grouped(2, 8, &bad, stores, group) {
            Err(DurableError::Config(e)) => assert_eq!(e, want),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("new_grouped accepted {bad:?}"),
        }
        let engine = ShardedEngine::<Runtime<P>>::new(2, &good).unwrap();
        assert_eq!(engine.reconfigure_all(&bad), Err(want));
        let cells: Vec<WordBlock> = (0..8).map(|_| WordBlock::new(1)).collect();
        for (k, cell) in cells.iter().enumerate() {
            let addr = cell.as_ptr();
            engine.run_on(k as u64, TxKind::ReadWrite, |tx| unsafe {
                tx.store_word(addr, k + 1)
            });
            assert_eq!(cell.read(0), k + 1);
        }
        for i in 0..engine.shards() {
            assert_eq!(engine.reconfigure_epoch(i), 0);
            assert_eq!(engine.shard(i).stats().reconfigurations, 0);
        }
    }

    #[test]
    fn bad_config_is_a_typed_error_on_every_backend() {
        for strategy in [AccessStrategy::WriteBack, AccessStrategy::WriteThrough] {
            let good = StmConfig::default().with_strategy(strategy);
            bad_config_is_typed::<Lsa>(good, good.with_locks_log2(MAX_LOCKS_LOG2 + 1));
        }
        let good = Tl2Config::default();
        bad_config_is_typed::<Tl2Protocol>(good, good.with_locks_log2(MAX_LOCKS_LOG2 + 1));
    }

    #[test]
    fn with_shard_matches_route() {
        let engine: ShardedEngine<Stm> = ShardedEngine::new(3, &StmConfig::default()).unwrap();
        for key in 0..32u64 {
            let expect = engine.route(key);
            let got = engine.with_shard(key, |tm| {
                (0..engine.shards())
                    .find(|&i| std::ptr::eq(engine.shard(i), tm))
                    .expect("shard handle must come from the engine")
            });
            assert_eq!(got, expect);
        }
    }
}
