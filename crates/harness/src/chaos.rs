//! The `--chaos` driver mode (features `durable`): a threaded KV
//! workload on the durable engine with **deterministic seeded fault
//! injection** on every shard's store, a supervisor that rejoins
//! degraded shards while the workload runs, and a verification pass
//! asserting the fault-tolerance contract:
//!
//! * every **acknowledged** commit survives recovery — the recovered
//!   state equals the engine's in-memory state (memory holds exactly
//!   the acked writes: failed publishes roll back with zero memory
//!   effect);
//! * every write either succeeds or fails **typed** — no panic, no
//!   hang, no silent drop;
//! * with the `record` feature, the recovered log cross-checks against
//!   the recorded history (`stm_check::check_wal_commits`, prefix mode
//!   — mid-run rejoin checkpoints fold records into snapshots).
//!
//! ## Reproducibility
//!
//! The per-shard fault schedules are drawn from the seed alone
//! ([`stm_wal::FaultPlan::random`]), positioned in *append-attempt*
//! counts, so the same seed injects the same faults at the same log
//! positions regardless of thread interleaving. A failing run prints
//! the seed and every shard's schedule on stderr; `STM_CHAOS_SEED`
//! overrides the configured seed to replay a reported failure.

use crate::backend::Backend;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use stm_engine::{DurableEngine, ShardHealth, WriteError};
use stm_tl2::{Tl2Config, Tl2Protocol};
use stm_wal::{CrashSwitch, FaultPlan, FaultStore, GroupCommitConfig, MemStore, WalStore};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, StmConfig};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Options for one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Backend to run.
    pub backend: Backend,
    /// Shard count.
    pub shards: usize,
    /// Key-space size.
    pub keys: usize,
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread (4 of 5 are puts).
    pub ops: usize,
    /// Fault events injected per shard.
    pub faults_per_shard: usize,
    /// Seed for the fault schedules and the workload streams
    /// (`STM_CHAOS_SEED` in the environment overrides it).
    pub seed: u64,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            backend: Backend::TinyWb,
            shards: 2,
            keys: 64,
            threads: 2,
            ops: 2_000,
            faults_per_shard: 3,
            seed: 0xC4A0_5EED,
        }
    }
}

/// What one chaos run produced.
#[derive(Debug)]
pub struct ChaosReport {
    /// The seed actually used (after any `STM_CHAOS_SEED` override).
    pub seed: u64,
    /// Per-shard fault schedules, human-readable.
    pub schedules: Vec<String>,
    /// Puts acknowledged (committed and synced).
    pub acked: u64,
    /// Puts rejected up front (shard Degraded/Quarantined).
    pub rejected: u64,
    /// Puts that failed typed inside their commit (shard degrading).
    pub wal_failed: u64,
    /// Shards Quarantined at the end (store permanently dead).
    pub quarantined: usize,
    /// Fault counters from the engine.
    pub fault_stats: stm_api::stats::FaultSnapshot,
    /// Per-shard health after the final rejoin sweep
    /// (`healthy` / `degraded` / `quarantined`).
    pub healths: Vec<String>,
    /// Verification failures (empty = the contract held).
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "seed {:#x}: {} acked, {} rejected, {} wal-failed, {} rejoin(s), \
             {} retry(ies), {} quarantined shard(s): {}",
            self.seed,
            self.acked,
            self.rejected,
            self.wal_failed,
            self.fault_stats.rejoins,
            self.fault_stats.wal_retries,
            self.quarantined,
            if self.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILURE(S)", self.failures.len())
            }
        )
    }
}

/// Run the chaos workload → supervise/rejoin → recover → verify flow.
/// `Err` means the run could not execute at all; contract violations
/// come back inside the report (and are printed to stderr with the
/// seed and schedules, so any failure is reproducible).
pub fn run_chaos(opts: &ChaosOpts) -> Result<ChaosReport, String> {
    if opts.shards == 0 || opts.keys == 0 || opts.threads == 0 {
        return Err("--chaos needs shards, keys and threads >= 1".to_string());
    }
    let mut opts = opts.clone();
    if let Ok(s) = std::env::var("STM_CHAOS_SEED") {
        opts.seed = parse_seed(&s).ok_or_else(|| format!("STM_CHAOS_SEED: bad seed {s:?}"))?;
    }
    match opts.backend {
        Backend::TinyWb => run_one::<Lsa>(
            &opts,
            &StmConfig::default().with_strategy(AccessStrategy::WriteBack),
        ),
        Backend::TinyWt => run_one::<Lsa>(
            &opts,
            &StmConfig::default().with_strategy(AccessStrategy::WriteThrough),
        ),
        Backend::Tl2 => run_one::<Tl2Protocol>(&opts, &Tl2Config::default()),
    }
}

/// Accept decimal or `0x`-prefixed hex (the report prints hex).
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn run_one<P: Protocol>(opts: &ChaosOpts, config: &P::Config) -> Result<ChaosReport, String> {
    let group = GroupCommitConfig::default();
    // Deterministic per-shard schedules: positions are append-attempt
    // counts on that shard's store. The horizon targets the log's
    // expected fill so every event can actually fire.
    let expected_appends_per_shard =
        ((opts.threads * opts.ops * 4 / 5) / opts.shards).max(8) as u64;
    let faults: Vec<Arc<FaultStore>> = (0..opts.shards)
        .map(|i| {
            let plan = FaultPlan::random(
                opts.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                opts.faults_per_shard,
                expected_appends_per_shard,
            );
            FaultStore::new(MemStore::new(CrashSwitch::unlimited()), plan)
        })
        .collect();
    let schedules: Vec<String> = faults
        .iter()
        .enumerate()
        .map(|(i, f)| format!("shard {i}: {}", f.plan()))
        .collect();
    let dyns: Vec<Arc<dyn WalStore>> = faults
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn WalStore>)
        .collect();
    let engine: DurableEngine<Runtime<P>> =
        DurableEngine::new_grouped(opts.shards, opts.keys, config, dyns, group)
            .map_err(|e| format!("chaos engine: {e}"))?;

    #[cfg(feature = "record")]
    let sinks: Vec<_> = (0..opts.shards)
        .map(|_| stm_check::TraceSink::new())
        .collect();
    #[cfg(feature = "record")]
    for (i, sink) in sinks.iter().enumerate() {
        engine.engine().shard(i).attach_trace(sink);
    }

    let acked = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let wal_failed = AtomicU64::new(0);
    let live_workers = AtomicUsize::new(opts.threads);
    std::thread::scope(|scope| {
        // The supervisor: polls shard health and rejoins Degraded
        // shards while the workload runs (a Quarantined verdict is
        // terminal and left alone).
        scope.spawn(|| {
            while live_workers.load(Ordering::Acquire) > 0 {
                for i in 0..opts.shards {
                    if engine.health(i) == ShardHealth::Degraded {
                        // A failed rejoin quarantines the shard; the
                        // loop naturally stops retrying it.
                        let _ = engine.rejoin(i);
                    }
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        for t in 0..opts.threads as u64 {
            let engine = &engine;
            let (acked, rejected, wal_failed) = (&acked, &rejected, &wal_failed);
            let live_workers = &live_workers;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(opts.seed ^ (t << 32) ^ 0xC4A0);
                for i in 0..opts.ops {
                    let key = rng.gen_range(0u64..opts.keys as u64);
                    if i % 5 == 4 {
                        // Reads must serve in every health state.
                        engine.get(key);
                        continue;
                    }
                    match engine.put(key, (t << 48) | i as u64) {
                        Ok(()) => {
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(WriteError::Rejected { .. }) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            // Give the supervisor a beat to rejoin.
                            std::thread::yield_now();
                        }
                        Err(WriteError::Wal { .. }) => {
                            wal_failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                live_workers.fetch_sub(1, Ordering::Release);
            });
        }
    });

    // Final sweep: bring every still-Degraded shard back so the stores
    // hold a checkpoint of the acked state (Quarantined shards keep
    // their acked log prefix as-is).
    for i in 0..opts.shards {
        if engine.health(i) == ShardHealth::Degraded {
            let _ = engine.rejoin(i);
        }
    }
    #[cfg(feature = "record")]
    for i in 0..opts.shards {
        engine.engine().shard(i).detach_trace();
    }
    let quarantined = (0..opts.shards)
        .filter(|&i| engine.health(i) == ShardHealth::Quarantined)
        .count();
    let fault_stats = engine.fault_stats();
    let healths: Vec<String> = (0..opts.shards)
        .map(|i| engine.health(i).to_string())
        .collect();
    let pre_state = engine.read_all();
    // Records appended to the log but never durability-confirmed (and
    // never acked): exempt from the replay oracle below. After the
    // final sweep this is non-empty only on Quarantined shards.
    let in_doubt: Vec<BTreeSet<(u64, u64)>> = (0..opts.shards)
        .map(|i| {
            engine
                .in_doubt(i)
                .iter()
                .map(|c| (c.epoch, c.commit_ts))
                .collect()
        })
        .collect();
    let stores: Vec<Arc<dyn WalStore>> = (0..opts.shards)
        .map(|i| Arc::clone(engine.store(i)))
        .collect();
    drop(engine);

    // Power-cycle onto healthy stores holding the surviving bytes (the
    // next incarnation's machine is new; the fault schedule died with
    // the old one).
    let boot: Vec<Arc<dyn WalStore>> = stores
        .iter()
        .map(|s| MemStore::rebooted(&**s) as Arc<dyn WalStore>)
        .collect();
    let mut failures = Vec::new();
    match DurableEngine::<Runtime<P>>::recover_grouped(opts.shards, opts.keys, config, boot, group)
    {
        Err(e) => failures.push(format!("recovery failed: {e}")),
        Ok((recovered, reports)) => {
            // The core contract: no acknowledged commit is lost. The
            // engine's memory held exactly the acked writes, so the
            // recovered state must reproduce it — including on shards
            // that degraded, rejoined, or died mid-run.
            let state = recovered.read_all();
            if state != pre_state {
                let diverged = state
                    .iter()
                    .filter(|(k, v)| pre_state.get(k) != Some(v))
                    .count();
                failures.push(format!(
                    "acked commits lost: {diverged} of {} keys diverged after recovery",
                    state.len()
                ));
            }
            #[cfg(feature = "record")]
            verify_replay(&sinks, &reports, &in_doubt, &mut failures);
            #[cfg(not(feature = "record"))]
            let _ = (&reports, &in_doubt);
        }
    }

    let report = ChaosReport {
        seed: opts.seed,
        schedules,
        acked: acked.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        wal_failed: wal_failed.load(Ordering::Relaxed),
        quarantined,
        fault_stats,
        healths,
        failures,
    };
    if !report.failures.is_empty() {
        // Reproduction recipe on stderr: seed + every shard's schedule.
        eprintln!(
            "chaos: FAILED with seed {:#x} (rerun with STM_CHAOS_SEED={:#x})",
            report.seed, report.seed
        );
        for s in &report.schedules {
            eprintln!("chaos:   {s}");
        }
        for f in &report.failures {
            eprintln!("chaos:   failure: {f}");
        }
    }
    Ok(report)
}

/// The replay oracle under chaos: every WAL record that survived to
/// recovery must correspond to a committed transaction in the recorded
/// history (prefix mode — rejoin checkpoints fold earlier records into
/// snapshots, so completeness is not required). In-doubt records (the
/// fsync-failed orphans) are exempt: their transactions rolled back.
#[cfg(feature = "record")]
fn verify_replay(
    sinks: &[Arc<stm_check::TraceSink>],
    reports: &[stm_wal::Recovery],
    in_doubt: &[BTreeSet<(u64, u64)>],
    failures: &mut Vec<String>,
) {
    for (shard, (sink, report)) in sinks.iter().zip(reports).enumerate() {
        let history = match sink.drain_history() {
            Ok(h) => h,
            Err(e) => {
                failures.push(format!("shard {shard}: recording unsound: {e}"));
                continue;
            }
        };
        let check = stm_check::check_history(&history, &stm_check::CheckOpts::default());
        if !check.is_clean() {
            failures.push(format!("shard {shard}: history not opaque:\n{check}"));
        }
        let commits: Vec<stm_check::WalCommit> = report
            .records
            .iter()
            .filter(|r| !in_doubt[shard].contains(&(r.epoch, r.commit_ts)))
            .map(|r| stm_check::WalCommit {
                epoch: r.epoch,
                commit_ts: r.commit_ts,
            })
            .collect();
        for v in stm_check::check_wal_commits(&history, &commits, false) {
            failures.push(format!("shard {shard}: {v}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_contract_holds_on_every_backend() {
        for backend in Backend::ALL {
            let report = run_chaos(&ChaosOpts {
                backend,
                ops: 800,
                ..ChaosOpts::default()
            })
            .unwrap();
            assert!(
                report.failures.is_empty(),
                "{backend:?} seed {:#x}: {:?}\nschedules: {:?}",
                report.seed,
                report.failures,
                report.schedules
            );
            assert!(report.acked > 0, "{backend:?}: nothing acked");
        }
    }

    #[test]
    fn chaos_is_seed_deterministic_in_schedule() {
        let a = run_chaos(&ChaosOpts {
            ops: 200,
            seed: 42,
            ..ChaosOpts::default()
        })
        .unwrap();
        let b = run_chaos(&ChaosOpts {
            ops: 200,
            seed: 42,
            ..ChaosOpts::default()
        })
        .unwrap();
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn seed_parses_dec_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2A"), Some(42));
        assert_eq!(parse_seed("0X2a"), Some(42));
        assert_eq!(parse_seed("zzz"), None);
    }
}
