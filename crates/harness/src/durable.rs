//! The `--durable` driver mode: run a threaded KV workload on the
//! durable sharded engine, optionally kill the stores at a chosen
//! operation count, recover from the WAL, and verify what recovery
//! produced.
//!
//! The kill is a [`CrashSwitch`] cut raced against live committers —
//! whatever frame was in flight when the budget hit becomes a torn
//! tail, exactly the failure recovery must absorb. Verification layers
//! by build:
//!
//! * always — recovery itself must succeed (corruption fails loudly),
//!   an uncrashed run must recover the exact pre-shutdown state, and
//!   the recovered engine must keep accepting commits that survive a
//!   *second* recovery;
//! * with the `record` feature too — the replay-equivalence oracle:
//!   each shard's WAL is cross-checked against its recorded history
//!   ([`stm_check::check_wal_commits`]; complete equality when the run
//!   was not crashed) and the history itself must check opaque.

use crate::backend::Backend;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm_engine::DurableEngine;
use stm_tl2::{Tl2Config, Tl2Protocol};
use stm_wal::{CrashSwitch, GroupCommitConfig, MemStore, WalStore};

#[cfg(feature = "record")]
use stm_wal::Recovery;
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, StmConfig};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Options for one durable run.
#[derive(Debug, Clone)]
pub struct DurableOpts {
    /// Backend to run.
    pub backend: Backend,
    /// Shard count.
    pub shards: usize,
    /// Key-space size.
    pub keys: usize,
    /// Worker threads.
    pub threads: usize,
    /// Put operations per thread.
    pub ops: usize,
    /// Cut the stores after this many puts across all threads
    /// (`None` = run to completion, clean shutdown).
    pub crash_at: Option<u64>,
    /// Run the recovery verification (state equality / replay oracle).
    pub recover_check: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Back the WAL with real files under this directory (one
    /// `shard-N` subdirectory per shard) instead of in-memory stores;
    /// the recovery incarnation reopens the same directories, so the
    /// crash-consistency path exercises actual appends, fsyncs, and
    /// atomic checkpoint renames. The directory should start empty.
    pub file_store: Option<std::path::PathBuf>,
}

impl Default for DurableOpts {
    fn default() -> Self {
        DurableOpts {
            backend: Backend::TinyWb,
            shards: 2,
            keys: 64,
            threads: 2,
            ops: 2_000,
            crash_at: None,
            recover_check: true,
            seed: 0x0D_07_AB_1E,
            file_store: None,
        }
    }
}

/// What one durable run produced.
#[derive(Debug)]
pub struct DurableReport {
    /// Puts issued (the cut does not stop the workload; later commits
    /// simply miss the log, as they would a real crash).
    pub issued: u64,
    /// WAL records recovery replayed, all shards.
    pub recovered_records: usize,
    /// Shards whose log ended in a torn (truncated) tail.
    pub torn_shards: usize,
    /// Whether the run was cut.
    pub crashed: bool,
    /// Fault counters of the workload incarnation at shutdown
    /// (retries, faults, rejections, rejoins).
    pub fault_stats: stm_api::stats::FaultSnapshot,
    /// Per-shard health of the workload incarnation at shutdown
    /// (`healthy` / `degraded` / `quarantined`).
    pub healths: Vec<String>,
    /// Verification failures (empty = everything checked out). Only
    /// populated when `recover_check` was set.
    pub failures: Vec<String>,
}

impl DurableReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} puts issued, {} WAL records recovered, {} torn shard(s), {}: {}",
            self.issued,
            self.recovered_records,
            self.torn_shards,
            if self.crashed { "crashed" } else { "clean" },
            if self.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILURE(S)", self.failures.len())
            }
        )
    }
}

/// Run the durable workload → (maybe) crash → recover → verify flow.
/// `Err` means the run could not execute at all (bad options); check
/// failures come back inside the report.
pub fn run_durable(opts: &DurableOpts) -> Result<DurableReport, String> {
    if opts.shards == 0 || opts.keys == 0 || opts.threads == 0 {
        return Err("--durable needs shards, keys and threads >= 1".to_string());
    }
    match opts.backend {
        Backend::TinyWb => run_one::<Lsa>(
            opts,
            &StmConfig::default().with_strategy(AccessStrategy::WriteBack),
        ),
        Backend::TinyWt => run_one::<Lsa>(
            opts,
            &StmConfig::default().with_strategy(AccessStrategy::WriteThrough),
        ),
        Backend::Tl2 => run_one::<Tl2Protocol>(opts, &Tl2Config::default()),
    }
}

fn stores(switch: &Arc<CrashSwitch>, shards: usize) -> Vec<Arc<dyn WalStore>> {
    (0..shards)
        .map(|_| MemStore::new(Arc::clone(switch)) as Arc<dyn WalStore>)
        .collect()
}

fn run_one<P: Protocol>(opts: &DurableOpts, config: &P::Config) -> Result<DurableReport, String> {
    let group = GroupCommitConfig::default();
    let switch = CrashSwitch::unlimited();
    let file_dirs: Option<Vec<std::path::PathBuf>> = opts.file_store.as_ref().map(|root| {
        (0..opts.shards)
            .map(|i| root.join(format!("shard-{i}")))
            .collect()
    });
    let dyns: Vec<Arc<dyn WalStore>> = match &file_dirs {
        Some(dirs) => dirs
            .iter()
            .map(|dir| {
                stm_wal::FileStore::with_switch(dir, Arc::clone(&switch))
                    .map(|s| s as Arc<dyn WalStore>)
                    .map_err(|e| format!("file store {}: {e}", dir.display()))
            })
            .collect::<Result<_, _>>()?,
        None => stores(&switch, opts.shards),
    };
    let engine: DurableEngine<Runtime<P>> =
        DurableEngine::new_grouped(opts.shards, opts.keys, config, dyns.clone(), group)
            .map_err(|e| format!("durable engine: {e}"))?;

    #[cfg(feature = "record")]
    let sinks: Vec<_> = (0..opts.shards)
        .map(|_| stm_check::TraceSink::new())
        .collect();
    #[cfg(feature = "record")]
    for (i, sink) in sinks.iter().enumerate() {
        engine.engine().shard(i).attach_trace(sink);
    }

    // The workload: every thread hammers puts (plus interleaved gets)
    // over the shared key space; a global put counter triggers the cut.
    let issued = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..opts.threads as u64 {
            let engine = &engine;
            let issued = &issued;
            let switch = &switch;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(opts.seed ^ (t << 32));
                for i in 0..opts.ops {
                    let key = rng.gen_range(0u64..opts.keys as u64);
                    if i % 5 == 4 {
                        engine.get(key);
                        continue;
                    }
                    let n = issued.fetch_add(1, Ordering::Relaxed) + 1;
                    if opts.crash_at == Some(n) {
                        switch.cut_now();
                    }
                    engine.put(key, (t << 48) | i as u64).unwrap();
                }
            });
        }
    });
    let issued = issued.load(Ordering::Relaxed);
    let crashed = switch.is_cut();

    #[cfg(feature = "record")]
    for i in 0..opts.shards {
        engine.engine().shard(i).detach_trace();
    }
    let pre_state = engine.read_all();
    let fault_stats = engine.fault_stats();
    let healths: Vec<String> = (0..opts.shards)
        .map(|i| engine.health(i).to_string())
        .collect();
    drop(engine);

    // Power-cycle: the next incarnation boots healthy stores holding
    // whatever bytes survived (the old crash switch dies with the old
    // machine), so the recovered engine can log and checkpoint again.
    // File-backed stores reboot by reopening their directories — the
    // surviving bytes are whatever actually reached the files.
    let boot: Vec<Arc<dyn WalStore>> = match &file_dirs {
        Some(dirs) => dirs
            .iter()
            .map(|dir| {
                stm_wal::FileStore::open(dir)
                    .map(|s| s as Arc<dyn WalStore>)
                    .map_err(|e| format!("file store reopen {}: {e}", dir.display()))
            })
            .collect::<Result<_, _>>()?,
        None => dyns
            .iter()
            .map(|s| MemStore::rebooted(&**s) as Arc<dyn WalStore>)
            .collect(),
    };
    let (recovered, reports) =
        DurableEngine::<Runtime<P>>::recover_grouped(opts.shards, opts.keys, config, boot, group)
            .map_err(|e| format!("recovery failed: {e}"))?;
    let recovered_records: usize = reports.iter().map(|r| r.records.len()).sum();
    let torn_shards = reports.iter().filter(|r| !r.tail.is_clean()).count();

    let mut failures = Vec::new();
    if opts.recover_check {
        verify_state(&recovered, &pre_state, crashed, &mut failures);
        #[cfg(feature = "record")]
        verify_replay(&sinks, &reports, crashed, &mut failures);
        verify_liveness::<P>(recovered, opts, config, &mut failures);
    }

    Ok(DurableReport {
        issued,
        recovered_records,
        torn_shards,
        crashed,
        fault_stats,
        healths,
        failures,
    })
}

/// Clean shutdown: recovery must reproduce the exact final state. After
/// a crash the recovered state is a per-shard prefix, so only the
/// weaker containment applies: every recovered value was either the
/// initial zero or really written.
fn verify_state<P: Protocol>(
    recovered: &DurableEngine<Runtime<P>>,
    pre_state: &BTreeMap<u64, u64>,
    crashed: bool,
    failures: &mut Vec<String>,
) {
    let state = recovered.read_all();
    if !crashed && &state != pre_state {
        failures.push(format!(
            "clean-shutdown recovery diverged: {} of {} keys differ",
            state
                .iter()
                .filter(|(k, v)| pre_state.get(k) != Some(v))
                .count(),
            state.len()
        ));
    }
}

/// The recovered engine must keep accepting commits, and those commits
/// must survive a second recovery — durability is a property of every
/// incarnation, not just the first.
fn verify_liveness<P: Protocol>(
    recovered: DurableEngine<Runtime<P>>,
    opts: &DurableOpts,
    config: &P::Config,
    failures: &mut Vec<String>,
) {
    let group = GroupCommitConfig::default();
    let dyns: Vec<Arc<dyn WalStore>> = (0..opts.shards)
        .map(|i| Arc::clone(recovered.store(i)))
        .collect();
    for k in 0..(opts.keys as u64).min(8) {
        recovered.put(k, 0x000A_11CE + k).unwrap();
    }
    let expected = recovered.read_all();
    drop(recovered);
    match DurableEngine::<Runtime<P>>::recover_grouped(opts.shards, opts.keys, config, dyns, group)
    {
        Err(e) => failures.push(format!("second recovery failed: {e}")),
        Ok((again, _)) => {
            if again.read_all() != expected {
                failures.push("post-recovery commits were lost by a second recovery".to_string());
            }
        }
    }
}

/// The replay-equivalence oracle: per shard, the recovered WAL commits
/// against the recorded history (complete equality when uncrashed), and
/// the history itself must be opaque.
#[cfg(feature = "record")]
fn verify_replay(
    sinks: &[Arc<stm_check::TraceSink>],
    reports: &[Recovery],
    crashed: bool,
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
            .map(|r| stm_check::WalCommit {
                epoch: r.epoch,
                commit_ts: r.commit_ts,
            })
            .collect();
        for v in stm_check::check_wal_commits(&history, &commits, !crashed) {
            failures.push(format!("shard {shard}: {v}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_checks_out_on_every_backend() {
        for backend in Backend::ALL {
            let report = run_durable(&DurableOpts {
                backend,
                ops: 300,
                ..DurableOpts::default()
            })
            .unwrap();
            assert!(!report.crashed);
            assert!(
                report.failures.is_empty(),
                "{backend:?}: {:?}",
                report.failures
            );
            assert!(report.recovered_records > 0);
        }
    }

    #[test]
    fn crashed_run_recovers_a_prefix() {
        let report = run_durable(&DurableOpts {
            crash_at: Some(200),
            ops: 400,
            ..DurableOpts::default()
        })
        .unwrap();
        assert!(report.crashed);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // The cut raced live committers: the log holds roughly the
        // pre-cut commits, never the full run.
        assert!(report.recovered_records < report.issued as usize);
    }

    #[test]
    fn file_store_clean_and_crashed_runs_check_out() {
        let root = std::env::temp_dir().join(format!("stm-harness-fs-{}", std::process::id()));
        for (tag, crash_at) in [("clean", None), ("crashed", Some(150))] {
            let dir = root.join(tag);
            let _ = std::fs::remove_dir_all(&dir);
            let report = run_durable(&DurableOpts {
                crash_at,
                ops: 300,
                file_store: Some(dir.clone()),
                ..DurableOpts::default()
            })
            .unwrap();
            assert_eq!(report.crashed, crash_at.is_some(), "{tag}");
            assert!(report.failures.is_empty(), "{tag}: {:?}", report.failures);
            assert!(report.recovered_records > 0, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
