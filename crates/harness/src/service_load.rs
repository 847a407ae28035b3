//! The `--service` driver mode: open-loop clients driving an
//! [`StmService`] (multi-tenant, per-shard group commit), an optional
//! mid-run power cut, a power-cycle, and the acked-survival
//! verification.
//!
//! The contract under test is the service's ack: [`StmService::put`]
//! returns `Ok` only once the submission's group batch has been
//! flushed **and** synced, so an acked write must survive the reboot.
//! The converse is explicitly allowed: a write that was *staged* into
//! a batch but whose flush never completed before the cut may vanish —
//! its `put` was still blocked, the client never saw an ack, and
//! memory never ran ahead of the log. The verification therefore
//! brackets each key between the client's last *acked* value (the
//! floor an acked commit must clear) and its last *submitted* value
//! (the ceiling nothing can exceed), exploiting that each client owns
//! its tenant's keys and writes strictly increasing values.
//!
//! "Acked before the cut" is observed as `Ok` with the crash switch
//! still intact afterwards: the ack happened-before that observation,
//! so the batch's bytes were admitted before the cut. (A cut
//! [`MemStore`] keeps acking into the void, like real hardware losing
//! power — those post-cut acks are exactly the ones the client must
//! not count.)

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_engine::{DurableEngine, ServiceConfig, StmService};
use stm_tl2::{Tl2Config, Tl2Protocol};
use stm_wal::{CrashSwitch, GroupCommitConfig, MemStore, WalStore};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime, StmConfig};

use crate::backend::Backend;

/// Options for one service run.
#[derive(Debug, Clone)]
pub struct ServiceOpts {
    /// Backend to run.
    pub backend: Backend,
    /// Shard count.
    pub shards: usize,
    /// Client threads; each client is its own tenant.
    pub clients: usize,
    /// Keys per tenant.
    pub keys_per_tenant: usize,
    /// Submissions per client.
    pub ops: usize,
    /// Offered rate, submissions/second across all clients
    /// (0 = closed loop, submit as fast as acks return).
    pub rate: u64,
    /// Cut the stores after this many submissions across all clients
    /// (`None` = clean shutdown).
    pub crash_at: Option<u64>,
    /// Group-commit batch bounds for the engine under the service.
    pub group: GroupCommitConfig,
}

impl Default for ServiceOpts {
    fn default() -> Self {
        ServiceOpts {
            backend: Backend::TinyWb,
            shards: 2,
            clients: 4,
            keys_per_tenant: 32,
            ops: 500,
            rate: 0,
            crash_at: None,
            group: GroupCommitConfig::default(),
        }
    }
}

/// What one service run produced.
#[derive(Debug)]
pub struct ServiceReport {
    /// Submissions issued (acked or not; the cut does not stop the
    /// clients, as it would not stop real ones).
    pub issued: u64,
    /// Submissions acked before the cut (all acked submissions, when
    /// the run was clean).
    pub acked: u64,
    /// Submissions rejected by queue backpressure.
    pub overloaded: u64,
    /// Whether the run was cut.
    pub crashed: bool,
    /// Mean records per flushed WAL batch (the amortization).
    pub mean_batch: f64,
    /// Submit→ack p50 / max latency, nanoseconds.
    pub ack_p50_ns: u64,
    /// Largest observed submit→ack latency, nanoseconds.
    pub ack_max_ns: u64,
    /// Fault counters of the service incarnation at shutdown.
    pub fault_stats: stm_api::stats::FaultSnapshot,
    /// Per-shard health at shutdown.
    pub healths: Vec<String>,
    /// Verification failures (empty = everything checked out).
    pub failures: Vec<String>,
}

impl ServiceReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} submissions issued, {} acked, {} overloaded, mean batch {:.2}, \
             ack p50 {}µs max {}µs, {}: {}",
            self.issued,
            self.acked,
            self.overloaded,
            self.mean_batch,
            self.ack_p50_ns / 1_000,
            self.ack_max_ns / 1_000,
            if self.crashed { "crashed" } else { "clean" },
            if self.failures.is_empty() {
                "ok".to_string()
            } else {
                format!("{} FAILURE(S)", self.failures.len())
            }
        )
    }
}

/// Run the service workload → (maybe) crash → power-cycle → verify
/// flow. `Err` means the run could not execute at all (bad options);
/// check failures come back inside the report.
pub fn run_service(opts: &ServiceOpts) -> Result<ServiceReport, String> {
    if opts.shards == 0 || opts.clients == 0 || opts.keys_per_tenant == 0 {
        return Err("--service needs shards, clients and keys >= 1".to_string());
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

fn run_one<P: Protocol>(opts: &ServiceOpts, config: &P::Config) -> Result<ServiceReport, String> {
    let switch = CrashSwitch::unlimited();
    let dyns: Vec<Arc<dyn WalStore>> = (0..opts.shards)
        .map(|_| MemStore::new(Arc::clone(&switch)) as Arc<dyn WalStore>)
        .collect();
    let n_keys = opts.clients * opts.keys_per_tenant;
    let engine = Arc::new(
        DurableEngine::<Runtime<P>>::new_grouped(
            opts.shards,
            n_keys,
            config,
            dyns.clone(),
            opts.group,
        )
        .map_err(|e| format!("durable engine: {e}"))?,
    );
    let svc = Arc::new(StmService::start(
        Arc::clone(&engine),
        ServiceConfig::default()
            .with_tenants(opts.clients)
            .with_keys_per_tenant(opts.keys_per_tenant),
    ));

    // Each client owns tenant `t` and writes strictly increasing
    // values round-robin over its keys; the open-loop pacing offers
    // `rate` submissions/second across all clients.
    let issued = Arc::new(AtomicU64::new(0));
    let interval =
        (opts.rate > 0).then(|| Duration::from_secs_f64(opts.clients as f64 / opts.rate as f64));
    type KeyMap = BTreeMap<u64, u64>;
    let clients: Vec<_> = (0..opts.clients)
        .map(|t| {
            let svc = Arc::clone(&svc);
            let switch = Arc::clone(&switch);
            let issued = Arc::clone(&issued);
            let crash_at = opts.crash_at;
            let (ops, keys) = (opts.ops, opts.keys_per_tenant as u64);
            std::thread::spawn(move || {
                let start = Instant::now();
                let mut acked: KeyMap = BTreeMap::new();
                let mut submitted: KeyMap = BTreeMap::new();
                let mut acked_count = 0u64;
                for i in 0..ops {
                    if let Some(iv) = interval {
                        let target = start + iv * i as u32;
                        while Instant::now() < target {
                            std::thread::yield_now();
                        }
                    }
                    let key = i as u64 % keys;
                    let value = i as u64 + 1;
                    let n = issued.fetch_add(1, Ordering::Relaxed) + 1;
                    if crash_at == Some(n) {
                        switch.cut_now();
                    }
                    submitted.insert(key, value);
                    if svc.put(t, key, value).is_ok() && !switch.is_cut() {
                        acked.insert(key, value);
                        acked_count += 1;
                    }
                }
                (t, acked, submitted, acked_count)
            })
        })
        .collect();
    let per_client: Vec<(usize, KeyMap, KeyMap, u64)> = clients
        .into_iter()
        .map(|c| c.join().map_err(|_| "client panicked".to_string()))
        .collect::<Result<_, _>>()?;
    let issued = issued.load(Ordering::Relaxed);
    let crashed = switch.is_cut();

    let hist = svc.ack_latency();
    let overloaded = svc.overloaded();
    let fault_stats = engine.fault_stats();
    let healths: Vec<String> = (0..opts.shards)
        .map(|i| engine.health(i).to_string())
        .collect();
    let mean_batch = engine.group_mean_batch().unwrap_or(0.0);
    svc.stop();
    drop(svc);
    drop(engine);

    // Power-cycle: the next incarnation boots healthy stores holding
    // whatever bytes were admitted before the cut.
    let boot: Vec<Arc<dyn WalStore>> = dyns
        .iter()
        .map(|s| MemStore::rebooted(&**s) as Arc<dyn WalStore>)
        .collect();
    let (recovered, _reports) =
        DurableEngine::<Runtime<P>>::recover_grouped(opts.shards, n_keys, config, boot, opts.group)
            .map_err(|e| format!("recovery failed: {e}"))?;

    // No acked submission lost, no value from the future.
    let state = recovered.read_all();
    let mut failures = Vec::new();
    let mut acked_total = 0u64;
    for (t, acked, submitted, acked_count) in &per_client {
        acked_total += acked_count;
        for key in 0..opts.keys_per_tenant as u64 {
            let global = (*t * opts.keys_per_tenant) as u64 + key;
            let got = state.get(&global).copied().unwrap_or(0);
            let floor = acked.get(&key).copied().unwrap_or(0);
            let ceil = submitted.get(&key).copied().unwrap_or(0);
            if got < floor {
                failures.push(format!(
                    "tenant {t} key {key}: recovered {got} < last acked {floor} — \
                     an acked submission was lost"
                ));
            }
            if got > ceil {
                failures.push(format!(
                    "tenant {t} key {key}: recovered {got} > last submitted {ceil} — \
                     phantom value"
                ));
            }
        }
    }
    if crashed && acked_total == 0 {
        failures.push("the cut landed before any submission was acked".to_string());
    }

    Ok(ServiceReport {
        issued,
        acked: acked_total,
        overloaded,
        crashed,
        mean_batch,
        ack_p50_ns: hist.value_at_percentile(50.0),
        ack_max_ns: hist.max,
        fault_stats,
        healths,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_service_run_checks_out_on_every_backend() {
        for backend in Backend::ALL {
            let report = run_service(&ServiceOpts {
                backend,
                ops: 200,
                ..ServiceOpts::default()
            })
            .unwrap();
            assert!(!report.crashed);
            assert!(
                report.failures.is_empty(),
                "{backend:?}: {:?}",
                report.failures
            );
            assert_eq!(report.acked, report.issued, "clean run acks everything");
        }
    }

    #[test]
    fn crashed_service_run_keeps_every_ack() {
        let report = run_service(&ServiceOpts {
            crash_at: Some(600),
            ops: 400,
            ..ServiceOpts::default()
        })
        .unwrap();
        assert!(report.crashed);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(
            report.acked < report.issued,
            "post-cut acks are not counted"
        );
    }

    #[test]
    fn paced_run_respects_the_offered_rate() {
        let start = Instant::now();
        let report = run_service(&ServiceOpts {
            clients: 2,
            ops: 50,
            rate: 2_000,
            ..ServiceOpts::default()
        })
        .unwrap();
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // 100 submissions at 2k/s is >= 50ms of schedule.
        assert!(start.elapsed() >= Duration::from_millis(45));
    }
}
