//! The `kv-*` workloads: closed-loop clients putting through
//! `StmService` onto real `FileStore`s with real `sync`, then a
//! simulated power cut, a recovery from the same directories, and the
//! acked-floor / submitted-ceiling check on what came back.

use crate::clients::{self, Client, Recorder, Trial};
use crate::env;
use crate::hist::Hist;
use crate::ladder::{self, Ladder};
use crate::report::{fmt_value, median, Outcome};
use crate::span::{self, Kind, Span};
use crate::spec::{self, RunCfg, Workload};
use crate::store::TracedStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_api::stats::BasicStats;
use stm_api::AbortReason;
use stm_engine::{DurableEngine, ServiceConfig, StmService};
use stm_wal::{decode_log, CrashSwitch, FileStore, GroupCommitConfig, WalStore};
use tinystm::{Stm, StmConfig};

/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Client 0 of `kv-rw-ckpt` checkpoints this often.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);
/// Calls of the single-threaded `durable.get_ns` probe.
const GET_PROBE_OPS: u64 = 200_000;
/// Timed `DurableEngine::checkpoint_one` calls per shard.
const CHECKPOINT_PROBE_REPS: usize = 3;
/// The service's own ack histogram counts the same puts the clients
/// time (every `Ok`, warm-ups included) into 12.5 % buckets reported by
/// their midpoint; beyond this distance between the two medians they
/// are not measuring the same thing and the run fails.
const ACK_CROSS_CHECK: f64 = 0.10;

const TENANTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Client `t` puts tenant `t`'s keys, uniformly.
    Put,
    /// Every client puts tenant 0 / key 0.
    Hot,
    /// `Put`, with a timed burst of reads after every put and a
    /// checkpoint every `CHECKPOINT_EVERY` from client 0.
    RwCkpt,
}

fn shape(workload: Workload) -> (Mode, usize) {
    match workload {
        Workload::KvPut => (Mode::Put, 512),
        Workload::KvHot => (Mode::Hot, 512),
        Workload::KvRwCkpt => (Mode::RwCkpt, 65_536),
        other => panic!("{} is not a kv workload", other.name()),
    }
}

/// `tinystm` write-back, default geometry, the figure benches' CM.
pub fn engine_config() -> StmConfig {
    StmConfig::default().with_cm(crate::intset::bench_cm())
}

/// A running service over real files.
struct System {
    svc: Arc<StmService<Stm>>,
    engine: Arc<DurableEngine<Stm>>,
    stores: Vec<Arc<TracedStore>>,
    switch: Arc<CrashSwitch>,
    dirs: Vec<PathBuf>,
}

impl System {
    /// What a deployment does before it takes traffic: open the
    /// stores, build the engine, start the service, write the first
    /// checkpoint.
    fn start(root: &Path, keys_per_tenant: usize) -> Result<System, String> {
        let switch = CrashSwitch::unlimited();
        let mut stores = Vec::new();
        let mut dirs = Vec::new();
        for shard in 0..spec::SHARDS {
            let dir = root.join(format!("shard-{shard}"));
            let file = FileStore::with_switch(&dir, Arc::clone(&switch))
                .map_err(|e| format!("open {}: {e}", dir.display()))?;
            stores.push(TracedStore::new(file, shard, Arc::clone(&switch), false));
            dirs.push(dir);
        }
        let engine = Arc::new(
            DurableEngine::<Stm>::new_grouped(
                spec::SHARDS,
                TENANTS * keys_per_tenant,
                &engine_config(),
                stores
                    .iter()
                    .map(|s| Arc::clone(s) as Arc<dyn WalStore>)
                    .collect(),
                GroupCommitConfig::default(),
            )
            .map_err(|e| format!("durable engine: {e}"))?,
        );
        let svc = Arc::new(StmService::start(
            Arc::clone(&engine),
            ServiceConfig::default()
                .with_tenants(TENANTS)
                .with_keys_per_tenant(keys_per_tenant),
        ));
        svc.checkpoint()
            .map_err(|e| format!("initial checkpoint: {e}"))?;
        Ok(System {
            svc,
            engine,
            stores,
            switch,
            dirs,
        })
    }

    fn counters(&self) -> Counters {
        let (flushes, records) = self.engine.group_flush_stats();
        Counters {
            stats: self.engine.engine().stats(),
            flushes,
            records,
            bytes: self.stores.iter().map(|s| s.appended_total()).sum(),
        }
    }

    fn set_recording(&self, on: bool) {
        for store in &self.stores {
            store.set_recording(on);
        }
    }
}

/// Counters read as a window opens and closes.
#[derive(Clone, Copy)]
struct Counters {
    stats: BasicStats,
    flushes: u64,
    records: u64,
    bytes: u64,
}

impl Counters {
    const ZERO: Counters = Counters {
        stats: BasicStats::ZERO,
        flushes: 0,
        records: 0,
        bytes: 0,
    };

    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            stats: self.stats.since(&earlier.stats),
            flushes: self.flushes - earlier.flushes,
            records: self.records - earlier.records,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

struct KvClient {
    id: usize,
    tenant: usize,
    mode: Mode,
    keys_per_tenant: usize,
    svc: Arc<StmService<Stm>>,
    engine: Arc<DurableEngine<Stm>>,
    switch: Arc<CrashSwitch>,
    rng: SmallRng,
    /// Puts issued so far; the next value is derived from it, so each
    /// client's values strictly increase.
    writes: u64,
    /// Per key: the last value whose put returned `Ok` before the cut.
    acked: Vec<u64>,
    /// Per key: the last value submitted.
    submitted: Vec<u64>,
    last_checkpoint: Instant,
    checkpoint_errors: u64,
    /// Submit→`Ok` of every successful put since the service started —
    /// the population `StmService::ack_latency` counts.
    all_acks: Hist,
}

impl KvClient {
    fn new(id: usize, mode: Mode, keys_per_tenant: usize, sys: &System, seed: u64) -> KvClient {
        KvClient {
            id,
            tenant: if mode == Mode::Hot { 0 } else { id },
            mode,
            keys_per_tenant,
            svc: Arc::clone(&sys.svc),
            engine: Arc::clone(&sys.engine),
            switch: Arc::clone(&sys.switch),
            rng: SmallRng::seed_from_u64(seed.wrapping_add(id as u64)),
            writes: 0,
            acked: vec![0; keys_per_tenant],
            submitted: vec![0; keys_per_tenant],
            last_checkpoint: Instant::now(),
            checkpoint_errors: 0,
            all_acks: Hist::new(),
        }
    }

    fn next_value(&mut self) -> u64 {
        self.writes += 1;
        match self.mode {
            // The remainder names the writer of the shared key.
            Mode::Hot => self.writes * spec::CLIENTS as u64 + self.id as u64,
            Mode::Put | Mode::RwCkpt => self.writes,
        }
    }
}

impl Client for KvClient {
    fn step(&mut self, mut rec: Option<&mut Recorder>) {
        let key = match self.mode {
            Mode::Hot => 0,
            Mode::Put | Mode::RwCkpt => self.rng.gen_range(0..self.keys_per_tenant as u64),
        };
        let value = self.next_value();
        self.submitted[key as usize] = value;
        let start_ns = span::now_ns();
        let result = self.svc.put(self.tenant, key, value);
        let end_ns = span::now_ns();
        // An `Ok` seen with the switch still intact was acked before
        // the cut; after it the stores ack into the void.
        if result.is_ok() {
            self.all_acks.record(end_ns - start_ns);
            if !self.switch.is_cut() {
                self.acked[key as usize] = value;
            }
        }
        if let Some(rec) = rec.as_deref_mut() {
            rec.ops += 1;
            match result {
                Ok(()) => rec.op_hist.record(end_ns - start_ns),
                Err(_) => rec.failed += 1,
            }
            if let Some(spans) = rec.spans.as_mut() {
                let global = (self.tenant * self.keys_per_tenant) as u64 + key;
                spans.push(Span {
                    kind: Kind::ClientPut,
                    shard: self.engine.engine().route(global) as u32,
                    who: self.id as u32,
                    arg: self.writes,
                    start_ns,
                    end_ns,
                });
            }
        }
        if self.mode == Mode::RwCkpt
            && self.id == 0
            && self.last_checkpoint.elapsed() >= CHECKPOINT_EVERY
        {
            let started = Instant::now();
            if self.svc.checkpoint().is_err() {
                self.checkpoint_errors += 1;
            }
            if let Some(rec) = rec {
                rec.checkpoints_ms
                    .push(started.elapsed().as_secs_f64() * 1_000.0);
            }
            self.last_checkpoint = Instant::now();
        }
    }

    fn read_burst(&mut self) {
        for _ in 0..spec::READ_BURST {
            let key = self.rng.gen_range(0..self.keys_per_tenant as u64);
            black_box(self.svc.get(self.tenant, key).expect("key in range"));
        }
    }

    fn read_every(&self) -> u64 {
        match self.mode {
            Mode::RwCkpt => 1,
            Mode::Put | Mode::Hot => spec::READ_EVERY,
        }
    }
}

/// What one traced window's spans say about the layers: per-layer
/// metric names with this window's values.
fn span_metrics(client: &[Span], store: &[Span], elapsed: Duration) -> Vec<(&'static str, f64)> {
    let of_kind = |kind: Kind| store.iter().filter(move |s| s.kind == kind);
    let durations = |kind: Kind| {
        let mut hist = Hist::new();
        of_kind(kind).for_each(|s| hist.record(s.duration_ns()));
        hist
    };
    let bytes = |kind: Kind| of_kind(kind).map(|s| s.arg as f64).sum::<f64>();
    let (appends, syncs, checkpoints) = (
        durations(Kind::StoreAppend),
        durations(Kind::StoreSync),
        durations(Kind::StoreCheckpoint),
    );
    let mut self_times = Hist::new();
    for ns in span::self_times(client, store) {
        self_times.record(ns);
    }
    let busy_ns: u64 = store.iter().map(Span::duration_ns).sum();
    vec![
        ("service.self_us", self_times.percentile(50.0) / 1e3),
        ("file.append_p50_us", appends.percentile(50.0) / 1e3),
        ("file.append_calls", appends.count() as f64),
        ("file.append_bytes", bytes(Kind::StoreAppend)),
        ("file.sync_p50_us", syncs.percentile(50.0) / 1e3),
        ("file.sync_p99_us", syncs.percentile(99.0) / 1e3),
        ("file.sync_calls", syncs.count() as f64),
        (
            "file.busy_share",
            busy_ns as f64 / (elapsed.as_nanos() as f64 * spec::SHARDS as f64),
        ),
        ("file.checkpoint_p50_ms", checkpoints.percentile(50.0) / 1e6),
        (
            "file.checkpoint_bytes",
            bytes(Kind::StoreCheckpoint) / checkpoints.count().max(1) as f64,
        ),
    ]
}

/// The recovered value of every key lies between the owning client's
/// last acked write and its last submitted one.
fn verify_owned_keys(out: &mut Outcome, clients: &[KvClient], state: &BTreeMap<u64, u64>) {
    for c in clients {
        for key in 0..c.keys_per_tenant {
            let global = (c.tenant * c.keys_per_tenant + key) as u64;
            let got = state.get(&global).copied().unwrap_or(0);
            let (floor, ceiling) = (c.acked[key], c.submitted[key]);
            out.check((floor..=ceiling).contains(&got), || {
                format!(
                    "tenant {} key {key}: recovered {got}, last acked {floor}, \
                     last submitted {ceiling}",
                    c.tenant
                )
            });
        }
    }
}

/// The shared key holds some client's value — that client's last acked
/// write or a later one it submitted — and no other key was written.
fn verify_hot_key(out: &mut Outcome, clients: &[KvClient], state: &BTreeMap<u64, u64>) {
    let got = state.get(&0).copied().unwrap_or(0);
    if got == 0 {
        out.check(clients.iter().all(|c| c.acked[0] == 0), || {
            "hot key recovered empty although a put was acked".to_string()
        });
    } else {
        let writer = &clients[(got % spec::CLIENTS as u64) as usize];
        let (floor, ceiling) = (writer.acked[0], writer.submitted[0]);
        out.check((floor..=ceiling).contains(&got), || {
            format!(
                "hot key: recovered {got} of client {}, whose last acked is {floor} and \
                 last submitted {ceiling}",
                writer.id
            )
        });
    }
    out.check(state.iter().all(|(&k, &v)| k == 0 || v == 0), || {
        "a key nobody wrote recovered with a value".to_string()
    });
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let (mode, keys_per_tenant) = shape(cfg.workload);
    let mut out = Outcome::new(cfg.workload, cfg.traced);

    let scratch =
        env::scratch_root().join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let fs_type = env::fs_type_of(&scratch);
    if env::is_memory_fs(&fs_type) {
        return Err(format!(
            "{} is on {fs_type}: fsync would be free, refusing to run {}",
            scratch.display(),
            cfg.workload.name()
        ));
    }

    let ladder = if cfg.traced && cfg.workload == Workload::KvPut {
        Some(ladder::climb(
            &scratch.join("ladder"),
            TENANTS,
            keys_per_tenant,
            cfg.seed,
        )?)
    } else {
        None
    };

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut system: Option<System> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = system.take() {
            old.svc.stop();
        }
        let root = scratch.join(format!("setup-{rep}"));
        let started = Instant::now();
        let sys = System::start(&root, keys_per_tenant)?;
        setups.push(started.elapsed().as_secs_f64());
        system = Some(sys);
    }
    let sys = system.expect("at least one set-up ran");
    out.put("setup_s", &setups, 0);

    let mut clients: Vec<KvClient> = (0..spec::CLIENTS)
        .map(|id| KvClient::new(id, mode, keys_per_tenant, &sys, cfg.seed))
        .collect();

    let mut trials: Vec<Trial> = Vec::new();
    let mut windows: Vec<Counters> = Vec::new();
    let mut spans: Vec<(usize, Vec<Span>)> = Vec::new();
    let mut span_metrics_per_trial: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut get_ns = 0.0;
    let mut checkpoint_one_ms = 0.0;
    clients::with_clients(&mut clients, |session| -> Result<(), String> {
        for t in 0..spec::TRIALS {
            let last = t + 1 == spec::TRIALS;
            let tracing = cfg.traces(t);
            if cfg.traced && last {
                // Nobody else is running: time the engine's own calls.
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6E7);
                let n_keys = (TENANTS * keys_per_tenant) as u64;
                get_ns = ladder::mean_ns(GET_PROBE_OPS, |_| {
                    black_box(sys.engine.get(rng.gen_range(0..n_keys)));
                });
                let mut times = Vec::new();
                for _ in 0..CHECKPOINT_PROBE_REPS {
                    for shard in 0..spec::SHARDS {
                        let started = Instant::now();
                        sys.engine
                            .checkpoint_one(shard)
                            .map_err(|e| format!("checkpoint probe: {e}"))?;
                        times.push(started.elapsed().as_secs_f64() * 1_000.0);
                    }
                }
                checkpoint_one_ms = median(&times);
            }
            let (mut before, mut after) = (Counters::ZERO, Counters::ZERO);
            let mut trial = session.trial(
                cfg.warmup(),
                cfg.window(),
                tracing,
                || {
                    before = sys.counters();
                    sys.set_recording(tracing);
                },
                || {
                    sys.set_recording(false);
                    after = sys.counters();
                    if last {
                        // Power fails with requests still in flight.
                        sys.switch.cut_now();
                    }
                },
            );
            if tracing {
                let client_spans: Vec<Span> = trial
                    .recorders
                    .iter_mut()
                    .flat_map(|r| r.spans.take().unwrap_or_default())
                    .collect();
                let store_spans: Vec<Span> =
                    sys.stores.iter().flat_map(|s| s.drain_spans()).collect();
                span_metrics_per_trial.push(span_metrics(
                    &client_spans,
                    &store_spans,
                    trial.elapsed,
                ));
                spans.push((t, client_spans));
                spans.push((t, store_spans));
            }
            windows.push(after.since(&before));
            trials.push(trial);
        }
        Ok(())
    })?;

    let acked: Vec<u64> = trials.iter().map(|t| t.ops() - t.failed()).collect();
    let acked_per_s: Vec<f64> = trials
        .iter()
        .zip(&acked)
        .map(|(t, &a)| a as f64 / t.elapsed.as_secs_f64())
        .collect();
    // Over the trials that ran the way the mode says: all of them when
    // untraced, the traced ones otherwise.
    let measured: Vec<usize> = (0..spec::TRIALS)
        .filter(|&t| cfg.traces(t) == cfg.traced)
        .collect();
    let pick = |values: &[f64]| -> Vec<f64> { measured.iter().map(|&t| values[t]).collect() };
    clients::put_window_metrics(
        &mut out,
        &measured.iter().map(|&t| &trials[t]).collect::<Vec<_>>(),
        &pick(&acked_per_s),
        1,
    );
    out.put1("peak_rss_mib", env::peak_rss_mib());
    // The two metrics only some workloads are gated on: the untraced
    // run reports them there, the traced run everywhere.
    let owed =
        |name: &str| cfg.traced || spec::gate(name).is_some_and(|g| g.applies_to(cfg.workload));
    if owed("wal_bytes_per_put") {
        let bytes_per_put: Vec<f64> = measured
            .iter()
            .map(|&t| windows[t].bytes as f64 / acked[t].max(1) as f64)
            .collect();
        out.put("wal_bytes_per_put", &bytes_per_put, 0);
    }
    if owed("checkpoint_p50_ms") {
        let of_trial = |t: usize| &trials[t].recorders[0].checkpoints_ms;
        let per_trial: Vec<f64> = measured.iter().map(|&t| median(of_trial(t))).collect();
        let samples = measured.iter().map(|&t| of_trial(t).len() as u64).min();
        out.put_best("checkpoint_p50_ms", &per_trial, samples.unwrap_or(0));
    }
    for trial in &trials {
        out.attempted += trial.ops();
        out.failed += trial.failed();
    }
    let checkpoint_errors: u64 = clients.iter().map(|c| c.checkpoint_errors).sum();
    out.check(checkpoint_errors == 0, || {
        format!("{checkpoint_errors} checkpoint(s) under load failed")
    });

    // The service's own view of the same acks.
    let ack_hist_p50_us = sys.svc.ack_latency().value_at_percentile(50.0) as f64 / 1e3;
    let mut all_acks = Hist::new();
    for c in &clients {
        all_acks.merge(&c.all_acks);
    }
    let client_p50_us = all_acks.percentile(50.0) / 1e3;
    out.check(
        (ack_hist_p50_us - client_p50_us).abs() <= ACK_CROSS_CHECK * client_p50_us,
        || {
            format!(
                "StmService::ack_latency p50 {ack_hist_p50_us:.1} us vs client-side \
                 {client_p50_us:.1} us"
            )
        },
    );
    let (accepted, overloaded) = (sys.svc.accepted(), sys.svc.overloaded());

    // Power is gone. Stop the dead machine, drop what it never synced,
    // boot a new one from the same directories.
    let System {
        svc,
        engine,
        stores,
        dirs,
        ..
    } = sys;
    svc.stop();
    drop(svc);
    drop(engine);
    let mut log_bytes = 0usize;
    let mut decode_s = 0.0;
    for store in &stores {
        store
            .discard_unsynced()
            .map_err(|e| format!("discard unsynced log bytes: {e}"))?;
        if cfg.traced {
            let bytes = store.log_bytes();
            let started = Instant::now();
            let decoded = decode_log(&bytes);
            decode_s += started.elapsed().as_secs_f64();
            out.check(decoded.is_ok(), || {
                "the surviving log does not decode".to_string()
            });
            log_bytes += bytes.len();
        }
    }
    drop(stores);
    let reopened: Vec<Arc<dyn WalStore>> = dirs
        .iter()
        .map(|d| FileStore::open(d).map(|s| s as Arc<dyn WalStore>))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reopen stores: {e}"))?;
    let started = Instant::now();
    let recovery = DurableEngine::<Stm>::recover_grouped(
        spec::SHARDS,
        TENANTS * keys_per_tenant,
        &engine_config(),
        reopened,
        GroupCommitConfig::default(),
    );
    let recover_s = started.elapsed().as_secs_f64();
    let mut replayed = 0usize;
    match recovery {
        Ok((recovered, reports)) => {
            for (shard, r) in reports.iter().enumerate() {
                replayed += r.records.len();
                // The log was cut on a sync boundary: nothing is torn.
                out.check(r.tail.is_clean(), || {
                    format!("shard {shard}: recovery dropped a tail: {:?}", r.tail)
                });
            }
            let state = recovered.read_all();
            match mode {
                Mode::Hot => verify_hot_key(&mut out, &clients, &state),
                Mode::Put | Mode::RwCkpt => verify_owned_keys(&mut out, &clients, &state),
            }
        }
        Err(e) => out.check(false, || format!("recovery failed: {e}")),
    }
    out.check(acked.iter().sum::<u64>() > 0, || {
        "no put was acked".to_string()
    });

    if cfg.traced {
        // Best against best, as the gated metrics are read.
        let best = |traced: bool| {
            (0..spec::TRIALS)
                .filter(|&t| cfg.traces(t) == traced)
                .map(|t| acked_per_s[t])
                .fold(0.0, f64::max)
        };
        out.put1(
            "benchmark.trace_overhead_pct",
            (best(false) - best(true)) / best(false) * 100.0,
        );
        let traced_windows: Vec<Counters> = measured.iter().map(|&t| windows[t]).collect();
        let traced_acked: Vec<u64> = measured.iter().map(|&t| acked[t]).collect();
        put_counter_metrics(&mut out, &traced_windows, &traced_acked);
        // Every traced window yields the same names in the same order.
        for (i, (name, _)) in span_metrics_per_trial[0].iter().enumerate() {
            let per_trial: Vec<f64> = span_metrics_per_trial.iter().map(|m| m[i].1).collect();
            out.put(name, &per_trial, 0);
        }
        out.put1("service.ack_hist_p50_us", ack_hist_p50_us);
        out.put1("service.accepted", accepted as f64);
        out.put1("service.overloaded", overloaded as f64);
        out.put1("durable.get_ns", get_ns);
        out.put1("durable.checkpoint_one_ms", checkpoint_one_ms);
        out.put1("durable.recover_s", recover_s);
        out.put1(
            "durable.recover_us_per_krec",
            recover_s * 1e6 / (replayed.max(1) as f64 / 1e3),
        );
        out.put1(
            "log.decode_mib_per_s",
            if decode_s > 0.0 {
                log_bytes as f64 / (1 << 20) as f64 / decode_s
            } else {
                0.0
            },
        );
        if let Some(ladder) = &ladder {
            put_ladder(&mut out, ladder);
        }
        write_spans(cfg.workload, &spans)?;
    }

    let _ = std::fs::remove_dir_all(&scratch);
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.put1("failed_ratio", failed_ratio);
    Ok(out)
}

/// `tinystm.*` and `group.*`: counter deltas over each traced window.
fn put_counter_metrics(out: &mut Outcome, windows: &[Counters], acked: &[u64]) {
    let per_window = |f: &dyn Fn(&Counters, u64) -> f64| -> Vec<f64> {
        windows.iter().zip(acked).map(|(w, &a)| f(w, a)).collect()
    };
    out.put(
        "tinystm.abort_ratio",
        &per_window(&|w, _| w.stats.abort_ratio()),
        0,
    );
    for reason in AbortReason::ALL {
        out.put(
            &format!("tinystm.aborts.{}", reason.label()),
            &per_window(&|w, _| w.stats.aborts_by_reason[reason.index()] as f64),
            0,
        );
    }
    out.put(
        "tinystm.clock_conflicts_per_ktx",
        &per_window(&|w, _| w.stats.clock_conflicts as f64 * 1e3 / w.stats.commits.max(1) as f64),
        0,
    );
    out.put(
        "group.mean_batch",
        &per_window(&|w, _| w.records as f64 / w.flushes.max(1) as f64),
        0,
    );
    out.put(
        "group.flushes_per_put",
        &per_window(&|w, a| w.flushes as f64 / a.max(1) as f64),
        0,
    );
}

/// The ladder's metrics, and the ledger: the rungs' differences next to
/// the span breakdown and the end-to-end median they should add up to.
fn put_ladder(out: &mut Outcome, l: &Ladder) {
    out.put1("tinystm.commit_rw1_ns", l.commit_rw1_ns);
    out.put1("router.route_ns", l.route_ns);
    out.put1("engine.run_on_ns", l.run_on_ns);
    out.put1("writer.stage_commit_ns", l.stage_commit_ns);
    out.put1("durable.put_mem_us", l.put_mem_us);
    out.put1("durable.put_file_nosync_us", l.put_file_nosync_us);
    out.put1("durable.put_file_us", l.put_file_us);
    out.put1("service.put_mem_us", l.service_put_mem_us);
    out.put1("service.handoff_us", l.handoff_us());

    let end_to_end = out.value("op_p50_us");
    let explained = out.value("service.self_us")
        + out.value("file.append_p50_us")
        + out.value("file.sync_p50_us");
    out.put1(
        "benchmark.ledger_residual_pct",
        (end_to_end - explained) / end_to_end * 100.0,
    );

    let rungs = [
        ("0 Stm::run, 1-word RW tx", l.commit_rw1_ns / 1e3),
        ("1 ShardedEngine::run_on", l.run_on_ns / 1e3),
        ("2 DurableEngine::put, MemStore", l.put_mem_us),
        ("3 DurableEngine::put, file, no sync", l.put_file_nosync_us),
        ("4 DurableEngine::put, file, sync", l.put_file_us),
        ("5 StmService::put, MemStore", l.service_put_mem_us),
    ];
    out.notes
        .push("ledger: one thread, one rung per layer (us, and what the rung added)".to_string());
    let mut below = 0.0;
    for (i, (name, us)) in rungs.iter().enumerate() {
        // Rung 5 stands on rung 2, not on the synced file.
        let base = if i == 5 { l.put_mem_us } else { below };
        out.notes.push(format!(
            "ledger:   rung {name}: {} (+{})",
            fmt_value(*us),
            fmt_value(us - base)
        ));
        below = *us;
    }
    out.notes.push(format!(
        "ledger: two clients, spans: service.self_us {} + file.append_p50_us {} + \
         file.sync_p50_us {} = {} of op_p50_us {}; residual {} %",
        fmt_value(out.value("service.self_us")),
        fmt_value(out.value("file.append_p50_us")),
        fmt_value(out.value("file.sync_p50_us")),
        fmt_value(explained),
        fmt_value(end_to_end),
        fmt_value(out.value("benchmark.ledger_residual_pct")),
    ));
}

fn write_spans(workload: Workload, spans: &[(usize, Vec<Span>)]) -> Result<(), String> {
    let dir = env::output_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.jsonl", workload.name()));
    let write = || -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (trial, batch) in spans {
            span::write_jsonl(&mut file, *trial, batch)?;
        }
        // Synced here, so the tens of megabytes are written back on this
        // run's time and not under the next run's fsyncs.
        file.into_inner().map_err(|e| e.into_error())?.sync_all()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}
