//! `stm-record` — run a workload with transactional event recording and
//! (optionally) verify the history with the stm-check oracle.
//!
//! ```text
//! stm-record [options]
//!   --workload W     intset-rbtree | intset-list | overwrite | vacation
//!                    (default intset-rbtree)
//!   --backend B      wb | wt | tl2             (default wb)
//!   --threads N      worker threads            (default 2)
//!   --ms MS          measurement window in ms  (default 50)
//!   --size N         structure size            (default 64)
//!   --update-pct P   update percentage         (default 20)
//!   --cm POLICY      immediate | suicide | delay | backoff
//!                    (default immediate)
//!   --reconfigure N  perform N mid-window reconfigurations (the
//!                    recording segments per epoch and stays checkable)
//!   --seed S         base RNG seed
//!   --no-record      measure only, record nothing
//!   --check          run the opacity/serializability checker
//!   --dump PATH      write the history as readable text to PATH
//!
//! telemetry (record mode):
//!   --metrics OUT    scrape the backend's metrics at exit and write
//!                    the Prometheus text exposition to OUT (`-` for
//!                    stdout); the text is linted in-process first
//!   --metrics-jsonl PATH
//!                    also write the scrape as line-delimited JSON
//!   --sample-every K continuous sampled checking: drive --windows
//!                    consecutive windows, record every K-th into a
//!                    bounded sink and check it immediately; exits 1
//!                    unless every sampled window checks clean
//!   --windows N      windows to drive in sampled mode (default 8)
//!   --event-cap N    per-window event budget; overflowing windows
//!                    skip whole attempts, tallied loudly
//!                    (default 65536)
//!
//! durable mode (needs the `durable` cargo feature):
//!   --durable        run the KV workload on the durable sharded engine
//!                    instead (WAL + recovery); --backend/--threads/
//!                    --size/--seed apply, --size is the key space
//!   --shards N       shard count                (default 2)
//!   --crash-at N     cut the stores after N puts, then recover the
//!                    torn logs (default: clean shutdown)
//!   --recover-check  verify recovery: exact state match when clean,
//!                    second-incarnation durability, and (when built
//!                    with `record` too) the WAL/history replay oracle
//!   --file-store DIR back the WAL with real files under DIR (one
//!                    shard-N subdirectory per shard; DIR should start
//!                    empty) instead of in-memory stores
//!
//! chaos mode (needs the `durable` cargo feature):
//!   --chaos          run the KV workload under deterministic seeded
//!                    fault injection (transient bursts, torn appends,
//!                    permanent failures, fsync errors) with live
//!                    shard rejoin, then verify no acked commit is
//!                    lost; --backend/--threads/--size apply
//!   --chaos-seed S   fault-schedule seed (decimal or 0x-hex; the
//!                    STM_CHAOS_SEED env var overrides it — failures
//!                    print the seed + schedules on stderr)
//!   --chaos-faults N fault events injected per shard (default 3)
//!
//! service mode (needs the `durable` cargo feature):
//!   --service        drive the multi-tenant StmService (per-shard
//!                    group commit) with open-loop clients, then
//!                    power-cycle and assert no *acked* submission is
//!                    lost (staged-but-unflushed writes may
//!                    legitimately vanish); --backend/--shards/
//!                    --crash-at apply, --size is keys per tenant
//!   --clients N      client threads, one tenant each (default 4)
//!   --rate R         offered submissions/second across all clients
//!                    (default 0 = closed loop)
//! ```
//!
//! Exit codes: 0 clean, 1 checker violation, unsound recording (e.g. a
//! clock roll-over inside the window) or failed recovery verification,
//! 2 usage error. This is the CI `record-check`/`durability` gate: any
//! violation on any backend fails the job with a printed witness.

use std::process::ExitCode;
use stm_harness::record::{
    run_recorded, run_recorded_with_metrics, run_sampled_windows, run_sampled_windows_with_metrics,
    RecWorkload, RecordOpts,
};
use stm_harness::Backend;
use stm_harness::MetricsReporter;
use tinystm::CmPolicy;

/// Where `--metrics` writes the Prometheus exposition.
enum MetricsOut {
    Stdout,
    File(std::path::PathBuf),
}

struct Args {
    opts: RecordOpts,
    check: bool,
    dump: Option<std::path::PathBuf>,
    metrics: Option<MetricsOut>,
    metrics_jsonl: Option<std::path::PathBuf>,
    sample_every: Option<usize>,
    windows: usize,
    event_cap: u64,
    durable: bool,
    shards: usize,
    crash_at: Option<u64>,
    recover_check: bool,
    file_store: Option<std::path::PathBuf>,
    chaos: bool,
    chaos_seed: Option<u64>,
    chaos_faults: usize,
    service: bool,
    clients: usize,
    rate: u64,
}

fn usage() -> String {
    "usage: stm-record [--workload intset-rbtree|intset-list|overwrite|vacation] \
     [--backend wb|wt|tl2] [--threads N] [--ms MS] [--size N] [--update-pct P] \
     [--cm immediate|suicide|delay|backoff] [--reconfigure N] [--seed S] \
     [--no-record] [--check] [--dump PATH] \
     [--metrics -|PATH] [--metrics-jsonl PATH] \
     [--sample-every K [--windows N] [--event-cap N]] \
     [--durable [--shards N] [--crash-at N] [--recover-check] [--file-store DIR]] \
     [--chaos [--chaos-seed S] [--chaos-faults N]] \
     [--service [--clients N] [--rate R]]"
        .to_string()
}

/// Decimal or `0x`-prefixed hex.
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut opts = RecordOpts::default();
    let mut check = false;
    let mut dump = None;
    let mut metrics = None;
    let mut metrics_jsonl = None;
    let mut sample_every = None;
    let mut windows = 8usize;
    let mut event_cap = 1u64 << 16;
    let mut durable = false;
    let mut shards = 2usize;
    let mut crash_at = None;
    let mut recover_check = false;
    let mut file_store = None;
    let mut chaos = false;
    let mut chaos_seed = None;
    let mut chaos_faults = 3usize;
    let mut service = false;
    let mut clients = 4usize;
    let mut rate = 0u64;
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                opts.workload =
                    RecWorkload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?;
            }
            "--backend" => {
                let v = value("--backend")?;
                opts.backend = Backend::parse(v).ok_or_else(|| format!("unknown backend {v}"))?;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--ms" => {
                opts.duration_ms = value("--ms")?.parse().map_err(|e| format!("--ms: {e}"))?;
            }
            "--size" => {
                opts.size = value("--size")?
                    .parse()
                    .map_err(|e| format!("--size: {e}"))?;
            }
            "--update-pct" => {
                opts.update_pct = value("--update-pct")?
                    .parse()
                    .map_err(|e| format!("--update-pct: {e}"))?;
                if opts.update_pct > 100 {
                    return Err("--update-pct must be <= 100".to_string());
                }
            }
            "--cm" => {
                let v = value("--cm")?;
                opts.cm = CmPolicy::parse(v).ok_or_else(|| format!("unknown cm policy {v}"))?;
            }
            "--reconfigure" => {
                opts.reconfigures = value("--reconfigure")?
                    .parse()
                    .map_err(|e| format!("--reconfigure: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--no-record" => opts.record = false,
            "--check" => check = true,
            "--dump" => dump = Some(std::path::PathBuf::from(value("--dump")?)),
            "--metrics" => {
                let v = value("--metrics")?;
                metrics = Some(if v == "-" {
                    MetricsOut::Stdout
                } else {
                    MetricsOut::File(std::path::PathBuf::from(v))
                });
            }
            "--metrics-jsonl" => {
                metrics_jsonl = Some(std::path::PathBuf::from(value("--metrics-jsonl")?));
            }
            "--sample-every" => {
                let k: usize = value("--sample-every")?
                    .parse()
                    .map_err(|e| format!("--sample-every: {e}"))?;
                if k == 0 {
                    return Err("--sample-every must be >= 1".to_string());
                }
                sample_every = Some(k);
            }
            "--windows" => {
                windows = value("--windows")?
                    .parse()
                    .map_err(|e| format!("--windows: {e}"))?;
                if windows == 0 {
                    return Err("--windows must be >= 1".to_string());
                }
            }
            "--event-cap" => {
                event_cap = value("--event-cap")?
                    .parse()
                    .map_err(|e| format!("--event-cap: {e}"))?;
            }
            "--durable" => durable = true,
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--crash-at" => {
                crash_at = Some(
                    value("--crash-at")?
                        .parse()
                        .map_err(|e| format!("--crash-at: {e}"))?,
                );
            }
            "--recover-check" => recover_check = true,
            "--file-store" => {
                file_store = Some(std::path::PathBuf::from(value("--file-store")?));
            }
            "--chaos" => chaos = true,
            "--chaos-seed" => {
                let v = value("--chaos-seed")?;
                chaos_seed =
                    Some(parse_u64(v).ok_or_else(|| format!("--chaos-seed: bad seed {v}"))?);
            }
            "--chaos-faults" => {
                chaos_faults = value("--chaos-faults")?
                    .parse()
                    .map_err(|e| format!("--chaos-faults: {e}"))?;
            }
            "--service" => service = true,
            "--clients" => {
                clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--rate" => {
                rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if check && !opts.record {
        return Err("--check requires recording (drop --no-record)".to_string());
    }
    if sample_every.is_some() && !opts.record {
        return Err("--sample-every requires recording (drop --no-record)".to_string());
    }
    if sample_every.is_none() && (windows != 8 || event_cap != 1 << 16) {
        return Err("--windows/--event-cap need --sample-every".to_string());
    }
    if (durable || chaos)
        && (metrics.is_some() || metrics_jsonl.is_some() || sample_every.is_some())
    {
        return Err(
            "--metrics/--metrics-jsonl/--sample-every apply to record mode only".to_string(),
        );
    }
    if !durable && (recover_check || file_store.is_some()) {
        return Err("--recover-check/--file-store need --durable".to_string());
    }
    if !durable && !service && crash_at.is_some() {
        return Err("--crash-at needs --durable or --service".to_string());
    }
    if !chaos && (chaos_seed.is_some() || chaos_faults != 3) {
        return Err("--chaos-seed/--chaos-faults need --chaos".to_string());
    }
    if [chaos, durable, service].iter().filter(|&&m| m).count() > 1 {
        return Err("--chaos, --durable and --service are exclusive modes".to_string());
    }
    if !service && (clients != 4 || rate != 0) {
        return Err("--clients/--rate need --service".to_string());
    }
    if service && (metrics.is_some() || metrics_jsonl.is_some() || sample_every.is_some()) {
        return Err(
            "--metrics/--metrics-jsonl/--sample-every apply to record mode only".to_string(),
        );
    }
    Ok(Args {
        opts,
        check,
        dump,
        metrics,
        metrics_jsonl,
        sample_every,
        windows,
        event_cap,
        durable,
        shards,
        crash_at,
        recover_check,
        file_store,
        chaos,
        chaos_seed,
        chaos_faults,
        service,
        clients,
        rate,
    })
}

/// The `--service` mode: open-loop clients → StmService → (maybe)
/// power cut → power-cycle → acked-survival verification, via
/// [`stm_harness::service_load`].
#[cfg(feature = "durable")]
fn service_mode(args: &Args) -> ExitCode {
    use stm_harness::service_load::{run_service, ServiceOpts};
    let opts = ServiceOpts {
        backend: args.opts.backend,
        shards: args.shards,
        clients: args.clients,
        keys_per_tenant: args.opts.size as usize,
        rate: args.rate,
        crash_at: args.crash_at,
        ..ServiceOpts::default()
    };
    println!(
        "# stm-record --service: backend={} shards={} clients={} keys/tenant={} ops={} \
         rate={} crash_at={:?}",
        opts.backend.label(),
        opts.shards,
        opts.clients,
        opts.keys_per_tenant,
        opts.ops,
        opts.rate,
        opts.crash_at,
    );
    match run_service(&opts) {
        Err(e) => {
            eprintln!("stm-record: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            println!("{}", report.summary());
            print_fault_lines(&report.fault_stats, &report.healths);
            for f in &report.failures {
                eprintln!("FAILURE: {f}");
            }
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

#[cfg(not(feature = "durable"))]
fn service_mode(args: &Args) -> ExitCode {
    let _ = (args.clients, args.rate);
    eprintln!(
        "stm-record: this binary was built without the `durable` feature; \
         rebuild with `--features record,durable`"
    );
    ExitCode::from(2)
}

/// The `--durable` mode: workload → (maybe) crash → recover → verify,
/// via [`stm_harness::durable`].
#[cfg(feature = "durable")]
fn durable_mode(args: &Args) -> ExitCode {
    use stm_harness::durable::{run_durable, DurableOpts};
    let opts = DurableOpts {
        backend: args.opts.backend,
        shards: args.shards,
        keys: args.opts.size as usize,
        threads: args.opts.threads,
        crash_at: args.crash_at,
        recover_check: args.recover_check,
        seed: args.opts.seed,
        file_store: args.file_store.clone(),
        ..DurableOpts::default()
    };
    println!(
        "# stm-record --durable: backend={} shards={} keys={} threads={} ops={} \
         crash_at={:?} recover_check={}",
        opts.backend.label(),
        opts.shards,
        opts.keys,
        opts.threads,
        opts.ops,
        opts.crash_at,
        opts.recover_check,
    );
    match run_durable(&opts) {
        Err(e) => {
            eprintln!("stm-record: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            println!("{}", report.summary());
            print_fault_lines(&report.fault_stats, &report.healths);
            for f in &report.failures {
                eprintln!("FAILURE: {f}");
            }
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

/// The `--durable`/`--chaos` exit lines: the engine's fault counters
/// and every shard's final health state, one look before the process
/// dies (the same numbers a scrape would export as
/// `stm_wal_retries_total` … `stm_shard_health`).
#[cfg(feature = "durable")]
fn print_fault_lines(stats: &stm_api::stats::FaultSnapshot, healths: &[String]) {
    println!(
        "faults: wal_retries={} wal_faults={} degraded_rejects={} rejoins={}",
        stats.wal_retries, stats.wal_faults, stats.degraded_rejects, stats.rejoins,
    );
    let states: Vec<String> = healths
        .iter()
        .enumerate()
        .map(|(i, h)| format!("shard{i}={h}"))
        .collect();
    println!("health: {}", states.join(" "));
}

#[cfg(not(feature = "durable"))]
fn durable_mode(args: &Args) -> ExitCode {
    let _ = (
        args.shards,
        args.crash_at,
        args.recover_check,
        &args.file_store,
    );
    eprintln!(
        "stm-record: this binary was built without the `durable` feature; \
         rebuild with `--features record,durable`"
    );
    ExitCode::from(2)
}

/// The `--chaos` mode: workload under seeded fault injection → rejoin →
/// recover → verify, via [`stm_harness::chaos`].
#[cfg(feature = "durable")]
fn chaos_mode(args: &Args) -> ExitCode {
    use stm_harness::chaos::{run_chaos, ChaosOpts};
    let mut opts = ChaosOpts {
        backend: args.opts.backend,
        shards: args.shards,
        keys: args.opts.size as usize,
        threads: args.opts.threads,
        faults_per_shard: args.chaos_faults,
        ..ChaosOpts::default()
    };
    if let Some(seed) = args.chaos_seed {
        opts.seed = seed;
    }
    // Chaos runs fly with the recorder on: a quarantine dumps the
    // per-thread flight rings to stderr (see `DurableEngine::rejoin`),
    // which is exactly the run where that context matters.
    stm_telemetry::flight::set_enabled(true);
    println!(
        "# stm-record --chaos: backend={} shards={} keys={} threads={} ops={} \
         faults/shard={} seed={:#x}",
        opts.backend.label(),
        opts.shards,
        opts.keys,
        opts.threads,
        opts.ops,
        opts.faults_per_shard,
        opts.seed,
    );
    match run_chaos(&opts) {
        Err(e) => {
            eprintln!("stm-record: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            println!("{}", report.summary());
            print_fault_lines(&report.fault_stats, &report.healths);
            for s in &report.schedules {
                println!("  {s}");
            }
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                // run_chaos already printed the reproduction recipe.
                ExitCode::from(1)
            }
        }
    }
}

#[cfg(not(feature = "durable"))]
fn chaos_mode(args: &Args) -> ExitCode {
    let _ = (args.chaos_seed, args.chaos_faults);
    eprintln!(
        "stm-record: this binary was built without the `durable` feature; \
         rebuild with `--features record,durable`"
    );
    ExitCode::from(2)
}

/// Write the reporter's scrape wherever `--metrics`/`--metrics-jsonl`
/// point. A lint failure is a bug in a `MetricsSource`, reported like a
/// checker violation (exit 1), not a usage error.
fn emit_metrics(reporter: &MetricsReporter, args: &Args) -> Result<(), ExitCode> {
    if let Some(out) = &args.metrics {
        let text = match reporter.prometheus() {
            Ok(text) => text,
            Err(findings) => {
                for f in &findings {
                    eprintln!("stm-record: exposition lint: {f}");
                }
                return Err(ExitCode::from(1));
            }
        };
        match out {
            MetricsOut::Stdout => print!("{text}"),
            MetricsOut::File(path) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("stm-record: metrics {}: {e}", path.display());
                    return Err(ExitCode::from(2));
                }
                println!("metrics written to {}", path.display());
            }
        }
    }
    if let Some(path) = &args.metrics_jsonl {
        if let Err(e) = std::fs::write(path, reporter.jsonl()) {
            eprintln!("stm-record: metrics-jsonl {}: {e}", path.display());
            return Err(ExitCode::from(2));
        }
        println!("metrics JSONL written to {}", path.display());
    }
    Ok(())
}

/// The `--sample-every` mode: continuous sampled checking over
/// `--windows` consecutive windows.
fn sampled_mode(args: &Args, sample_every: usize, reporter: Option<&MetricsReporter>) -> ExitCode {
    let opts = &args.opts;
    println!(
        "# stm-record --sample-every {sample_every}: workload={} backend={} threads={} \
         ms={} windows={} event_cap={} reconfigures={}",
        opts.workload.label(),
        opts.backend.label(),
        opts.threads,
        opts.duration_ms,
        args.windows,
        args.event_cap,
        opts.reconfigures,
    );
    let out = match reporter {
        Some(rep) => {
            run_sampled_windows_with_metrics(opts, args.windows, sample_every, args.event_cap, rep)
        }
        None => run_sampled_windows(opts, args.windows, sample_every, args.event_cap),
    };
    for r in &out.reports {
        println!(
            "window {:>3}: {:?} ({} committed, epochs {:?}, {} attempt(s) skipped)",
            r.window, r.outcome, r.committed, r.epochs, r.skipped_attempts,
        );
        if let Some(detail) = &r.detail {
            eprintln!("window {}: {detail}", r.window);
        }
    }
    let c = &out.counts;
    println!(
        "sampler: {}/{} windows sampled, {} clean, {} violation(s), {} unsound, \
         {} overflowed; {} commits total; epochs seen {:?}",
        c.sampled,
        c.seen,
        c.clean,
        c.violations,
        c.unsound,
        c.overflowed,
        out.commits,
        out.epochs_seen,
    );
    if let Some(rep) = reporter {
        if let Err(code) = emit_metrics(rep, args) {
            return code;
        }
    }
    if out.all_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    // Any worker panic dumps the flight rings before unwinding — cheap
    // insurance, and a no-op while the recorder stays disabled.
    stm_telemetry::flight::install_panic_hook();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.chaos {
        return chaos_mode(&args);
    }
    if args.durable {
        return durable_mode(&args);
    }
    if args.service {
        return service_mode(&args);
    }

    let reporter =
        (args.metrics.is_some() || args.metrics_jsonl.is_some()).then(MetricsReporter::new);
    if let Some(k) = args.sample_every {
        return sampled_mode(&args, k, reporter.as_ref());
    }

    let opts = args.opts;
    println!(
        "# stm-record: workload={} backend={} threads={} ms={} size={} update%={} cm={} \
         reconfigures={} record={}",
        opts.workload.label(),
        opts.backend.label(),
        opts.threads,
        opts.duration_ms,
        opts.size,
        opts.update_pct,
        opts.cm.label(),
        opts.reconfigures,
        opts.record,
    );
    let out = match &reporter {
        Some(rep) => run_recorded_with_metrics(&opts, rep),
        None => run_recorded(&opts),
    };
    let m = &out.measurement;
    println!(
        "throughput: {:.1} txs/s, {} commits, {} aborts (ratio {:.4}), {} panics",
        m.throughput, m.commits, m.aborts, m.abort_ratio, m.worker_panics
    );
    if let Some(rep) = &reporter {
        if let Err(code) = emit_metrics(rep, &args) {
            return code;
        }
    }

    let Some(history) = out.history else {
        println!("recording off: nothing to check");
        return ExitCode::SUCCESS;
    };
    let history = match history {
        Ok(history) => history,
        Err(e) => {
            // A dedicated loud failure: an unsound window (e.g. clock
            // roll-over) must never be silently checked.
            eprintln!("stm-record: recording unsound: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "history: {} ({} epoch(s))",
        history.summary(),
        history.epochs().len()
    );

    if let Some(path) = &args.dump {
        let mut text = String::new();
        for (s, session) in history.sessions.iter().enumerate() {
            for t in session {
                text.push_str(&format!(
                    "s{s} {:?} epoch={} start={} reads={:?} writes={:?}\n",
                    t.outcome, t.epoch, t.start, t.reads, t.writes
                ));
            }
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("stm-record: dump {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("dumped history to {}", path.display());
    }

    if args.check {
        let report = stm_check::check_history(&history, &out.check_opts);
        println!("{report}");
        if !report.is_clean() {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
