//! Chaos-mode fault counters through the perf pipeline.
//!
//! Runs the chaos harness (deterministic seeded fault injection with a
//! supervising rejoin loop, see `stm_harness::chaos`) once per backend
//! and emits the engine's fault counters — `wal_retries`, `wal_faults`,
//! `degraded_rejects`, `rejoins` — plus the harness-side outcome split
//! (`acked`/`rejected`/`wal_failed`/`quarantined_shards`) as JSONL
//! `extras` (`target/perf/chaos-faults.jsonl`).
//!
//! Diagnostic only: none of these extras end in `_ns`, so perf-diff
//! never gates them, and no baseline exists for this experiment (it is
//! not in the perf job's wired list). A verification failure — an
//! acked commit lost, an unexpected replay — still panics the bench:
//! counters from a broken run must not land in the artifacts.

use std::time::Instant;
use stm_bench::perf_emitter;
use stm_harness::{Backend, ChaosOpts, IntSetWorkload};
use stm_perf::BenchRecord;

const EXPERIMENT: &str = "chaos-faults";

/// Fixed seed: the point is comparable counters across runs, not
/// schedule coverage (the proptest suite owns the search).
const SEED: u64 = 0xC4A0_5EED;

fn main() {
    let mut out = perf_emitter(
        EXPERIMENT,
        "chaos harness fault counters per backend (fixed seed, diagnostic)",
    );
    for backend in Backend::ALL {
        let opts = ChaosOpts {
            backend,
            seed: SEED,
            ..ChaosOpts::default()
        };
        let start = Instant::now();
        let report = stm_harness::run_chaos(&opts)
            .unwrap_or_else(|e| panic!("chaos run ({}) failed to start: {e}", backend.label()));
        let elapsed = start.elapsed();
        assert!(
            report.failures.is_empty(),
            "chaos contract violated on {} (seed {:#x}): {:?}",
            backend.label(),
            report.seed,
            report.failures
        );

        // The chaos workload is a KV stream, not an intset; the
        // workload columns echo its shape (4 of 5 ops are puts).
        let workload = IntSetWorkload {
            initial_size: opts.keys as u64,
            key_range: opts.keys as u64,
            update_pct: 80,
        };
        let secs = elapsed.as_secs_f64().max(1e-9);
        let mut rec = BenchRecord {
            experiment: EXPERIMENT.to_string(),
            panel: format!("faults-{}", opts.faults_per_shard),
            structure: "kv".to_string(),
            backend: backend.label().to_string(),
            threads: opts.threads,
            initial_size: workload.initial_size,
            key_range: workload.key_range,
            update_pct: workload.update_pct,
            ops_per_sec: report.acked as f64 / secs,
            aborts_per_sec: 0.0,
            abort_ratio: 0.0,
            commits: report.acked,
            aborts: 0,
            elapsed_ms: secs * 1000.0,
            aborts_by_reason: Default::default(),
            worker_panics: 0,
            extras: Default::default(),
        };
        let fs = &report.fault_stats;
        for (key, value) in [
            ("wal_retries", fs.wal_retries as f64),
            ("wal_faults", fs.wal_faults as f64),
            ("degraded_rejects", fs.degraded_rejects as f64),
            ("rejoins", fs.rejoins as f64),
            ("acked", report.acked as f64),
            ("rejected", report.rejected as f64),
            ("wal_failed", report.wal_failed as f64),
            ("quarantined_shards", report.quarantined as f64),
        ] {
            rec.extras.insert(key.to_string(), value);
        }
        out.record(rec);
    }
    out.finish();
}
