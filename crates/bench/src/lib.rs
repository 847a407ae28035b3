//! # stm-bench — shared plumbing for the figure benches
//!
//! Every figure of the paper has a bench target (`harness = false`)
//! that prints the figure's series as CSV rows. This library holds the
//! common pieces: environment knobs, backend construction, and the
//! backend × structure matrix the paper measures.
//!
//! Environment variables:
//! * `STM_MS` — milliseconds per measured point (default 120; the paper
//!   measures ≈ 1000);
//! * `STM_FULL=1` — paper-scale sweeps (more points, 1 s windows);
//! * `STM_THREADS` — override the thread list (comma separated).

use std::time::Duration;
use stm_api::stats::BasicStats;
pub use stm_harness::Backend;
use stm_harness::{IntSetWorkload, MeasureOpts, Measurement};
use stm_perf::{BenchRecord, PerfEmitter};
use stm_structures::{LinkedList, RbTree, TxSet};
use stm_tl2::{Tl2, Tl2Config};
use tinystm::{AccessStrategy, CmPolicy, Stm, StmConfig};

/// Milliseconds per measured point.
pub fn point_ms() -> u64 {
    if let Ok(v) = std::env::var("STM_MS") {
        if let Ok(ms) = v.parse() {
            return ms;
        }
    }
    if full_mode() {
        1000
    } else {
        120
    }
}

/// Paper-scale mode.
pub fn full_mode() -> bool {
    std::env::var("STM_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The thread counts of Figures 2–4 (the paper's 8-core Xeon sweep).
pub fn thread_list() -> Vec<usize> {
    if let Ok(v) = std::env::var("STM_THREADS") {
        let parsed: Vec<usize> = v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
        if !parsed.is_empty() {
            return parsed;
        }
    }
    vec![1, 2, 4, 6, 8]
}

/// Measurement options for one point.
pub fn default_opts(threads: usize) -> MeasureOpts {
    MeasureOpts::default()
        .with_threads(threads)
        .with_warmup(Duration::from_millis(point_ms() / 4))
        .with_duration(Duration::from_millis(point_ms()))
}

/// The two intset structures of Figures 2–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Red-black tree.
    Rbtree,
    /// Sorted linked list.
    List,
}

impl Structure {
    /// Label in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Structure::Rbtree => "rbtree",
            Structure::List => "list",
        }
    }
}

/// Contention management used by the benches: light backoff keeps the
/// single-core CI host from livelocking; the algorithmic comparison is
/// unchanged (all backends use the same policy).
pub fn bench_cm() -> CmPolicy {
    CmPolicy::Backoff {
        base: 16,
        max_spins: 1 << 14,
    }
}

/// TinySTM configuration template for the benches.
pub fn tiny_config(strategy: AccessStrategy) -> StmConfig {
    StmConfig::default()
        .with_strategy(strategy)
        .with_cm(bench_cm())
}

/// Build a TinySTM instance with explicit tuning parameters.
pub fn make_tiny(strategy: AccessStrategy, locks_log2: u32, shifts: u32, hier_log2: u32) -> Stm {
    Stm::new(
        tiny_config(strategy)
            .with_locks_log2(locks_log2)
            .with_shifts(shifts)
            .with_hier_log2(hier_log2),
    )
    .expect("bench config valid")
}

/// Build a TL2 instance with explicit parameters.
pub fn make_tl2(locks_log2: u32, shifts: u32) -> Tl2 {
    Tl2::new(
        Tl2Config::default()
            .with_locks_log2(locks_log2)
            .with_shifts(shifts)
            .with_cm(bench_cm()),
    )
    .expect("bench config valid")
}

/// Run the intset workload for one `(backend, structure)` cell using the
/// backends' default tuning parameters (Figures 2–5).
pub fn run_cell(
    backend: Backend,
    structure: Structure,
    workload: IntSetWorkload,
    opts: MeasureOpts,
) -> Measurement {
    match backend {
        Backend::TinyWb | Backend::TinyWt => {
            let strategy = if backend == Backend::TinyWb {
                AccessStrategy::WriteBack
            } else {
                AccessStrategy::WriteThrough
            };
            let stm = make_tiny(strategy, 16, 0, 0);
            let stats_handle = stm.clone();
            run_structure_on(stm, structure, workload, opts, &move || {
                stm_api::TmHandle::stats_snapshot(&stats_handle)
            })
        }
        Backend::Tl2 => {
            let tl2 = make_tl2(20, 0);
            let stats_handle = tl2.clone();
            run_structure_on(tl2, structure, workload, opts, &move || {
                stm_api::TmHandle::stats_snapshot(&stats_handle)
            })
        }
    }
}

/// Run the intset workload on an explicit handle (for parameter sweeps).
pub fn run_structure_on<H: stm_api::TmHandle>(
    tm: H,
    structure: Structure,
    workload: IntSetWorkload,
    opts: MeasureOpts,
    stats: &(dyn Fn() -> BasicStats + Sync),
) -> Measurement {
    match structure {
        Structure::Rbtree => {
            let set = RbTree::new(tm);
            stm_harness::run_intset(&set, workload, opts, stats)
        }
        Structure::List => {
            let set = LinkedList::new(tm);
            stm_harness::run_intset(&set, workload, opts, stats)
        }
    }
}

/// Run the overwrite-list workload (Figure 4 right, the contention
/// ablation's overwrite loop) for one backend using the backends'
/// default tuning parameters.
pub fn run_overwrite_cell(
    backend: Backend,
    workload: IntSetWorkload,
    opts: MeasureOpts,
) -> Measurement {
    match backend {
        Backend::TinyWb | Backend::TinyWt => {
            let strategy = if backend == Backend::TinyWb {
                AccessStrategy::WriteBack
            } else {
                AccessStrategy::WriteThrough
            };
            let stm = make_tiny(strategy, 16, 0, 0);
            let list = LinkedList::new(stm.clone());
            let stats = {
                let stm = stm.clone();
                move || stm_api::TmHandle::stats_snapshot(&stm)
            };
            stm_harness::run_overwrite(&list, workload, opts, &stats)
        }
        Backend::Tl2 => {
            let tl2 = make_tl2(20, 0);
            let list = LinkedList::new(tl2.clone());
            let stats = {
                let tl2 = tl2.clone();
                move || stm_api::TmHandle::stats_snapshot(&tl2)
            };
            stm_harness::run_overwrite(&list, workload, opts, &stats)
        }
    }
}

/// Build a `TxSet` on a TinySTM handle (for tuning benches that need the
/// set alive alongside the coordinator).
pub fn build_set_on_stm(stm: &Stm, structure: Structure) -> Box<dyn TxSet> {
    match structure {
        Structure::Rbtree => Box::new(RbTree::new(stm.clone())),
        Structure::List => Box::new(LinkedList::new(stm.clone())),
    }
}

/// Start a [`PerfEmitter`] stamped with this process's measurement mode
/// (quick vs `STM_FULL=1` paper-scale) and point duration.
pub fn perf_emitter(experiment: &str, description: &str) -> PerfEmitter {
    let mode = if full_mode() { "full" } else { "quick" };
    PerfEmitter::new(experiment, description, mode, point_ms())
}

/// Translate one measured point into the shared record schema.
pub fn bench_record(
    experiment: &str,
    panel: &str,
    structure: &str,
    backend_label: &str,
    workload: IntSetWorkload,
    m: &Measurement,
) -> BenchRecord {
    BenchRecord {
        experiment: experiment.to_string(),
        panel: panel.to_string(),
        structure: structure.to_string(),
        backend: backend_label.to_string(),
        threads: m.threads,
        initial_size: workload.initial_size,
        key_range: workload.key_range,
        update_pct: workload.update_pct,
        ops_per_sec: m.throughput,
        aborts_per_sec: m.abort_rate,
        abort_ratio: m.abort_ratio,
        commits: m.commits,
        aborts: m.aborts,
        elapsed_ms: m.elapsed.as_secs_f64() * 1000.0,
        aborts_by_reason: BenchRecord::taxonomy_from_array(&m.aborts_by_reason),
        worker_panics: m.worker_panics,
        // Commit-clock contention rides along on every record; it is a
        // diagnostic (not `_ns`-suffixed), so perf-diff never gates it.
        extras: [("clock_conflicts".to_string(), m.clock_conflicts as f64)]
            .into_iter()
            .collect(),
    }
}

/// Static identity of one tuning experiment for the perf pipeline.
pub struct TuneEmit {
    /// Experiment id (figure name).
    pub experiment: &'static str,
    /// One-line description for the JSONL header.
    pub description: &'static str,
    /// Structure label (rbtree/list).
    pub structure: &'static str,
    /// Worker threads driving the load.
    pub threads: usize,
    /// The driven workload (sizes the config key).
    pub workload: IntSetWorkload,
    /// Wall time behind each trajectory point (period x samples, ms).
    pub point_ms: u64,
}

/// Emit the tuning trajectory through the shared perf pipeline: one
/// record per evaluated configuration (panel `trajectory-NN`, the
/// per-step config + throughput in `extras`) plus a `summary` record,
/// so the tuning curves join the JSONL artifacts the CI uploads.
pub fn emit_tuning(id: &TuneEmit, outcome: &stm_tuning::AutoTuneOutcome) {
    let mut perf = perf_emitter(id.experiment, id.description);
    let base = |panel: String| stm_perf::BenchRecord {
        experiment: id.experiment.to_string(),
        panel,
        structure: id.structure.to_string(),
        backend: "tinystm-wb".to_string(),
        threads: id.threads,
        initial_size: id.workload.initial_size,
        key_range: id.workload.key_range,
        update_pct: id.workload.update_pct,
        ops_per_sec: 0.0,
        aborts_per_sec: 0.0,
        abort_ratio: 0.0,
        commits: 0,
        aborts: 0,
        elapsed_ms: id.point_ms as f64,
        aborts_by_reason: Default::default(),
        worker_panics: 0,
        extras: Default::default(),
    };
    for r in &outcome.records {
        let mut rec = base(format!("trajectory-{:02}", r.index));
        rec.ops_per_sec = r.throughput;
        rec.extras = [
            ("config_idx".to_string(), r.index as f64),
            ("locks_log2".to_string(), r.point.locks_log2 as f64),
            ("shifts".to_string(), r.point.shifts as f64),
            ("hier".to_string(), (1u64 << r.point.hier_log2) as f64),
            ("val_processed_per_s".to_string(), r.val_processed_per_s),
            ("val_skipped_per_s".to_string(), r.val_skipped_per_s),
        ]
        .into_iter()
        .collect();
        perf.record(rec);
    }
    if let (Some(best), Some(first)) = (outcome.best(), outcome.records.first()) {
        let mut rec = base("summary".to_string());
        rec.ops_per_sec = best.throughput;
        rec.extras = [
            ("start_txs_per_s".to_string(), first.throughput),
            ("best_locks_log2".to_string(), best.point.locks_log2 as f64),
            ("best_shifts".to_string(), best.point.shifts as f64),
            (
                "best_hier".to_string(),
                (1u64 << best.point.hier_log2) as f64,
            ),
            (
                "configs_evaluated".to_string(),
                outcome.records.len() as f64,
            ),
            (
                "completed".to_string(),
                if outcome.is_complete() { 1.0 } else { 0.0 },
            ),
        ]
        .into_iter()
        .collect();
        perf.record(rec);
    }
    perf.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        assert!(point_ms() >= 1);
        assert_eq!(thread_list(), vec![1, 2, 4, 6, 8]);
    }

    #[test]
    fn bench_record_maps_measurement_fields() {
        let w = IntSetWorkload::new(32, 20);
        let opts = MeasureOpts::default()
            .with_threads(2)
            .with_warmup(Duration::from_millis(5))
            .with_duration(Duration::from_millis(30));
        let m = run_cell(Backend::TinyWb, Structure::Rbtree, w, opts);
        let rec = bench_record("figXX", "32/20%", "rbtree", "tinystm-wb", w, &m);
        assert_eq!(rec.threads, 2);
        assert_eq!(rec.initial_size, 32);
        assert_eq!(rec.key_range, 64);
        assert_eq!(rec.update_pct, 20);
        assert_eq!(rec.commits, m.commits);
        assert!((rec.ops_per_sec - m.throughput).abs() < 1e-9);
        assert_eq!(rec.worker_panics, 0);
        let taxonomy_total: u64 = rec.aborts_by_reason.values().sum();
        assert_eq!(taxonomy_total, rec.aborts, "taxonomy must sum to aborts");
    }

    #[test]
    fn run_cell_smoke_all_backends() {
        let w = IntSetWorkload::new(32, 20);
        let opts = MeasureOpts::default()
            .with_threads(2)
            .with_warmup(Duration::from_millis(5))
            .with_duration(Duration::from_millis(30));
        for b in Backend::ALL {
            for s in [Structure::Rbtree, Structure::List] {
                let m = run_cell(b, s, w, opts);
                assert!(
                    m.commits > 0,
                    "{}/{} produced no commits",
                    b.label(),
                    s.label()
                );
            }
        }
    }
}
