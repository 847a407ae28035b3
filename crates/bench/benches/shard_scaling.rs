//! `shard_scaling`: the sharded-engine target — throughput and open-loop
//! latency percentiles against the shard count, for all three backends.
//!
//! Four panels per backend, shard count encoded in the panel string:
//!
//! * `bare`        — the backend driven directly (no engine layer); the
//!   reference the 1-shard engine must match (`vs_bare_ratio` extra on
//!   `closed/s1` makes the comparison explicit in the JSONL).
//! * `closed/s{1,2,4}` — closed-loop intset over per-shard linked lists
//!   routed by the engine (2 worker threads, fixed — the panel sweeps
//!   shards, not threads, so `STM_THREADS` does not apply here).
//! * `open/s{1,2,4}`   — the open-loop driver at a fixed arrival rate;
//!   per-request latency (scheduled-arrival to completion, queueing
//!   included) lands in a [`stm_perf::LatencyHist`] and the p50/p95/
//!   p99/p999/mean/max percentiles ride in the record extras (`_ns`
//!   keys). `perf-diff` gates only the median (p50) under the latency
//!   tolerance band; everything from p95 up is reported only — with
//!   queueing counted, one scheduler preemption backs up >5% of a
//!   quick-mode window's arrivals on a shared host.
//! * `contend/s{1,2,4}` — forced commit-clock contention: 4 threads,
//!   each committing update transactions whose window is held open
//!   across a scheduler yield, so every commit observes the foreign
//!   commit timestamps that landed on *its shard's* clock meanwhile.
//!   The `clock_conflicts` extra is the paper's global-clock bottleneck
//!   made visible; spreading the threads' keys across shards must
//!   shrink it as the shard count grows — even on one core, where raw
//!   throughput cannot.
//!
//! Results go to stdout (CSV) and `target/perf/shard_scaling.jsonl` for
//! the `perf-diff` regression gate (baseline: `baselines/`).

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;
use stm_api::mem::WordBlock;
use stm_api::{TmHandle, TmTx, TxKind};
use stm_bench::{bench_cm, bench_record, default_opts, perf_emitter, point_ms, tiny_config};
use stm_engine::ShardedEngine;
use stm_harness::{
    drive, populate, run_intset, run_open_loop, IntSetWorkload, Measurement, OpenLoopOpts,
};
use stm_perf::{LatencyHist, PerfEmitter};
use stm_structures::{LinkedList, TxSet};
use stm_tl2::{Tl2Config, Tl2Protocol};
use tinystm::stm::Lsa;
use tinystm::{AccessStrategy, Protocol, Runtime};

/// Shard counts swept by every engine panel.
const SHARDS: [usize; 3] = [1, 2, 4];
/// Worker threads for the closed-loop cells (fixed; see module docs).
const CLOSED_THREADS: usize = 2;
/// Worker threads for the forced-contention cells.
const CONTEND_THREADS: usize = 4;
/// Open-loop arrival rate (requests per second).
const OPEN_RATE: f64 = 20_000.0;

/// An intset that routes every key through the engine to a per-shard
/// linked list — the closed/open cells' unit of work. Identical op
/// stream to the `bare` cell; only the routing layer differs.
struct RoutedSet<P: Protocol> {
    engine: ShardedEngine<Runtime<P>>,
    lists: Vec<LinkedList<Runtime<P>>>,
}

impl<P: Protocol> RoutedSet<P> {
    fn new(engine: ShardedEngine<Runtime<P>>) -> RoutedSet<P> {
        let lists = (0..engine.shards())
            .map(|i| LinkedList::new(engine.shard(i).clone()))
            .collect();
        RoutedSet { engine, lists }
    }

    fn list_for(&self, key: u64) -> &LinkedList<Runtime<P>> {
        &self.lists[self.engine.route(key)]
    }
}

impl<P: Protocol> TxSet for RoutedSet<P> {
    fn add(&self, key: u64) -> bool {
        self.list_for(key).add(key)
    }

    fn remove(&self, key: u64) -> bool {
        self.list_for(key).remove(key)
    }

    fn contains(&self, key: u64) -> bool {
        self.list_for(key).contains(key)
    }

    fn snapshot_len(&self) -> usize {
        self.lists.iter().map(|l| l.snapshot_len()).sum()
    }

    fn structure_name(&self) -> &'static str {
        "sharded-list"
    }
}

/// Forced commit-clock contention: each worker owns a private word and
/// key (no data conflicts, no aborts) but holds its transaction window
/// open across a scheduler yield, so the commit-time clock distance
/// counts exactly the foreign commits that hit the *same shard's* clock
/// meanwhile. Worker keys are chosen to spread round-robin over the
/// shards: with one shard every foreign commit lands on your clock;
/// with four, only your shard-mates' do.
fn contend_cell<P: Protocol>(engine: &ShardedEngine<Runtime<P>>) -> Measurement {
    let shards = engine.shards();
    let blocks: Vec<WordBlock> = (0..shards)
        .map(|_| WordBlock::new(CONTEND_THREADS))
        .collect();
    let keys: Vec<u64> = (0..CONTEND_THREADS)
        .map(|t| {
            let want = t % shards;
            (0u64..)
                .find(|&k| engine.route(k) == want)
                .expect("router is total")
        })
        .collect();
    let stats = {
        let engine = engine.clone();
        move || engine.stats()
    };
    drive(default_opts(CONTEND_THREADS), &stats, |t| {
        let engine = engine.clone();
        let blocks = &blocks;
        let key = keys[t];
        move |_rng: &mut SmallRng| {
            let shard = engine.route(key);
            let base = blocks[shard].as_ptr();
            engine.run_on(key, TxKind::ReadWrite, |tx| unsafe {
                let p = base.add(t);
                let v = tx.load_word(p)?;
                // Keep the snapshot-to-commit window open long enough
                // for the other workers to commit into it.
                std::thread::yield_now();
                tx.store_word(p, v.wrapping_add(1))
            });
        }
    })
}

/// One open-loop cell: fixed arrival rate, one worker, latency measured
/// from *scheduled* arrival to completion (queueing counted — no
/// coordinated omission).
fn open_cell<P: Protocol>(
    engine: &ShardedEngine<Runtime<P>>,
    workload: IntSetWorkload,
) -> (Measurement, LatencyHist, bool) {
    let set = RoutedSet::new(engine.clone());
    populate(&set, &workload, 0x5CA1_AB1E);
    let opts = OpenLoopOpts::default()
        .with_rate(OPEN_RATE)
        .with_workers(1)
        .with_warmup(Duration::from_millis(point_ms() / 4))
        .with_duration(Duration::from_millis(point_ms() * 4));
    let before = engine.stats();
    let (result, hists) = run_open_loop(opts, |_w| {
        let set = &set;
        (LatencyHist::new(), move |rng: &mut SmallRng| {
            let key = rng.gen_range(1..=workload.key_range);
            if rng.gen_range(0..100) < workload.update_pct {
                if rng.gen_bool(0.5) {
                    set.add(key);
                } else {
                    set.remove(key);
                }
            } else {
                set.contains(key);
            }
        })
    });
    let delta = engine.stats().since(&before);
    let mut hist = LatencyHist::new();
    for h in &hists {
        hist.merge(h);
    }
    // The open-loop result is the source of truth for rate/elapsed; the
    // engine stats supply the transactional counters underneath it.
    let secs = result.elapsed.as_secs_f64().max(1e-9);
    let m = Measurement {
        elapsed: result.elapsed,
        commits: result.completed,
        aborts: delta.aborts,
        aborts_by_reason: delta.aborts_by_reason,
        throughput: result.throughput,
        abort_rate: delta.aborts as f64 / secs,
        abort_ratio: delta.abort_ratio(),
        threads: 1,
        clock_conflicts: delta.clock_conflicts,
        worker_panics: 0,
    };
    (m, hist, result.on_schedule)
}

/// All four panels for one backend.
fn bench_backend<P: Protocol>(out: &mut PerfEmitter, label: &str, config: &P::Config) {
    let workload = IntSetWorkload::new(1024, 20);
    let open_workload = IntSetWorkload::new(256, 20);

    // Panel `bare`: the backend without the engine layer on top.
    let tm = Runtime::<P>::new(*config).expect("bench config valid");
    let list = LinkedList::new(tm.clone());
    let stats = move || tm.stats_snapshot();
    let bare = run_intset(&list, workload, default_opts(CLOSED_THREADS), &stats);
    out.record(bench_record(
        "shard_scaling",
        "bare",
        "list",
        label,
        workload,
        &bare,
    ));

    // Panel `closed/s{n}`: same closed-loop workload through the engine.
    for shards in SHARDS {
        let engine = ShardedEngine::<Runtime<P>>::new(shards, config).expect("bench config valid");
        let set = RoutedSet::new(engine.clone());
        let stats = {
            let engine = engine.clone();
            move || engine.stats()
        };
        let m = run_intset(&set, workload, default_opts(CLOSED_THREADS), &stats);
        let mut rec = bench_record(
            "shard_scaling",
            &format!("closed/s{shards}"),
            "list",
            label,
            workload,
            &m,
        );
        if shards == 1 {
            // The acceptance knob: 1 shard must cost ≈ nothing over bare.
            rec.extras.insert(
                "vs_bare_ratio".to_string(),
                m.throughput / bare.throughput.max(1e-9),
            );
        }
        out.record(rec);
    }
    out.gap();

    // Panel `open/s{n}`: fixed-rate arrivals, latency percentiles.
    for shards in SHARDS {
        let engine = ShardedEngine::<Runtime<P>>::new(shards, config).expect("bench config valid");
        let (m, hist, on_schedule) = open_cell(&engine, open_workload);
        let mut rec = bench_record(
            "shard_scaling",
            &format!("open/s{shards}"),
            "list",
            label,
            open_workload,
            &m,
        );
        rec.extras.extend(hist.extras());
        rec.extras.insert(
            "on_schedule".to_string(),
            if on_schedule { 1.0 } else { 0.0 },
        );
        out.record(rec);
    }
    out.gap();

    // Panel `contend/s{n}`: the clock-contention probe.
    for shards in SHARDS {
        let engine = ShardedEngine::<Runtime<P>>::new(shards, config).expect("bench config valid");
        let m = contend_cell(&engine);
        let contend_workload = IntSetWorkload {
            initial_size: 0,
            key_range: CONTEND_THREADS as u64,
            update_pct: 100,
        };
        let mut rec = bench_record(
            "shard_scaling",
            &format!("contend/s{shards}"),
            "words",
            label,
            contend_workload,
            &m,
        );
        rec.extras.insert(
            "clock_conflicts_per_1k_commits".to_string(),
            1000.0 * m.clock_conflicts as f64 / (m.commits.max(1)) as f64,
        );
        out.record(rec);
    }
    out.gap();
}

fn main() {
    let mut out = perf_emitter(
        "shard_scaling",
        "sharded engine: ops/s + open-loop latency percentiles vs shard count (fixed threads)",
    );
    bench_backend::<Lsa>(
        &mut out,
        "tinystm-wb",
        &tiny_config(AccessStrategy::WriteBack).with_locks_log2(16),
    );
    bench_backend::<Lsa>(
        &mut out,
        "tinystm-wt",
        &tiny_config(AccessStrategy::WriteThrough).with_locks_log2(16),
    );
    bench_backend::<Tl2Protocol>(
        &mut out,
        "tl2",
        &Tl2Config::default().with_locks_log2(20).with_cm(bench_cm()),
    );
    out.finish();
}
