//! The `intset-*` workloads: the paper's integer-set figures on the
//! shipped build (WAL hooks compiled in, no sink attached). `tinystm`
//! and `stm-structures` do all the work; engine, WAL and service none.
//!
//! The operation mix is `stm_harness`'s (`populate` + `IntSetOp::step`,
//! what `run_intset` is made of); the loop is the benchmark's own so
//! that one instance carries three trials and the per-thread add/remove
//! toggle survives between them.

use crate::clients::{self, Client, Recorder, Trial};
use crate::env;
use crate::report::Outcome;
use crate::spec::{self, RunCfg, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use stm_api::stats::BasicStats;
use stm_api::{AbortReason, TmHandle};
use stm_harness::{populate, IntSetOp, IntSetWorkload};
use stm_structures::{LinkedList, RbTree, TxSet};
use stm_tl2::{Tl2, Tl2Config};
use tinystm::{AccessStrategy, CmPolicy, Stm, StmConfig};

/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Operations of the single-threaded `structures.*` probes.
const PROBE_OPS: u64 = 200_000;

/// The contention manager the figure benches use.
pub fn bench_cm() -> CmPolicy {
    CmPolicy::Backoff {
        base: 16,
        max_spins: 1 << 14,
    }
}

fn tiny(strategy: AccessStrategy) -> Stm {
    Stm::new(
        StmConfig::default()
            .with_strategy(strategy)
            .with_cm(bench_cm()),
    )
    .expect("the bench configuration is valid")
}

fn tl2() -> Tl2 {
    Tl2::new(Tl2Config::default().with_cm(bench_cm())).expect("the bench configuration is valid")
}

/// What the benchmark needs from a set beyond `TxSet`.
trait BenchSet<H: TmHandle>: TxSet + Sized {
    fn build(tm: H) -> Self;
    fn sorted_keys(&self) -> Vec<u64>;
    /// Panics if the structure's own invariants are broken.
    fn check_shape(&self) {}
}

impl<H: TmHandle> BenchSet<H> for RbTree<H> {
    fn build(tm: H) -> Self {
        RbTree::new(tm)
    }
    fn sorted_keys(&self) -> Vec<u64> {
        self.keys()
    }
    fn check_shape(&self) {
        self.check_invariants();
    }
}

impl<H: TmHandle> BenchSet<H> for LinkedList<H> {
    fn build(tm: H) -> Self {
        LinkedList::new(tm)
    }
    fn sorted_keys(&self) -> Vec<u64> {
        self.keys()
    }
}

struct IntsetClient<'a, S: TxSet> {
    set: &'a S,
    op: IntSetOp<'a, S>,
    rng: SmallRng,
    key_range: u64,
}

impl<S: TxSet> Client for IntsetClient<'_, S> {
    fn step(&mut self, rec: Option<&mut Recorder>) {
        let started = Instant::now();
        for _ in 0..spec::INTSET_BATCH {
            self.op.step(&mut self.rng);
        }
        if let Some(rec) = rec {
            rec.op_hist.record(started.elapsed().as_nanos() as u64);
            rec.ops += spec::INTSET_BATCH;
        }
    }

    fn read_burst(&mut self) {
        for _ in 0..spec::READ_BURST {
            let key = self.rng.gen_range(1..=self.key_range);
            black_box(self.set.contains(key));
        }
    }
}

/// One populated set with its clients' state, measured trial by trial.
struct Bench<'a, H: TmHandle, S: BenchSet<H>> {
    tm: &'a H,
    set: &'a S,
    workload: IntSetWorkload,
    clients: Vec<IntsetClient<'a, S>>,
}

impl<'a, H: TmHandle, S: BenchSet<H>> Bench<'a, H, S> {
    fn new(tm: &'a H, set: &'a S, workload: IntSetWorkload, seed: u64) -> Self {
        let clients = (0..spec::CLIENTS)
            .map(|t| IntsetClient {
                set,
                op: IntSetOp::new(set, workload),
                rng: SmallRng::seed_from_u64(seed.wrapping_add(t as u64)),
                key_range: workload.key_range,
            })
            .collect();
        Bench {
            tm,
            set,
            workload,
            clients,
        }
    }

    /// `trials` trials of `window` each; returns them with the backend's
    /// counter delta over each window.
    fn trials(
        &mut self,
        trials: usize,
        warmup: Duration,
        window: Duration,
    ) -> Vec<(Trial, BasicStats)> {
        let tm = self.tm;
        clients::with_clients(&mut self.clients, |session| {
            (0..trials)
                .map(|_| {
                    let (mut before, mut after) = (BasicStats::ZERO, BasicStats::ZERO);
                    let trial = session.trial(
                        warmup,
                        window,
                        false,
                        || before = tm.stats_snapshot(),
                        || after = tm.stats_snapshot(),
                    );
                    (trial, after.since(&before))
                })
                .collect()
        })
    }

    /// Size within ±clients of the initial size (each client may hold
    /// one element it has yet to remove), keys strictly ascending, and
    /// the structure's own invariants.
    fn verify(&self, out: &mut Outcome, label: &str) {
        let keys = self.set.sorted_keys();
        let initial = self.workload.initial_size as i64;
        let drift = keys.len() as i64 - initial;
        out.check(drift.unsigned_abs() <= spec::CLIENTS as u64, || {
            format!("{label}: final size {} vs initial {initial}", keys.len())
        });
        out.check(keys.windows(2).all(|w| w[0] < w[1]), || {
            format!("{label}: keys are not strictly ascending")
        });
        out.check(
            keys.iter()
                .all(|k| (1..=self.workload.key_range).contains(k)),
            || {
                format!(
                    "{label}: a key lies outside 1..={}",
                    self.workload.key_range
                )
            },
        );
        let set = self.set;
        out.check(
            catch_unwind(AssertUnwindSafe(|| set.check_shape())).is_ok(),
            || format!("{label}: structure invariants violated"),
        );
    }
}

fn committed_per_s(trial: &Trial, delta: &BasicStats) -> f64 {
    delta.commits as f64 / trial.elapsed.as_secs_f64()
}

/// One extra trial of the same workload on another backend: the
/// paper's WB-vs-WT-vs-TL2 ordering, diagnostic only.
fn other_backend_tx_per_s<H: TmHandle, S: BenchSet<H>>(
    tm: H,
    workload: IntSetWorkload,
    cfg: &RunCfg,
    out: &mut Outcome,
    label: &str,
) -> f64 {
    let set = S::build(tm.clone());
    populate(&set, &workload, cfg.seed ^ 0xD1D1);
    let mut bench = Bench::new(&tm, &set, workload, cfg.seed);
    let (trial, delta) = bench
        .trials(1, cfg.warmup(), cfg.window())
        .pop()
        .expect("one trial ran");
    out.attempted += trial.ops();
    bench.verify(out, label);
    committed_per_s(&trial, &delta)
}

fn run_family<S: BenchSet<Stm>, T: BenchSet<Tl2>>(
    cfg: &RunCfg,
    workload: IntSetWorkload,
) -> Outcome {
    let mut out = Outcome::new(cfg.workload, cfg.traced);

    // Set-up: a fresh STM, an empty structure, the initial population.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let started = Instant::now();
        let tm = tiny(AccessStrategy::WriteBack);
        let set = S::build(tm.clone());
        populate(&set, &workload, cfg.seed ^ 0xD1D1);
        setups.push(started.elapsed().as_secs_f64());
        built = Some((tm, set));
    }
    let (tm, set) = built.expect("at least one set-up ran");
    out.put("setup_s", &setups, 0);

    let mut bench = Bench::new(&tm, &set, workload, cfg.seed);
    // The traced run spends its last two trials on the other two
    // backends.
    let main_trials = if cfg.traced {
        spec::TRIALS - 2
    } else {
        spec::TRIALS
    };
    let (trials, deltas): (Vec<Trial>, Vec<BasicStats>) = bench
        .trials(main_trials, cfg.warmup(), cfg.window())
        .into_iter()
        .unzip();
    out.attempted += trials.iter().map(Trial::ops).sum::<u64>();
    let tx_per_s: Vec<f64> = trials
        .iter()
        .zip(&deltas)
        .map(|(t, d)| committed_per_s(t, d))
        .collect();
    let all: Vec<&Trial> = trials.iter().collect();
    clients::put_window_metrics(&mut out, &all, &tx_per_s, spec::INTSET_BATCH);
    out.put1("peak_rss_mib", env::peak_rss_mib());
    bench.verify(&mut out, "tinystm-wb");

    if cfg.traced {
        let ratios: Vec<f64> = deltas.iter().map(BasicStats::abort_ratio).collect();
        out.put("tinystm.abort_ratio", &ratios, 0);
        for reason in AbortReason::ALL {
            let counts: Vec<f64> = deltas
                .iter()
                .map(|d| d.aborts_by_reason[reason.index()] as f64)
                .collect();
            out.put(&format!("tinystm.aborts.{}", reason.label()), &counts, 0);
        }
        let conflicts: Vec<f64> = deltas
            .iter()
            .map(|d| d.clock_conflicts as f64 * 1_000.0 / d.commits.max(1) as f64)
            .collect();
        out.put("tinystm.clock_conflicts_per_ktx", &conflicts, 0);

        let wt = other_backend_tx_per_s::<Stm, S>(
            tiny(AccessStrategy::WriteThrough),
            workload,
            cfg,
            &mut out,
            "tinystm-wt",
        );
        out.put1("tinystm.wt_tx_per_s", wt);
        let tl2 = other_backend_tx_per_s::<Tl2, T>(tl2(), workload, cfg, &mut out, "tl2");
        out.put1("tl2.tx_per_s", tl2);

        // One thread, the layer's own public calls. The add/remove pair
        // uses keys above the workload's range, so it always writes and
        // leaves the set as it found it.
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xC0);
        let contains = crate::ladder::mean_ns(PROBE_OPS, |_| {
            black_box(set.contains(rng.gen_range(1..=workload.key_range)));
        });
        out.put1("structures.contains_ns", contains);
        let update = crate::ladder::mean_ns(PROBE_OPS / 2, |i| {
            let key = workload.key_range + 1 + (i % 64);
            black_box(set.add(key));
            black_box(set.remove(key));
        });
        out.put1("structures.update_ns", update / 2.0);
        bench.verify(&mut out, "tinystm-wb after the probes");
    }

    out.put1(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

pub fn run(cfg: &RunCfg) -> Outcome {
    match cfg.workload {
        Workload::IntsetRbtree => run_family::<RbTree<Stm>, RbTree<Tl2>>(
            cfg,
            IntSetWorkload {
                initial_size: 4096,
                key_range: 8192,
                update_pct: 20,
            },
        ),
        Workload::IntsetList => run_family::<LinkedList<Stm>, LinkedList<Tl2>>(
            cfg,
            IntSetWorkload {
                initial_size: 256,
                key_range: 512,
                update_pct: 20,
            },
        ),
        other => panic!("{} is not an intset workload", other.name()),
    }
}
