//! The names the benchmark is made of: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json`
//! at the repository root states the same thing for the driver; a test
//! keeps the two equal. Later issues refer to these names.

/// Closed-loop client threads in every workload. Every caller of this
/// system blocks for its reply, so a closed loop is the honest model,
/// and the host has two cores: more clients than cores would measure
/// the scheduler.
pub const CLIENTS: usize = 2;
/// Engine shards under the `kv-*` workloads.
pub const SHARDS: usize = 2;
/// Trials per run on one engine instance. A gated window metric is
/// its **best** trial's value: what disturbs a trial here — a slow
/// spell of the shared virtual disk, a busy neighbour — only ever
/// makes it worse, and lasts longer than a trial. (With the median of
/// three 5 s trials one slow spell moved a whole `kv-put` run by 20 %.)
pub const TRIALS: usize = 5;
/// Warm-up before each trial's measured window, milliseconds.
pub const WARMUP_MS: u64 = 500;
/// Default `--seconds`: measured time of one run, split over the trials.
pub const DEFAULT_SECONDS: u64 = 15;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0x5EED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IntsetRbtree,
    IntsetList,
    KvPut,
    KvHot,
    KvRwCkpt,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::IntsetRbtree,
        Workload::IntsetList,
        Workload::KvPut,
        Workload::KvHot,
        Workload::KvRwCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IntsetRbtree => "intset-rbtree",
            Workload::IntsetList => "intset-list",
            Workload::KvPut => "kv-put",
            Workload::KvHot => "kv-hot",
            Workload::KvRwCkpt => "kv-rw-ckpt",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_kv(self) -> bool {
        matches!(self, Workload::KvPut | Workload::KvHot | Workload::KvRwCkpt)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric with a regression bound.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get
    /// worse before `compare` reports `worse`.
    pub bound: f64,
    /// Absolute change below which the metric is never `worse`
    /// (in `unit`); keeps millisecond set-ups and zero failure ratios
    /// from tripping a relative bound.
    pub floor: f64,
    /// Workloads the gate applies to; empty = all.
    pub workloads: &'static [Workload],
}

impl Gate {
    pub fn applies_to(&self, w: Workload) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&w)
    }
}

/// End-to-end metrics every workload reports in the untraced run: the
/// `end_to_end` list of `BENCHMARK.json`.
///
/// * `ops_per_s` — client operations completed per second: committed
///   transactions on `intset-*` (the figures' tx/s), acked
///   `StmService::put`s on `kv-*`;
/// * `op_p50_us` / `op_p99_us` — client-side time of one operation:
///   submit→`Ok` of a put; on `intset-*` a timed batch of
///   [`INTSET_BATCH`] harness operations divided by the batch size;
/// * `read16_p50_us` — a timed burst of 16 reads by one client
///   (`StmService::get` / `TxSet::contains`): after every operation
///   on `kv-rw-ckpt`, after every [`READ_EVERY`]th elsewhere.
pub const END_TO_END: [Gate; 6] = [
    Gate {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
        workloads: &[],
    },
    Gate {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        workloads: &[],
    },
    Gate {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        workloads: &[],
    },
    Gate {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        workloads: &[],
    },
    Gate {
        name: "read16_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        workloads: &[],
    },
    Gate {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        floor: 0.0,
        workloads: &[],
    },
];

/// Metrics the untraced run also measures and `compare` also gates,
/// but only some workloads have (or that are 0 on a good run), so the
/// driver's contract — every end-to-end metric on every workload,
/// never 0 — cannot carry them. The traced run reports the first two
/// again as per-layer metrics.
pub const GATED_EXTRA: [Gate; 3] = [
    Gate {
        name: "checkpoint_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        floor: 0.0,
        workloads: &[Workload::KvRwCkpt],
    },
    Gate {
        name: "wal_bytes_per_put",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
        workloads: &[Workload::KvPut, Workload::KvHot],
    },
    Gate {
        name: "failed_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.001,
        workloads: &[],
    },
];

/// Operations per timed batch on the `intset-*` workloads: one clock
/// read per ~300 ns transaction would cost the throughput it measures.
pub const INTSET_BATCH: u64 = 32;
/// Reads per timed burst.
pub const READ_BURST: usize = 16;
/// A client times a read burst after every this many operations
/// (`kv-rw-ckpt`: after every one). Spread over the window like this a
/// burst sees the machine in all its states; a read phase of a few
/// milliseconds at the window's end saw one, and a different one each
/// time (levels 40 % apart between phases, 10 % wide inside one).
pub const READ_EVERY: u64 = 64;

/// Per-layer metrics of the traced run (`per_layer` in
/// `BENCHMARK.json`): name, unit, and which way is better. A metric
/// whose layer the workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 47] = [
    ("tinystm.commit_rw1_ns", "ns", Better::Lower),
    ("tinystm.abort_ratio", "ratio", Better::Lower),
    ("tinystm.aborts.read-locked", "count", Better::Lower),
    ("tinystm.aborts.write-locked", "count", Better::Lower),
    ("tinystm.aborts.extend-failed", "count", Better::Lower),
    ("tinystm.aborts.validation-failed", "count", Better::Lower),
    ("tinystm.aborts.clock-overflow", "count", Better::Lower),
    ("tinystm.aborts.explicit", "count", Better::Lower),
    ("tinystm.aborts.inconsistent-read", "count", Better::Lower),
    ("tinystm.aborts.wal-failed", "count", Better::Lower),
    ("tinystm.clock_conflicts_per_ktx", "1/ktx", Better::Lower),
    ("tinystm.wt_tx_per_s", "1/s", Better::Higher),
    ("tl2.tx_per_s", "1/s", Better::Higher),
    ("structures.contains_ns", "ns", Better::Lower),
    ("structures.update_ns", "ns", Better::Lower),
    ("router.route_ns", "ns", Better::Lower),
    ("engine.run_on_ns", "ns", Better::Lower),
    ("writer.stage_commit_ns", "ns", Better::Lower),
    ("log.decode_mib_per_s", "MiB/s", Better::Higher),
    ("durable.put_mem_us", "us", Better::Lower),
    ("durable.put_file_nosync_us", "us", Better::Lower),
    ("durable.put_file_us", "us", Better::Lower),
    ("durable.get_ns", "ns", Better::Lower),
    ("durable.checkpoint_one_ms", "ms", Better::Lower),
    ("durable.recover_s", "s", Better::Lower),
    ("durable.recover_us_per_krec", "us/krec", Better::Lower),
    ("service.put_mem_us", "us", Better::Lower),
    ("service.handoff_us", "us", Better::Lower),
    ("service.self_us", "us", Better::Lower),
    ("service.ack_hist_p50_us", "us", Better::Lower),
    ("service.accepted", "count", Better::Higher),
    ("service.overloaded", "count", Better::Lower),
    ("group.mean_batch", "count", Better::Higher),
    ("group.flushes_per_put", "ratio", Better::Lower),
    ("file.append_p50_us", "us", Better::Lower),
    ("file.append_calls", "count", Better::Lower),
    ("file.append_bytes", "B", Better::Lower),
    ("file.sync_p50_us", "us", Better::Lower),
    ("file.sync_p99_us", "us", Better::Lower),
    ("file.sync_calls", "count", Better::Lower),
    ("file.busy_share", "ratio", Better::Lower),
    ("file.checkpoint_p50_ms", "ms", Better::Lower),
    ("file.checkpoint_bytes", "B", Better::Lower),
    ("checkpoint_p50_ms", "ms", Better::Lower),
    ("wal_bytes_per_put", "B", Better::Lower),
    ("benchmark.trace_overhead_pct", "%", Better::Lower),
    ("benchmark.ledger_residual_pct", "%", Better::Lower),
];

/// The gate named `name`, end-to-end or extra.
pub fn gate(name: &str) -> Option<&'static Gate> {
    END_TO_END
        .iter()
        .chain(GATED_EXTRA.iter())
        .find(|g| g.name == name)
}

pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
}

/// What one workload run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds of the run, split evenly over the trials.
    pub seconds: f64,
    pub traced: bool,
}

impl RunCfg {
    pub fn window(&self) -> std::time::Duration {
        std::time::Duration::from_secs_f64(self.seconds / TRIALS as f64)
    }

    pub fn warmup(&self) -> std::time::Duration {
        std::time::Duration::from_millis(WARMUP_MS).min(self.window())
    }

    /// Whether trial `t` of this run records spans. A traced run keeps
    /// trials 0 and 2 untraced: the difference between its best traced
    /// and best untraced trial is the tracing overhead, measured in one
    /// process on one engine.
    pub fn traces(&self, t: usize) -> bool {
        self.traced && matches!(t, 1 | 3 | 4)
    }
}
