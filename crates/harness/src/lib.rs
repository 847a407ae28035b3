//! # stm-harness — the paper's workload harness
//!
//! Reproduces the measurement methodology of Section 3.3: pre-populated
//! structures of (almost) constant size, per-thread deterministic random
//! streams, update transactions that always write (alternating
//! add/remove), throughput in committed transactions per second and
//! abort rates per second, over configurable thread counts, sizes, and
//! update percentages.
//!
//! * [`Backend`] — the paper's three backends (TinySTM write-back and
//!   write-through, TL2), named once for the drivers, benches and CLI;
//! * [`driver`] — thread spawning + windowed measurement (closed-loop);
//! * [`open_loop`] — arrival-rate scheduled requests with per-request
//!   latency measured from the scheduled arrival (queueing included);
//! * [`intset`] — the red-black tree / linked list / overwrite harness;
//! * [`metrics`] — the [`MetricsReporter`]: scrape registered
//!   `stm-telemetry` sources, lint the exposition in-process, render
//!   Prometheus text / JSONL at exit;
//! * [`vacation_mix`] — the STAMP-style vacation mix (Figure 7);
//! * [`table`] — the series printer shared by the figure benches;
//! * [`record`] (feature `record`) — the `--record` mode: run any
//!   workload on a concrete backend with event recording attached and
//!   drain the history for the `stm-check` oracle (also exposed as the
//!   `stm-record` binary);
//! * [`durable`] (feature `durable`) — the `--durable` mode: a KV
//!   workload on the durable sharded engine with an optional mid-run
//!   crash, followed by WAL recovery and verification (plus the
//!   replay-equivalence oracle when `record` is also on); stores are
//!   in-memory by default or real files via `--file-store`;
//! * [`chaos`] (feature `durable`) — the `--chaos` mode: the same KV
//!   workload under deterministic seeded fault injection (transient
//!   bursts, torn appends, permanent failures, fsync errors), with a
//!   supervisor rejoining degraded shards and a no-lost-acked-commit
//!   verification pass;
//! * [`service_load`] (feature `durable`) — the `--service` mode:
//!   open-loop clients driving the multi-tenant [`stm_engine::StmService`]
//!   (per-shard group commit) with an optional mid-run power cut, a
//!   power-cycle, and the acked-survival verification.

pub mod backend;
#[cfg(feature = "durable")]
pub mod chaos;
pub mod driver;
#[cfg(feature = "durable")]
pub mod durable;
pub mod intset;
pub mod metrics;
pub mod open_loop;
#[cfg(feature = "record")]
pub mod record;
#[cfg(feature = "durable")]
pub mod service_load;
pub mod table;
pub mod vacation_mix;

pub use backend::Backend;
#[cfg(feature = "durable")]
pub use chaos::{run_chaos, ChaosOpts, ChaosReport};
pub use driver::{drive, drive_with_coordinator, MeasureOpts, Measurement};
#[cfg(feature = "durable")]
pub use durable::{run_durable, DurableOpts, DurableReport};
pub use intset::{populate, run_intset, run_overwrite, IntSetOp, IntSetWorkload};
pub use metrics::MetricsReporter;
pub use open_loop::{run_open_loop, LatencyRecorder, OpenLoopOpts, OpenLoopResult};
#[cfg(feature = "record")]
pub use record::{
    run_recorded, run_recorded_with_metrics, run_sampled_windows, run_sampled_windows_with_metrics,
    RecWorkload, RecordOpts, RecordOutcome, SampledOutcome, WindowReport,
};
#[cfg(feature = "durable")]
pub use service_load::{run_service, ServiceOpts, ServiceReport};
pub use vacation_mix::{run_vacation, vacation_op, VacationWorkload};
