//! The driver's `--record` mode: run an existing workload (intset on
//! rbtree/list, the overwrite list, or the vacation mix) on a concrete
//! backend with transactional event recording attached, and drain the
//! per-thread logs into an [`stm_check::History`] for the offline
//! opacity/serializability checker.
//!
//! Recording is attached *before* population so the history covers
//! every committed write — the checker's version resolution depends on
//! seeing the whole run (a read of version `v` is matched to the commit
//! that produced it).

use crate::backend::Backend;
use crate::driver::{MeasureOpts, Measurement};
use crate::intset::{run_intset, run_overwrite, IntSetWorkload};
use crate::metrics::MetricsReporter;
use crate::vacation_mix::{run_vacation, VacationWorkload};
use core::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_api::TmHandle;
use stm_check::{CheckOpts, History, RecordingError, TraceSink};
use stm_structures::{LinkedList, RbTree};
use stm_tl2::{Tl2, Tl2Config};
use tinystm::{AccessStrategy, CmPolicy, Protocol, Runtime, Stm, StmConfig};

impl Backend {
    /// Checker options appropriate for this backend (write-through
    /// rollback may publish inflated versions on incarnation overflow;
    /// see `stm_check`'s module docs).
    pub fn check_opts(self) -> CheckOpts {
        CheckOpts {
            allow_version_inflation: matches!(self, Backend::TinyWt),
            ..CheckOpts::default()
        }
    }
}

/// The recordable workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecWorkload {
    /// Intset on the red-black tree.
    IntsetRbtree,
    /// Intset on the sorted linked list.
    IntsetList,
    /// The traverse-and-overwrite list workload (Figure 4 right).
    Overwrite,
    /// The STAMP-style vacation mix (Figure 7).
    Vacation,
}

impl RecWorkload {
    /// Label for CLI/CI output.
    pub fn label(self) -> &'static str {
        match self {
            RecWorkload::IntsetRbtree => "intset-rbtree",
            RecWorkload::IntsetList => "intset-list",
            RecWorkload::Overwrite => "overwrite",
            RecWorkload::Vacation => "vacation",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<RecWorkload> {
        match name {
            "intset-rbtree" | "rbtree" => Some(RecWorkload::IntsetRbtree),
            "intset-list" | "list" => Some(RecWorkload::IntsetList),
            "overwrite" => Some(RecWorkload::Overwrite),
            "vacation" => Some(RecWorkload::Vacation),
            _ => None,
        }
    }
}

/// Options for one recorded run.
#[derive(Debug, Clone, Copy)]
pub struct RecordOpts {
    /// Backend under test.
    pub backend: Backend,
    /// Workload to drive.
    pub workload: RecWorkload,
    /// Worker threads.
    pub threads: usize,
    /// Measurement window in milliseconds (warm-up is a quarter of it).
    pub duration_ms: u64,
    /// Structure size (intset/overwrite) or resources (vacation).
    pub size: u64,
    /// Update percentage (intset/overwrite; vacation uses its mix).
    pub update_pct: u32,
    /// Contention-management policy.
    pub cm: CmPolicy,
    /// Mid-window reconfigurations: a side thread switches the backend
    /// to an alternating lock-array geometry this many times, spread
    /// across the run. Recording stays sound across the switches (the
    /// checker segments per reconfigure epoch).
    pub reconfigures: usize,
    /// Whether to attach event recording (off measures the plain run).
    pub record: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RecordOpts {
    fn default() -> RecordOpts {
        RecordOpts {
            backend: Backend::TinyWb,
            workload: RecWorkload::IntsetRbtree,
            threads: 2,
            duration_ms: 50,
            size: 64,
            update_pct: 20,
            cm: CmPolicy::Immediate,
            reconfigures: 0,
            record: true,
            seed: 0x7153_77AD,
        }
    }
}

/// Result of one recorded run.
#[derive(Debug)]
pub struct RecordOutcome {
    /// Throughput/abort measurement of the run (partial histories from
    /// panicking workers are still recorded — the bracket structure
    /// survives because a panicking attempt aborts via `Drop`).
    pub measurement: Measurement,
    /// The drained history (`None` when recording was off; `Err` when
    /// the recording itself was unsound — e.g. the clock rolled over
    /// inside the window — which must fail loudly, never be checked).
    pub history: Option<Result<History, RecordingError>>,
    /// Backend label for reports.
    pub backend_label: &'static str,
    /// Checker options matching the backend.
    pub check_opts: CheckOpts,
}

fn measure_opts(opts: &RecordOpts) -> MeasureOpts {
    MeasureOpts::default()
        .with_threads(opts.threads)
        .with_warmup(Duration::from_millis((opts.duration_ms / 4).max(1)))
        .with_duration(Duration::from_millis(opts.duration_ms.max(1)))
        .with_seed(opts.seed)
}

fn run_workload<H: TmHandle>(tm: H, opts: &RecordOpts) -> Measurement {
    let mopts = measure_opts(opts);
    let stats = {
        let tm = tm.clone();
        move || tm.stats_snapshot()
    };
    match opts.workload {
        RecWorkload::IntsetRbtree => {
            let set = RbTree::new(tm);
            run_intset(
                &set,
                IntSetWorkload::new(opts.size, opts.update_pct),
                mopts,
                &stats,
            )
        }
        RecWorkload::IntsetList => {
            let set = LinkedList::new(tm);
            run_intset(
                &set,
                IntSetWorkload::new(opts.size, opts.update_pct),
                mopts,
                &stats,
            )
        }
        RecWorkload::Overwrite => {
            let list = LinkedList::new(tm);
            run_overwrite(
                &list,
                IntSetWorkload::new(opts.size, opts.update_pct),
                mopts,
                &stats,
            )
        }
        RecWorkload::Vacation => {
            let workload = VacationWorkload {
                n_resources: opts.size.max(8),
                n_customers: (opts.size / 4).max(4),
                ..VacationWorkload::default()
            };
            run_vacation(tm, workload, mopts)
        }
    }
}

/// Run `run` while a side thread performs `n` reconfigurations spread
/// evenly across `total` (the workload's warm-up + window). The side
/// thread stops promptly once the workload returns.
fn run_with_reconfigures<R: Send>(
    n: usize,
    total: Duration,
    reconfigure: impl Fn(usize) + Sync,
    run: impl FnOnce() -> R,
) -> R {
    if n == 0 {
        return run();
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let interval = total / (n as u32 + 1);
            for i in 0..n {
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline {
                    if done.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                if done.load(Ordering::Relaxed) {
                    return;
                }
                reconfigure(i);
            }
        });
        let r = run();
        done.store(true, Ordering::Relaxed);
        r
    })
}

/// The run's total wall span the reconfigure thread spreads over.
fn run_span(opts: &RecordOpts) -> Duration {
    Duration::from_millis(opts.duration_ms.max(1) + (opts.duration_ms / 4).max(1))
}

/// Run the workload, recording if requested, and drain the history.
pub fn run_recorded(opts: &RecordOpts) -> RecordOutcome {
    run_recorded_inner(opts, None)
}

/// [`run_recorded`], with the backend registered on `reporter` and its
/// hot-path telemetry instruments enabled for the run — scrape the
/// reporter after this returns for the run's metrics.
pub fn run_recorded_with_metrics(opts: &RecordOpts, reporter: &MetricsReporter) -> RecordOutcome {
    run_recorded_inner(opts, Some(reporter))
}

/// TinySTM in `opts.backend`'s access strategy, and the alternate
/// geometry mid-run reconfigures switch to (different mask *and*
/// shift, so stripes really renumber).
fn tiny(opts: &RecordOpts) -> (Stm, StmConfig) {
    let strategy = if opts.backend == Backend::TinyWb {
        AccessStrategy::WriteBack
    } else {
        AccessStrategy::WriteThrough
    };
    let base = StmConfig::default()
        .with_strategy(strategy)
        .with_cm(opts.cm);
    let stm = Stm::new(base).expect("record config valid");
    (stm, base.with_locks_log2(12).with_shifts(1))
}

/// [`tiny`]'s TL2 counterpart.
fn tl2(opts: &RecordOpts) -> (Tl2, Tl2Config) {
    let base = Tl2Config::default().with_cm(opts.cm);
    let tl2 = Tl2::new(base).expect("record config valid");
    (tl2, base.with_locks_log2(12).with_shifts(1))
}

/// Enable `tm`'s hot-path telemetry and register it on `reporter`.
fn register<P: Protocol>(tm: &Runtime<P>, reporter: Option<&MetricsReporter>) {
    if let Some(rep) = reporter {
        tm.telemetry().set_enabled(true);
        rep.register(Arc::new(tm.clone()));
    }
}

/// The `i`-th mid-run reconfigure: alternate between `alt` and the
/// geometry `tm` started with.
fn alternate<P: Protocol>(tm: &Runtime<P>, alt: P::Config) -> impl Fn(usize) + Sync + '_ {
    let base = tm.config();
    move |i| {
        let cfg = if i % 2 == 0 { alt } else { base };
        tm.reconfigure(cfg).expect("alternate config valid");
    }
}

fn run_recorded_inner(opts: &RecordOpts, reporter: Option<&MetricsReporter>) -> RecordOutcome {
    let sink = opts.record.then(TraceSink::new);
    let measurement = match opts.backend {
        Backend::Tl2 => recorded_on(tl2(opts), opts, reporter, sink.as_ref()),
        Backend::TinyWb | Backend::TinyWt => recorded_on(tiny(opts), opts, reporter, sink.as_ref()),
    };
    // Safe drain: every workload driver joins its worker scope before
    // returning, so the close-and-wait handshake completes immediately;
    // an unsound window (clock roll-over) surfaces as `Err`.
    let history = sink.map(|sink: Arc<TraceSink>| sink.drain_history());
    RecordOutcome {
        measurement,
        history,
        backend_label: opts.backend.label(),
        check_opts: opts.backend.check_opts(),
    }
}

/// One recorded run on `tm`, reconfiguring to `alt` and back.
fn recorded_on<P: Protocol>(
    (tm, alt): (Runtime<P>, P::Config),
    opts: &RecordOpts,
    reporter: Option<&MetricsReporter>,
    sink: Option<&Arc<TraceSink>>,
) -> Measurement {
    register(&tm, reporter);
    if let Some(sink) = sink {
        tm.attach_trace(sink);
    }
    let m = run_with_reconfigures(
        opts.reconfigures,
        run_span(opts),
        alternate(&tm, alt),
        || run_workload(tm.clone(), opts),
    );
    tm.detach_trace();
    m
}

/// Report for one **sampled** window of a [`run_sampled_windows`] run
/// (windows the sampler skipped leave no report).
#[derive(Debug)]
pub struct WindowReport {
    /// Global window index (the sampler records every k-th, from 0).
    pub window: usize,
    /// The checker's verdict on the window's drained history.
    pub outcome: stm_telemetry::WindowOutcome,
    /// Committed transactions inside the window's history.
    pub committed: usize,
    /// Reconfigure epochs the window's history spans (ascending).
    pub epochs: Vec<u64>,
    /// Whole attempts skipped because the window's event cap filled.
    pub skipped_attempts: u64,
    /// Checker findings / recording error when the outcome isn't clean.
    pub detail: Option<String>,
}

/// Outcome of a [`run_sampled_windows`] run.
#[derive(Debug)]
pub struct SampledOutcome {
    /// Total windows driven (sampled and skipped).
    pub windows: usize,
    /// One report per sampled window, in order.
    pub reports: Vec<WindowReport>,
    /// The sampler's own counters (seen/sampled/clean/…).
    pub counts: stm_telemetry::SamplerCounts,
    /// Commits summed over every window's measurement.
    pub commits: u64,
    /// Union of reconfigure epochs across sampled histories, ascending.
    pub epochs_seen: Vec<u64>,
    /// Backend label for reports.
    pub backend_label: &'static str,
}

impl SampledOutcome {
    /// True iff every sampled window checked clean.
    pub fn all_clean(&self) -> bool {
        self.reports
            .iter()
            .all(|r| r.outcome == stm_telemetry::WindowOutcome::Clean)
    }
}

/// The continuous-checking loop shared by the backends: drive `windows`
/// consecutive workload windows on `tm`, attaching a fresh bounded sink
/// for every window the `sampler` elects, and check each sampled
/// window's history as soon as it drains.
///
/// Sampled windows are always checked with the sampler's
/// [`stm_telemetry::Sampler::check_opts`] (version inflation allowed):
/// a sink attached mid-run observes versions whose writers committed
/// before the window opened, on every backend.
fn sampled_loop<P: Protocol>(
    tm: &Runtime<P>,
    opts: &RecordOpts,
    windows: usize,
    sampler: &stm_telemetry::Sampler,
) -> (Vec<WindowReport>, u64, Vec<u64>) {
    use stm_telemetry::WindowOutcome;
    let check_opts = sampler.check_opts();
    let mut reports = Vec::new();
    let mut commits = 0u64;
    let mut epochs_seen = std::collections::BTreeSet::new();
    for window in 0..windows {
        let sink = sampler.begin_window(0);
        if let Some(sink) = &sink {
            tm.attach_trace(sink);
        }
        let m = run_workload(tm.clone(), opts);
        commits += m.commits;
        let Some(sink) = sink else { continue };
        tm.detach_trace();
        let skipped_attempts = sink.skipped_attempts();
        let (outcome, committed, epochs, detail) = match sink.drain_history() {
            Err(e) => (WindowOutcome::Unsound, 0, Vec::new(), Some(e.to_string())),
            Ok(history) => {
                let epochs = history.epochs();
                epochs_seen.extend(epochs.iter().copied());
                let (committed, _, _, _, _) = history.totals();
                let report = stm_check::check_history(&history, &check_opts);
                if report.is_clean() {
                    (WindowOutcome::Clean, committed, epochs, None)
                } else {
                    (
                        WindowOutcome::Violation,
                        committed,
                        epochs,
                        Some(report.to_string()),
                    )
                }
            }
        };
        sampler.note_result(0, outcome, skipped_attempts);
        reports.push(WindowReport {
            window,
            outcome,
            committed,
            epochs,
            skipped_attempts,
            detail,
        });
    }
    (reports, commits, epochs_seen.into_iter().collect())
}

/// Continuous sampled checking: drive `windows` consecutive windows of
/// the workload on one backend instance, recording every
/// `sample_every`-th window into a fresh sink bounded at `event_cap`
/// events and checking it immediately — the telemetry plane's "checker
/// as a continuous monitor" mode. `opts.reconfigures` reconfigurations
/// are spread across the *whole* run, so sampled histories cross
/// reconfigure-epoch boundaries like production windows would.
pub fn run_sampled_windows(
    opts: &RecordOpts,
    windows: usize,
    sample_every: usize,
    event_cap: u64,
) -> SampledOutcome {
    run_sampled_windows_inner(opts, windows, sample_every, event_cap, None)
}

/// [`run_sampled_windows`], with the backend *and* the sampler
/// registered on `reporter` (so the exposition carries the
/// `stm_sampler_windows_*` families next to the transaction counters).
pub fn run_sampled_windows_with_metrics(
    opts: &RecordOpts,
    windows: usize,
    sample_every: usize,
    event_cap: u64,
    reporter: &MetricsReporter,
) -> SampledOutcome {
    run_sampled_windows_inner(opts, windows, sample_every, event_cap, Some(reporter))
}

fn run_sampled_windows_inner(
    opts: &RecordOpts,
    windows: usize,
    sample_every: usize,
    event_cap: u64,
    reporter: Option<&MetricsReporter>,
) -> SampledOutcome {
    let windows = windows.max(1);
    let sampler = Arc::new(stm_telemetry::Sampler::new(
        1,
        stm_telemetry::SamplerConfig {
            every: sample_every as u64,
            event_cap,
        },
    ));
    if let Some(rep) = reporter {
        rep.register(sampler.clone());
    }
    let (reports, commits, epochs_seen) = match opts.backend {
        Backend::Tl2 => sampled_on(tl2(opts), opts, windows, &sampler, reporter),
        Backend::TinyWb | Backend::TinyWt => {
            sampled_on(tiny(opts), opts, windows, &sampler, reporter)
        }
    };
    SampledOutcome {
        windows,
        reports,
        counts: sampler.counts(0),
        commits,
        epochs_seen,
        backend_label: opts.backend.label(),
    }
}

/// [`sampled_loop`] on `tm` over the whole run, reconfiguring to `alt`
/// and back.
fn sampled_on<P: Protocol>(
    (tm, alt): (Runtime<P>, P::Config),
    opts: &RecordOpts,
    windows: usize,
    sampler: &stm_telemetry::Sampler,
    reporter: Option<&MetricsReporter>,
) -> (Vec<WindowReport>, u64, Vec<u64>) {
    register(&tm, reporter);
    run_with_reconfigures(
        opts.reconfigures,
        run_span(opts) * windows as u32,
        alternate(&tm, alt),
        || sampled_loop(&tm, opts, windows, sampler),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_check::check_history;

    fn quick(backend: Backend, workload: RecWorkload) -> RecordOpts {
        RecordOpts {
            backend,
            workload,
            threads: 2,
            duration_ms: 20,
            size: 32,
            ..RecordOpts::default()
        }
    }

    #[test]
    fn recorded_intset_history_is_clean() {
        let out = run_recorded(&quick(Backend::TinyWb, RecWorkload::IntsetRbtree));
        assert!(out.measurement.commits > 0);
        let history = out.history.expect("recording was on").expect("sound");
        let (committed, _, _, _, _) = history.totals();
        assert!(committed > 0, "populate alone commits");
        let report = check_history(&history, &out.check_opts);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn recording_off_yields_no_history() {
        let mut opts = quick(Backend::Tl2, RecWorkload::IntsetList);
        opts.record = false;
        let out = run_recorded(&opts);
        assert!(out.history.is_none());
        assert!(out.measurement.commits > 0);
    }

    #[test]
    fn vacation_on_tl2_records_and_checks() {
        let out = run_recorded(&quick(Backend::Tl2, RecWorkload::Vacation));
        let history = out.history.expect("recording was on").expect("sound");
        let report = check_history(&history, &out.check_opts);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn mid_window_reconfigure_records_multi_epoch_clean_history() {
        // The tentpole's acceptance shape: a recorded window crossing
        // reconfigure boundaries must still check clean on every
        // backend, with the history really spanning > 1 epoch.
        for backend in Backend::ALL {
            let mut opts = quick(backend, RecWorkload::IntsetList);
            opts.duration_ms = 40;
            opts.reconfigures = 3;
            let out = run_recorded(&opts);
            let history = out
                .history
                .expect("recording was on")
                .expect("reconfigure must not make the recording unsound");
            assert!(
                history.epochs().len() > 1,
                "{}: no reconfigure landed inside the window ({} epochs)",
                backend.label(),
                history.epochs().len()
            );
            let report = check_history(&history, &out.check_opts);
            assert!(report.is_clean(), "{}: {report}", backend.label());
        }
    }

    #[test]
    fn sampled_windows_check_clean_and_follow_cadence() {
        // 6 windows at cadence 2 ⇒ windows 0, 2, 4 sampled; every
        // sampled window must drain and check clean, even with
        // reconfigurations landing mid-run.
        for backend in Backend::ALL {
            let mut opts = quick(backend, RecWorkload::IntsetList);
            opts.duration_ms = 10;
            opts.reconfigures = 2;
            let out = run_sampled_windows(&opts, 6, 2, 1 << 16);
            assert_eq!(out.windows, 6);
            assert_eq!(out.counts.seen, 6, "{}", backend.label());
            assert_eq!(out.counts.sampled, 3, "{}", backend.label());
            assert_eq!(out.reports.len(), 3);
            assert_eq!(
                out.reports.iter().map(|r| r.window).collect::<Vec<_>>(),
                vec![0, 2, 4]
            );
            assert!(
                out.all_clean(),
                "{}: {:?}",
                backend.label(),
                out.reports
                    .iter()
                    .filter_map(|r| r.detail.as_deref())
                    .collect::<Vec<_>>()
            );
            assert_eq!(out.counts.clean, 3);
            assert!(out.commits > 0);
        }
    }

    #[test]
    fn sampled_window_event_cap_skips_attempts_loudly() {
        // A tiny cap: the recorded windows overflow, attempts are
        // skipped whole (history still checks clean), and the overflow
        // is tallied — never silent.
        let mut opts = quick(Backend::TinyWb, RecWorkload::IntsetList);
        opts.duration_ms = 15;
        let out = run_sampled_windows(&opts, 2, 1, 64);
        assert_eq!(out.counts.sampled, 2);
        assert!(
            out.reports.iter().any(|r| r.skipped_attempts > 0),
            "cap of 64 events must overflow: {:?}",
            out.reports
        );
        assert!(out.counts.overflowed > 0);
        // Skipping whole attempts keeps the retained history checkable.
        assert!(out.all_clean(), "{:?}", out.reports);
    }

    #[test]
    fn parse_labels_roundtrip() {
        for w in [
            RecWorkload::IntsetRbtree,
            RecWorkload::IntsetList,
            RecWorkload::Overwrite,
            RecWorkload::Vacation,
        ] {
            assert_eq!(RecWorkload::parse(w.label()), Some(w));
        }
        assert!(RecWorkload::parse("skiplist").is_none());
    }
}
