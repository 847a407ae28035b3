//! The auto-tuning runner: couples the hill climber to a live `Stm`.
//!
//! Following Section 4.3: throughput is measured over a period per
//! configuration, **three times**, and the maximum of the three samples
//! feeds the adaptation strategy; configuration switches call the
//! runtime's own [`tinystm::Runtime::reconfigure`] (the clock roll-over
//! quiesce, on the `Runtime<P>` the engine's shards also are), so a
//! rejected switch surfaces as its [`tinystm::ConfigError`].

use crate::point::TuningPoint;
use crate::tuner::Tuner;
use std::time::{Duration, Instant};
use tinystm::{Stm, StmConfig};

/// Runner options.
#[derive(Debug, Clone, Copy)]
pub struct AutoTuneOpts {
    /// Measurement period per sample (the paper uses ≈ 1 s; benches use
    /// shorter periods).
    pub period: Duration,
    /// Samples per configuration; the maximum is used (paper: 3).
    pub samples_per_config: usize,
    /// Number of configurations to evaluate before stopping.
    pub max_configs: usize,
    /// RNG seed for the move selection.
    pub seed: u64,
}

impl Default for AutoTuneOpts {
    fn default() -> Self {
        AutoTuneOpts {
            period: Duration::from_millis(100),
            samples_per_config: 3,
            max_configs: 20,
            seed: 0x7E57,
        }
    }
}

/// Max-of-samples measurement of the *current* configuration: sleep
/// `period` per sample, diff the STM's aggregate counters, keep the
/// best sample (the paper measures three times and keeps the maximum).
/// Returns `(throughput, val_locks_processed/s, val_locks_skipped/s)`.
pub(crate) fn measure_current(stm: &Stm, period: Duration, samples: usize) -> (f64, f64, f64) {
    let mut best_sample = 0.0f64;
    let mut processed_rate = 0.0;
    let mut skipped_rate = 0.0;
    for _ in 0..samples.max(1) {
        let before = stm.stats().totals;
        let t0 = Instant::now();
        std::thread::sleep(period);
        let after = stm.stats().totals;
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        let delta = after.since(&before);
        let throughput = delta.commits as f64 / secs;
        if throughput >= best_sample {
            best_sample = throughput;
            processed_rate = delta.val_locks_processed as f64 / secs;
            skipped_rate = delta.val_locks_skipped as f64 / secs;
        }
    }
    (best_sample, processed_rate, skipped_rate)
}

/// One evaluated configuration (a point on Figures 10–12).
#[derive(Debug, Clone)]
pub struct TuneRecord {
    /// 1-based configuration index (x-axis of the figures).
    pub index: usize,
    /// The configuration measured.
    pub point: TuningPoint,
    /// Max-of-samples committed throughput (txs/s).
    pub throughput: f64,
    /// Decision label taken after measuring (figure data labels).
    pub label: String,
    /// Read-set locks processed during validation, per second
    /// (Figure 12).
    pub val_processed_per_s: f64,
    /// Read-set locks skipped thanks to hierarchical locking, per
    /// second (Figure 12).
    pub val_skipped_per_s: f64,
}

/// Result of one auto-tuning run: the per-configuration trajectory,
/// plus an error annotation when the climb had to stop early (a
/// `reconfigure` rejected a configuration). The records gathered up to
/// that point — in particular the best-so-far configuration — are
/// always returned; a tuning thread must never panic mid-climb.
#[derive(Debug, Clone)]
pub struct AutoTuneOutcome {
    /// One record per evaluated configuration, in evaluation order.
    pub records: Vec<TuneRecord>,
    /// Why the climb stopped early, if it did (`None` = ran to
    /// completion).
    pub error: Option<String>,
}

impl AutoTuneOutcome {
    /// The best configuration measured so far (highest throughput).
    pub fn best(&self) -> Option<&TuneRecord> {
        self.records
            .iter()
            .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
    }

    /// True when the climb ran to completion.
    pub fn is_complete(&self) -> bool {
        self.error.is_none()
    }
}

/// Run the auto-tuner against `stm` while worker threads (driven by the
/// caller, e.g. `stm_harness::drive_with_coordinator`) keep the system
/// loaded. Starts from `start`, evaluates up to `opts.max_configs`
/// configurations, returns one record per configuration plus an error
/// annotation if a configuration switch was rejected (best-so-far is
/// preserved; the tuning thread never panics).
pub fn autotune(
    stm: &Stm,
    template: StmConfig,
    start: TuningPoint,
    opts: AutoTuneOpts,
) -> AutoTuneOutcome {
    let mut records = Vec::with_capacity(opts.max_configs);
    if let Err(e) = stm.reconfigure(start.apply(template)) {
        return AutoTuneOutcome {
            records,
            error: Some(format!(
                "initial reconfigure to {} rejected: {e}",
                start.label()
            )),
        };
    }
    let mut tuner = Tuner::new(start, opts.seed);
    let mut error = None;

    for index in 1..=opts.max_configs {
        let point = tuner.current();
        let (best_sample, processed_rate, skipped_rate) =
            measure_current(stm, opts.period, opts.samples_per_config);
        let decision = tuner.record(best_sample);
        records.push(TuneRecord {
            index,
            point,
            throughput: best_sample,
            label: decision.label.clone(),
            val_processed_per_s: processed_rate,
            val_skipped_per_s: skipped_rate,
        });
        if decision.next != point {
            if let Err(e) = stm.reconfigure(decision.next.apply(template)) {
                error = Some(format!(
                    "reconfigure to {} rejected after {index} configuration(s): {e}",
                    decision.next.label()
                ));
                break;
            }
        }
    }
    AutoTuneOutcome { records, error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_api::TxKind;
    use tinystm::{TCell, TxExt};

    #[test]
    fn autotune_runs_and_reconfigures() {
        let stm = Stm::new(StmConfig::default().with_locks_log2(8)).unwrap();
        let cell = std::sync::Arc::new(TCell::new(0u64));
        let opts = AutoTuneOpts {
            period: Duration::from_millis(15),
            samples_per_config: 2,
            max_configs: 6,
            seed: 5,
        };
        let records = stm_harness::drive_with_coordinator(
            stm_harness::MeasureOpts::default().with_threads(2),
            |_t| {
                let stm = stm.clone();
                let cell = std::sync::Arc::clone(&cell);
                move |_rng: &mut rand::rngs::SmallRng| {
                    stm.run(TxKind::ReadWrite, |tx| {
                        let v = tx.read(&cell)?;
                        tx.write(&cell, v + 1)
                    });
                }
            },
            || {
                autotune(
                    &stm,
                    StmConfig::default(),
                    TuningPoint::experiment_start(),
                    opts,
                )
            },
        );
        assert!(records.is_complete(), "{:?}", records.error);
        let records = records.records;
        assert_eq!(records.len(), 6);
        assert!(records.iter().all(|r| r.throughput > 0.0));
        assert_eq!(records[0].point, TuningPoint::experiment_start());
        // Indices are 1-based and sequential.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i + 1);
        }
        // The tuner must have switched configuration at least once.
        assert!(stm.stats().reconfigurations >= 1);
    }

    #[test]
    fn rejected_reconfigure_annotates_instead_of_panicking() {
        // A template whose max_clock fails validation makes every
        // configuration switch impossible: autotune must return the
        // error annotation (here: before any record), not panic.
        let stm = Stm::new(StmConfig::default()).unwrap();
        let bad_template = StmConfig::default().with_max_clock(2);
        let out = autotune(
            &stm,
            bad_template,
            TuningPoint::experiment_start(),
            AutoTuneOpts {
                period: Duration::from_millis(1),
                samples_per_config: 1,
                max_configs: 3,
                seed: 1,
            },
        );
        assert!(!out.is_complete());
        let err = out.error.as_deref().expect("annotated");
        assert!(err.contains("rejected"), "{err}");
        assert!(out.records.is_empty());
        assert!(out.best().is_none());
        assert_eq!(stm.stats().reconfigurations, 0);
    }
}
