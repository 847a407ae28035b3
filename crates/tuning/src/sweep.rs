//! Exhaustive static-configuration sweep: the "best static
//! configuration" baseline the paper's tuning figures (10/11) compare
//! the hill climber against. Every grid point is applied through
//! [`tinystm::Runtime::reconfigure`] (the same quiesce mechanism the
//! tuner uses; a rejected point reports its [`tinystm::ConfigError`])
//! and measured with the same max-of-samples rule, so sweep and
//! autotune results are directly comparable.

use crate::point::TuningPoint;
use crate::runner::measure_current;
use std::time::Duration;
use tinystm::{Stm, StmConfig};

/// The static grid to sweep: the cartesian product of the three
/// parameter lists, filtered to points inside the tuning space.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Lock-array exponents to try.
    pub locks_log2: Vec<u32>,
    /// Hash shift counts to try.
    pub shifts: Vec<u32>,
    /// Hierarchy exponents to try (0 = disabled).
    pub hier_log2: Vec<u32>,
}

impl SweepGrid {
    /// Quick-mode grid (12 points): coarse but spanning the dimensions
    /// the tuner explores, sized for CI-container runs.
    pub fn quick() -> SweepGrid {
        SweepGrid {
            locks_log2: vec![8, 12, 16],
            shifts: vec![0, 2],
            hier_log2: vec![0, 4],
        }
    }

    /// Paper-scale grid (the static exploration behind Figures 10/11):
    /// 2^8–2^24 locks, 0–8 shifts, h up to 256.
    pub fn paper() -> SweepGrid {
        SweepGrid {
            locks_log2: (8..=24).step_by(2).collect(),
            shifts: (0..=8).step_by(2).collect(),
            hier_log2: vec![0, 2, 4, 6, 8],
        }
    }

    /// Enumerate the grid's in-space points, deterministic order.
    pub fn points(&self) -> Vec<TuningPoint> {
        let mut out = Vec::new();
        for &locks_log2 in &self.locks_log2 {
            for &shifts in &self.shifts {
                for &hier_log2 in &self.hier_log2 {
                    let p = TuningPoint {
                        locks_log2,
                        shifts,
                        hier_log2,
                    };
                    if p.in_space() {
                        out.push(p);
                    }
                }
            }
        }
        out
    }
}

/// Sweep options (measurement mirrors [`crate::AutoTuneOpts`]).
#[derive(Debug, Clone, Copy)]
pub struct SweepOpts {
    /// Measurement period per sample.
    pub period: Duration,
    /// Samples per point; the maximum is used.
    pub samples_per_point: usize,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            period: Duration::from_millis(100),
            samples_per_point: 3,
        }
    }
}

/// One measured static configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepRecord {
    /// The configuration measured.
    pub point: TuningPoint,
    /// Max-of-samples committed throughput (txs/s).
    pub throughput: f64,
}

/// Result of a sweep: one record per measured point, plus an error
/// annotation when a grid point's `reconfigure` was rejected (the
/// points measured so far are preserved).
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One record per measured grid point, grid order.
    pub records: Vec<SweepRecord>,
    /// Why the sweep stopped early, if it did.
    pub error: Option<String>,
}

impl SweepOutcome {
    /// The best static configuration found.
    pub fn best(&self) -> Option<&SweepRecord> {
        self.records
            .iter()
            .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
    }
}

/// Exhaustively measure every grid point against `stm` while worker
/// threads (driven by the caller) keep the system loaded.
pub fn sweep(stm: &Stm, template: StmConfig, grid: &SweepGrid, opts: SweepOpts) -> SweepOutcome {
    let mut records = Vec::new();
    for point in grid.points() {
        if let Err(e) = stm.reconfigure(point.apply(template)) {
            return SweepOutcome {
                records,
                error: Some(format!("reconfigure to {} rejected: {e}", point.label())),
            };
        }
        let (throughput, _, _) = measure_current(stm, opts.period, opts.samples_per_point);
        records.push(SweepRecord { point, throughput });
    }
    SweepOutcome {
        records,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_points_stay_in_space() {
        for grid in [SweepGrid::quick(), SweepGrid::paper()] {
            let points = grid.points();
            assert!(!points.is_empty());
            assert!(points.iter().all(|p| p.in_space()));
        }
        // hier > locks combinations are filtered, not produced.
        let grid = SweepGrid {
            locks_log2: vec![8],
            shifts: vec![0],
            hier_log2: vec![0, 8, 9],
        };
        let points = grid.points();
        assert_eq!(points.len(), 2, "{points:?}");
    }

    #[test]
    fn quick_grid_size_is_bounded() {
        // The quick grid is what CI sweeps; keep it small on purpose.
        assert!(SweepGrid::quick().points().len() <= 16);
    }

    #[test]
    fn best_picks_max_throughput() {
        let p = TuningPoint::experiment_start;
        let out = SweepOutcome {
            records: vec![
                SweepRecord {
                    point: p(),
                    throughput: 10.0,
                },
                SweepRecord {
                    point: p(),
                    throughput: 30.0,
                },
                SweepRecord {
                    point: p(),
                    throughput: 20.0,
                },
            ],
            error: None,
        };
        assert_eq!(out.best().unwrap().throughput, 30.0);
    }

    #[test]
    fn sweep_over_tiny_grid_measures_every_point() {
        use stm_api::TxKind;
        use tinystm::{TCell, TxExt};
        let stm = Stm::new(StmConfig::default()).unwrap();
        let cell = std::sync::Arc::new(TCell::new(0u64));
        let grid = SweepGrid {
            locks_log2: vec![8, 10],
            shifts: vec![0],
            hier_log2: vec![0],
        };
        let out = stm_harness::drive_with_coordinator(
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
                sweep(
                    &stm,
                    StmConfig::default(),
                    &grid,
                    SweepOpts {
                        period: Duration::from_millis(10),
                        samples_per_point: 2,
                    },
                )
            },
        );
        assert!(out.error.is_none(), "{:?}", out.error);
        assert_eq!(out.records.len(), 2);
        assert!(out.records.iter().all(|r| r.throughput > 0.0));
        assert!(stm.stats().reconfigurations >= 2);
    }
}
