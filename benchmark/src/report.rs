//! What a run produces: named metrics with their per-trial values, the
//! verification verdict, the environment stamp, and the two renderings —
//! `workload metric value unit` lines for people, JSON for the driver
//! and for `compare`.

use crate::spec::{self, Workload};
use std::collections::BTreeMap;
use stm_perf::json::Json;

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// Median of `trials`, or the best of them (`put_best`).
    pub value: f64,
    /// Per-trial values (one entry for a single measurement).
    pub trials: Vec<f64>,
    /// Samples behind the smallest trial (0 = not a sampled timing).
    pub samples: u64,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Operations attempted plus verification checks made.
    pub attempted: u64,
    /// Operations failed or refused plus verification checks failed.
    pub failed: u64,
    /// Verification failures, in words. Non-empty = the run is wrong.
    pub violations: Vec<String>,
    /// Lines for the reader that are not metrics (the ledger).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: Workload, traced: bool) -> Outcome {
        Outcome {
            workload,
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric from its per-trial values.
    ///
    /// # Panics
    /// If `name` was already recorded or is not a name `spec` knows:
    /// every metric is emitted exactly once, under a declared name.
    pub fn put(&mut self, name: &str, trials: &[f64], samples: u64) {
        let unit = spec::gate(name)
            .map(|g| g.unit)
            .or_else(|| spec::per_layer_unit(name))
            .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"));
        assert!(
            self.get(name).is_none(),
            "metric {name} emitted twice on {}",
            self.workload.name()
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: median(trials),
            trials: trials.to_vec(),
            samples,
        });
    }

    /// Record a gated window metric from its per-trial values: the
    /// value is the best trial's (see `spec::TRIALS`).
    pub fn put_best(&mut self, name: &str, trials: &[f64], samples: u64) {
        let gate = spec::gate(name).unwrap_or_else(|| panic!("{name} has no gate"));
        self.put(name, trials, samples);
        let best = trials.iter().copied().reduce(match gate.better {
            spec::Better::Lower => f64::min,
            spec::Better::Higher => f64::max,
        });
        let metric = self.metrics.last_mut().expect("just pushed");
        metric.value = best.unwrap_or(0.0);
    }

    /// Record a single measurement.
    pub fn put1(&mut self, name: &str, value: f64) {
        self.put(name, &[value], 0);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }

    pub fn check(&mut self, ok: bool, violation: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(violation());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fill in the metrics the run's mode owes but the workload has no
    /// layer for: they read 0 (see `spec::PER_LAYER`).
    pub fn zero_fill_per_layer(&mut self) {
        for (name, _, _) in spec::PER_LAYER {
            if self.get(name).is_none() {
                self.put1(name, 0.0);
            }
        }
    }

    /// `workload metric value unit` lines, with trials and sample counts.
    pub fn print_lines(&self) {
        let w = self.workload.name();
        for m in &self.metrics {
            let mut line = format!("{w} {} {} {}", m.name, fmt_value(m.value), m.unit);
            if m.trials.len() > 1 {
                let trials: Vec<String> = m.trials.iter().map(|t| fmt_value(*t)).collect();
                line.push_str(&format!(" trials=[{}]", trials.join(",")));
            }
            if m.samples > 0 {
                line.push_str(&format!(" n={}", m.samples));
            }
            println!("{line}");
        }
        for note in &self.notes {
            println!("{w} {note}");
        }
        for v in &self.violations {
            println!("{w} VIOLATION {v}");
        }
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and
    /// exactly the metrics the mode owes — every end-to-end metric when
    /// untraced, every per-layer metric when traced.
    pub fn driver_line(&self) -> String {
        let names: Vec<&str> = if self.traced {
            spec::PER_LAYER.iter().map(|(n, _, _)| *n).collect()
        } else {
            spec::END_TO_END.iter().map(|g| g.name).collect()
        };
        let metrics = names.into_iter().map(|name| {
            let m = self.get(name).unwrap_or_else(|| {
                panic!("{}: metric {name} was not measured", self.workload.name())
            });
            let entry = Json::obj([
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]);
            (name.to_string(), entry)
        });
        Json::obj([
            ("correct".to_string(), Json::Bool(self.correct())),
            (
                "attempted".to_string(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::obj(metrics)),
        ])
        .to_line()
    }

    /// The full result, for the per-set JSON file and `compare`.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let entry = Json::obj([
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
                (
                    "trials".to_string(),
                    Json::Arr(m.trials.iter().map(|t| Json::Num(*t)).collect()),
                ),
                ("samples".to_string(), Json::Num(m.samples as f64)),
            ]);
            (m.name.clone(), entry)
        });
        Json::obj([
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            (
                "violations".to_string(),
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".to_string(), Json::obj(metrics)),
        ])
    }
}

/// Six significant digits, no exponent for the sizes met here.
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let magnitude = v.abs().log10().floor() as i32;
    let decimals = (5 - magnitude).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

/// A set of runs: one file, one environment stamp, one entry per
/// workload.
pub fn set_json(env: &BTreeMap<String, Json>, workloads: BTreeMap<String, Json>) -> Json {
    Json::obj([
        ("env".to_string(), Json::Obj(env.clone())),
        ("workloads".to_string(), Json::Obj(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn values_print_with_six_digits() {
        assert_eq!(fmt_value(3_412_345.678), "3412346");
        assert_eq!(fmt_value(175.43219), "175.432");
        assert_eq!(fmt_value(0.00123456), "0.00123456");
        assert_eq!(fmt_value(0.0), "0");
    }

    #[test]
    #[should_panic(expected = "emitted twice")]
    fn a_metric_is_emitted_once() {
        let mut o = Outcome::new(Workload::KvPut, false);
        o.put1("ops_per_s", 1.0);
        o.put1("ops_per_s", 2.0);
    }

    #[test]
    fn the_driver_line_carries_exactly_the_modes_metrics() {
        let mut o = Outcome::new(Workload::KvPut, false);
        for g in spec::END_TO_END {
            o.put(g.name, &[1.5, 2.5, 3.5], 10);
        }
        o.put1("failed_ratio", 0.0);
        o.attempted = 7;
        let line = stm_perf::json::parse(&o.driver_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(7));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(
            metrics["ops_per_s"].get("value").and_then(Json::as_f64),
            Some(2.5)
        );
    }
}
