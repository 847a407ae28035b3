//! `compare a.json b.json`: set `b`'s medians against `a`'s with the
//! bounds fixed in `spec` — two sets of the same code (`--self-check`),
//! or a parent's set against a change's.

use crate::report::{fmt_value, median};
use crate::spec::{self, Better, Gate, Workload};
use stm_perf::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// Not worse, but on one side half the trials lie further from
    /// the reported value than the bound: the sets cannot show the
    /// metric unchanged.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the metric's value and the per-trial
/// values it was picked from (their median, or the best of them).
pub struct Side {
    pub value: f64,
    pub trials: Vec<f64>,
}

impl Side {
    /// How far the value stands from the middle trial. For a
    /// best-of-trials value this asks whether the best trial shows the
    /// quiet level or a lucky moment; for a median it is 0.
    fn stands_apart_by(&self) -> f64 {
        (median(&self.trials) - self.value).abs()
    }
}

/// Judge one metric on one workload. A change counts only when it
/// exceeds the gate's relative bound *and* its absolute floor.
pub fn judge(gate: &Gate, a: &Side, b: &Side) -> Verdict {
    let allowed = |base: f64| (gate.bound * base.abs()).max(gate.floor);
    let worse_by = match gate.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    if worse_by > allowed(a.value) {
        return Verdict::Worse;
    }
    if [a, b]
        .iter()
        .any(|s| s.stands_apart_by() > allowed(s.value))
    {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn side_of(set: &Json, workload: &str, metric: &str) -> Option<Side> {
    let entry = set
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let trials = match entry.get("trials")? {
        Json::Arr(values) => values.iter().map(Json::as_f64).collect::<Option<_>>()?,
        _ => return None,
    };
    Some(Side {
        value: entry.get("value")?.as_f64()?,
        trials,
    })
}

fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| fmt_value(*v)).collect();
    format!("[{}]", parts.join(","))
}

/// Print one row per workload × gated metric; returns how many rows
/// were `worse` or `unresolved`, or an error if a side lacks a metric
/// the other has.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    println!("workload metric unit a b change a_trials b_trials verdict");
    let mut flagged = 0;
    for workload in Workload::ALL {
        for gate in spec::END_TO_END.iter().chain(spec::GATED_EXTRA.iter()) {
            if !gate.applies_to(workload) {
                continue;
            }
            let side = |set: &Json, which: &str| {
                side_of(set, workload.name(), gate.name)
                    .ok_or_else(|| format!("{which}: no {} on {}", gate.name, workload.name()))
            };
            let (sa, sb) = (side(a, "a")?, side(b, "b")?);
            let verdict = judge(gate, &sa, &sb);
            let (ma, mb) = (sa.value, sb.value);
            let change = if ma != 0.0 {
                format!("{:+.1}%", (mb - ma) / ma * 100.0)
            } else {
                format!("{:+}", mb - ma)
            };
            println!(
                "{} {} {} {} {} {change} {} {} {}",
                workload.name(),
                gate.name,
                gate.unit,
                fmt_value(ma),
                fmt_value(mb),
                list(&sa.trials),
                list(&sb.trials),
                verdict.label()
            );
            if verdict != Verdict::Ok {
                flagged += 1;
            }
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(name: &str) -> &'static Gate {
        spec::gate(name).unwrap()
    }

    /// A 10 % gate with no floor, in either direction.
    fn ten_percent(better: Better) -> Gate {
        Gate {
            name: "test",
            unit: "u",
            better,
            bound: 0.10,
            floor: 0.0,
            workloads: &[],
        }
    }

    /// A side whose value is the best of its trials.
    fn best(better: Better, trials: &[f64]) -> Side {
        let pick = match better {
            Better::Lower => f64::min,
            Better::Higher => f64::max,
        };
        Side {
            value: trials.iter().copied().reduce(pick).unwrap(),
            trials: trials.to_vec(),
        }
    }

    /// A side whose value is the median of its trials.
    fn mid(trials: &[f64]) -> Side {
        Side {
            value: median(trials),
            trials: trials.to_vec(),
        }
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse_in_the_metrics_direction() {
        let ops = &ten_percent(Better::Higher);
        let up = |t: &[f64]| best(Better::Higher, t);
        let a = up(&[100.0, 99.0, 98.0]);
        assert_eq!(judge(ops, &a, &up(&[91.0, 90.0, 90.5])), Verdict::Ok);
        assert_eq!(judge(ops, &a, &up(&[89.0, 88.0, 89.5])), Verdict::Worse);
        assert_eq!(judge(ops, &a, &up(&[150.0, 151.0, 149.0])), Verdict::Ok);
        let p50 = &ten_percent(Better::Lower);
        let down = |t: &[f64]| best(Better::Lower, t);
        let a = down(&[100.0; 3]);
        assert_eq!(judge(p50, &a, &down(&[109.0; 3])), Verdict::Ok);
        assert_eq!(judge(p50, &a, &down(&[111.0; 3])), Verdict::Worse);
        assert_eq!(judge(p50, &a, &down(&[50.0; 3])), Verdict::Ok);
    }

    #[test]
    fn a_best_trial_that_stands_alone_leaves_it_unresolved() {
        let p50 = &ten_percent(Better::Lower);
        let steady = best(Better::Lower, &[100.0, 101.0, 103.0, 104.0, 140.0]);
        let lucky = best(Better::Lower, &[100.0, 112.0, 115.0, 113.0, 118.0]);
        // One disturbed trial in five is what best-of-trials is for.
        assert_eq!(judge(p50, &steady, &steady), Verdict::Ok);
        // Half the trials more than the bound from the best: luck?
        assert_eq!(judge(p50, &steady, &lucky), Verdict::Unresolved);
        assert_eq!(judge(p50, &lucky, &steady), Verdict::Unresolved);
        // Worse wins over unresolved: the values already differ.
        let slow = best(Better::Lower, &[120.0, 140.0, 141.0, 150.0, 160.0]);
        assert_eq!(judge(p50, &steady, &slow), Verdict::Worse);
    }

    #[test]
    fn absolute_floors_keep_small_numbers_quiet() {
        // setup_s: 25 % and more than 0.05 s.
        let setup = gate("setup_s");
        assert_eq!(
            judge(setup, &mid(&[0.004; 5]), &mid(&[0.008; 5])),
            Verdict::Ok
        );
        assert_eq!(judge(setup, &mid(&[1.0; 5]), &mid(&[1.2; 5])), Verdict::Ok);
        assert_eq!(
            judge(setup, &mid(&[1.0; 5]), &mid(&[1.3; 5])),
            Verdict::Worse
        );
        // failed_ratio: +0.001 absolute on a baseline of 0.
        let failed = gate("failed_ratio");
        assert_eq!(judge(failed, &mid(&[0.0]), &mid(&[0.0])), Verdict::Ok);
        assert_eq!(judge(failed, &mid(&[0.0]), &mid(&[0.0005])), Verdict::Ok);
        assert_eq!(judge(failed, &mid(&[0.0]), &mid(&[0.002])), Verdict::Worse);
    }

    #[test]
    fn sets_are_compared_row_by_row() {
        let set = |ops: f64| {
            let mut workloads = std::collections::BTreeMap::new();
            for w in Workload::ALL {
                let mut o = crate::report::Outcome::new(w, false);
                for g in spec::END_TO_END.iter().chain(spec::GATED_EXTRA.iter()) {
                    let v = if g.name == "ops_per_s" { ops } else { 1.0 };
                    o.put(g.name, &[v, v, v], 0);
                }
                workloads.insert(w.name().to_string(), o.to_json());
            }
            crate::report::set_json(&Default::default(), workloads)
        };
        assert_eq!(compare(&set(100.0), &set(95.0)), Ok(0));
        assert_eq!(compare(&set(100.0), &set(50.0)), Ok(Workload::ALL.len()));
        let empty = crate::report::set_json(&Default::default(), Default::default());
        assert!(compare(&set(100.0), &empty).is_err());
    }
}
