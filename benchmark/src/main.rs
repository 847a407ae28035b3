//! `stm-benchmark`: one command, five workloads, end-to-end metrics
//! with fixed regression bounds, and a layer ladder from `Stm::run` to
//! an acked `StmService::put`. See `benchmark/README.md`.
//!
//! ```text
//! stm-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!               [--out FILE] [--self-check]
//! stm-benchmark compare A.json B.json
//! ```
//!
//! With `--workload` the workload runs in this process and the last
//! line of standard output is the driver's JSON result. Without it,
//! every workload runs in a process of its own and the set is written
//! to one JSON file. Exit code 0: measured and verified; 1: a
//! verification failed, or `compare` found a `worse`/`unresolved` row;
//! 2: refused to run (usage, tmpfs scratch, more clients than cores).

mod clients;
mod compare;
mod env;
mod hist;
mod intset;
mod kv;
mod ladder;
mod report;
mod span;
mod spec;
mod store;

use spec::{RunCfg, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use stm_perf::json::{self, Json};

const USAGE: &str = "usage: stm-benchmark [--workload W] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--out FILE] [--self-check]\n       \
                     stm-benchmark compare A.json B.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
    self_check: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        traced: false,
        out: None,
        self_check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = parse_u64(v).ok_or_else(|| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = parse_u64(v)
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..=60, got {v}"))?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--self-check" => parsed.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn mode_tag(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_line() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Where a single workload's full result goes (the set run collects it).
fn workload_file(workload: Workload, traced: bool) -> PathBuf {
    env::output_dir().join(format!("{}-{}.json", workload.name(), mode_tag(traced)))
}

/// Run one workload in this process.
fn run_workload(cfg: &RunCfg) -> Result<ExitCode, String> {
    env::check_clients(spec::CLIENTS, env::nproc())?;
    let mut outcome = if cfg.workload.is_kv() {
        kv::run(cfg)?
    } else {
        intset::run(cfg)
    };
    if cfg.traced {
        outcome.zero_fill_per_layer();
    }
    outcome.print_lines();
    let stamp = env::stamp(cfg.seed, cfg.seconds as u64, cfg.traced);
    let set = report::set_json(
        &stamp,
        BTreeMap::from([(cfg.workload.name().to_string(), outcome.to_json())]),
    );
    write_json(&workload_file(cfg.workload, cfg.traced), &set)?;
    println!("{}", outcome.driver_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Run every workload, each in a process of its own, and write the set
/// to `out`. Returns whether every workload verified.
fn run_set(args: &Args, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut workloads = BTreeMap::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        match status.code() {
            Some(0) => {}
            Some(1) => all_correct = false,
            other => return Err(format!("{} exited with {other:?}", workload.name())),
        }
        let result = read_json(&workload_file(workload, args.traced))?;
        let entry = result
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .ok_or_else(|| format!("{} wrote no result", workload.name()))?;
        workloads.insert(workload.name().to_string(), entry.clone());
    }
    let stamp = env::stamp(args.seed, args.seconds, args.traced);
    write_json(out, &report::set_json(&stamp, workloads))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}

fn run_compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let flagged = compare::compare(&read_json(a)?, &read_json(b)?)?;
    println!("{flagged} row(s) worse or unresolved");
    Ok(if flagged == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv else {
            return Err(format!("compare takes two files\n{USAGE}"));
        };
        return run_compare(Path::new(a), Path::new(b));
    }
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some(workload) = args.workload {
        if args.self_check {
            return Err("--self-check runs every workload; drop --workload".to_string());
        }
        return run_workload(&RunCfg {
            workload,
            seed: args.seed,
            seconds: args.seconds as f64,
            traced: args.traced,
        });
    }
    let set_file = |tag: &str| env::output_dir().join(format!("set-seed{}-{tag}.json", args.seed));
    if args.self_check {
        // Twice the same binary, then the bounds: the benchmark's own
        // noise must fit inside them.
        let (a, b) = (set_file("self-check-a"), set_file("self-check-b"));
        let correct = run_set(&args, &a)? & run_set(&args, &b)?;
        let code = run_compare(&a, &b)?;
        return Ok(if correct { code } else { ExitCode::from(1) });
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| set_file(mode_tag(args.traced)));
    Ok(if run_set(&args, &out)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("stm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::Better;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "kv-hot",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::KvHot));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 15, true));
        let a = args(&["--seed", "0x10", "--traced"]).unwrap();
        assert_eq!((a.workload, a.seed, a.traced), (None, 16, true));
        assert_eq!(args(&[]).unwrap().seed, spec::DEFAULT_SEED);
        assert!(args(&["--workload", "kv-cold"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    /// `BENCHMARK.json` and `spec.rs` say the same thing.
    #[test]
    fn benchmark_json_names_what_spec_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file = read_json(&path).unwrap();
        let list = |key: &str| match file.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let better = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), spec::END_TO_END.len());
        for (entry, gate) in end_to_end.iter().zip(spec::END_TO_END) {
            assert_eq!(text(entry, "name"), gate.name);
            assert_eq!(text(entry, "unit"), gate.unit);
            assert_eq!(text(entry, "better"), better(gate.better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(gate.bound));
            assert!(gate.bound <= 0.25);
        }
        assert!(spec::END_TO_END
            .iter()
            .any(|g| g.name == "setup_s" && g.unit == "s"));

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), spec::PER_LAYER.len());
        for (entry, (name, unit, direction)) in per_layer.iter().zip(spec::PER_LAYER) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit);
            assert_eq!(text(entry, "better"), better(direction));
        }

        assert_eq!(
            file.get("run_seconds").and_then(Json::as_u64),
            Some(spec::DEFAULT_SECONDS)
        );
        let strings = |key: &str| -> Vec<String> {
            list(key)
                .iter()
                .map(|j| j.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings("paths"), ["benchmark"]);
        assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
    }

    /// One second of every workload, untraced and traced: the outputs
    /// verify, and every metric the mode owes is there exactly once
    /// (`Outcome::put` panics on a second emission or an undeclared
    /// name, `driver_line` on a missing one). One test, so the runs do
    /// not share the two cores with each other.
    #[test]
    fn every_workload_emits_every_named_metric_once() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let cfg = RunCfg {
                    workload,
                    seed: 42,
                    seconds: 1.0,
                    traced,
                };
                let mut outcome = if workload.is_kv() {
                    kv::run(&cfg).unwrap()
                } else {
                    intset::run(&cfg)
                };
                if traced {
                    outcome.zero_fill_per_layer();
                }
                assert!(
                    outcome.correct(),
                    "{} traced={traced}: {:?}",
                    workload.name(),
                    outcome.violations
                );
                assert!(outcome.attempted > 0 && outcome.failed == 0);
                let line = json::parse(&outcome.driver_line()).unwrap();
                let Some(Json::Obj(metrics)) = line.get("metrics") else {
                    panic!("no metrics object");
                };
                let owed = if traced {
                    spec::PER_LAYER.len()
                } else {
                    spec::END_TO_END.len()
                };
                assert_eq!(metrics.len(), owed);
                if !traced {
                    for gate in spec::END_TO_END.iter().chain(spec::GATED_EXTRA.iter()) {
                        assert_eq!(
                            outcome.get(gate.name).is_some(),
                            gate.applies_to(workload),
                            "{} on {}",
                            gate.name,
                            workload.name()
                        );
                    }
                    for gate in spec::END_TO_END {
                        assert!(outcome.value(gate.name) > 0.0, "{} is 0", gate.name);
                    }
                }
            }
        }
    }
}
