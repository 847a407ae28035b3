//! End-to-end `--record` flow: run a workload with event recording
//! attached, drain the per-thread logs into a history, and verify it
//! with the stm-check oracle.
//!
//! ```text
//! cargo run --example record_check [backend] [threads] [window_ms]
//! # backend: wb | wt | tl2           (default wb)
//! ```
//!
//! The same flow is available as a standalone binary:
//! `cargo run -p stm-harness --features record --bin stm-record -- --check`.

use stm_check::check_history;
use stm_harness::record::{run_recorded, RecWorkload, RecordOpts};
use stm_harness::Backend;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let backend = args
        .first()
        .map(|s| Backend::parse(s).expect("backend: wb | wt | tl2"))
        .unwrap_or(Backend::TinyWb);
    let threads = args
        .get(1)
        .map(|s| s.parse().expect("threads"))
        .unwrap_or(2);
    let window_ms = args
        .get(2)
        .map(|s| s.parse().expect("window_ms"))
        .unwrap_or(40);

    let opts = RecordOpts {
        backend,
        workload: RecWorkload::IntsetRbtree,
        threads,
        duration_ms: window_ms,
        size: 64,
        update_pct: 50,
        ..RecordOpts::default()
    };
    println!(
        "# record_check: {} on {} ({} threads, {} ms window)",
        opts.workload.label(),
        opts.backend.label(),
        opts.threads,
        opts.duration_ms
    );

    let out = run_recorded(&opts);
    println!(
        "measured {:.1} txs/s ({} commits, {} aborts)",
        out.measurement.throughput, out.measurement.commits, out.measurement.aborts
    );
    let history = out
        .history
        .expect("recording was on")
        .expect("recording sound (no roll-over in the window)");
    println!("recorded {}", history.summary());

    // The checker rebuilds the version-order graph from the history and
    // proves it acyclic (serializable) and snapshot-consistent (opaque);
    // any violation would come with a minimal cycle witness naming the
    // transactions and stripes involved.
    let report = check_history(&history, &out.check_opts);
    println!("{report}");
    assert!(report.is_clean(), "recorded history failed the oracle");
}
