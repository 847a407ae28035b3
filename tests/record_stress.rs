//! Record + check real multi-threaded runs on all three backends (the
//! `ordering_stress` companion for the stm-check oracle): any torn
//! read, lost write, or stale commit the relaxed-memory protocol let
//! slip would surface as a checker violation with a cycle witness.
//!
//! The quick variant runs everywhere (tier-1); the stress variant is
//! meaningful only in release builds (debug interleavings barely
//! contend) and is `#[ignore]`d otherwise, mirroring
//! `crates/core/tests/ordering_stress.rs`.
#![cfg(feature = "record")]

use stm_check::check_history;
use stm_harness::record::{run_recorded, RecWorkload, RecordOpts};
use stm_harness::Backend;
use tinystm::CmPolicy;

fn record_and_check(opts: &RecordOpts) {
    let out = run_recorded(opts);
    assert_eq!(
        out.measurement.worker_panics,
        0,
        "{}/{}: worker panicked",
        opts.backend.label(),
        opts.workload.label()
    );
    let history = out
        .history
        .as_ref()
        .expect("recording on")
        .as_ref()
        .expect("recording sound");
    let report = check_history(history, &out.check_opts);
    assert!(
        report.is_clean(),
        "{}/{} recorded a non-opaque history:\n{report}",
        opts.backend.label(),
        opts.workload.label()
    );
}

#[test]
fn record_and_check_quick_all_backends() {
    for backend in Backend::ALL {
        for workload in [RecWorkload::IntsetRbtree, RecWorkload::IntsetList] {
            record_and_check(&RecordOpts {
                backend,
                workload,
                threads: 2,
                duration_ms: 20,
                size: 32,
                update_pct: 50,
                ..RecordOpts::default()
            });
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stress variant needs release-build contention; run with --release"
)]
fn record_and_check_stress_across_reconfigures() {
    // The tentpole under release contention: reconfigurations land
    // mid-window on every backend and the per-epoch checker must still
    // find the histories opaque.
    for backend in Backend::ALL {
        record_and_check(&RecordOpts {
            backend,
            workload: RecWorkload::IntsetList,
            threads: 4,
            duration_ms: 120,
            size: 32,
            update_pct: 80,
            reconfigures: 4,
            ..RecordOpts::default()
        });
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "stress variant needs release-build contention; run with --release"
)]
fn record_and_check_stress_all_backends() {
    // Small structures + high update rates maximize real conflicts;
    // CM_DELAY rides along so the new policy sees release-mode load.
    for backend in Backend::ALL {
        for (workload, size, update_pct) in [
            (RecWorkload::IntsetRbtree, 64, 80),
            (RecWorkload::IntsetList, 32, 80),
            (RecWorkload::Overwrite, 64, 30),
            (RecWorkload::Vacation, 64, 0),
        ] {
            record_and_check(&RecordOpts {
                backend,
                workload,
                threads: 4,
                duration_ms: 120,
                size,
                update_pct,
                cm: CmPolicy::Delay,
                ..RecordOpts::default()
            });
        }
    }
}
