//! Everything-at-once stress: data structures under concurrent load
//! while the clock rolls over *and* the tuner reconfigures the lock
//! array — the paper's full runtime behaviour in one pot, on every
//! protocol. A wedged worker fails the test within a deadline, with the
//! flight recorder's last events on stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tinystm_repro::structures::{LinkedList, RbTree, TxSet};
use tinystm_repro::telemetry::flight;
use tinystm_repro::tinystm::runtime::{Protocol, Runtime};
use tinystm_repro::tinystm::{AccessStrategy, CmPolicy, Stm, StmConfig};
use tinystm_repro::tl2::{Tl2, Tl2Config};

#[path = "../crates/core/tests/support/deadline.rs"]
mod deadline;
use deadline::{check_deadline, join_by};

#[test]
fn kitchen_sink_stress() {
    // Tiny max_clock forces frequent roll-overs; reconfigurations are
    // driven concurrently; structures must stay consistent throughout.
    for strategy in [AccessStrategy::WriteBack, AccessStrategy::WriteThrough] {
        let base = StmConfig::default()
            .with_locks_log2(10)
            .with_hier_log2(2)
            .with_strategy(strategy)
            .with_max_clock(4096)
            .with_cm(CmPolicy::Backoff {
                base: 8,
                max_spins: 4096,
            });
        let cycle = [(9u32, 1u32, 3u32), (12, 3, 0), (10, 0, 4), (11, 2, 1)]
            .map(|(l, s, h)| base.with_locks_log2(l).with_shifts(s).with_hier_log2(h));
        kitchen_sink(Stm::new(base).unwrap(), cycle);
    }
    let base = Tl2Config::default()
        .with_locks_log2(10)
        .with_max_clock(4096)
        .with_cm(CmPolicy::Backoff {
            base: 8,
            max_spins: 4096,
        });
    let cycle = [(9u32, 1u32), (12, 3), (10, 0), (11, 2)]
        .map(|(l, s)| base.with_locks_log2(l).with_shifts(s));
    kitchen_sink(Tl2::new(base).unwrap(), cycle);
}

fn kitchen_sink<P: Protocol>(stm: Runtime<P>, cycle: [P::Config; 4]) {
    let what = format!("kitchen_sink_stress on {}", P::backend_name(&stm.config()));
    let deadline = deadline::deadline();
    let tree = Arc::new(RbTree::new(stm.clone()));
    let list = Arc::new(LinkedList::new(stm.clone()));
    for k in 1..=64u64 {
        tree.add(k);
        if k % 2 == 0 {
            list.add(k);
        }
    }
    let tree_base = tree.snapshot_len();
    let list_base = list.snapshot_len();
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    // Structure churners: per-thread keys added then removed.
    for t in 0..3u64 {
        let (tree, list, stop) = (tree.clone(), list.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut seed = (t + 1) * 7919;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = 1000 + t * 10_000 + (seed >> 40) % 500;
                if i.is_multiple_of(2) {
                    if tree.add(k) {
                        assert!(tree.remove(k), "lost key {k} from tree");
                    }
                } else if list.add(k) {
                    assert!(list.remove(k), "lost key {k} from list");
                }
                i += 1;
            }
        }));
    }
    // Reconfigurer: cycles tuning parameters.
    {
        let (stm, stop) = (stm.clone(), stop.clone());
        handles.push(std::thread::spawn(move || {
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                stm.reconfigure(cycle[i % cycle.len()]).unwrap();
                i += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    join_by(handles, deadline, &what);

    // Everything consistent after the dust settles.
    assert_eq!(tree.snapshot_len(), tree_base, "{what}: tree size drifted");
    assert_eq!(list.snapshot_len(), list_base, "{what}: list size drifted");
    tree.check_invariants();
    assert_eq!(
        list.keys(),
        (1..=64).filter(|k| k % 2 == 0).collect::<Vec<_>>()
    );
    let stats = stm.stats();
    // Reconfiguration resets the clock too, so roll-over may never
    // fire during the mixed phase; what must hold is that *some*
    // reset mechanism kept the clock bounded.
    assert!(
        stm.clock_now() < 4096,
        "{what}: clock escaped its bound: {}",
        stm.clock_now()
    );
    assert!(
        stats.reconfigurations >= 4,
        "{what}: reconfigurer barely ran"
    );
    // Dedicated roll-over phase: with the reconfigurer stopped, pure
    // commit traffic must trip the threshold.
    while stm.stats().rollovers == 0 {
        check_deadline(deadline, &what);
        assert!(tree.add(999_999));
        assert!(tree.remove(999_999));
    }
    tree.check_invariants();
    // Abort accounting stays coherent under every event type.
    let by_reason: u64 = stats.totals.aborts_by_reason.iter().sum();
    assert_eq!(by_reason, stats.totals.aborts);
}
