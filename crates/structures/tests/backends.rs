//! Differential and concurrency tests of every structure over every real
//! backend (TinySTM write-back / write-through, TL2), the combinations
//! the paper benchmarks.

#[path = "../../core/tests/support/deadline.rs"]
mod deadline;

use deadline::{deadline, join_by};
use std::sync::Arc;
use stm_api::TmHandle;
use stm_structures::{HashSet, LinkedList, RbTree, ResourceKind, SkipList, TxSet, Vacation};
use stm_telemetry::flight;
use stm_tl2::{Tl2, Tl2Config};
use tinystm::{AccessStrategy, CmPolicy, Stm, StmConfig};

fn tinystm(strategy: AccessStrategy, hier_log2: u32) -> Stm {
    Stm::new(
        StmConfig::default()
            .with_locks_log2(12)
            .with_strategy(strategy)
            .with_hier_log2(hier_log2)
            .with_cm(CmPolicy::Backoff {
                base: 8,
                max_spins: 4096,
            }),
    )
    .unwrap()
}

fn tl2() -> Tl2 {
    Tl2::new(
        Tl2Config::default()
            .with_locks_log2(12)
            .with_cm(CmPolicy::Backoff {
                base: 8,
                max_spins: 4096,
            }),
    )
    .unwrap()
}

/// Every structure on `tm`, labelled `structure/name`.
fn sets_on<H: TmHandle>(tm: H, name: &str) -> Vec<(Box<dyn TxSet>, String)> {
    vec![
        (
            Box::new(LinkedList::new(tm.clone())),
            format!("list/{name}"),
        ),
        (Box::new(RbTree::new(tm.clone())), format!("rbtree/{name}")),
        (
            Box::new(SkipList::new(tm.clone(), 42)),
            format!("skiplist/{name}"),
        ),
        (Box::new(HashSet::new(tm, 64)), format!("hashset/{name}")),
    ]
}

/// Run `f` with a set built on each backend/structure combination.
fn for_each_set(f: impl Fn(Box<dyn TxSet>, &str)) {
    let sets = [
        sets_on(tinystm(AccessStrategy::WriteBack, 0), "tinystm-wb"),
        sets_on(tinystm(AccessStrategy::WriteBack, 4), "tinystm-wb-hier"),
        sets_on(tinystm(AccessStrategy::WriteThrough, 0), "tinystm-wt"),
        sets_on(tl2(), "tl2"),
    ];
    for (set, label) in sets.into_iter().flatten() {
        f(set, &label);
    }
}

#[test]
fn sequential_model_check_all_combinations() {
    use std::collections::BTreeSet;
    for_each_set(|set, label| {
        let mut model = BTreeSet::new();
        let mut seed = 0x5EED_0001u64;
        for _ in 0..800 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let k = seed % 100 + 1;
            match seed % 3 {
                0 => assert_eq!(set.add(k), model.insert(k), "{label}: add({k})"),
                1 => assert_eq!(set.remove(k), model.remove(&k), "{label}: remove({k})"),
                _ => assert_eq!(
                    set.contains(k),
                    model.contains(&k),
                    "{label}: contains({k})"
                ),
            }
        }
        assert_eq!(set.snapshot_len(), model.len(), "{label}: final size");
    });
}

#[test]
fn concurrent_churn_preserves_size_invariant() {
    // Each thread works on its own key stripe: adds then removes the
    // same key, so the set must return to its initial content.
    for_each_set(|set, label| {
        let set: Arc<Box<dyn TxSet>> = Arc::new(set);
        // Pre-populate a shared backbone that every traversal crosses.
        for k in (1_000..1_064).step_by(2) {
            assert!(set.add(k), "{label}: prepopulate {k}");
        }
        let base_len = set.snapshot_len();
        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let set = Arc::clone(&set);
                std::thread::spawn(move || {
                    let lo = 10_000 + (t as u64) * 1_000;
                    for round in 0..120u64 {
                        let k = lo + round % 37;
                        if set.add(k) {
                            assert!(set.contains(k));
                            assert!(set.remove(k));
                        }
                    }
                })
            })
            .collect();
        join_by(handles, deadline(), label);
        assert_eq!(set.snapshot_len(), base_len, "{label}: size drifted");
    });
}

#[test]
fn rbtree_invariants_survive_concurrency() {
    for strategy in [AccessStrategy::WriteBack, AccessStrategy::WriteThrough] {
        let stm = tinystm(strategy, 2);
        let tree = Arc::new(RbTree::new(stm));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut seed = 0xA11CE ^ (t << 8) | 1;
                    for _ in 0..600 {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let k = seed % 300 + 1;
                        if seed & 0x1000 == 0 {
                            tree.add(k);
                        } else {
                            tree.remove(k);
                        }
                    }
                })
            })
            .collect();
        join_by(handles, deadline(), &format!("rbtree/{strategy:?}"));
        tree.check_invariants();
    }
}

#[test]
fn rbtree_invariants_survive_concurrency_tl2() {
    let tree = Arc::new(RbTree::new(tl2()));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mut seed = 0xB0B ^ (t << 8) | 1;
                for _ in 0..600 {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    let k = seed % 300 + 1;
                    if seed & 0x1000 == 0 {
                        tree.add(k);
                    } else {
                        tree.remove(k);
                    }
                }
            })
        })
        .collect();
    join_by(handles, deadline(), "rbtree/tl2");
    tree.check_invariants();
}

#[test]
fn list_overwrite_workload_concurrent() {
    for strategy in [AccessStrategy::WriteBack, AccessStrategy::WriteThrough] {
        let stm = tinystm(strategy, 0);
        let list = Arc::new(LinkedList::new(stm.clone()));
        for k in 1..=64u64 {
            list.add(k);
        }
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for round in 0..80u64 {
                        list.overwrite_to(32 + (round % 32), t * 1_000 + round);
                    }
                })
            })
            .collect();
        join_by(handles, deadline(), &format!("overwrite/{strategy:?}"));
        // Structure intact, all keys still present.
        assert_eq!(list.keys(), (1..=64).collect::<Vec<_>>());
        // Prefix values must come from complete overwrites: every node
        // below the lowest target key (32) carries the same writer tag
        // within one committed overwrite — just check they're non-zero.
        for k in 1..32 {
            assert!(list.get_value(k).is_some());
        }
    }
}

#[test]
fn vacation_conservation_concurrent_all_backends() {
    fn run<H: TmHandle>(tm: H, label: &str) {
        let v = Arc::new(Vacation::new(tm, 40, 8, 1234));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    let mut seed = (0xC0FFEE ^ (t << 16)) | 1;
                    let mut rand = move || {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed
                    };
                    for _ in 0..150 {
                        let c = rand() % 8 + 1;
                        match rand() % 10 {
                            0..=6 => {
                                let kind = ResourceKind::from_index(rand() as usize);
                                let ids: Vec<u64> = (0..4).map(|_| rand() % 40 + 1).collect();
                                v.make_reservation(c, kind, &ids);
                            }
                            7..=8 => {
                                v.delete_customer(c);
                            }
                            _ => {
                                let kind = ResourceKind::from_index(rand() as usize);
                                let id = rand() % 40 + 1;
                                v.update_tables(&[(kind, id, Some((rand() % 500) as u32 + 1))]);
                            }
                        }
                    }
                })
            })
            .collect();
        join_by(handles, deadline(), label);
        assert_eq!(
            v.outstanding_by_tables(),
            v.outstanding_by_customers(),
            "{label}: reservation conservation violated"
        );
        for kind in ResourceKind::ALL {
            v.table(kind).check_invariants();
        }
    }
    run(tinystm(AccessStrategy::WriteBack, 0), "tinystm-wb");
    run(tinystm(AccessStrategy::WriteThrough, 2), "tinystm-wt");
    run(tl2(), "tl2");
}

#[test]
fn list_under_reconfiguration() {
    // The tuning loop reconfigures while list transactions run; the
    // structure must stay intact across lock-array swaps.
    let stm = tinystm(AccessStrategy::WriteBack, 0);
    let list = Arc::new(LinkedList::new(stm.clone()));
    for k in 1..=128u64 {
        list.add(k);
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..2u64)
        .map(|t| {
            let list = Arc::clone(&list);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = 200 + (t * 500) + (i % 97);
                    if list.add(k) {
                        list.remove(k);
                    }
                    i += 1;
                }
            })
        })
        .collect();
    for (locks, shifts, hier) in [(8, 1, 2), (14, 3, 4), (10, 0, 0), (12, 2, 6)] {
        stm.reconfigure(
            stm.config()
                .with_locks_log2(locks)
                .with_shifts(shifts)
                .with_hier_log2(hier),
        )
        .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    join_by(workers, deadline(), "list_under_reconfiguration");
    assert_eq!(list.keys(), (1..=128).collect::<Vec<_>>());
}
