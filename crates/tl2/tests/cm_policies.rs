//! One smoke test per contention-management policy, run on every
//! backend (TinySTM write-back and write-through, TL2): a contended
//! counter must reach the right total with exactly one commit per
//! increment — the policies differ in *when* they retry, never in
//! *whether* the retry preserves atomicity. Lives in the TL2 crate
//! because it is the one that can see both backends.

use stm_api::mem::WordBlock;
use stm_api::{TmHandle, TmTx, TxKind};
use stm_tl2::{Tl2, Tl2Config};
use tinystm::{AccessStrategy, CmPolicy, Stm, StmConfig};

const THREADS: usize = 4;
const INCREMENTS: usize = 250;

fn increment<T: TmHandle>(tm: &T, addr: *mut usize) {
    tm.run(TxKind::ReadWrite, |tx| {
        // SAFETY: the counter block outlives every caller and is only
        // accessed transactionally while they run.
        let v = unsafe { tx.load_word(addr) }?;
        unsafe { tx.store_word(addr, v + 1) }
    });
}

fn hammer_counter<T: TmHandle>(tm: T) {
    let cell = WordBlock::new(1);
    // Raw pointers are !Send; ferry the address as usize.
    let addr_bits = cell.as_ptr() as usize;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let tm = &tm;
            scope.spawn(move || {
                for _ in 0..INCREMENTS {
                    increment(tm, addr_bits as *mut usize);
                }
            });
        }
    });
    let name = tm.backend_name();
    assert_eq!(cell.read(0), THREADS * INCREMENTS, "{name} lost increments");
    assert_eq!(
        tm.stats_snapshot().commits,
        (THREADS * INCREMENTS) as u64,
        "{name} miscounted commits"
    );
}

fn tiny(strategy: AccessStrategy, cm: CmPolicy) -> Stm {
    Stm::new(StmConfig::default().with_strategy(strategy).with_cm(cm)).expect("valid config")
}

fn tl2(cm: CmPolicy) -> Tl2 {
    Tl2::new(Tl2Config::default().with_cm(cm)).expect("valid config")
}

fn hammer_every_backend(cm: CmPolicy) {
    hammer_counter(tiny(AccessStrategy::WriteBack, cm));
    hammer_counter(tiny(AccessStrategy::WriteThrough, cm));
    hammer_counter(tl2(cm));
}

#[test]
fn immediate_policy_is_correct_under_contention() {
    hammer_every_backend(CmPolicy::Immediate);
}

#[test]
fn suicide_policy_is_correct_under_contention() {
    hammer_every_backend(CmPolicy::Suicide);
}

#[test]
fn delay_policy_is_correct_under_contention() {
    hammer_every_backend(CmPolicy::Delay);
}

#[test]
fn backoff_policy_is_correct_under_contention() {
    hammer_every_backend(CmPolicy::Backoff {
        base: 16,
        max_spins: 1 << 12,
    });
}

fn count_from_seven<T: TmHandle>(tm: T) {
    let cell = WordBlock::new(1);
    cell.write(0, 7);
    for _ in 0..10 {
        increment(&tm, cell.as_ptr());
    }
    assert_eq!(cell.read(0), 17, "{}", tm.backend_name());
}

#[test]
fn delay_policy_progresses_single_threaded() {
    // Degenerate case: nothing to wait for — Delay must not spin on a
    // stale or absent lock index.
    count_from_seven(tiny(AccessStrategy::WriteBack, CmPolicy::Delay));
    count_from_seven(tiny(AccessStrategy::WriteThrough, CmPolicy::Delay));
    count_from_seven(tl2(CmPolicy::Delay));
}
