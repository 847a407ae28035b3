//! Mutation self-test: the stm-check oracle is only worth trusting if a
//! deliberately broken protocol makes it report a violation. These
//! tests inject the `fault-inject` mutations (skip a validation) into
//! choreographed two-thread scenarios whose histories are then provably
//! non-serializable / non-opaque, and assert the checker reports the
//! violation **with a concrete cycle witness**.
//!
//! The choreography is deterministic: barriers sequence the conflicting
//! commits so the faulty transaction commits on its first attempt, no
//! retries, no timing dependence.
#![cfg(feature = "record")]

use std::sync::{Arc, Barrier};
use stm_api::{TmTx, TxKind};
use stm_check::{check_history, CheckOpts, History, TraceSink, Violation};
use stm_harness::Backend;
use stm_tl2::{Tl2, Tl2Config};
use tinystm::fault::FaultInjection;
use tinystm::{AccessStrategy, Stm, StmConfig};

/// Two adjacent words: with shift 0 they hash to adjacent, distinct
/// stripes on every backend.
fn two_words() -> (stm_api::mem::WordBlock, usize, usize) {
    let block = stm_api::mem::WordBlock::new(2);
    let x = block.as_ptr() as usize;
    let y = unsafe { block.as_ptr().add(1) } as usize;
    (block, x, y)
}

/// The stale-commit choreography on a generic handle:
///
/// 1. main commits a write to `x`            (version v1)
/// 2. T reads `x` (observes v1), then parks at the barrier
/// 3. main overwrites `x`                    (version v2)
/// 4. T writes `y` and commits at wv > v2 — its read of `x` is stale,
///    which only the (disabled) commit validation would have caught.
fn stale_commit_choreography<H: stm_api::TmHandle>(tm: &H, x: usize, y: usize) {
    tm.run(TxKind::ReadWrite, |tx| unsafe {
        tx.store_word(x as *mut usize, 10)
    });
    let after_read = Arc::new(Barrier::new(2));
    let after_overwrite = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        let t_read = Arc::clone(&after_read);
        let t_over = Arc::clone(&after_overwrite);
        let tm_t = tm.clone();
        scope.spawn(move || {
            let mut synced = false;
            tm_t.run(TxKind::ReadWrite, |tx| {
                let _stale = unsafe { tx.load_word(x as *const usize) }?;
                if !synced {
                    synced = true;
                    t_read.wait();
                    t_over.wait();
                }
                unsafe { tx.store_word(y as *mut usize, 99) }
            });
        });
        after_read.wait();
        tm.run(TxKind::ReadWrite, |tx| unsafe {
            tx.store_word(x as *mut usize, 20)
        });
        after_overwrite.wait();
    });
}

fn assert_cycle_witness(history: &History, opts: &CheckOpts, label: &str) {
    let report = check_history(history, opts);
    assert!(
        !report.is_clean(),
        "{label}: checker missed the injected violation"
    );
    let cycle = report
        .violations
        .iter()
        .find_map(|v| match v {
            Violation::SerializabilityCycle { cycle, .. } => Some(cycle),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{label}: no cycle witness in {report}"));
    assert!(
        cycle.nodes.len() >= 2 && cycle.edges.len() == cycle.nodes.len(),
        "{label}: malformed witness {cycle}"
    );
    // The witness must name the decisive anti-dependency.
    assert!(
        cycle
            .edges
            .iter()
            .any(|e| matches!(e, stm_check::EdgeKind::Rw { .. })),
        "{label}: witness lacks the rw edge: {cycle}"
    );
}

fn run_tiny_mutation(strategy: AccessStrategy, backend: Backend) {
    let stm = Stm::new(StmConfig::default().with_strategy(strategy)).expect("valid");
    let sink = TraceSink::new();
    stm.attach_trace(&sink);
    stm.inject_fault(FaultInjection::SkipCommitValidation);
    let (_block, x, y) = two_words();
    stale_commit_choreography(&stm, x, y);
    stm.inject_fault(FaultInjection::None);
    stm.detach_trace();
    // Safe drain: the choreography's worker scope has joined.
    let history = sink.drain_history().expect("recording sound");
    assert_cycle_witness(&history, &backend.check_opts(), backend.label());
}

#[test]
fn skipped_commit_validation_is_caught_on_write_back() {
    run_tiny_mutation(AccessStrategy::WriteBack, Backend::TinyWb);
}

#[test]
fn skipped_commit_validation_is_caught_on_write_through() {
    run_tiny_mutation(AccessStrategy::WriteThrough, Backend::TinyWt);
}

#[test]
fn skipped_commit_validation_is_caught_on_tl2() {
    let tl2 = Tl2::new(Tl2Config::default()).expect("valid");
    let sink = TraceSink::new();
    tl2.attach_trace(&sink);
    tl2.inject_fault(FaultInjection::SkipCommitValidation);
    let (_block, x, y) = two_words();
    stale_commit_choreography(&tl2, x, y);
    tl2.inject_fault(FaultInjection::None);
    tl2.detach_trace();
    // Safe drain: the choreography's worker scope has joined.
    let history = sink.drain_history().expect("recording sound");
    assert_cycle_witness(&history, &Backend::Tl2.check_opts(), "tl2");
}

/// Opacity mutation: with extension validation skipped, an attempt that
/// later aborts can observe two reads belonging to no single snapshot.
///
/// 1. main commits x (v1) and y (v2)
/// 2. T reads x (observes v1), parks
/// 3. main commits a transaction writing BOTH x and y (v3)
/// 4. T reads y — observes v3, "extends" without validating — and then
///    aborts. Its read set {x@v1, y@v3} is not a snapshot: x was
///    overwritten at v3.
#[test]
fn skipped_extend_validation_is_an_opacity_violation() {
    let stm = Stm::new(StmConfig::default()).expect("valid");
    let sink = TraceSink::new();
    stm.attach_trace(&sink);
    let (_block, x, y) = two_words();
    stm.run(TxKind::ReadWrite, |tx| unsafe {
        tx.store_word(x as *mut usize, 1)
    });
    stm.run(TxKind::ReadWrite, |tx| unsafe {
        tx.store_word(y as *mut usize, 2)
    });
    stm.inject_fault(FaultInjection::SkipExtendValidation);
    let after_read = Arc::new(Barrier::new(2));
    let after_overwrite = Arc::new(Barrier::new(2));
    std::thread::scope(|scope| {
        let t_read = Arc::clone(&after_read);
        let t_over = Arc::clone(&after_overwrite);
        let stm_t = stm.clone();
        scope.spawn(move || {
            let mut choreographed = false;
            stm_t.run(TxKind::ReadWrite, |tx| {
                if choreographed {
                    // Second attempt: succeed quietly so the retry loop
                    // terminates; the violation lives in attempt one.
                    return Ok(());
                }
                choreographed = true;
                let _x = unsafe { tx.load_word(x as *const usize) }?;
                t_read.wait();
                t_over.wait();
                // Observes the post-overwrite version of y; the faulty
                // extension accepts it without validating x.
                let _y = unsafe { tx.load_word(y as *const usize) }?;
                tx.retry()
            });
        });
        after_read.wait();
        stm.run(TxKind::ReadWrite, |tx| unsafe {
            tx.store_word(x as *mut usize, 11)?;
            tx.store_word(y as *mut usize, 22)
        });
        after_overwrite.wait();
    });
    stm.inject_fault(FaultInjection::None);
    stm.detach_trace();
    // Safe drain: the worker scope has joined.
    let history = sink.drain_history().expect("recording sound");
    let report = check_history(&history, &CheckOpts::default());
    let found = report.violations.iter().any(|v| {
        matches!(
            v,
            Violation::InconsistentSnapshot {
                committed: false,
                ..
            }
        )
    });
    assert!(found, "aborted-snapshot violation missed: {report}");
}

/// Control: the same stale-commit choreography WITHOUT fault injection
/// must record a clean history (validation aborts the stale attempt and
/// the retry commits a consistent one).
#[test]
fn unmutated_choreography_records_clean_history() {
    let stm = Stm::new(StmConfig::default()).expect("valid");
    let sink = TraceSink::new();
    stm.attach_trace(&sink);
    let (_block, x, y) = two_words();
    stale_commit_choreography(&stm, x, y);
    stm.detach_trace();
    // Safe drain: the choreography's worker scope has joined.
    let history = sink.drain_history().expect("recording sound");
    let report = check_history(&history, &CheckOpts::default());
    assert!(report.is_clean(), "{report}");
    // The stale attempt really happened: at least one abort recorded.
    let (_, _, aborted, _, _) = history.totals();
    assert!(aborted >= 1, "choreography lost its conflict");
}
