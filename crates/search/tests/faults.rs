//! Fault-injection tests for the tuner (feature `faults`): a search
//! over candidates that panic, wedge, or corrupt their output must
//! quarantine them — with reasons in the report — and still return a
//! valid tuned plan from the surviving candidates.

#![cfg(feature = "faults")]

use spiral_codegen::Executor;
use spiral_search::{candidate_vec_widths, CostModel, Tuner};
use spiral_smp::barrier::BarrierKind;
use spiral_smp::faults::{install, Fault, FaultPlan, FaultSpec};
use spiral_spl::cplx::{assert_slices_close, Cplx};
use std::time::Duration;

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|k| Cplx::new(k as f64, 0.1 * k as f64))
        .collect()
}

/// Any-stage/any-thread spec restricted to one run index.
fn on_run(run: usize, fault: Fault) -> FaultSpec {
    FaultSpec {
        stage: None,
        thread: None,
        run: Some(run),
        probability: 1.0,
        fault,
    }
}

/// The tuner's host-measurement search over n=256, p=2, µ=4 has three
/// split candidates (m ∈ {8, 16, 32}), each measured once per offered
/// lane width (scalar first, then every vec(ν) the host supports). Each
/// candidate's warm-up is one executor run, so run-indexed faults target
/// individual candidates: the first (m=8, scalar) panics, the second
/// (m=8 + vec(2), or m=16 on a scalar-only host) produces NaN output.
/// Both must be quarantined with reasons, and the rest must still tune
/// to a correct plan.
#[test]
fn tuner_quarantines_faulting_candidates_and_still_tunes() {
    let (n, p, mu) = (256usize, 2usize, 4usize);
    let model = CostModel::Host {
        reps: 1,
        executor: Executor::with_barrier(p, BarrierKind::Park, Duration::from_millis(300)),
    };
    let tuner = Tuner::new(p, mu, model);
    let _g = install(FaultPlan {
        seed: 11,
        specs: vec![
            // Candidate 0 panics during its warm-up run.
            on_run(0, Fault::Panic),
            // Candidate 1 silently corrupts its output.
            on_run(1, Fault::CorruptNan),
        ],
    });
    let outcome = tuner.tune_parallel_report(n).unwrap();
    let widths = candidate_vec_widths();
    let splits = [8usize, 16, 32];
    assert_eq!(
        outcome.report.evaluated,
        splits.len() * widths.len(),
        "expected every split at every offered width {widths:?}"
    );
    assert_eq!(
        outcome.report.quarantined.len(),
        2,
        "report: {:?}",
        outcome.report.quarantined
    );
    let second = match widths.get(1) {
        Some(nu) => format!("multicore split 8x32 + vec({nu})"),
        None => "multicore split 16x16".to_string(),
    };
    assert_eq!(outcome.report.quarantined[0].choice, "multicore split 8x32");
    assert_eq!(outcome.report.quarantined[1].choice, second);
    assert!(
        outcome.report.quarantined[0].reason.contains("panicked"),
        "first quarantine reason: {}",
        outcome.report.quarantined[0].reason
    );
    assert!(
        outcome.report.quarantined[1].reason.contains("non-finite"),
        "second quarantine reason: {}",
        outcome.report.quarantined[1].reason
    );
    let best = outcome.best.expect("one healthy candidate must survive");
    assert!(best.cost.is_finite());
    // The winner is a real, correct DFT plan.
    let x = ramp(n);
    assert_slices_close(
        &best.plan.execute(&x),
        &spiral_spl::builder::dft(n).eval(&x),
        1e-6,
    );
}

/// A candidate whose measurement wedges (stage delay past the executor
/// watchdog) is quarantined on a timeout, in bounded time, and the
/// search still completes.
#[test]
fn tuner_quarantines_wedged_candidate_on_watchdog() {
    let (n, p, mu) = (256usize, 2usize, 4usize);
    let model = CostModel::Host {
        reps: 1,
        executor: Executor::with_barrier(p, BarrierKind::Park, Duration::from_millis(100)),
    };
    let tuner = Tuner::new(p, mu, model);
    let _g = install(FaultPlan {
        seed: 13,
        specs: vec![FaultSpec {
            stage: Some(0),
            thread: Some(1),
            run: Some(0),
            probability: 1.0,
            fault: Fault::Delay(Duration::from_millis(500)),
        }],
    });
    let t0 = std::time::Instant::now();
    let outcome = tuner.tune_parallel_report(n).unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "search did not complete in bounded time"
    );
    assert_eq!(outcome.report.quarantined.len(), 1);
    assert!(
        outcome.report.quarantined[0].reason.contains("barrier")
            || outcome.report.quarantined[0].reason.contains("watchdog"),
        "quarantine reason: {}",
        outcome.report.quarantined[0].reason
    );
    assert!(outcome.best.is_some());
}
