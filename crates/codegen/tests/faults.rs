//! Fault-injection tests for the executor's `p`-thread path (feature
//! `faults`).
//!
//! Exercises the acceptance criteria of the fault-tolerant execution
//! layer: an injected worker panic at *any* (stage, thread) point
//! surfaces as `Err` from `try_run` within the watchdog deadline
//! with no deadlock or poison cascade, the same executor then runs a
//! healthy plan correctly, and injected NaN corruption never escapes as
//! an `Ok` result.

#![cfg(feature = "faults")]

use proptest::prelude::*;
use spiral_codegen::executor::DEFAULT_WATCHDOG;
use spiral_codegen::plan::Plan;
use spiral_codegen::{Executor, SpiralError};
use spiral_rewrite::multicore_dft_expanded;
use spiral_smp::barrier::BarrierKind;
use spiral_smp::faults::{install, Fault, FaultPlan, FaultSpec};
use spiral_spl::builder::dft;
use spiral_spl::cplx::{assert_slices_close, Cplx};
use std::time::{Duration, Instant};

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new(j as f64 * 0.25, 1.0 - j as f64 * 0.125))
        .collect()
}

/// One transform through `Executor::try_run`.
fn run(exec: &Executor, plan: &Plan, x: &[Cplx]) -> Result<Vec<Cplx>, SpiralError> {
    let mut out = vec![Cplx::ZERO; x.len()];
    exec.try_run(plan, &[x], &mut [&mut out[..]], &())?;
    Ok(out)
}

fn build_plan(n: usize, p: usize, mu: usize) -> Plan {
    let f = multicore_dft_expanded(n, p, mu, None, 8).unwrap();
    Plan::from_formula(&f, p, mu).unwrap()
}

/// `diag(6 entries) ∘ (I_2 ⊗∥ DFT_3)` for 2 threads at µ = 4: a `Par`
/// step, then a `ScaleAll` step whose last thread also scales the
/// sub-line tail.
fn scale_tail_plan() -> Plan {
    use spiral_spl::builder::{compose, diag, tensor_par};
    let w = (0..6).map(|k| Cplx::new(1.0 + k as f64, -0.5)).collect();
    Plan::from_formula(&compose(vec![diag(w), tensor_par(2, dft(3))]), 2, 4).unwrap()
}

/// An injected panic at every (stage, thread) point of the grid
/// surfaces as `Err(WorkerPanic)` within the watchdog deadline, and the
/// same executor immediately runs the healthy plan correctly afterward.
#[test]
fn injected_panic_at_any_site_surfaces_within_deadline() {
    let watchdog = Duration::from_millis(200);
    // Generous ceiling: survivors burn one stage deadline, the pool
    // watchdog is 2·stage + 250 ms, plus scheduling noise under load.
    let ceiling = Duration::from_secs(5);
    for (n, p, mu) in [(64usize, 2usize, 4usize), (256, 4, 4)] {
        let plan = build_plan(n, p, mu);
        let exec = Executor::with_barrier(p, BarrierKind::Park, watchdog);
        let x = ramp(n);
        let want = dft(n).eval(&x);
        for stage in 0..plan.steps.len() {
            for thread in 0..p {
                let guard = install(FaultPlan {
                    seed: 1,
                    specs: vec![FaultSpec::always(stage, thread, Fault::Panic)],
                });
                let t0 = Instant::now();
                let err = run(&exec, &plan, &x).unwrap_err();
                let waited = t0.elapsed();
                assert!(
                    matches!(err, SpiralError::WorkerPanic { .. }),
                    "(n={n}, p={p}, stage={stage}, thread={thread}): got {err}"
                );
                assert!(
                    waited < ceiling,
                    "(n={n}, p={p}, stage={stage}, thread={thread}): \
                     took {waited:?}, watchdog {watchdog:?}"
                );
                assert!(err.is_runtime_fault());
                // Keep the session: clear the specs (nothing fires) and
                // prove the executor survived — no deadlock, no poison,
                // correct answer on the very next run.
                drop(guard);
                let _quiet = install(FaultPlan::default());
                assert!(exec.healthy(), "pool unhealthy after isolated panic");
                let got = run(&exec, &plan, &x).unwrap();
                assert_slices_close(&got, &want, 1e-6 * n as f64);
            }
        }
    }
}

/// Spin barriers take a different timeout path (arrival retraction via
/// CAS rather than condvar timeouts); a panic must surface and the
/// barrier must stay coherent across reuse there too.
#[test]
fn spin_barrier_recovers_from_injected_panic() {
    let (n, p, mu) = (64usize, 2usize, 4usize);
    let plan = build_plan(n, p, mu);
    let exec = Executor::with_barrier(p, BarrierKind::Spin, Duration::from_millis(150));
    let x = ramp(n);
    let want = dft(n).eval(&x);
    for stage in [0, plan.steps.len() - 1] {
        let guard = install(FaultPlan {
            seed: 3,
            specs: vec![FaultSpec::always(stage, 1, Fault::Panic)],
        });
        let err = run(&exec, &plan, &x).unwrap_err();
        assert!(matches!(err, SpiralError::WorkerPanic { .. }), "got {err}");
        drop(guard);
        let _quiet = install(FaultPlan::default());
        assert_slices_close(&run(&exec, &plan, &x).unwrap(), &want, 1e-6);
    }
}

/// A stage delay shorter than the watchdog is tolerated: the run
/// completes with a correct result, just late.
#[test]
fn delay_within_watchdog_is_tolerated() {
    let (n, p, mu) = (64usize, 2usize, 4usize);
    let plan = build_plan(n, p, mu);
    let exec = Executor::with_barrier(p, BarrierKind::Park, Duration::from_secs(5));
    let _g = install(FaultPlan {
        seed: 5,
        specs: vec![FaultSpec::always(
            0,
            1,
            Fault::Delay(Duration::from_millis(50)),
        )],
    });
    let x = ramp(n);
    assert_slices_close(&run(&exec, &plan, &x).unwrap(), &dft(n).eval(&x), 1e-6);
}

/// A delay *longer* than the watchdog trips it: the run fails in
/// bounded time with a runtime fault, and the executor stays usable
/// once the straggler drains.
#[test]
fn delay_past_watchdog_trips_it() {
    let (n, p, mu) = (64usize, 2usize, 4usize);
    let plan = build_plan(n, p, mu);
    let exec = Executor::with_barrier(p, BarrierKind::Park, Duration::from_millis(100));
    let guard = install(FaultPlan {
        seed: 7,
        specs: vec![FaultSpec::always(
            0,
            1,
            Fault::Delay(Duration::from_millis(400)),
        )],
    });
    let x = ramp(n);
    let t0 = Instant::now();
    let err = run(&exec, &plan, &x).unwrap_err();
    assert!(err.is_runtime_fault(), "got {err}");
    assert!(t0.elapsed() < Duration::from_secs(5));
    drop(guard);
    let _quiet = install(FaultPlan::default());
    assert_slices_close(&run(&exec, &plan, &x).unwrap(), &dft(n).eval(&x), 1e-6);
}

/// NaN corruption at the final stage lands in the output buffer and
/// must be caught by the executor's finiteness scan.
#[test]
fn corrupted_output_is_caught_as_non_finite() {
    let (n, p, mu) = (64usize, 2usize, 4usize);
    let plan = build_plan(n, p, mu);
    let exec = Executor::with_barrier(p, BarrierKind::Park, DEFAULT_WATCHDOG);
    let _g = install(FaultPlan {
        seed: 9,
        specs: vec![FaultSpec::always(
            plan.steps.len() - 1,
            0,
            Fault::CorruptNan,
        )],
    });
    let err = run(&exec, &plan, &ramp(n)).unwrap_err();
    assert!(
        matches!(err, SpiralError::NonFinite { .. }),
        "expected NonFinite, got {err}"
    );
    assert!(err.is_runtime_fault());
}

/// Every thread writes in both steps of the scale-tail plan (thread 1
/// writes the tail of the scaling), so NaN injected at any (stage,
/// thread) site reaches the output and is rejected.
#[test]
fn injected_nan_on_par_and_scale_steps_is_caught() {
    let plan = scale_tail_plan();
    let exec = Executor::with_barrier(2, BarrierKind::Park, DEFAULT_WATCHDOG);
    for stage in 0..plan.steps.len() {
        for thread in 0..2 {
            let _g = install(FaultPlan {
                seed: 11,
                specs: vec![FaultSpec::always(stage, thread, Fault::CorruptNan)],
            });
            let err = run(&exec, &plan, &ramp(6)).unwrap_err();
            assert!(
                matches!(err, SpiralError::NonFinite { .. }),
                "stage {stage}, thread {thread}: got {err}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NaN injected at an arbitrary (stage, thread) site never escapes
    /// the executor as `Ok`: either the corruption reaches the output
    /// and the scan rejects it, or the site wrote nothing this step and
    /// the result is the correct finite transform.
    #[test]
    fn injected_nan_never_escapes(
        stage_pick in 0usize..16,
        thread in 0usize..2,
        seed in any::<u64>(),
    ) {
        let (n, p, mu) = (64usize, 2usize, 4usize);
        let plan = build_plan(n, p, mu);
        let stage = stage_pick % plan.steps.len();
        let exec = Executor::with_barrier(p, BarrierKind::Park, DEFAULT_WATCHDOG);
        let _g = install(FaultPlan {
            seed,
            specs: vec![FaultSpec::always(stage, thread, Fault::CorruptNan)],
        });
        let x = ramp(n);
        match run(&exec, &plan, &x) {
            Ok(out) => {
                // The guard's contract: Ok implies every element finite.
                for (i, z) in out.iter().enumerate() {
                    prop_assert!(
                        z.re.is_finite() && z.im.is_finite(),
                        "non-finite value escaped at index {i} \
                         (stage {stage}, thread {thread})"
                    );
                }
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, SpiralError::NonFinite { .. }),
                    "unexpected failure kind: {e}"
                );
            }
        }
    }
}
