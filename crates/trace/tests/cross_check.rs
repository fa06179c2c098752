//! Cross-validation of `spiral-verify`'s *static* load-balance verdicts
//! against *measured* profiles from the instrumented executor.
//!
//! The element counters in a `RunProfile` are deterministic properties
//! of the static schedule, so the static/measured comparison is exact on
//! any host; the timing comparison additionally needs real parallelism
//! and is skipped on single-core machines.

use spiral_codegen::plan::Plan;
use spiral_codegen::ParallelExecutor;
use spiral_rewrite::multicore_dft_expanded;
use spiral_smp::topology::processors;
use spiral_spl::cplx::Cplx;
use spiral_trace::{profile_run, RunProfile};
use spiral_verify::{static_stage_balance, verify_plan, DiagKind, VerifyOptions};

/// One run of `plan` observed by a `Collector`.
fn traced(exec: &ParallelExecutor, plan: &Plan, x: &[Cplx]) -> (Vec<Cplx>, RunProfile) {
    profile_run(plan.n, exec.threads(), &plan.stage_labels(), |c| {
        exec.try_execute_with(plan, x, c)
    })
    .unwrap()
}

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new(0.5 + j as f64, -(j as f64) * 0.25))
        .collect()
}

fn balanced_plan(n: usize, p: usize) -> Plan {
    let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
    Plan::from_formula(&f, p, 4).unwrap().fuse_exchanges()
}

#[test]
fn static_balance_agrees_with_measured_elements_on_generated_plans() {
    for (n, p) in [(1024usize, 2usize), (1024, 4), (4096, 2), (4096, 4)] {
        let plan = balanced_plan(n, p);
        // Static verdict: every stage balanced, no LoadImbalance finding.
        let ratios = static_stage_balance(&plan);
        assert_eq!(ratios.len(), plan.steps.len());
        for (si, r) in ratios.iter().enumerate() {
            assert!(
                *r <= 1.05,
                "n={n} p={p}: static stage {si} imbalance {r:.3}"
            );
        }
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(!report.has_kind(DiagKind::LoadImbalance), "n={n} p={p}");
        // Measured counterpart: the executed schedule distributes
        // elements the way the analyzer said it would.
        let exec = ParallelExecutor::with_auto_barrier(p);
        let (_, profile) = traced(&exec, &plan, &ramp(n));
        for s in &profile.stages {
            assert!(
                s.element_imbalance() <= 1.05,
                "n={n} p={p} stage {} ({}): measured element imbalance {:.3} \
                 contradicts the clean static verdict",
                s.index,
                s.label,
                s.element_imbalance()
            );
            // Every thread took part in every stage of a balanced plan.
            assert!(
                s.threads.iter().all(|t| t.jobs > 0),
                "n={n} p={p} stage {} ({}): idle thread in a balanced plan",
                s.index,
                s.label
            );
        }
    }
}

#[test]
fn static_and_measured_agree_on_a_deliberately_imbalanced_plan() {
    // 4 chunk programs scheduled round-robin onto 3 threads: thread 0
    // gets two chunks, threads 1–2 one each — a 1.5× imbalance both
    // analyses must report, and report identically (chunk programs are
    // identical, so flop ratios equal element ratios exactly).
    let n = 1024;
    let mut plan = balanced_plan(n, 4);
    plan.threads = 3;
    let static_ratios = static_stage_balance(&plan);
    let worst_static = static_ratios.iter().cloned().fold(1.0, f64::max);
    assert!(
        worst_static > 1.25,
        "static analysis missed the imbalance: {static_ratios:?}"
    );
    let exec = ParallelExecutor::with_auto_barrier(3);
    let (out, profile) = traced(&exec, &plan, &ramp(n));
    // Execution is still correct — imbalance is a performance defect.
    spiral_spl::cplx::assert_slices_close(&out, &spiral_spl::builder::dft(n).eval(&ramp(n)), 1e-7);
    let worst_measured = profile
        .stages
        .iter()
        .map(|s| s.element_imbalance())
        .fold(1.0, f64::max);
    assert!(
        worst_measured > 1.25,
        "measurement missed the imbalance the analyzer predicted"
    );
    // Exact agreement on the Par stages: 2 chunks vs 4/3 mean = 1.5.
    for (si, s) in profile.stages.iter().enumerate() {
        if s.label.starts_with("par") {
            assert!(
                (s.element_imbalance() - static_ratios[si]).abs() < 1e-12,
                "stage {si} ({}): measured {:.4} vs static {:.4}",
                s.label,
                s.element_imbalance(),
                static_ratios[si]
            );
        }
    }
}

#[test]
fn measured_compute_time_tracks_static_balance_on_multicore_hosts() {
    // The timing half of the cross-check: on a host with real
    // parallelism, a statically balanced plan must also measure as
    // balanced (within scheduler noise, best of 5).
    let cores = processors();
    if cores < 2 {
        eprintln!("skipping timing cross-check: host has {cores} core(s)");
        return;
    }
    let p = 2;
    let n = 1 << 14;
    let plan = balanced_plan(n, p);
    assert!(static_stage_balance(&plan).iter().all(|r| *r <= 1.05));
    let exec = ParallelExecutor::with_auto_barrier(p);
    let x = ramp(n);
    let best = (0..5)
        .map(|_| {
            let (_, pr) = traced(&exec, &plan, &x);
            pr.max_stage_imbalance()
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        best <= 1.25,
        "statically balanced plan measured at {best:.3} per-stage imbalance"
    );
}
