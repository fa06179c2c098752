//! Ablation experiments for the design choices the paper argues for:
//! µ-aware scheduling (no false sharing), consecutive-iteration
//! scheduling (rule (7)), explicit six-step transposes vs. the multicore
//! Cooley–Tukey, and the search strategies.

use crate::series::{sim_pmflops, tune_spiral};
use serde::{Deserialize, Serialize};
use spiral_baselines::{FftwLikeConfig, FftwLikeFft, SixStepFft};
use spiral_search::{dp_search, evolve_search, random_search, CostModel, EvolveOpts};
use spiral_sim::{simulate_plan, MachineSpec, SmpSim};
use spiral_spl::num::pseudo_mflops;

/// One row of the false-sharing ablation (ABL-FS).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FalseSharingRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Spiral (µ-aware, formula (14)).
    pub spiral_false_sharing: u64,
    /// Coherence transfers of the generated plan.
    pub spiral_coherence: u64,
    /// Simulated cycles of the generated plan.
    pub spiral_cycles: f64,
    /// µ-oblivious block-cyclic baseline (grain 1).
    pub naive_false_sharing: u64,
    /// Coherence transfers of the µ-oblivious baseline.
    pub naive_coherence: u64,
    /// Simulated cycles of the µ-oblivious baseline.
    pub naive_cycles: f64,
}

/// Compare false-sharing behaviour: generated multicore CT vs. a
/// µ-oblivious block-cyclic parallel FFT, at `machine.p` threads.
pub fn false_sharing_ablation(
    machine: &MachineSpec,
    min_log2: u32,
    max_log2: u32,
) -> Vec<FalseSharingRow> {
    let mut rows = Vec::new();
    for k in min_log2..=max_log2 {
        let n = 1usize << k;
        let plans = tune_spiral(n, machine);
        let (spiral_fs, spiral_co, spiral_cy) = match plans.parallel.last() {
            Some((_t, plan)) => {
                let rep = simulate_plan(plan, machine, true);
                (
                    rep.stats.false_sharing,
                    rep.stats.coherence_transfers,
                    rep.cycles,
                )
            }
            None => continue,
        };
        // µ-oblivious: thread pooling ON so only the schedule differs.
        let cfg = FftwLikeConfig {
            grain: 1,
            thread_pool: true,
            ..Default::default()
        };
        let f = FftwLikeFft::new(n, cfg);
        let mut sim = SmpSim::new(machine.clone(), n);
        f.trace(machine.p, &mut sim);
        sim.reset_timing();
        f.trace(machine.p, &mut sim);
        rows.push(FalseSharingRow {
            log2n: k,
            spiral_false_sharing: spiral_fs,
            spiral_coherence: spiral_co,
            spiral_cycles: spiral_cy,
            naive_false_sharing: sim.stats.false_sharing,
            naive_coherence: sim.stats.coherence_transfers,
            naive_cycles: sim.cycles(),
        });
    }
    rows
}

/// One row of the exchange-merging ablation (ABL-MERGE).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MergeRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Cycles with explicit exchange passes.
    pub explicit_cycles: f64,
    /// Barrier count with explicit exchanges.
    pub explicit_barriers: usize,
    /// Cycles with exchanges merged into compute.
    pub fused_cycles: f64,
    /// Barrier count after merging.
    pub fused_barriers: usize,
}

/// Explicit `P ⊗̄ I_µ` exchange passes vs. exchanges merged into the
/// adjacent compute loops (`Plan::fuse_exchanges`) — quantifies the
/// loop-merging design point of §3.1.
pub fn merge_ablation(machine: &MachineSpec, min_log2: u32, max_log2: u32) -> Vec<MergeRow> {
    use spiral_codegen::plan::Plan;
    use spiral_rewrite::multicore_dft_expanded;
    let mut rows = Vec::new();
    for k in min_log2..=max_log2 {
        let n = 1usize << k;
        let f = match multicore_dft_expanded(n, machine.p, machine.mu(), None, 8) {
            Ok(f) => f,
            Err(_) => continue,
        };
        let explicit = Plan::from_formula(&f, machine.p, machine.mu()).unwrap();
        let fused = explicit.clone().fuse_exchanges();
        let re = simulate_plan(&explicit, machine, true);
        let rf = simulate_plan(&fused, machine, true);
        rows.push(MergeRow {
            log2n: k,
            explicit_cycles: re.cycles,
            explicit_barriers: explicit.barriers(),
            fused_cycles: rf.cycles,
            fused_barriers: fused.barriers(),
        });
    }
    rows
}

/// One row of the scheduling-grain ablation (ABL-SCHED).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScheduleRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Scheduling grain in iterations.
    pub grain: usize,
    /// False-sharing line transfers.
    pub false_sharing: u64,
    /// Simulated cycles.
    pub cycles: f64,
    /// Pseudo-Mflop/s.
    pub pmflops: f64,
}

/// Sweep the block-cyclic grain of the µ-oblivious baseline: grain 1
/// (worst false sharing) → µ-sized → large consecutive chunks (what rule
/// (7) produces).
pub fn schedule_ablation(machine: &MachineSpec, log2n: u32, grains: &[usize]) -> Vec<ScheduleRow> {
    let n = 1usize << log2n;
    let mut rows = Vec::new();
    for &grain in grains {
        let cfg = FftwLikeConfig {
            grain,
            thread_pool: true,
            ..Default::default()
        };
        let f = FftwLikeFft::new(n, cfg);
        let mut sim = SmpSim::new(machine.clone(), n);
        f.trace(machine.p, &mut sim);
        sim.reset_timing();
        f.trace(machine.p, &mut sim);
        rows.push(ScheduleRow {
            log2n,
            grain,
            false_sharing: sim.stats.false_sharing,
            cycles: sim.cycles(),
            pmflops: pseudo_mflops(n, machine.cycles_to_us(sim.cycles())),
        });
    }
    rows
}

/// One row of the six-step ablation (ABL-SIXSTEP).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SixStepRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Pseudo-Mflop/s of the multicore Cooley–Tukey (14).
    pub multicore_ct_pmflops: f64,
    /// Pseudo-Mflop/s of the plain six-step.
    pub sixstep_pmflops: f64,
    /// Pseudo-Mflop/s of the blocked-transpose six-step.
    pub sixstep_blocked_pmflops: f64,
}

/// Multicore Cooley–Tukey (14) vs. six-step with explicit transposes
/// (plain and blocked), all at `machine.p` threads, simulated.
pub fn sixstep_ablation(machine: &MachineSpec, min_log2: u32, max_log2: u32) -> Vec<SixStepRow> {
    let mut rows = Vec::new();
    for k in min_log2..=max_log2 {
        let n = 1usize << k;
        let plans = tune_spiral(n, machine);
        let mc = match plans.parallel.last() {
            Some((_t, plan)) => sim_pmflops(plan, machine),
            None => continue,
        };
        let trace_six = |block: Option<usize>| {
            let f = SixStepFft::for_size(n, block);
            let mut sim = SmpSim::new(machine.clone(), n);
            f.trace(machine.p, &mut sim);
            sim.reset_timing();
            f.trace(machine.p, &mut sim);
            pseudo_mflops(n, machine.cycles_to_us(sim.cycles()))
        };
        rows.push(SixStepRow {
            log2n: k,
            multicore_ct_pmflops: mc,
            sixstep_pmflops: trace_six(None),
            sixstep_blocked_pmflops: trace_six(Some(machine.mu() * 4)),
        });
    }
    rows
}

/// One row of the static-verification ablation (ABL-VERIFY).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VerifyRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Analyzer findings on the tuned µ-aware multicore-CT plan.
    pub spiral_diagnostics: usize,
    /// Static false-sharing verdict for the tuned plan.
    pub spiral_static_false_sharing: bool,
    /// Dynamic false-sharing transfers of the tuned plan (simulator).
    pub spiral_sim_false_sharing: u64,
    /// Analyzer findings on the µ-oblivious FFTW-like schedule (grain 1).
    pub naive_diagnostics: usize,
    /// Static false-sharing verdict for the µ-oblivious schedule.
    pub naive_static_false_sharing: bool,
    /// Dynamic false-sharing transfers of the µ-oblivious baseline.
    pub naive_sim_false_sharing: u64,
    /// Static verdicts match the simulator on both schedules.
    pub verdicts_agree: bool,
}

/// Static analyzer vs. dynamic simulator: the tuned µ-aware plan must
/// verify clean, the µ-oblivious block-cyclic baseline must be rejected
/// statically, and both verdicts must agree with the simulator's
/// false-sharing counter — Definition 1 decided without running anything.
pub fn verification_ablation(
    machine: &MachineSpec,
    min_log2: u32,
    max_log2: u32,
) -> Vec<VerifyRow> {
    use spiral_verify::baseline::FftwLikeSchedule;
    use spiral_verify::{verify_fftw_like, verify_plan, DiagKind, VerifyOptions};
    let opts = VerifyOptions::default();
    let mut rows = Vec::new();
    for k in min_log2..=max_log2 {
        let n = 1usize << k;
        let plans = tune_spiral(n, machine);
        let Some((_t, plan)) = plans.parallel.last() else {
            continue;
        };
        let report = verify_plan(plan, &opts);
        let spiral_sim = simulate_plan(plan, machine, false).stats.false_sharing;

        let sched = FftwLikeSchedule {
            n,
            threads: machine.p,
            grain: 1,
        };
        let naive_report = verify_fftw_like(&sched, machine.mu(), &opts);
        let cfg = FftwLikeConfig {
            grain: 1,
            thread_pool: true,
            ..Default::default()
        };
        let f = FftwLikeFft::new(n, cfg);
        let mut sim = SmpSim::new(machine.clone(), n);
        f.trace(machine.p, &mut sim);
        let naive_sim = sim.stats.false_sharing;

        let spiral_fs = report.has_kind(DiagKind::FalseSharing);
        let naive_fs = naive_report.has_kind(DiagKind::FalseSharing);
        rows.push(VerifyRow {
            log2n: k,
            spiral_diagnostics: report.diagnostics.len(),
            spiral_static_false_sharing: spiral_fs,
            spiral_sim_false_sharing: spiral_sim,
            naive_diagnostics: naive_report.diagnostics.len(),
            naive_static_false_sharing: naive_fs,
            naive_sim_false_sharing: naive_sim,
            verdicts_agree: spiral_fs == (spiral_sim > 0) && naive_fs == (naive_sim > 0),
        });
    }
    rows
}

/// A tuned parallel plan on the host paired with its input vector —
/// the setup every host-side overhead ablation repeats.
struct HostCase {
    log2n: u32,
    plan: spiral_codegen::plan::Plan,
    x: Vec<spiral_spl::cplx::Cplx>,
}

/// Tune one parallel plan per size in `min_log2..=max_log2` for
/// `threads` workers (analytic cost model) and build the standard
/// deterministic input. Sizes with no tunable parallel plan are
/// skipped, matching each ablation's `continue` behaviour.
fn tuned_host_cases(threads: usize, min_log2: u32, max_log2: u32) -> Vec<HostCase> {
    use spiral_search::Tuner;
    use spiral_spl::cplx::Cplx;
    let mu = spiral_smp::topology::mu();
    let mut cases = Vec::new();
    for k in min_log2..=max_log2 {
        let n = 1usize << k;
        let Ok(Some(tuned)) = Tuner::new(threads, mu, CostModel::Analytic).tune_parallel(n) else {
            continue;
        };
        let x: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new(i as f64, -0.5 * i as f64))
            .collect();
        cases.push(HostCase {
            log2n: k,
            plan: tuned.plan,
            x,
        });
    }
    cases
}

/// Minimum wall-clock µs of `f` over `reps + 1` invocations; the extra
/// first call doubles as warm-up, and min-of-reps suppresses scheduler
/// noise the same way the paper's timing loops do.
fn min_time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    use std::time::Instant;
    let mut best = f64::INFINITY;
    for _ in 0..=reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// One row of the fault-tolerance overhead ablation (ABL-FAULT).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultOverheadRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Wall-clock µs per transform through the fault-tolerant parallel
    /// path (`try_execute`: panic isolation, deadline-bounded barriers,
    /// output finiteness scan) — min over reps.
    pub exec_us: f64,
    /// µs of the output finiteness scan alone (min over reps).
    pub scan_us: f64,
    /// Scan cost as a percentage of the transform time.
    pub scan_pct: f64,
    /// µs of one deadline-bounded barrier round-trip at `threads`.
    pub barrier_wait_us: f64,
    /// Trace-attributed per-transform compute µs (sum over threads and
    /// stages, from runs observed by a `Collector`).
    pub compute_us: f64,
    /// Trace-attributed per-transform barrier-wait µs (sum over threads
    /// and stages).
    pub barrier_us: f64,
    /// Barrier-wait share of thread busy time, in percent
    /// (`RunProfile::barrier_share`).
    pub barrier_share_pct: f64,
}

/// Measure what the fault-tolerant execution layer costs on the happy
/// path: per-transform time through `try_execute` (all guards active),
/// the output finiteness scan in isolation, and the deadline-bounded
/// barrier round-trip. The paper's design point — "low-latency minimal
/// overhead synchronization" (§3.2) — must survive the watchdogs.
pub fn fault_overhead_ablation(
    threads: usize,
    min_log2: u32,
    max_log2: u32,
    reps: usize,
) -> Vec<FaultOverheadRow> {
    use spiral_codegen::ParallelExecutor;
    use spiral_smp::barrier::BarrierKind;
    use spiral_smp::pool::Pool;
    use spiral_spl::cplx::first_non_finite;
    use std::time::Instant;

    let reps = reps.max(1);
    let exec = ParallelExecutor::new(threads, BarrierKind::Park);

    // Deadline-bounded barrier round-trip, amortized over many waits.
    let barrier_wait_us = {
        let pool = Pool::new(threads);
        let barrier = BarrierKind::Park.build(threads);
        let barrier = &*barrier;
        let iters = 2000u32;
        let t0 = Instant::now();
        pool.run(&|_tid| {
            for _ in 0..iters {
                let _ = barrier.wait_deadline(std::time::Duration::from_secs(10));
            }
        });
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
    };

    let mut rows = Vec::new();
    for case in tuned_host_cases(threads, min_log2, max_log2) {
        let mut out = Vec::new();
        let exec_us = min_time_us(reps, || {
            out = exec
                .try_execute(&case.plan, &case.x)
                .expect("healthy plan must execute");
        });
        let scan_us = min_time_us(reps, || {
            std::hint::black_box(first_non_finite(&out));
        });
        // Trace-based attribution: split the run into measured compute
        // and measured barrier wait instead of inferring barrier cost
        // from a standalone round-trip microbenchmark.
        let merged = (0..reps)
            .filter_map(|_| profiled(&exec, &case).ok().map(|(_, p)| p))
            .reduce(|m, p| m.try_merge(&p).unwrap_or(p));
        let (compute_us, barrier_us, barrier_share_pct) = merged.map_or((0.0, 0.0, 0.0), |p| {
            let runs = p.runs.max(1) as f64;
            (
                p.total_compute_ns() as f64 / 1e3 / runs,
                p.total_barrier_wait_ns() as f64 / 1e3 / runs,
                100.0 * p.barrier_share(),
            )
        });
        rows.push(FaultOverheadRow {
            log2n: case.log2n,
            exec_us,
            scan_us,
            scan_pct: 100.0 * scan_us / exec_us,
            barrier_wait_us,
            compute_us,
            barrier_us,
            barrier_share_pct,
        });
    }
    rows
}

/// One row of the tracing-overhead ablation (ABL-TRACE).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceOverheadRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Wall-clock µs per transform through the plain fallible path
    /// (`try_execute`, the no-op observer `&()`) — min over reps.
    pub plain_us: f64,
    /// Wall-clock µs per transform observed by a fresh `Collector` and
    /// reduced into a `RunProfile` — min over reps.
    pub traced_us: f64,
    /// `100 · (traced - plain) / plain`.
    pub overhead_pct: f64,
}

/// One run of `case` observed by a fresh `Collector`, with its profile.
fn profiled(
    exec: &spiral_codegen::ParallelExecutor,
    case: &HostCase,
) -> Result<(Vec<spiral_spl::cplx::Cplx>, spiral_trace::RunProfile), spiral_smp::SpiralError> {
    let plan = &case.plan;
    spiral_trace::profile_run(plan.n, exec.threads(), &plan.stage_labels(), |c| {
        exec.try_execute_with(plan, &case.x, c)
    })
}

/// Measure what the observability layer costs when it is ON: tuned plan,
/// the no-op observer (`try_execute`) vs a `Collector` reduced into a
/// `RunProfile` per run, min-of-reps. Both arms run in the same binary.
pub fn trace_overhead_ablation(
    threads: usize,
    min_log2: u32,
    max_log2: u32,
    reps: usize,
) -> Vec<TraceOverheadRow> {
    use spiral_codegen::ParallelExecutor;
    use spiral_smp::barrier::BarrierKind;

    let reps = reps.max(1);
    let exec = ParallelExecutor::new(threads, BarrierKind::Park);
    let mut rows = Vec::new();
    for case in tuned_host_cases(threads, min_log2, max_log2) {
        let plain_us = min_time_us(reps, || {
            std::hint::black_box(
                exec.try_execute(&case.plan, &case.x)
                    .expect("healthy plan must execute"),
            );
        });
        let traced_us = min_time_us(reps, || {
            std::hint::black_box(profiled(&exec, &case).expect("healthy plan must execute"));
        });
        rows.push(TraceOverheadRow {
            log2n: case.log2n,
            plain_us,
            traced_us,
            overhead_pct: 100.0 * (traced_us - plain_us) / plain_us,
        });
    }
    rows
}

/// One row of the timeline-overhead ablation (ABL-TIMELINE).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimelineOverheadRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Wall-clock µs per transform through the plain fallible path
    /// (`try_execute`, the no-op observer `&()`) — min over reps.
    pub plain_us: f64,
    /// Wall-clock µs per transform with full event-timeline recording
    /// (`try_execute_with` into a `spiral_trace::Timeline`).
    pub observed_us: f64,
    /// `100 · (observed - plain) / plain`.
    pub overhead_pct: f64,
}

/// Measure what event-timeline recording costs when it is ON: tuned
/// plan, the no-op observer (`try_execute`) vs `try_execute_with`
/// streaming every pool-job/compute/barrier span into a lock-free
/// `Timeline` ring, min-of-reps. The per-event cost is a clock read and
/// three relaxed atomic stores, so the overhead should stay within the
/// noise floor (≲1%) from `n = 2^14` up.
pub fn timeline_overhead_ablation(
    threads: usize,
    min_log2: u32,
    max_log2: u32,
    reps: usize,
) -> Vec<TimelineOverheadRow> {
    use spiral_codegen::ParallelExecutor;
    use spiral_smp::barrier::BarrierKind;

    let reps = reps.max(1);
    let exec = ParallelExecutor::new(threads, BarrierKind::Park);
    let mut rows = Vec::new();
    for case in tuned_host_cases(threads, min_log2, max_log2) {
        let plain_us = min_time_us(reps, || {
            std::hint::black_box(
                exec.try_execute(&case.plan, &case.x)
                    .expect("healthy plan must execute"),
            );
        });
        // One ring set for all reps: the bounded ring wraps, so
        // steady-state cost is what a long-running service would see.
        let timeline = spiral_trace::Timeline::new(threads);
        let observed_us = min_time_us(reps, || {
            std::hint::black_box(
                exec.try_execute_with(&case.plan, &case.x, &timeline)
                    .expect("healthy plan must execute"),
            );
        });
        rows.push(TimelineOverheadRow {
            log2n: case.log2n,
            plain_us,
            observed_us,
            overhead_pct: 100.0 * (observed_us - plain_us) / plain_us,
        });
    }
    rows
}

/// One row of the search comparison (SEARCH-DP).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SearchRow {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Best simulated cycles found by DP.
    pub dp_cycles: f64,
    /// Plans DP compiled and costed.
    pub dp_evaluated: usize,
    /// Best cycles found by random search (same budget).
    pub random_cycles: f64,
    /// Best cycles found by the GA.
    pub evolve_cycles: f64,
    /// Cycles of the fixed radix-2 recursion.
    pub radix2_cycles: f64,
}

/// DP vs random vs evolutionary vs fixed radix-2, costed on the
/// simulator (sequential plans — the strategies differ in tree choice).
pub fn search_comparison(machine: &MachineSpec, sizes_log2: &[u32]) -> Vec<SearchRow> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mu = machine.mu();
    let model = CostModel::Sim {
        machine: machine.clone(),
        warm: true,
    };
    let mut rows = Vec::new();
    for &k in sizes_log2 {
        let n = 1usize << k;
        let dp = dp_search(n, 8, mu, &model);
        let mut rng = StdRng::seed_from_u64(2006);
        let rnd = random_search(n, 8, mu, dp.evaluated.max(8), &model, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(2006);
        let evo = evolve_search(
            n,
            8,
            mu,
            EvolveOpts {
                population: 12,
                generations: 6,
                ..Default::default()
            },
            &model,
            &mut rng2,
        );
        let radix2 = model
            .cost_tree(&spiral_rewrite::RuleTree::right_radix(n, 2), mu)
            .unwrap();
        rows.push(SearchRow {
            log2n: k,
            dp_cycles: dp.cost,
            dp_evaluated: dp.evaluated,
            random_cycles: rnd.cost,
            evolve_cycles: evo.cost,
            radix2_cycles: radix2,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_sim::core_duo;

    #[test]
    fn spiral_has_zero_false_sharing_naive_has_plenty() {
        let rows = false_sharing_ablation(&core_duo(), 8, 10);
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.spiral_false_sharing, 0, "2^{}", r.log2n);
            assert!(
                r.naive_false_sharing > 0,
                "2^{}: µ-oblivious baseline shows no false sharing?",
                r.log2n
            );
        }
    }

    #[test]
    fn merging_exchanges_helps_at_small_sizes() {
        let rows = merge_ablation(&core_duo(), 8, 12);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.fused_barriers < r.explicit_barriers, "2^{}", r.log2n);
        }
        // In-cache sizes gain from the removed barriers and passes.
        let small = &rows[0];
        assert!(
            small.fused_cycles < small.explicit_cycles,
            "2^{}: fused {} vs explicit {}",
            small.log2n,
            small.fused_cycles,
            small.explicit_cycles
        );
    }

    #[test]
    fn coarser_grain_reduces_false_sharing() {
        let rows = schedule_ablation(&core_duo(), 10, &[1, 4, 64]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].false_sharing >= rows[1].false_sharing);
        assert!(rows[1].false_sharing >= rows[2].false_sharing);
        // And cycles follow.
        assert!(rows[0].cycles >= rows[2].cycles);
    }

    #[test]
    fn multicore_ct_beats_explicit_sixstep() {
        let rows = sixstep_ablation(&core_duo(), 10, 12);
        for r in &rows {
            assert!(
                r.multicore_ct_pmflops > r.sixstep_pmflops,
                "2^{}: (14) {} vs six-step {}",
                r.log2n,
                r.multicore_ct_pmflops,
                r.sixstep_pmflops
            );
        }
    }

    #[test]
    fn analyzer_passes_spiral_rejects_naive_and_matches_simulator() {
        let rows = verification_ablation(&core_duo(), 8, 10);
        assert!(!rows.is_empty());
        for r in &rows {
            assert_eq!(r.spiral_diagnostics, 0, "2^{}", r.log2n);
            assert!(!r.spiral_static_false_sharing, "2^{}", r.log2n);
            assert!(r.naive_static_false_sharing, "2^{}", r.log2n);
            assert!(r.verdicts_agree, "2^{}: {r:?}", r.log2n);
        }
    }

    #[test]
    fn fault_overhead_rows_complete() {
        let rows = fault_overhead_ablation(2, 8, 9, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.exec_us > 0.0 && r.exec_us.is_finite(), "{r:?}");
            assert!(r.scan_us >= 0.0 && r.scan_pct >= 0.0, "{r:?}");
            assert!(r.barrier_wait_us > 0.0, "{r:?}");
        }
    }

    #[test]
    fn trace_overhead_rows_complete() {
        let rows = trace_overhead_ablation(2, 8, 9, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.plain_us > 0.0 && r.plain_us.is_finite(), "{r:?}");
            assert!(r.traced_us > 0.0 && r.traced_us.is_finite(), "{r:?}");
            assert!(r.overhead_pct.is_finite(), "{r:?}");
        }
    }

    #[test]
    fn timeline_overhead_rows_complete() {
        let rows = timeline_overhead_ablation(2, 8, 9, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.plain_us > 0.0 && r.plain_us.is_finite(), "{r:?}");
            assert!(r.observed_us > 0.0 && r.observed_us.is_finite(), "{r:?}");
            assert!(r.overhead_pct.is_finite(), "{r:?}");
        }
    }

    #[test]
    fn fault_rows_carry_trace_attribution() {
        let rows = fault_overhead_ablation(2, 8, 8, 2);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.compute_us > 0.0, "{r:?}");
        assert!(r.barrier_us >= 0.0, "{r:?}");
        assert!((0.0..=100.0).contains(&r.barrier_share_pct), "{r:?}");
    }

    #[test]
    fn search_rows_complete() {
        let rows = search_comparison(&core_duo(), &[8]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.dp_cycles > 0.0);
        // DP should not lose to the fixed radix-2 strategy.
        assert!(r.dp_cycles <= r.radix2_cycles * 1.001);
    }
}
