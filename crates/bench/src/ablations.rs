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
    fn search_rows_complete() {
        let rows = search_comparison(&core_duo(), &[8]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.dp_cycles > 0.0);
        // DP should not lose to the fixed radix-2 strategy.
        assert!(r.dp_cycles <= r.radix2_cycles * 1.001);
    }
}
