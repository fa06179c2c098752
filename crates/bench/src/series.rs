//! Figure 3 series computation: pseudo-Mflop/s vs. transform size for
//! the five series of the paper's plots, on a simulated machine.
//!
//! Methodology mirrors the paper's §4:
//! * performance metric: `5 N log2 N / runtime_µs` (pseudo-Mflop/s);
//! * "pthreads" series report the **maximum over 1, 2, …, p threads**
//!   (FFTW's bench cannot be forced to a thread count; the paper plots
//!   the max — hence the characteristic "branching" of the curves);
//! * timings are warm (repeat-loop measurement).

use serde::{Deserialize, Serialize};
use spiral_baselines::{FftwLikeConfig, FftwLikeFft};
use spiral_codegen::plan::Plan;
use spiral_search::{CostModel, Tuner};
use spiral_sim::{simulate_plan, MachineSpec, SmpSim};
use spiral_spl::num::pseudo_mflops;

/// One measured point.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Point {
    /// Transform size as log2 n.
    pub log2n: u32,
    /// Pseudo-Mflop/s (higher is better).
    pub value: f64,
}

/// One plotted curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Series {
    /// Series label.
    pub name: String,
    /// Measured points, ordered by size.
    pub points: Vec<Point>,
}

impl Series {
    /// The measured value at `2^log2n`, if present.
    pub fn value_at(&self, log2n: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.log2n == log2n)
            .map(|p| p.value)
    }
}

/// Thread counts the "max over threads" series consider on a machine
/// with `p` processors (the paper used 1, 2, and 4).
fn thread_choices(p: usize) -> Vec<usize> {
    let mut v = vec![2];
    if p >= 4 {
        v.push(4);
    }
    v.retain(|&t| t <= p);
    v
}

/// Build the tuned Spiral plans for one size: sequential and the best
/// parallel plan per thread count.
pub struct SpiralPlans {
    /// The tuned sequential plan.
    pub sequential: Plan,
    /// (threads, plan) for each viable parallel configuration.
    pub parallel: Vec<(usize, Plan)>,
}

/// Tune Spiral for `n` on a machine (analytic tuning model — fast and
/// deterministic; the simulator then measures the winner).
pub fn tune_spiral(n: usize, machine: &MachineSpec) -> SpiralPlans {
    let mu = machine.mu();
    let seq_tuner = Tuner::new(1, mu, CostModel::Analytic);
    let sequential = seq_tuner
        .tune_sequential(n)
        .unwrap_or_else(|e| panic!("sequential tuning of DFT_{n} failed: {e}"))
        .plan;
    let mut parallel = Vec::new();
    for t in thread_choices(machine.p) {
        let tuner = Tuner::new(t, mu, CostModel::Analytic);
        if let Ok(Some(tuned)) = tuner.tune_parallel(n) {
            if tuned.plan.threads > 1 {
                parallel.push((t, tuned.plan));
            }
        }
    }
    SpiralPlans {
        sequential,
        parallel,
    }
}

/// Simulated pseudo-Mflop/s of a plan on a machine.
pub fn sim_pmflops(plan: &Plan, machine: &MachineSpec) -> f64 {
    simulate_plan(plan, machine, true).pseudo_mflops
}

/// Simulated pseudo-Mflop/s of the FFTW-like baseline with `threads`.
pub fn fftw_pmflops(n: usize, threads: usize, machine: &MachineSpec, cfg: FftwLikeConfig) -> f64 {
    let f = FftwLikeFft::new(n, cfg);
    let mut sim = SmpSim::new(machine.clone(), n);
    // Warm run, then measured run (same protocol as plans).
    f.trace(threads, &mut sim);
    sim.reset_timing();
    f.trace(threads, &mut sim);
    pseudo_mflops(n, machine.cycles_to_us(sim.cycles()))
}

/// An "OpenMP" variant of a machine: same hardware, but each barrier
/// goes through the OpenMP runtime — modeled as a constant factor on the
/// synchronization cost (the paper's OpenMP curves track the pthreads
/// curves from slightly below).
pub fn openmp_variant(machine: &MachineSpec) -> MachineSpec {
    let mut m = machine.clone();
    m.costs.barrier *= 1.7;
    m.name = format!("{} (OpenMP runtime)", m.name);
    m
}

/// The file-name form of a machine's name, as in the artifacts
/// `figures` writes (`fig3_<slug>.csv`): the name before any
/// parenthesis, lower case, spaces and dots as dashes.
pub fn machine_slug(m: &MachineSpec) -> String {
    m.name
        .chars()
        .take_while(|c| *c != '(')
        .collect::<String>()
        .trim()
        .to_lowercase()
        .replace([' ', '.'], "-")
}

/// Compute the five Figure 3 series for one machine over
/// `2^min_log2 ..= 2^max_log2`.
pub fn fig3_series(machine: &MachineSpec, min_log2: u32, max_log2: u32) -> Vec<Series> {
    let omp_machine = openmp_variant(machine);
    let fftw_cfg = FftwLikeConfig::default();
    let mut spiral_pthreads = Vec::new();
    let mut spiral_openmp = Vec::new();
    let mut spiral_seq = Vec::new();
    let mut fftw_pthreads = Vec::new();
    let mut fftw_seq = Vec::new();

    for k in min_log2..=max_log2 {
        let n = 1usize << k;
        let plans = tune_spiral(n, machine);
        let seq_pm = sim_pmflops(&plans.sequential, machine);
        spiral_seq.push(Point {
            log2n: k,
            value: seq_pm,
        });

        // Max over thread counts, including 1 (paper methodology).
        let mut best_pt = seq_pm;
        let mut best_omp = sim_pmflops(&plans.sequential, &omp_machine);
        for (_t, plan) in &plans.parallel {
            best_pt = best_pt.max(sim_pmflops(plan, machine));
            best_omp = best_omp.max(sim_pmflops(plan, &omp_machine));
        }
        spiral_pthreads.push(Point {
            log2n: k,
            value: best_pt,
        });
        spiral_openmp.push(Point {
            log2n: k,
            value: best_omp,
        });

        let f_seq = fftw_pmflops(n, 1, machine, fftw_cfg);
        fftw_seq.push(Point {
            log2n: k,
            value: f_seq,
        });
        let mut f_best = f_seq;
        for t in thread_choices(machine.p) {
            f_best = f_best.max(fftw_pmflops(n, t, machine, fftw_cfg));
        }
        fftw_pthreads.push(Point {
            log2n: k,
            value: f_best,
        });
    }

    vec![
        Series {
            name: "Spiral pthreads".into(),
            points: spiral_pthreads,
        },
        Series {
            name: "Spiral OpenMP".into(),
            points: spiral_openmp,
        },
        Series {
            name: "Spiral sequential".into(),
            points: spiral_seq,
        },
        Series {
            name: "FFTW-like pthreads".into(),
            points: fftw_pthreads,
        },
        Series {
            name: "FFTW-like sequential".into(),
            points: fftw_seq,
        },
    ]
}

/// First size (as log2 n) at which the parallel series exceeds the
/// sequential one by more than `margin` (the "branching point").
pub fn crossover(parallel: &Series, sequential: &Series, margin: f64) -> Option<u32> {
    for p in &parallel.points {
        if let Some(s) = sequential.value_at(p.log2n) {
            if p.value > s * (1.0 + margin) {
                return Some(p.log2n);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_sim::{core_duo, pentium_d};

    #[test]
    fn thread_choices_match_paper() {
        assert_eq!(thread_choices(2), vec![2]);
        assert_eq!(thread_choices(4), vec![2, 4]);
        assert_eq!(thread_choices(1), Vec::<usize>::new());
    }

    #[test]
    fn fig3_produces_five_series() {
        let s = fig3_series(&core_duo(), 6, 9);
        assert_eq!(s.len(), 5);
        for series in &s {
            assert_eq!(series.points.len(), 4);
            assert!(
                series.points.iter().all(|p| p.value > 0.0),
                "{}",
                series.name
            );
        }
    }

    #[test]
    fn spiral_parallel_crossover_is_early_on_cmp() {
        // The paper's headline: speedup already at 2^8 on the Core Duo.
        let s = fig3_series(&core_duo(), 6, 10);
        let x = crossover(&s[0], &s[2], 0.02).expect("no crossover found");
        assert!(x <= 8, "Spiral crossover at 2^{x}, expected ≤ 2^8");
    }

    #[test]
    fn fftw_like_crossover_is_late() {
        // FFTW only profits from threads beyond several thousand points
        // (the paper observed 2^13).
        let s = fig3_series(&core_duo(), 8, 14);
        let x = crossover(&s[3], &s[4], 0.02);
        // No crossover in range is also "late".
        if let Some(k) = x {
            assert!(k >= 12, "FFTW-like crossover at 2^{k}, expected ≥ 2^12");
        }
    }

    #[test]
    fn spiral_beats_fftw_like_in_cache_parallel() {
        let s = fig3_series(&core_duo(), 8, 11);
        for k in 8..=11 {
            let sp = s[0].value_at(k).unwrap();
            let fw = s[3].value_at(k).unwrap();
            assert!(sp > fw, "2^{k}: Spiral {sp} vs FFTW-like {fw}");
        }
    }

    #[test]
    fn bus_machine_crossover_later_than_cmp() {
        let cmp = fig3_series(&core_duo(), 6, 12);
        let bus = fig3_series(&pentium_d(), 6, 12);
        let x_cmp = crossover(&cmp[0], &cmp[2], 0.02).unwrap_or(99);
        let x_bus = crossover(&bus[0], &bus[2], 0.02).unwrap_or(99);
        assert!(x_cmp <= x_bus, "CMP 2^{x_cmp} vs bus 2^{x_bus}");
    }

    #[test]
    fn openmp_tracks_pthreads_from_below() {
        let s = fig3_series(&core_duo(), 9, 12);
        for k in 9..=12 {
            let pt = s[0].value_at(k).unwrap();
            let omp = s[1].value_at(k).unwrap();
            assert!(omp <= pt * 1.001, "2^{k}: OpenMP {omp} above pthreads {pt}");
            assert!(omp > pt * 0.5, "2^{k}: OpenMP unreasonably slow");
        }
    }
}
