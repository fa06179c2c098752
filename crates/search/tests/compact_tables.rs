//! Compact twiddle tables against the flat tables they replace.
//!
//! Lowering builds one twiddle row per (iteration, slot); the compaction
//! pass at the end of `Plan::from_formula` keeps one row per value of
//! the loops the tables vary with and indexes them through per-loop
//! strides. These tests expand every compact table of a tuned plan back
//! to the flat layout and check that both run to bitwise-equal outputs,
//! and that the tuned large plans really carry the smaller tables.

use spiral_codegen::plan::{Plan, Step};
use spiral_codegen::simd::lane_shuffle_twiddle;
use spiral_codegen::stage::{KernelStage, LocalStage};
use spiral_search::{CostModel, Tuner};
use spiral_spl::builder::vec_tag;
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;
use std::sync::Arc;

const MU: usize = 4;

/// Every kernel stage of every step.
fn kernels(plan: &mut Plan) -> Vec<&mut KernelStage> {
    let mut out = Vec::new();
    for step in &mut plan.steps {
        let progs = match step {
            Step::Seq(p) => std::slice::from_mut(p),
            Step::Par { programs, .. } => programs.as_mut_slice(),
            Step::Exchange { .. } | Step::ScaleAll(_) => continue,
        };
        for stage in progs.iter_mut().flat_map(|p| &mut p.stages) {
            if let LocalStage::Kernel(k) = stage {
                out.push(k);
            }
        }
    }
    out
}

/// The flat form of `k`'s tables: one row per iteration, strides the
/// products of the inner counts, lane tables re-shuffled from the flat
/// scalar tables.
fn expand_flat(k: &mut KernelStage) {
    let c = k.codelet.size();
    let mut rows = Vec::with_capacity(k.iterations());
    k.for_each_iteration(|tw, _, _| rows.push(tw));
    let flat = |w: &Arc<Vec<Cplx>>| -> Arc<Vec<Cplx>> {
        Arc::new(
            rows.iter()
                .flat_map(|&r| w[r * c..(r + 1) * c].iter().copied())
                .collect(),
        )
    };
    k.twiddle = k.twiddle.as_ref().map(flat);
    k.twiddle_out = k.twiddle_out.as_ref().map(flat);
    let mut stride = 1;
    for l in k.loops.iter_mut().rev() {
        l.tw_stride = stride;
        stride *= l.count;
    }
    let nu = k.vec_width;
    if nu > 1 {
        let lanes = |w: &Arc<Vec<Cplx>>| Arc::new(lane_shuffle_twiddle(w, c, nu));
        k.twiddle_lanes = k.twiddle.as_ref().map(lanes);
        k.twiddle_out_lanes = k.twiddle_out.as_ref().map(lanes);
    }
}

/// Twiddle entries a plan holds, lane copies included.
fn twiddle_entries(plan: &mut Plan) -> usize {
    kernels(plan)
        .iter()
        .flat_map(|k| {
            [
                &k.twiddle,
                &k.twiddle_out,
                &k.twiddle_lanes,
                &k.twiddle_out_lanes,
            ]
        })
        .map(|t| t.as_ref().map_or(0, |w| w.len()))
        .sum()
}

fn untagged(f: &Spl) -> &Spl {
    match f {
        Spl::Vec { a, .. } => a,
        other => other,
    }
}

fn input(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new((0.37 * j as f64).sin(), 0.5 - (0.11 * j as f64).cos()))
        .collect()
}

/// Lower `f` at ν = 1, 2 and 4 and check that each plan's output equals,
/// bit for bit, that of the same plan with flat tables.
fn check_formula(f: &Spl, threads: usize) {
    let n = f.dim();
    let x = input(n);
    for nu in [1usize, 2, 4] {
        let f = match nu {
            1 => f.clone(),
            _ => vec_tag(nu, f.clone()),
        };
        let compact = Plan::from_formula(&f, threads, MU)
            .unwrap()
            .fuse_exchanges();
        let mut flat = compact.clone();
        for k in kernels(&mut flat) {
            expand_flat(k);
        }
        let (a, b) = (compact.execute(&x), flat.execute(&x));
        for (i, (u, v)) in a.iter().zip(&b).enumerate() {
            assert!(
                u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits(),
                "n={n} threads={threads} nu={nu}: output {i} differs: {u:?} vs {v:?}"
            );
        }
    }
}

fn check_range(seq: std::ops::RangeInclusive<u32>, par: std::ops::RangeInclusive<u32>) {
    let seq_tuner = Tuner::new(1, MU, CostModel::Analytic);
    for k in seq {
        let tuned = seq_tuner.tune_sequential(1 << k).unwrap();
        check_formula(untagged(&tuned.formula), 1);
    }
    let par_tuner = Tuner::new(2, MU, CostModel::Analytic);
    for k in par {
        let tuned = par_tuner.tune_parallel(1 << k).unwrap().unwrap();
        check_formula(untagged(&tuned.formula), 2);
    }
}

#[test]
fn compact_tables_run_bitwise_equal_to_flat_tables() {
    check_range(1..=12, 6..=12);
}

/// The full benchmark range; slow in a debug build, so run it with
/// `cargo test --release -p spiral-search --test compact_tables -- --ignored`.
#[test]
#[ignore]
fn compact_tables_run_bitwise_equal_to_flat_tables_up_to_benchmark_sizes() {
    check_range(1..=18, 6..=16);
}

/// The tuned 2^18 plan: at most 3·n twiddle entries, lane copies
/// included (flat, its five twiddled stages held about 9·n).
#[test]
fn tuned_large_plan_holds_at_most_three_n_twiddles() {
    let n = 1 << 18;
    let mut plan = Tuner::new(1, MU, CostModel::Analytic)
        .tune_sequential(n)
        .unwrap()
        .plan;
    let compact = twiddle_entries(&mut plan);
    for k in kernels(&mut plan) {
        expand_flat(k);
    }
    let flat = twiddle_entries(&mut plan);
    assert!(compact <= 3 * n, "{compact} twiddle entries for n = {n}");
    assert!(flat > 3 * compact, "flat {flat}, compact {compact}");
}
