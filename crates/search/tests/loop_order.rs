//! The stride loop order against lowering order.
//!
//! `Plan::from_formula` sorts the loops of every strided scalar kernel
//! stage by stride, largest outermost, after lowering, fusion and table
//! compaction. These tests build each tuned plan both ways — as compiled
//! and with every loop nest left in lowering order — and check that the
//! two run to bitwise-equal outputs, have the same shape, and differ only
//! in the order of scalar stages' loops.

use spiral_codegen::plan::{Plan, Step};
use spiral_codegen::stage::{KernelStage, LoopDim};
use spiral_codegen::vectorize_plan;
use spiral_search::{CostModel, Tuner};
use spiral_spl::builder::vec_tag;
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;

const MU: usize = 4;

/// Every kernel stage of every step.
fn kernels(plan: &Plan) -> Vec<&KernelStage> {
    let mut out = Vec::new();
    for step in &plan.steps {
        let progs = match step {
            Step::Seq(p) => std::slice::from_ref(p),
            Step::Par { programs, .. } => programs.as_slice(),
            Step::Exchange { .. } | Step::ScaleAll(_) => continue,
        };
        out.extend(progs.iter().flat_map(|p| &p.stages));
    }
    out
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

/// Compile `f` at ν = 1, 2 and 4, as `from_formula` orders its loops and
/// in lowering order, and check both against each other. Returns how
/// many stages the stride order changed.
fn check_formula(f: &Spl, threads: usize) -> usize {
    let n = f.dim();
    let x = input(n);
    let mut reordered = 0;
    for nu in [1usize, 2, 4] {
        let f = match nu {
            1 => f.clone(),
            _ => vec_tag(nu, f.clone()),
        };
        let chosen = Plan::from_formula(&f, threads, MU)
            .unwrap()
            .fuse_exchanges();
        let mut lowering = Plan::lowered(&f, threads, MU).unwrap();
        if nu > 1 {
            vectorize_plan(&mut lowering, nu);
        }
        let lowering = lowering.fuse_exchanges();
        let at = format!("n={n} threads={threads} nu={nu}");
        assert_eq!(chosen.shape(), lowering.shape(), "{at}");
        let (ks, ls) = (kernels(&chosen), kernels(&lowering));
        assert_eq!(ks.len(), ls.len(), "{at}");
        for (i, (k, l)) in ks.iter().zip(&ls).enumerate() {
            assert_eq!(k.vec_width, l.vec_width, "{at} stage {i}");
            if k.loops == l.loops {
                continue;
            }
            assert_eq!(k.vec_width, 1, "{at} stage {i}: vector stage reordered");
            let (mut a, mut b) = (k.loops.clone(), l.loops.clone());
            let key = |d: &LoopDim| (d.count, d.in_stride, d.out_stride, d.tw_stride);
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "{at} stage {i}: loops are not a reordering");
            reordered += 1;
        }
        let (a, b) = (chosen.execute(&x), lowering.execute(&x));
        for (i, (u, v)) in a.iter().zip(&b).enumerate() {
            assert!(
                u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits(),
                "{at}: output {i} differs: {u:?} vs {v:?}"
            );
        }
    }
    reordered
}

/// Check every tuned plan in range; returns the reordered stage count.
fn check_range(seq: std::ops::RangeInclusive<u32>, par: std::ops::RangeInclusive<u32>) -> usize {
    let mut reordered = 0;
    let seq_tuner = Tuner::new(1, MU, CostModel::Analytic);
    for k in seq {
        let tuned = seq_tuner.tune_sequential(1 << k).unwrap();
        reordered += check_formula(untagged(&tuned.formula), 1);
    }
    let par_tuner = Tuner::new(2, MU, CostModel::Analytic);
    for k in par {
        let tuned = par_tuner.tune_parallel(1 << k).unwrap().unwrap();
        reordered += check_formula(untagged(&tuned.formula), 2);
    }
    reordered
}

#[test]
fn stride_order_runs_bitwise_equal_to_lowering_order() {
    assert!(check_range(1..=12, 6..=12) > 0, "no stage was reordered");
}

/// The full benchmark range; slow in a debug build, so run it with
/// `cargo test --release -p spiral-search --test loop_order -- --ignored`.
#[test]
#[ignore]
fn stride_order_runs_bitwise_equal_to_lowering_order_up_to_benchmark_sizes() {
    assert!(check_range(1..=18, 6..=16) > 0, "no stage was reordered");
}

/// The tuned 2^18 plan's first stage reads its digit-reversed input
/// through an innermost loop of stride 4096 in lowering order. In stride
/// order its innermost loop reads at unit stride.
#[test]
fn tuned_large_plan_first_stage_reads_unit_stride_innermost() {
    let n = 1 << 18;
    let tuned = Tuner::new(1, MU, CostModel::Analytic)
        .tune_sequential(n)
        .unwrap();
    let lowering = Plan::lowered(&tuned.formula, 1, MU).unwrap();
    let inner = |p: &Plan| kernels(p)[0].loops.last().copied().unwrap();
    assert!(inner(&lowering).in_stride > 1 && inner(&lowering).out_stride > 1);
    assert_eq!(inner(&tuned.plan).in_stride, 1);
}
