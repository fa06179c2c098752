//! In-place stages against an out-of-place replay.
//!
//! A kernel stage that reads exactly the slots it writes runs in place
//! after the first stage of its program (`LocalProgram::passes`). These
//! tests run every tuned plan through the executors and check the output,
//! bit for bit, against a replay that applies each stage out of place
//! into a fresh vector. They also check that the tuned large plan runs
//! every later stage in place and so needs no workspace at all.

use spiral_codegen::plan::{Plan, PlanWorkspace, Step};
use spiral_codegen::stage::{Buf, LocalProgram, SrcView};
use spiral_codegen::{BatchExecutor, ParallelExecutor};
use spiral_search::{CostModel, Tuner};
use spiral_smp::barrier::BarrierKind;
use spiral_spl::builder::vec_tag;
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;

const MU: usize = 4;

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

/// One program, every stage out of place into a fresh vector.
fn replay_program(prog: &LocalProgram, src: SrcView<'_>) -> Vec<Cplx> {
    let mut cur: Option<Vec<Cplx>> = None;
    for stage in &prog.stages {
        let mut next = vec![Cplx::ZERO; prog.dim];
        match &cur {
            None => stage.apply_view(src, &mut next),
            Some(v) => stage.apply_view(SrcView::Local(v), &mut next),
        }
        cur = Some(next);
    }
    cur.unwrap_or_else(|| (0..prog.dim).map(|i| src.get(i)).collect())
}

/// The whole plan, step by step, every stage out of place.
fn replay(plan: &Plan, x: &[Cplx]) -> Vec<Cplx> {
    let mut cur = x.to_vec();
    for step in &plan.steps {
        cur = match step {
            Step::Seq(p) => replay_program(p, SrcView::Local(&cur)),
            Step::Par {
                chunk,
                programs,
                gather,
            } => programs
                .iter()
                .enumerate()
                .flat_map(|(c, p)| {
                    let view = match gather {
                        Some(g) => SrcView::Gathered {
                            buf: &cur,
                            gather: g,
                            off: c * chunk,
                        },
                        None => SrcView::Local(&cur[c * chunk..(c + 1) * chunk]),
                    };
                    replay_program(p, view)
                })
                .collect(),
            Step::Exchange { table, .. } => table.iter().map(|&i| cur[i as usize]).collect(),
            Step::ScaleAll(w) => cur.iter().zip(w.iter()).map(|(v, w)| *v * *w).collect(),
        };
    }
    cur
}

fn assert_bitwise(got: &[Cplx], want: &[Cplx], at: &str) {
    assert_eq!(got.len(), want.len(), "{at}");
    for (i, (u, v)) in got.iter().zip(want).enumerate() {
        assert!(
            u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits(),
            "{at}: output {i} differs: {u:?} vs {v:?}"
        );
    }
}

/// Passes after the first of their program that run in place.
fn in_place_passes(plan: &Plan) -> usize {
    plan.steps
        .iter()
        .flat_map(|s| match s {
            Step::Seq(p) => std::slice::from_ref(p),
            Step::Par { programs, .. } => programs.as_slice(),
            Step::Exchange { .. } | Step::ScaleAll(_) => &[],
        })
        .flat_map(|p| p.passes())
        .filter(|(_, input, output)| input == output)
        .count()
}

/// Compile `f` at ν = 1, 2 and 4 and check the sequential, parallel and
/// batch executors against the replay. Returns the in-place passes seen.
fn check_formula(f: &Spl, threads: usize, par: &ParallelExecutor, batch: &BatchExecutor) -> usize {
    let n = f.dim();
    let x = input(n);
    let mut in_place = 0;
    for nu in [1usize, 2, 4] {
        let f = match nu {
            1 => f.clone(),
            _ => vec_tag(nu, f.clone()),
        };
        let plan = Plan::from_formula(&f, threads, MU)
            .unwrap()
            .fuse_exchanges();
        let at = format!("n={n} threads={threads} nu={nu}");
        let want = replay(&plan, &x);
        assert_bitwise(&plan.execute(&x), &want, &at);
        assert_bitwise(&par.execute(&plan, &x), &want, &format!("{at} parallel"));
        let rows = batch
            .try_execute_batch(&plan, &[x.clone(), x.clone()])
            .unwrap();
        for row in &rows {
            assert_bitwise(row, &want, &format!("{at} batch"));
        }
        in_place += in_place_passes(&plan);
    }
    in_place
}

/// Every tuned plan in range: sequential, and 2-thread through both
/// `tune_parallel` and `tune`.
fn check_range(seq: std::ops::RangeInclusive<u32>, par: std::ops::RangeInclusive<u32>) -> usize {
    let exec = ParallelExecutor::new(2, BarrierKind::Park);
    let batch = BatchExecutor::new(2);
    let mut in_place = 0;
    let seq_tuner = Tuner::new(1, MU, CostModel::Analytic);
    for k in seq {
        let tuned = seq_tuner.tune_sequential(1 << k).unwrap();
        in_place += check_formula(untagged(&tuned.formula), 1, &exec, &batch);
    }
    let par_tuner = Tuner::new(2, MU, CostModel::Analytic);
    for k in par {
        let tuned = par_tuner.tune_parallel(1 << k).unwrap().unwrap();
        in_place += check_formula(untagged(&tuned.formula), 2, &exec, &batch);
        let tuned = par_tuner.tune(1 << k).unwrap().unwrap();
        let threads = tuned.plan.threads;
        in_place += check_formula(untagged(&tuned.formula), threads, &exec, &batch);
    }
    in_place
}

#[test]
fn in_place_stages_run_bitwise_equal_to_an_out_of_place_replay() {
    assert!(check_range(1..=12, 6..=12) > 0, "no stage ran in place");
}

/// The full benchmark range; slow in a debug build, so run it with
/// `cargo test --release -p spiral-search --test in_place -- --ignored`.
#[test]
#[ignore]
fn in_place_stages_run_bitwise_equal_to_an_out_of_place_replay_up_to_benchmark_sizes() {
    assert!(check_range(1..=18, 6..=16) > 0, "no stage ran in place");
}

/// The tuned 2^18 plan: its first stage reads the input into the output,
/// and every later stage runs in place there, so a warm call holds no
/// step buffer and no scratch (ping-ponging through them held 8 MiB).
#[test]
fn tuned_large_plan_runs_every_later_stage_in_place_without_a_workspace() {
    let n = 1 << 18;
    let plan = Tuner::new(1, MU, CostModel::Analytic)
        .tune_sequential(n)
        .unwrap()
        .plan;
    let [Step::Seq(prog)] = &plan.steps[..] else {
        panic!("expected one sequential step: {:?}", plan.stage_labels());
    };
    let passes: Vec<(Buf, Buf)> = prog.passes().map(|(_, i, o)| (i, o)).collect();
    assert!(passes.len() > 1);
    assert_eq!(passes[0], (Buf::Src, Buf::Dst));
    assert!(
        passes[1..].iter().all(|&p| p == (Buf::Dst, Buf::Dst)),
        "{passes:?}"
    );
    assert_eq!(plan.tmp_dim(), 0);
    let x = input(n);
    let mut out = vec![Cplx::ZERO; n];
    let mut ws = PlanWorkspace::default();
    for _ in 0..2 {
        plan.execute_into(&x, &mut out, &mut ws);
    }
    assert_eq!(ws.held(), 0);
    assert_bitwise(&out, &replay(&plan, &x), "2^18");
}
