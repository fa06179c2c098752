//! `Plan::execute_into` is documented as allocation-free once its
//! workspace is warm, and `Plan::execute` and
//! `ParallelExecutor::try_execute` as allocating only their output. A
//! counting global allocator checks these claims: the count is kept per
//! thread, so the test harness's own threads cannot pollute it.

use spiral_codegen::stage::LocalStage;
use spiral_codegen::{ParallelExecutor, Plan, PlanWorkspace, Step};
use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
use spiral_spl::builder::vec_tag;
use spiral_spl::cplx::Cplx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the thread-local
// counter is const-initialized and has no destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// Allocations made by one warm `execute_into` of `plan`.
fn warm_allocs(plan: &Plan) -> usize {
    let x: Vec<Cplx> = (0..plan.n)
        .map(|k| Cplx::new(k as f64, -(k as f64) * 0.5))
        .collect();
    let mut out = vec![Cplx::ZERO; plan.n];
    let mut ws = PlanWorkspace::default();
    // Cold call: sizes the workspace buffers and codelet scratch.
    plan.execute_into(&x, &mut out, &mut ws);
    let before = allocs();
    plan.execute_into(&x, &mut out, &mut ws);
    allocs() - before
}

#[test]
fn warm_execute_into_does_not_allocate() {
    let mut vectorized = 0;
    for k in [4u32, 6, 8, 10, 12] {
        let n = 1usize << k;
        let seq = sequential_dft(n, 8);
        let mut plans = vec![(Plan::from_formula(&seq, 1, 4).unwrap(), "scalar")];
        let tagged = Plan::from_formula(&vec_tag(4, seq), 1, 4).unwrap();
        if tagged.vec_width > 1 {
            vectorized += 1;
            plans.push((tagged, "vec(4)"));
        }
        // A parallel plan with fused exchanges, run on the sequential
        // reference path: exercises the gathered-view stages.
        if let Ok(f) = multicore_dft_expanded(n, 2, 4, None, 8) {
            let par = Plan::from_formula(&f, 2, 4).unwrap().fuse_exchanges();
            plans.push((par, "multicore"));
        }
        for (plan, label) in &plans {
            assert_eq!(warm_allocs(plan), 0, "{label} plan at n=2^{k} allocated");
        }
    }
    assert!(vectorized > 0, "no size produced a vec(4) plan");
}

/// Codelet sizes of the kernel stages of a sequential plan.
fn leaves(plan: &Plan) -> Vec<usize> {
    let [Step::Seq(p)] = plan.steps.as_slice() else {
        panic!("not a one-step sequential plan");
    };
    p.stages
        .iter()
        .filter_map(|s| match s {
            LocalStage::Kernel(k) => Some(k.codelet.size()),
            _ => None,
        })
        .collect()
}

#[test]
fn warm_execute_into_does_not_allocate_with_large_leaves() {
    let mut vectorized = 0;
    for (n, leaf) in [(256usize, 16usize), (1024, 32)] {
        let seq = sequential_dft(n, leaf);
        for nu in [1usize, 2, 4] {
            let formula = if nu == 1 {
                seq.clone()
            } else {
                vec_tag(nu, seq.clone())
            };
            let plan = Plan::from_formula(&formula, 1, 4).unwrap();
            assert!(
                leaves(&plan).contains(&leaf),
                "n={n}: no DFT_{leaf} leaf in {:?}",
                leaves(&plan)
            );
            if plan.vec_width > 1 {
                vectorized += 1;
            }
            assert_eq!(
                warm_allocs(&plan),
                0,
                "DFT_{leaf} leaves, ν={nu}, n={n} allocated"
            );
        }
    }
    assert!(vectorized > 0, "no large-leaf plan was vectorized");
}

#[test]
fn warm_execute_allocates_only_its_output() {
    for (n, leaf) in [(64usize, 8usize), (1024, 32)] {
        let plan = Plan::from_formula(&sequential_dft(n, leaf), 1, 4).unwrap();
        let x: Vec<Cplx> = (0..n).map(|k| Cplx::new(k as f64, 1.0)).collect();
        // Cold call: sizes this thread's workspace.
        let cold = plan.execute(&x);
        let before = allocs();
        let warm = plan.execute(&x);
        assert_eq!(allocs() - before, 1, "warm execute at n={n}");
        assert_eq!(cold, warm);
    }
}

#[test]
fn warm_parallel_execute_allocates_only_its_output() {
    let exec = ParallelExecutor::with_auto_barrier(2);
    for k in [8u32, 12] {
        let n = 1usize << k;
        let f = multicore_dft_expanded(n, 2, 4, None, 8).unwrap();
        let scalar = Plan::from_formula(&f, 2, 4).unwrap().fuse_exchanges();
        let tagged = Plan::from_formula(&vec_tag(4, f), 2, 4)
            .unwrap()
            .fuse_exchanges();
        let x: Vec<Cplx> = (0..n).map(|k| Cplx::new(k as f64, 1.0)).collect();
        for plan in [&scalar, &tagged] {
            // Cold call: sizes the executor's workspace.
            let cold = exec.try_execute(plan, &x).unwrap();
            let before = allocs();
            let warm = exec.try_execute(plan, &x).unwrap();
            assert_eq!(allocs() - before, 1, "warm parallel execute at n=2^{k}");
            assert_eq!(cold, warm);
        }
    }
}
