//! `Plan::execute_into` is documented as allocation-free once its
//! workspace is warm. A counting global allocator checks that claim: the
//! count is kept per thread, so the test harness's own threads cannot
//! pollute it.

use spiral_codegen::{Plan, PlanWorkspace};
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
