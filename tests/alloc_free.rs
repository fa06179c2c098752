//! Allocations per warm `SpiralFft` call, counted exactly by a counting
//! global allocator: `forward_into` allocates nothing on one thread, on
//! two threads and on a 2-D plan; `forward` and `try_forward` allocate
//! only their output, `inverse` its conjugated input and its output; a
//! Bluestein size adds one work buffer.
//!
//! The count is global, so it includes the pool worker of a 2-thread
//! plan. That is why this binary holds a single test: no other test
//! thread allocates while it counts. Debug builds re-verify the plan
//! before every executor run (the executor guard the tuner installs),
//! and the verifier allocates; every call below runs `forward_into`
//! once, so there the counts are checked beyond `forward_into`'s own.

use spiral_fft::spl::Cplx;
use spiral_fft::SpiralFft;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter is a
// static atomic, so counting never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's layout contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one call of `f` after two warm-up calls (which
/// size every thread's workspace).
fn warm_allocs<R>(mut f: impl FnMut() -> R) -> usize {
    drop(f());
    drop(f());
    let before = ALLOCS.load(Ordering::SeqCst);
    let r = f();
    let count = ALLOCS.load(Ordering::SeqCst) - before;
    drop(r);
    count
}

/// Assert the `[forward_into, forward, try_forward, inverse]` warm
/// allocation counts of `fft`.
fn assert_call_allocs(fft: &SpiralFft, want: [usize; 4], label: &str) {
    let n = fft.len();
    let x: Vec<Cplx> = (0..n).map(|k| Cplx::new(k as f64, 1.0)).collect();
    let mut y = vec![Cplx::ZERO; n];
    let got = [
        warm_allocs(|| fft.forward_into(&x, &mut y).unwrap()),
        warm_allocs(|| fft.forward(&x)),
        warm_allocs(|| fft.try_forward(&x).unwrap()),
        warm_allocs(|| fft.inverse(&x)),
    ];
    // The debug-build plan verifier, once per call.
    let verifier = if cfg!(debug_assertions) {
        got[0] - want[0]
    } else {
        0
    };
    assert_eq!(got.map(|c| c - verifier), want, "{label}");
}

#[test]
fn warm_facade_calls_allocate_only_their_results() {
    let parallel = SpiralFft::parallel(1 << 14, 2, 4).unwrap();
    assert_eq!(parallel.plan().threads, 2);
    for (fft, label) in [
        (SpiralFft::sequential(1 << 10), "sequential(2^10)"),
        (parallel, "parallel(2^14, 2 threads)"),
        (SpiralFft::sequential_2d(8, 16), "sequential_2d(8, 16)"),
    ] {
        assert_call_allocs(&fft, [0, 1, 1, 2], label);
    }
    // Bluestein: one allocation holds both m-element work buffers.
    let bluestein = SpiralFft::sequential(97);
    assert!(bluestein.plan().n >= 2 * 97 - 1);
    assert_call_allocs(&bluestein, [1, 2, 2, 3], "Bluestein DFT_97");
}
