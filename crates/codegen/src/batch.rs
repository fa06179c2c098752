//! Batched execution: many independent small transforms per dispatch.
//!
//! The paper's parallel schedule only pays off above a size crossover —
//! below it, per-transform barrier and dispatch cost eats the speedup
//! (§4's small-`n` tail). Serving workloads are dominated by exactly
//! those small transforms, so [`BatchExecutor`] restores the speedup by
//! parallelizing over the *batch dimension* instead of inside each
//! transform: `B` independent size-`n` inputs are partitioned
//! contiguously across the pool threads, each thread runs its whole
//! transforms back-to-back through the allocation-free sequential
//! interpreter ([`Plan::execute_into`]) with a reused per-thread
//! workspace, and the entire batch costs **one** pool dispatch/join —
//! one synchronization set total, not one barrier per plan step per
//! transform.
//!
//! Because transforms are independent, there is no cross-thread
//! dataflow at all: each thread writes only its own transforms' output
//! rows, so the scheduling is race-free by construction (the same
//! disjoint-write argument `spiral-verify` checks for the stage
//! executor, but trivially satisfied here).
//!
//! The failure model mirrors [`crate::ParallelExecutor`]: worker panics
//! surface as [`SpiralError::WorkerPanic`] instead of poisoning the
//! caller, the pool watchdog bounds a wedged run, and non-finite values
//! never leave the executor.

use crate::plan::{Plan, PlanWorkspace};
use spiral_smp::error::SpiralError;
use spiral_smp::pool::Pool;
use spiral_smp::trace::{Observer, SpanKind};
use spiral_spl::cplx::{first_non_finite, Cplx};
use std::time::Instant;

/// Executes batches of independent transforms across a persistent pool,
/// partitioned by the batch dimension.
pub struct BatchExecutor {
    pool: Pool,
    threads: usize,
}

/// Shared pointer to the per-transform output rows.
///
/// # Safety
///
/// `Sync` is sound because the batch partition assigns each transform
/// index `b` to exactly one thread (`share` produces disjoint
/// contiguous ranges covering `0..B`), and a thread touches only
/// `rows[b]` for its own `b` — no two threads ever alias a row, and the
/// rows themselves are separate allocations.
struct SharedRows {
    rows: *mut Vec<Cplx>,
    len: usize,
}
unsafe impl Sync for SharedRows {}

impl BatchExecutor {
    /// Executor with `threads` pool workers (including the caller).
    pub fn new(threads: usize) -> BatchExecutor {
        let threads = threads.max(1);
        BatchExecutor {
            pool: Pool::new(threads),
            threads,
        }
    }

    /// Number of worker threads (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the worker pool is in a runnable state.
    pub fn healthy(&self) -> bool {
        self.pool.healthy()
    }

    /// Execute `plan` once per input, in input order, as one pool
    /// dispatch. Output `b` is the transform of `inputs[b]`, elementwise
    /// identical to `plan.execute(&inputs[b])` (both run the same
    /// interpreter). Worker panics, a wedged pool, and non-finite output
    /// all return `Err` in bounded time, and the executor remains usable
    /// afterwards.
    pub fn try_execute_batch(
        &self,
        plan: &Plan,
        inputs: &[Vec<Cplx>],
    ) -> Result<Vec<Vec<Cplx>>, SpiralError> {
        self.try_execute_batch_with(plan, inputs, &())
    }

    /// [`try_execute_batch`](Self::try_execute_batch), reporting to `obs`
    /// one `PoolJob` span per thread and one
    /// [`SpanKind::BatchTransform`] span per transform (stage = transform
    /// index within the batch). With `&()` no clock is read.
    pub fn try_execute_batch_with<O: Observer>(
        &self,
        plan: &Plan,
        inputs: &[Vec<Cplx>],
        obs: &O,
    ) -> Result<Vec<Vec<Cplx>>, SpiralError> {
        for (b, x) in inputs.iter().enumerate() {
            if x.len() != plan.n {
                return Err(SpiralError::Plan(format!(
                    "batch input {b} has length {}, plan size is {}",
                    x.len(),
                    plan.n
                )));
            }
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let mut out: Vec<Vec<Cplx>> = inputs.iter().map(|_| vec![Cplx::ZERO; plan.n]).collect();
        let shared = SharedRows {
            rows: out.as_mut_ptr(),
            len: out.len(),
        };
        // Borrow the whole struct so the closure captures one
        // `&SharedRows` (disjoint capture would grab the bare non-Sync
        // pointer).
        let shared = &shared;
        let threads = self.threads;

        let job = |tid: usize| {
            let job_t0 = obs.active().then(Instant::now);
            let (lo, hi) = crate::plan::share(shared.len, threads, tid);
            PlanWorkspace::with_thread_local(|ws| {
                // `b` indexes `inputs` and the raw `shared.rows` pointer in
                // lockstep; an iterator over `inputs` would hide that pairing.
                #[allow(clippy::needless_range_loop)]
                for b in lo..hi {
                    let t0 = obs.active().then(Instant::now);
                    // Safety: see SharedRows — `b` ranges are disjoint across
                    // threads, so this is the row's only live reference.
                    let row: &mut Vec<Cplx> = unsafe { &mut *shared.rows.add(b) };
                    plan.execute_into(&inputs[b], row, ws);
                    if let Some(t0) = t0 {
                        let idx = crate::u32_idx(b);
                        obs.span(tid, SpanKind::BatchTransform, idx, t0, Instant::now());
                    }
                }
            });
            if let Some(t0) = job_t0 {
                obs.span(tid, SpanKind::PoolJob, 0, t0, Instant::now());
            }
        };
        self.pool.try_run(&job)?;

        // Corruption guard: non-finite values never leave the executor.
        for (b, row) in out.iter().enumerate() {
            if let Some(index) = first_non_finite(row) {
                return Err(SpiralError::NonFinite {
                    index,
                    context: format!("batch transform {b} of a {}-point plan", plan.n),
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_rewrite::sequential_dft;
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn plan_for(n: usize) -> Plan {
        Plan::from_formula(&sequential_dft(n, 8), 1, 4).unwrap()
    }

    fn batch_inputs(b: usize, n: usize) -> Vec<Vec<Cplx>> {
        (0..b)
            .map(|k| {
                (0..n)
                    .map(|j| Cplx::new(j as f64 + k as f64 * 0.25, k as f64 - j as f64 * 0.5))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_execute_bitwise() {
        let n = 64;
        let plan = plan_for(n);
        for p in [1usize, 2, 3, 4] {
            let exec = BatchExecutor::new(p);
            for b in [1usize, 2, 7, 16] {
                let xs = batch_inputs(b, n);
                let got = exec.try_execute_batch(&plan, &xs).unwrap();
                assert_eq!(got.len(), b);
                for (y, x) in got.iter().zip(&xs) {
                    // Same interpreter on both paths → bitwise equal.
                    assert_eq!(y, &plan.execute(x));
                }
            }
        }
    }

    #[test]
    fn batch_computes_the_dft() {
        let n = 32;
        let plan = plan_for(n);
        let exec = BatchExecutor::new(2);
        let xs = batch_inputs(5, n);
        let got = exec.try_execute_batch(&plan, &xs).unwrap();
        for (y, x) in got.iter().zip(&xs) {
            assert_slices_close(y, &dft(n).eval(x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn observed_batch_reports_one_span_per_transform_and_thread() {
        let (n, p, b) = (16usize, 3usize, 7usize);
        let plan = plan_for(n);
        let exec = BatchExecutor::new(p);
        let (xs, events) = (
            batch_inputs(b, n),
            crate::parallel::tests::Events::default(),
        );
        let got = exec.try_execute_batch_with(&plan, &xs, &events).unwrap();
        assert_eq!(got, exec.try_execute_batch(&plan, &xs).unwrap());
        let events = events.0.into_inner().unwrap();
        let count = |kind| events.iter().filter(|e| e.1 == Ok(kind)).count();
        assert_eq!(count(SpanKind::BatchTransform), b);
        assert_eq!(count(SpanKind::PoolJob), p);
        assert_eq!(events.len(), b + p, "a batch run has no barriers");
    }

    #[test]
    fn empty_batch_is_ok() {
        let exec = BatchExecutor::new(2);
        assert!(exec
            .try_execute_batch(&plan_for(16), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn wrong_length_input_is_rejected() {
        let exec = BatchExecutor::new(2);
        let mut xs = batch_inputs(3, 16);
        xs[1].pop();
        let err = exec.try_execute_batch(&plan_for(16), &xs).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)), "{err}");
        assert!(err.to_string().contains("batch input 1"));
    }

    #[test]
    fn executor_is_reusable_across_batches_and_plans() {
        let exec = BatchExecutor::new(3);
        for n in [16usize, 64, 32] {
            let plan = plan_for(n);
            let xs = batch_inputs(9, n);
            let got = exec.try_execute_batch(&plan, &xs).unwrap();
            for (y, x) in got.iter().zip(&xs) {
                assert_eq!(y, &plan.execute(x));
            }
        }
        assert!(exec.healthy());
    }

    #[test]
    fn more_threads_than_transforms_is_fine() {
        let n = 16;
        let plan = plan_for(n);
        let exec = BatchExecutor::new(4);
        let xs = batch_inputs(2, n);
        let got = exec.try_execute_batch(&plan, &xs).unwrap();
        for (y, x) in got.iter().zip(&xs) {
            assert_eq!(y, &plan.execute(x));
        }
    }
}
