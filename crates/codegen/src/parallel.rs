//! Multithreaded plan execution on the `spiral-smp` substrate.
//!
//! Mirrors the generated pthreads code the paper describes: a persistent
//! worker pool, one statically scheduled portion per thread per step, one
//! barrier per step, cache-line aligned shared buffers, and per-thread
//! private scratch.
//!
//! ## Failure model
//!
//! [`ParallelExecutor::try_execute`] is the fallible entry point:
//!
//! * a panic on any logical thread (including the caller) is caught by
//!   the pool and surfaces as [`SpiralError::WorkerPanic`];
//! * a dead peer is bounded by the stage-barrier watchdog
//!   ([`ParallelExecutor::set_watchdog`]): survivors observe
//!   [`SpiralError::BarrierTimeout`] within the deadline, mark the run
//!   failed, and drain, so the caller gets an `Err` instead of a
//!   deadlock;
//! * results are scanned before they leave the executor — non-finite
//!   output yields [`SpiralError::NonFinite`], never a silently
//!   corrupted `Ok`;
//! * after any failed run the stage barrier is reset, so the same
//!   executor (and pool) runs subsequent healthy plans;
//! * [`ParallelExecutor::execute_resilient`] additionally degrades to
//!   the verified sequential interpreter (`Plan::execute`) when the pool
//!   is unhealthy or the parallel run hits a runtime fault.
//!
//! With the `faults` feature, deterministic faults (panics, delays, NaN
//! corruption) can be injected at any `(stage, thread)` point via
//! `spiral_smp::faults` to exercise all of the above.

use crate::plan::{Plan, Step};
use spiral_smp::align::AlignedVec;
use spiral_smp::barrier::{Barrier, BarrierKind};
use spiral_smp::error::{lock_recover, SpiralError};
use spiral_smp::pool::Pool;
use spiral_spl::cplx::{first_non_finite, Cplx};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default stage-barrier watchdog. Generous: a healthy stage never takes
/// seconds, so tripping it means a peer is dead or wedged.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Result of [`ParallelExecutor::execute_resilient`].
pub struct ExecOutcome {
    /// The transform output.
    pub output: Vec<Cplx>,
    /// `None` when the parallel path succeeded; `Some(cause)` when the
    /// executor degraded to the sequential interpreter because of this
    /// runtime fault.
    pub degraded: Option<SpiralError>,
}

/// Reusable parallel executor: owns the pool, barrier, and buffers.
pub struct ParallelExecutor {
    pool: Pool,
    barrier: Box<dyn Barrier>,
    threads: usize,
    watchdog: Duration,
}

/// Shared mutable buffer pointers for the workers.
///
/// # Safety
///
/// `Sync` is sound only for plans satisfying the invariant the
/// `spiral-verify` analyzer checks statically over the stage IR: in every
/// step, per-thread write index sets are pairwise disjoint and in bounds,
/// and reads target only the opposite ping-pong buffer, whose contents
/// were fixed before the barrier that opened the step. Under that
/// invariant no two threads ever form a data race on `a`/`b` — writes are
/// unaliased, and every read-after-write pair is ordered by a barrier.
/// All plans produced by `Plan::from_formula` satisfy it; debug builds
/// additionally re-verify each plan through the [`crate::validate`]
/// registry when an analyzer is installed
/// (`spiral_verify::install_executor_guard`).
struct SharedBufs {
    a: *mut Cplx,
    b: *mut Cplx,
    n: usize,
}
unsafe impl Sync for SharedBufs {}

/// The pool must outwait the stage barrier: when a run fails, survivors
/// each burn at most one barrier deadline before draining, and a delayed
/// straggler can burn one more.
fn pool_watchdog(stage_watchdog: Duration) -> Duration {
    stage_watchdog * 2 + Duration::from_millis(250)
}

/// Optional tracing context threaded through [`ParallelExecutor`]'s
/// internal run path. Without the `trace` feature this is a zero-sized
/// struct and every use compiles out — `try_execute` is byte-for-byte
/// the untraced executor.
#[derive(Clone, Copy, Default)]
struct ExecTrace<'a> {
    /// Where per-(stage, thread) timings go, when tracing this run.
    #[cfg(feature = "trace")]
    sink: Option<&'a dyn spiral_smp::trace::TraceSink>,
    /// Where timestamped spans/instants go, when timelining this run.
    #[cfg(feature = "trace")]
    timeline: Option<&'a dyn spiral_smp::trace::TimelineSink>,
    _marker: std::marker::PhantomData<&'a ()>,
}

#[cfg(feature = "trace")]
impl ExecTrace<'_> {
    /// Any sink attached — timestamps must be taken for this run.
    fn observing(&self) -> bool {
        self.sink.is_some() || self.timeline.is_some()
    }
}

impl ParallelExecutor {
    /// Build an executor with `threads` workers and the given barrier.
    pub fn new(threads: usize, kind: BarrierKind) -> ParallelExecutor {
        ParallelExecutor::with_watchdog(threads, kind, DEFAULT_WATCHDOG)
    }

    /// Build an executor with an explicit stage-barrier watchdog.
    pub fn with_watchdog(
        threads: usize,
        kind: BarrierKind,
        watchdog: Duration,
    ) -> ParallelExecutor {
        let threads = threads.max(1);
        ParallelExecutor {
            pool: Pool::with_watchdog(threads, pool_watchdog(watchdog)),
            barrier: kind.build(threads),
            threads,
            watchdog,
        }
    }

    /// Auto-select the barrier for this host (spin if cores ≥ threads).
    pub fn with_auto_barrier(threads: usize) -> ParallelExecutor {
        ParallelExecutor::new(threads, BarrierKind::auto(threads))
    }

    /// Number of worker threads (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured stage-barrier watchdog.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Change the stage-barrier watchdog (the pool-level watchdog is
    /// derived from it).
    pub fn set_watchdog(&mut self, watchdog: Duration) {
        self.watchdog = watchdog;
        self.pool.set_watchdog(pool_watchdog(watchdog));
    }

    /// True when the worker pool is in a runnable state.
    pub fn healthy(&self) -> bool {
        self.pool.healthy()
    }

    /// Execute `plan` on `x`. The plan's `threads` must not exceed the
    /// executor's. Returns the transform output. Panics on any execution
    /// failure; see [`try_execute`](Self::try_execute) for the fallible
    /// variant.
    pub fn execute(&self, plan: &Plan, x: &[Cplx]) -> Vec<Cplx> {
        match self.try_execute(plan, x) {
            Ok(y) => y,
            Err(e) => panic!("{e}"),
        }
    }

    /// Execute `plan` on `x`, propagating failures instead of panicking
    /// or deadlocking: worker panics, barrier watchdog expiries, failed
    /// allocations, and non-finite output all return `Err` in bounded
    /// time, and the executor remains usable afterwards.
    pub fn try_execute(&self, plan: &Plan, x: &[Cplx]) -> Result<Vec<Cplx>, SpiralError> {
        self.exec_impl(plan, x, ExecTrace::default())
    }

    /// Execute `plan` on `x` while recording per-(stage, thread) compute
    /// time, barrier-wait time, job counts, and element counts into a
    /// fresh `spiral_trace::Collector`, returning the output together
    /// with the aggregated [`spiral_trace::RunProfile`]. Failure behavior
    /// is identical to [`try_execute`](Self::try_execute).
    ///
    /// Only available with the `trace` feature; without it the executor
    /// carries no instrumentation at all.
    #[cfg(feature = "trace")]
    pub fn try_execute_traced(
        &self,
        plan: &Plan,
        x: &[Cplx],
    ) -> Result<(Vec<Cplx>, spiral_trace::RunProfile), SpiralError> {
        self.observed_impl(plan, x, None)
    }

    /// Like [`try_execute_traced`](Self::try_execute_traced), but
    /// additionally stream timestamped spans and instants (pool job,
    /// per-stage compute, barrier arrive→release, watchdog fires) into
    /// `timeline` — the event source for Chrome-trace/Perfetto export
    /// (`spiral_trace::Timeline`). The returned [`spiral_trace::RunProfile`]
    /// aggregates the *same* run, so timeline durations can be
    /// cross-checked against profile totals.
    ///
    /// Only available with the `trace` feature.
    #[cfg(feature = "trace")]
    pub fn try_execute_observed(
        &self,
        plan: &Plan,
        x: &[Cplx],
        timeline: &dyn spiral_smp::trace::TimelineSink,
    ) -> Result<(Vec<Cplx>, spiral_trace::RunProfile), SpiralError> {
        self.observed_impl(plan, x, Some(timeline))
    }

    #[cfg(feature = "trace")]
    fn observed_impl(
        &self,
        plan: &Plan,
        x: &[Cplx],
        timeline: Option<&dyn spiral_smp::trace::TimelineSink>,
    ) -> Result<(Vec<Cplx>, spiral_trace::RunProfile), SpiralError> {
        let collector = spiral_trace::Collector::new(self.threads, plan.steps.len());
        let wall_t0 = std::time::Instant::now();
        let out = self.exec_impl(
            plan,
            x,
            ExecTrace {
                sink: Some(&collector),
                timeline,
                _marker: std::marker::PhantomData,
            },
        )?;
        let wall = wall_t0.elapsed();
        let labels: Vec<String> = plan.steps.iter().map(|s| s.label()).collect();
        Ok((out, collector.finish(plan.n, &labels, wall)))
    }

    fn exec_impl(
        &self,
        plan: &Plan,
        x: &[Cplx],
        tr: ExecTrace<'_>,
    ) -> Result<Vec<Cplx>, SpiralError> {
        let _ = &tr;
        if x.len() != plan.n {
            return Err(SpiralError::Plan(format!(
                "input length {} does not match plan size {}",
                x.len(),
                plan.n
            )));
        }
        if plan.threads > self.threads {
            return Err(SpiralError::Plan(format!(
                "plan wants {} threads, executor has {}",
                plan.threads, self.threads
            )));
        }
        // The soundness of the `unsafe` buffer sharing below is a static
        // property of the plan (see `SharedBufs`); debug builds re-check
        // it with the installed analyzer before running anything.
        #[cfg(debug_assertions)]
        if let Some(validate) = crate::plan::validator() {
            if let Err(e) = validate(plan) {
                return Err(SpiralError::Plan(format!(
                    "plan failed static verification: {e}"
                )));
            }
        }
        let n = plan.n;
        let mut buf_a: AlignedVec<Cplx> =
            AlignedVec::try_with_alignment(n.max(1), spiral_smp::CACHE_LINE_BYTES)?;
        let mut buf_b: AlignedVec<Cplx> =
            AlignedVec::try_with_alignment(n.max(1), spiral_smp::CACHE_LINE_BYTES)?;
        buf_a.copy_from(x);
        let _ = &mut buf_b;
        let shared = SharedBufs {
            a: buf_a.as_ptr(),
            b: buf_b.as_ptr(),
            n,
        };
        // Borrow the whole struct so the closure captures one `&SharedBufs`
        // (edition-2021 disjoint capture would otherwise grab `&*mut Cplx`,
        // which is not Sync).
        let shared = &shared;
        let barrier = &*self.barrier;
        let threads = self.threads;
        let watchdog = self.watchdog;
        let tmp_dim = plan.max_local_dim().max(1);

        #[cfg(feature = "faults")]
        spiral_smp::faults::begin_run();

        // First stage-level failure (barrier timeout) observed by any
        // thread; `failed` lets the other threads drain at the next
        // stage boundary instead of waiting out their own deadline.
        let stage_err: Mutex<Option<SpiralError>> = Mutex::new(None);
        let failed = AtomicBool::new(false);

        let job = |tid: usize| {
            let mut tmp: AlignedVec<Cplx> = AlignedVec::new(tmp_dim);
            for (si, step) in plan.steps.iter().enumerate() {
                if failed.load(Ordering::Acquire) {
                    break;
                }
                // Ping-pong: even steps read A write B.
                // Safety: see SharedBufs — disjoint writes, barrier-ordered
                // reads.
                let (src, dst): (&[Cplx], *mut Cplx) = unsafe {
                    if si % 2 == 0 {
                        (std::slice::from_raw_parts(shared.a, shared.n), shared.b)
                    } else {
                        (std::slice::from_raw_parts(shared.b, shared.n), shared.a)
                    }
                };
                #[cfg(feature = "faults")]
                let corrupt = match spiral_smp::faults::at(si, tid) {
                    Some(spiral_smp::faults::Fault::Panic) => {
                        panic!("injected fault: panic at stage {si}, thread {tid}")
                    }
                    Some(spiral_smp::faults::Fault::Delay(d)) => {
                        std::thread::sleep(d);
                        false
                    }
                    Some(spiral_smp::faults::Fault::CorruptNan) => true,
                    None => false,
                };
                #[cfg(feature = "trace")]
                let compute_t0 = tr.observing().then(std::time::Instant::now);
                // SAFETY: see SharedBufs — each thread writes only its own
                // portion of `dst`, and `src` is the other buffer.
                unsafe {
                    run_step_portion(step, n, plan.mu.max(1), tid, threads, src, dst, &mut tmp);
                }
                #[cfg(feature = "trace")]
                let compute_t1 = tr.observing().then(std::time::Instant::now);
                #[cfg(feature = "faults")]
                if corrupt {
                    inject_nan(step, n, plan.mu.max(1), tid, threads, dst);
                }
                #[cfg(feature = "trace")]
                let barrier_t0 = tr.observing().then(std::time::Instant::now);
                let waited = barrier.wait_deadline(watchdog);
                #[cfg(feature = "trace")]
                if let (Some(t0), Some(t1), Some(b0)) = (compute_t0, compute_t1, barrier_t0) {
                    // Arrival → release span: on a clean stage this is the
                    // time spent blocked waiting for slower peers.
                    let b1 = std::time::Instant::now();
                    if let Some(sink) = tr.sink {
                        let (jobs, elements) = portion_stats(step, n, plan.mu.max(1), tid, threads);
                        sink.stage(tid, si, t1 - t0, b1 - b0, jobs, elements);
                    }
                    if let Some(tl) = tr.timeline {
                        use spiral_smp::trace::{MarkKind, SpanKind};
                        let si = crate::u32_idx(si);
                        tl.span(tid, SpanKind::StageCompute, si, t0, t1);
                        tl.span(tid, SpanKind::BarrierWait, si, b0, b1);
                        let mark = match &waited {
                            Ok(_) => MarkKind::BarrierRelease,
                            Err(_) => MarkKind::WatchdogFire,
                        };
                        tl.mark(tid, mark, si, b1);
                    }
                }
                if let Err(e) = waited {
                    failed.store(true, Ordering::Release);
                    let mut slot = lock_recover(&stage_err);
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            }
        };
        #[cfg(feature = "trace")]
        let run_result = if tr.observing() {
            self.pool.try_run_observed(&job, tr.sink, tr.timeline)
        } else {
            self.pool.try_run(&job)
        };
        #[cfg(not(feature = "trace"))]
        let run_result = self.pool.try_run(&job);

        // A failed run can leave the stage barrier mid-phase (retracted
        // arrivals, stale count); restore it before anyone reuses us.
        if run_result.is_err() || failed.load(Ordering::Acquire) {
            self.barrier.reset();
        }
        run_result?;
        if let Some(e) = lock_recover(&stage_err).take() {
            return Err(e);
        }

        let result_in_a = plan.steps.len().is_multiple_of(2);
        let out = if result_in_a {
            buf_a.as_slice().to_vec()
        } else {
            buf_b.as_slice().to_vec()
        };
        // Corruption guard: non-finite values never leave the executor.
        if let Some(index) = first_non_finite(&out) {
            return Err(SpiralError::NonFinite {
                index,
                context: format!("parallel execution of a {n}-point plan"),
            });
        }
        Ok(out)
    }

    /// Execute `plan` with graceful degradation: when the pool is
    /// unhealthy, or the parallel run fails with a runtime fault (panic,
    /// watchdog expiry, corrupted output), fall back to the verified
    /// sequential interpreter and report the cause in
    /// [`ExecOutcome::degraded`]. Deterministic misuse (size mismatch,
    /// failed static verification) is returned as `Err` — retrying
    /// cannot fix it.
    pub fn execute_resilient(&self, plan: &Plan, x: &[Cplx]) -> Result<ExecOutcome, SpiralError> {
        if self.pool.healthy() {
            match self.try_execute(plan, x) {
                Ok(output) => {
                    return Ok(ExecOutcome {
                        output,
                        degraded: None,
                    })
                }
                Err(e) if e.is_runtime_fault() => return self.sequential_rescue(plan, x, e),
                Err(e) => return Err(e),
            }
        }
        self.sequential_rescue(plan, x, SpiralError::PoolUnhealthy)
    }

    fn sequential_rescue(
        &self,
        plan: &Plan,
        x: &[Cplx],
        cause: SpiralError,
    ) -> Result<ExecOutcome, SpiralError> {
        let output = catch_unwind(AssertUnwindSafe(|| plan.execute(x))).map_err(|p| {
            SpiralError::WorkerPanic {
                thread: 0,
                payload: spiral_smp::panic_payload(p),
            }
        })?;
        if let Some(index) = first_non_finite(&output) {
            return Err(SpiralError::NonFinite {
                index,
                context: format!("sequential fallback of a {}-point plan", plan.n),
            });
        }
        Ok(ExecOutcome {
            output,
            degraded: Some(cause),
        })
    }
}

/// Write one NaN into an element of `dst` that thread `tid` owns in this
/// step (fault injection: models silent corruption of the thread's
/// output portion). No-op when the thread writes nothing this step.
#[cfg(feature = "faults")]
fn inject_nan(step: &Step, n: usize, plan_mu: usize, tid: usize, threads: usize, dst: *mut Cplx) {
    let idx = match step {
        Step::Seq(_) => (tid == 0 && n > 0).then_some(0),
        Step::Par {
            chunk, programs, ..
        } => {
            // Chunk `c` runs on thread `c % threads`, so the first chunk
            // owned by `tid` is chunk `tid` itself.
            (tid < programs.len() && *chunk > 0).then(|| tid * *chunk)
        }
        Step::Exchange { mu, .. } => {
            let (lo, hi) = share(n / mu, threads, tid);
            (hi > lo).then(|| lo * mu)
        }
        Step::ScaleAll(_) => {
            let blocks = n / plan_mu;
            let (b_lo, b_hi) = share(blocks, threads, tid);
            let lo = b_lo * plan_mu;
            let hi = if tid == threads - 1 {
                n
            } else {
                b_hi * plan_mu
            };
            (hi > lo).then_some(lo)
        }
    };
    if let Some(i) = idx {
        // Safety: `i` is within thread `tid`'s disjoint write portion of
        // this step (same ownership argument as `run_step_portion`).
        unsafe { *dst.add(i) = Cplx::new(f64::NAN, f64::NAN) };
    }
}

/// Execute thread `tid`'s statically scheduled portion of one step. The
/// sequential executor ([`Plan::execute_into`]) runs every step as the
/// portion of thread 0 of 1, so both executors share this code.
///
/// # Safety
///
/// `dst` must point to `n` writable elements that do not overlap `src`,
/// and while this call runs no other thread may access the part of
/// them that thread `tid` of `threads` writes for `step`.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn run_step_portion(
    step: &Step,
    n: usize,
    plan_mu: usize,
    tid: usize,
    threads: usize,
    src: &[Cplx],
    dst: *mut Cplx,
    tmp: &mut [Cplx],
) {
    match step {
        Step::Seq(prog) => {
            if tid == 0 {
                // Safety: only thread 0 writes during a Seq step.
                let dst = unsafe { std::slice::from_raw_parts_mut(dst, n) };
                prog.run(src, dst, tmp);
            }
        }
        Step::Par {
            chunk,
            programs,
            gather,
        } => {
            for (c, prog) in programs.iter().enumerate() {
                if c % threads != tid {
                    continue;
                }
                let s = c * chunk;
                // Safety: chunk ranges are disjoint across c, and each c
                // is handled by exactly one thread. Gathered reads touch
                // the whole (read-only this step) src buffer.
                let dst_chunk = unsafe { std::slice::from_raw_parts_mut(dst.add(s), *chunk) };
                let view = match gather {
                    Some(g) => crate::stage::SrcView::Gathered {
                        buf: src,
                        gather: g,
                        off: s,
                    },
                    None => crate::stage::SrcView::Local(&src[s..s + chunk]),
                };
                prog.run_view(view, dst_chunk, &mut tmp[..*chunk]);
            }
        }
        Step::Exchange { table, mu } => {
            let blocks = n / mu;
            let (lo, hi) = share(blocks, threads, tid);
            // Safety: [lo·µ, hi·µ) ranges are disjoint across threads.
            let out = unsafe { std::slice::from_raw_parts_mut(dst.add(lo * mu), (hi - lo) * mu) };
            for (k, o) in out.iter_mut().enumerate() {
                *o = src[table[lo * mu + k] as usize];
            }
        }
        Step::ScaleAll(w) => {
            // Split by whole cache lines, matching `Plan::run_traced` —
            // an element-granular split would let two threads write-share
            // a line. The last thread also takes the sub-line tail, if
            // n is not a multiple of µ.
            let blocks = n / plan_mu;
            let (b_lo, b_hi) = share(blocks, threads, tid);
            let lo = b_lo * plan_mu;
            let hi = if tid == threads - 1 {
                n
            } else {
                b_hi * plan_mu
            };
            if hi > lo {
                // Safety: [lo, hi) ranges are disjoint across threads.
                let out = unsafe { std::slice::from_raw_parts_mut(dst.add(lo), hi - lo) };
                for (k, o) in out.iter_mut().enumerate() {
                    *o = src[lo + k] * w[lo + k];
                }
            }
        }
    }
}

/// `(jobs, elements)` of thread `tid`'s statically scheduled portion of
/// one step — the same schedule `run_step_portion` executes. Jobs are
/// schedulable units (chunks, block ranges); elements are output
/// elements written. Deterministic, so trace profiles can cross-check
/// `spiral-verify`'s static load-balance verdicts without relying on
/// timing.
#[cfg(feature = "trace")]
fn portion_stats(step: &Step, n: usize, plan_mu: usize, tid: usize, threads: usize) -> (u64, u64) {
    match step {
        Step::Seq(_) => {
            if tid == 0 {
                (1, n as u64)
            } else {
                (0, 0)
            }
        }
        Step::Par {
            chunk, programs, ..
        } => {
            let count = (0..programs.len()).filter(|c| c % threads == tid).count() as u64;
            (count, count * *chunk as u64)
        }
        Step::Exchange { mu, .. } => {
            let (lo, hi) = share(n / mu, threads, tid);
            ((hi - lo) as u64, ((hi - lo) * mu) as u64)
        }
        Step::ScaleAll(_) => {
            let blocks = n / plan_mu;
            let (b_lo, b_hi) = share(blocks, threads, tid);
            let lo = b_lo * plan_mu;
            let hi = if tid == threads - 1 {
                n
            } else {
                b_hi * plan_mu
            };
            (u64::from(hi > lo), (hi.saturating_sub(lo)) as u64)
        }
    }
}

fn share(total: usize, p: usize, tid: usize) -> (usize, usize) {
    let base = total / p;
    let rem = total % p;
    let lo = tid * base + tid.min(rem);
    (lo, lo + base + usize::from(tid < rem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(j as f64 * 0.5, 3.0 - j as f64))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_execution() {
        for (n, p) in [(64usize, 2usize), (256, 2), (256, 4), (1024, 4)] {
            let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, p, 4).unwrap();
            let exec = ParallelExecutor::new(p, BarrierKind::Park);
            let x = ramp(n);
            let got = exec.execute(&plan, &x);
            assert_slices_close(&got, &plan.execute(&x), 1e-12);
            assert_slices_close(&got, &dft(n).eval(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn spin_barrier_also_correct() {
        let (n, p) = (256usize, 2usize);
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, p, 4).unwrap();
        let exec = ParallelExecutor::new(p, BarrierKind::Spin);
        let x = ramp(n);
        assert_slices_close(&exec.execute(&plan, &x), &dft(n).eval(&x), 1e-6);
    }

    #[test]
    fn sequential_plan_on_parallel_executor() {
        // A sequential plan (Seq steps) must still run correctly with
        // multiple threads (others idle at barriers).
        let n = 64;
        let f = sequential_dft(n, 8);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        let x = ramp(n);
        assert_slices_close(&exec.execute(&plan, &x), &dft(n).eval(&x), 1e-7);
    }

    #[test]
    fn executor_is_reusable() {
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        for n in [64usize, 256] {
            let f = multicore_dft_expanded(n, 2, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, 2, 4).unwrap();
            let x = ramp(n);
            for _ in 0..3 {
                assert_slices_close(&exec.execute(&plan, &x), &dft(n).eval(&x), 1e-6);
            }
        }
    }

    #[test]
    fn odd_step_count_lands_in_right_buffer() {
        // An identity plan with a single Exchange step (odd count).
        use spiral_spl::builder::*;
        let f = stride(16, 4);
        let plan = Plan::from_formula(&f, 1, 1).unwrap();
        assert_eq!(plan.steps.len() % 2, 1);
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        let x = ramp(16);
        assert_slices_close(&exec.execute(&plan, &x), &f.eval(&x), 0.0);
    }

    #[test]
    #[should_panic(expected = "plan wants")]
    fn rejects_undersized_executor() {
        let f = multicore_dft_expanded(64, 4, 2, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 4, 2).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        exec.execute(&plan, &ramp(64));
    }

    #[test]
    fn try_execute_rejects_bad_input_as_err() {
        let f = multicore_dft_expanded(64, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        // Wrong input length.
        let err = exec.try_execute(&plan, &ramp(63)).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)));
        // Undersized executor.
        let big =
            Plan::from_formula(&multicore_dft_expanded(64, 4, 2, None, 8).unwrap(), 4, 2).unwrap();
        let err = exec.try_execute(&big, &ramp(64)).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)));
        // Neither is a runtime fault: the resilient path must not retry.
        assert!(!err.is_runtime_fault());
    }

    #[test]
    fn resilient_path_matches_plain_execution_when_healthy() {
        let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        let exec = ParallelExecutor::new(2, BarrierKind::Park);
        let x = ramp(256);
        let outcome = exec.execute_resilient(&plan, &x).unwrap();
        assert!(outcome.degraded.is_none());
        assert_slices_close(&outcome.output, &plan.execute(&x), 1e-12);
    }
}
