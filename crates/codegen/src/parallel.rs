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
//!   executor (and pool) runs subsequent healthy plans.
//!
//! With the `faults` feature, deterministic faults (panics, delays, NaN
//! corruption) can be injected at any `(stage, thread)` point via
//! `spiral_smp::faults` to exercise all of the above.
//!
//! ## Observation
//!
//! [`ParallelExecutor::try_execute_with`] reports each thread's pool job,
//! per-stage compute and barrier wait as spans, and each barrier release
//! or watchdog fire as a mark, to a [`spiral_smp::trace::Observer`]. The
//! plain entry points pass the no-op `&()`, which monomorphises to the
//! uninstrumented loop.

use crate::plan::{ElementOp, Plan, Portion};
use spiral_smp::align::AlignedVec;
use spiral_smp::barrier::{Barrier, BarrierKind};
use spiral_smp::error::{lock_recover, SpiralError};
use spiral_smp::pool::Pool;
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use spiral_spl::cplx::{first_non_finite, Cplx};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default stage-barrier watchdog. Generous: a healthy stage never takes
/// seconds, so tripping it means a peer is dead or wedged.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Reusable parallel executor: owns the pool, barrier, and buffers.
pub struct ParallelExecutor {
    pool: Pool,
    barrier: Box<dyn Barrier>,
    threads: usize,
    watchdog: Duration,
    /// Held for a whole run, so concurrent callers take turns.
    workspace: Mutex<Workspace>,
}

/// Buffers reused across runs: the ping-pong pair and each thread's
/// private scratch, grown to the largest plan run so far (never shrunk).
/// A warm run allocates only the vector it returns.
struct Workspace {
    a: AlignedVec<Cplx>,
    b: AlignedVec<Cplx>,
    tmp: Vec<AlignedVec<Cplx>>,
}

impl Workspace {
    /// Grow to `n`-element ping-pong buffers and `threads` scratch
    /// buffers of `local` elements.
    fn fit(&mut self, n: usize, local: usize, threads: usize) -> Result<(), SpiralError> {
        let line = spiral_smp::CACHE_LINE_BYTES;
        if self.a.len() < n {
            self.a = AlignedVec::try_with_alignment(n, line)?;
            self.b = AlignedVec::try_with_alignment(n, line)?;
        }
        if self.tmp.first().is_none_or(|t| t.len() < local) {
            self.tmp = (0..threads)
                .map(|_| AlignedVec::try_with_alignment(local, line))
                .collect::<Result<_, _>>()?;
        }
        Ok(())
    }
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
/// invariant no two threads ever form a data race on `a`/`b`/`out` —
/// writes are unaliased, and every read-after-write pair is ordered by a
/// barrier. Step 0 reads the caller's input `x`, and the last step writes
/// the returned vector `out`, so no step reads the buffer it writes.
/// Within a step, a chunk program's in-place passes read back only its
/// own output chunk, which no other thread touches during the step.
/// Thread `tid` alone uses `tmp[tid]`.
/// All plans produced by `Plan::from_formula` satisfy it; debug builds
/// additionally re-verify each plan through the validator registered
/// with [`crate::plan::install_validator`]
/// (`spiral_verify::install_executor_guard` installs the analyzer).
struct SharedBufs {
    x: *const Cplx,
    a: *mut Cplx,
    b: *mut Cplx,
    out: *mut Cplx,
    tmp: *mut AlignedVec<Cplx>,
    n: usize,
    last: usize,
}
unsafe impl Sync for SharedBufs {}

/// The pool must outwait the stage barrier: when a run fails, survivors
/// each burn at most one barrier deadline before draining, and a delayed
/// straggler can burn one more.
fn pool_watchdog(stage_watchdog: Duration) -> Duration {
    stage_watchdog * 2 + Duration::from_millis(250)
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
            workspace: Mutex::new(Workspace {
                a: AlignedVec::new(0),
                b: AlignedVec::new(0),
                tmp: Vec::new(),
            }),
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
        self.try_execute_with(plan, x, &())
    }

    /// [`try_execute`](Self::try_execute), reporting the run to `obs`:
    /// per thread, one `PoolJob` span, and per stage a `StageCompute`
    /// span (carrying the portion's deterministic job and element
    /// counts), a `BarrierWait` span (arrival → release) and a
    /// `BarrierRelease` or `WatchdogFire` mark. With `&()` no clock is
    /// read. Failure behavior is identical.
    pub fn try_execute_with<O: Observer>(
        &self,
        plan: &Plan,
        x: &[Cplx],
        obs: &O,
    ) -> Result<Vec<Cplx>, SpiralError> {
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
        let Some(last) = plan.steps.len().checked_sub(1) else {
            return Ok(x.to_vec());
        };
        let mut ws = lock_recover(&self.workspace);
        ws.fit(n, plan.tmp_dim(), self.threads)?;
        // The one allocation of a warm run: the last step writes here.
        let mut out = vec![Cplx::ZERO; n];
        let shared = SharedBufs {
            x: x.as_ptr(),
            a: ws.a.as_ptr(),
            b: ws.b.as_ptr(),
            out: out.as_mut_ptr(),
            tmp: ws.tmp.as_mut_ptr(),
            n,
            last,
        };
        // Borrow the whole struct so the closure captures one `&SharedBufs`
        // (edition-2021 disjoint capture would otherwise grab `&*mut Cplx`,
        // which is not Sync).
        let shared = &shared;
        let barrier = &*self.barrier;
        let threads = self.threads;
        let watchdog = self.watchdog;

        #[cfg(feature = "faults")]
        spiral_smp::faults::begin_run();

        // First stage-level failure (barrier timeout) observed by any
        // thread; `failed` lets the other threads drain at the next
        // stage boundary instead of waiting out their own deadline.
        let stage_err: Mutex<Option<SpiralError>> = Mutex::new(None);
        let failed = AtomicBool::new(false);

        let job = |tid: usize| {
            let job_t0 = obs.active().then(Instant::now);
            // Safety: see SharedBufs — `tmp[tid]` is this thread's alone.
            let tmp = unsafe { &mut *shared.tmp.add(tid) };
            for (si, step) in plan.steps.iter().enumerate() {
                if failed.load(Ordering::Acquire) {
                    break;
                }
                // Step 0 reads `x`; then ping-pong, even steps writing A
                // and odd steps B; the last step writes `out`.
                let src: *const Cplx = match si {
                    0 => shared.x,
                    _ if si % 2 == 1 => shared.a,
                    _ => shared.b,
                };
                let dst = match si {
                    _ if si == shared.last => shared.out,
                    _ if si % 2 == 0 => shared.a,
                    _ => shared.b,
                };
                // Safety: see SharedBufs — disjoint writes, barrier-ordered
                // reads, and `src` is never `dst`.
                let src = unsafe { std::slice::from_raw_parts(src, shared.n) };
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
                let portion = step.portion(n, plan.mu, tid, threads);
                let t0 = obs.active().then(Instant::now);
                // SAFETY: see SharedBufs — each thread writes only its own
                // portion of `dst`, and `src` is the other buffer.
                unsafe { run_portion(&portion, src, dst, tmp) };
                #[cfg(feature = "faults")]
                if corrupt {
                    inject_nan(&portion, dst);
                }
                let t1 = t0.map(|_| Instant::now());
                let waited = barrier.wait_deadline(watchdog);
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    // Arrival → release: on a clean stage this is the
                    // time spent blocked waiting for slower peers.
                    let b1 = Instant::now();
                    let (jobs, elements) = portion.stats();
                    let si = crate::u32_idx(si);
                    obs.span(tid, SpanKind::StageCompute { jobs, elements }, si, t0, t1);
                    obs.span(tid, SpanKind::BarrierWait, si, t1, b1);
                    let mark = match &waited {
                        Ok(_) => MarkKind::BarrierRelease,
                        Err(_) => MarkKind::WatchdogFire,
                    };
                    obs.mark(tid, mark, si, b1);
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
            if let Some(t0) = job_t0 {
                obs.span(tid, SpanKind::PoolJob, 0, t0, Instant::now());
            }
        };
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
        // Corruption guard: non-finite values never leave the executor.
        if let Some(index) = first_non_finite(&out) {
            return Err(SpiralError::NonFinite {
                index,
                context: format!("parallel execution of a {n}-point plan"),
            });
        }
        Ok(out)
    }
}

/// Write one NaN into the first element of `dst` that the portion writes
/// (fault injection: models silent corruption of the thread's output
/// portion). No-op when the thread writes nothing this step.
#[cfg(feature = "faults")]
fn inject_nan(portion: &Portion, dst: *mut Cplx) {
    if let Some(r) = portion.writes().find(|r| !r.is_empty()) {
        // Safety: `r.start` is within the thread's disjoint write portion
        // of this step (same ownership argument as `run_portion`).
        unsafe { *dst.add(r.start) = Cplx::new(f64::NAN, f64::NAN) };
    }
}

/// Execute one thread's statically scheduled portion of a step
/// ([`crate::plan::Step::portion`]). The sequential executor
/// ([`Plan::execute_into`]) runs every step as the portion of thread 0 of
/// 1, so both executors share this code.
///
/// # Safety
///
/// `dst` must point to a buffer that holds every element the portion
/// writes and does not overlap `src`, and while this call runs no other
/// thread may access those elements.
pub(crate) unsafe fn run_portion(
    portion: &Portion,
    src: &[Cplx],
    dst: *mut Cplx,
    tmp: &mut [Cplx],
) {
    match portion {
        Portion::Chunks { chunk, gather, .. } => {
            for (c, prog) in portion.chunks() {
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
                prog.run_view(view, dst_chunk, tmp);
            }
        }
        Portion::Elements { range, op, .. } => {
            // Safety: the element ranges of a step are disjoint across
            // threads.
            let out = unsafe { std::slice::from_raw_parts_mut(dst.add(range.start), range.len()) };
            match op {
                ElementOp::Gather(table) => {
                    for (o, &t) in out.iter_mut().zip(&table[range.clone()]) {
                        *o = src[t as usize];
                    }
                }
                ElementOp::Scale(w) => {
                    for ((o, s), w) in out
                        .iter_mut()
                        .zip(&src[range.clone()])
                        .zip(&w[range.clone()])
                    {
                        *o = *s * *w;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        // Neither is a runtime fault: retrying cannot fix it.
        assert!(!err.is_runtime_fault());
    }

    /// Every span and mark one observed run reports, as `(tid, event)`.
    #[derive(Default)]
    pub(crate) struct Events(pub Mutex<Vec<(usize, Result<SpanKind, MarkKind>)>>);

    impl Observer for Events {
        fn span(&self, tid: usize, kind: SpanKind, _: u32, start: Instant, end: Instant) {
            assert!(start <= end);
            self.0.lock().unwrap().push((tid, Ok(kind)));
        }
        fn mark(&self, tid: usize, kind: MarkKind, _: u32, _: Instant) {
            self.0.lock().unwrap().push((tid, Err(kind)));
        }
    }

    #[test]
    fn observed_run_reports_every_span_and_mark() {
        let (n, p) = (256usize, 2usize);
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, p, 4).unwrap();
        let exec = ParallelExecutor::new(p, BarrierKind::Park);
        let (x, events) = (ramp(n), Events::default());
        let got = exec.try_execute_with(&plan, &x, &events).unwrap();
        assert_eq!(got, exec.execute(&plan, &x));
        let events = events.0.into_inner().unwrap();
        let count = |e: Result<SpanKind, MarkKind>| events.iter().filter(|v| v.1 == e).count();
        let stages = plan.steps.len() * p;
        // One pool job per thread; per stage and thread a barrier wait
        // and a release.
        assert_eq!(count(Ok(SpanKind::PoolJob)), p);
        assert_eq!(count(Ok(SpanKind::BarrierWait)), stages);
        assert_eq!(count(Err(MarkKind::BarrierRelease)), stages);
        // Compute spans carry the schedule: every stage writes the whole
        // vector exactly once.
        let elements: u64 = events
            .iter()
            .filter_map(|v| match v.1 {
                Ok(SpanKind::StageCompute { elements, .. }) => Some(elements),
                _ => None,
            })
            .sum();
        assert_eq!(elements, (plan.steps.len() * n) as u64);
    }

    /// One executor shared by two threads: the calls take turns on the
    /// pool and the workspace, every output is exact, and the whole run
    /// finishes in bounded time (a lost hand-off would hang it).
    #[test]
    fn shared_executor_serves_concurrent_callers() {
        use std::sync::{mpsc, Arc};
        let (n, p) = (4096usize, 2usize);
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        let plan = Arc::new(Plan::from_formula(&f, p, 4).unwrap().fuse_exchanges());
        let exec = Arc::new(ParallelExecutor::with_auto_barrier(p));
        let x = Arc::new(ramp(n));
        let want = Arc::new(exec.execute(&plan, &x));
        assert_slices_close(&want, &plan.execute(&x), 1e-12);
        let (tx, rx) = mpsc::channel();
        for caller in 0..2 {
            let (exec, plan, x, want, tx) = (
                Arc::clone(&exec),
                Arc::clone(&plan),
                Arc::clone(&x),
                Arc::clone(&want),
                tx.clone(),
            );
            std::thread::spawn(move || {
                let ok =
                    (0..200).all(|_| exec.try_execute(&plan, &x).ok().as_ref() == Some(&*want));
                tx.send((caller, ok)).unwrap();
            });
        }
        for _ in 0..2 {
            let (caller, ok) = rx
                .recv_timeout(Duration::from_secs(120))
                .expect("concurrent callers did not finish in 120 s");
            assert!(ok, "caller {caller} saw a wrong or failed output");
        }
    }
}
