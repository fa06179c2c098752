//! Plan execution on the `spiral-smp` substrate: one executor for single
//! transforms, batches and `p`-thread plans.
//!
//! Mirrors the generated pthreads code the paper describes: a persistent
//! worker pool, one statically scheduled portion per thread per step, one
//! barrier per step, a cache-line aligned shared step buffer, and
//! per-thread private scratch. [`Executor::try_run`] runs a plan once per
//! input row, into the caller's output rows:
//!
//! * a 1-thread plan runs one row on the caller, with no dispatch, and
//!   several rows split over the threads in one dispatch (below the
//!   parallel crossover, the batch dimension is the one to split);
//! * a `p`-thread plan runs each row on the static schedule
//!   ([`Step::portion`](crate::plan::Step::portion)) of an executor of
//!   exactly `p` threads, the schedule `spiral-verify` and the simulator
//!   check; any other thread count is an `Err`.
//!
//! This is the one contract for a transform call above this crate: the
//! facade's `SpiralFft::forward_into` runs every backend (Bluestein's
//! inner transforms included) as one row here, and the serving tier
//! runs its batches and its degraded one-row path here. So a wrong
//! length, a panic or a non-finite output is the same `Err` whichever
//! way a transform is called.
//!
//! Every thread runs its part of a row through one step loop
//! (`run_steps`); [`Plan::execute_into`] is its one-thread case, kept as
//! the unchecked reference the tests compare against. Every
//! path checks the row count and lengths and, in debug builds, the
//! installed plan validator; isolates panics ([`SpiralError::WorkerPanic`]);
//! bounds a dead peer by the step-barrier watchdog
//! ([`SpiralError::BarrierTimeout`]), resetting the barrier after any
//! failed run; and scans every output element once, on the thread that
//! wrote it, while it is still in that thread's cache
//! ([`SpiralError::NonFinite`]): the caller scans a row it ran alone,
//! each thread of a batch scans each of its rows right after running it,
//! and each thread of a `p`-thread plan scans its portion of the last
//! step before that step's barrier (inside the step's `StageCompute`
//! span). The error names the lowest bad `(row, index)`, as one scan of
//! every row in order would.
//! With the `faults` feature, panics, delays and NaN corruption can be
//! injected at any `(step, thread)` point of a `p`-thread run.
//!
//! `try_run` reports to an [`Observer`]: per dispatched thread one
//! `PoolJob` span; per step of a row a `StageCompute` span (with the
//! portion's job and element counts), plus on `p` threads a
//! `BarrierWait` span and a `BarrierRelease` or `WatchdogFire` mark; per
//! row of a batch one `BatchTransform` span. With `&()` no clock is read.

use crate::plan::{share, ElementOp, Plan, PlanWorkspace, Portion};
use crate::stage::{pass_buffers, ping_pong};
use spiral_smp::barrier::{Barrier, BarrierKind};
use spiral_smp::error::{lock_recover, panic_payload, SpiralError};
use spiral_smp::pool::Pool;
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use spiral_spl::cplx::{first_non_finite, Cplx};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default step-barrier watchdog. Generous: a healthy step never takes
/// seconds, so tripping it means a peer is dead or wedged.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

/// Runs plans on a persistent pool; see the module docs. Holds no
/// buffers: each thread's scratch is its own thread-local
/// [`PlanWorkspace`], and concurrent callers take turns inside the pool.
pub struct Executor {
    pool: Pool,
    barrier: Box<dyn Barrier>,
    threads: usize,
    watchdog: Duration,
}

/// The pool must outwait the step barrier: when a run fails, survivors
/// each burn at most one barrier deadline before draining, and a delayed
/// straggler can burn one more.
fn pool_watchdog(step_watchdog: Duration) -> Duration {
    step_watchdog * 2 + Duration::from_millis(250)
}

impl Executor {
    /// An executor of `threads` logical threads — the caller and
    /// `threads − 1` pool workers, so one thread starts none — with this
    /// host's barrier ([`BarrierKind::auto`]) and [`DEFAULT_WATCHDOG`].
    pub fn new(threads: usize) -> Executor {
        let threads = threads.max(1);
        Executor::with_barrier(threads, BarrierKind::auto(threads), DEFAULT_WATCHDOG)
    }

    /// An executor with an explicit step barrier and step-barrier
    /// watchdog (the pool's drain watchdog is derived from it).
    pub fn with_barrier(threads: usize, kind: BarrierKind, watchdog: Duration) -> Executor {
        let threads = threads.max(1);
        Executor {
            pool: Pool::with_watchdog(threads, pool_watchdog(watchdog)),
            barrier: kind.build(threads),
            threads,
            watchdog,
        }
    }

    /// Number of logical threads (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the worker pool is in a runnable state.
    pub fn healthy(&self) -> bool {
        self.pool.healthy()
    }

    /// Run `plan` once per row: `outputs[b]` becomes the transform of
    /// `inputs[b]`, bitwise equal to `plan.execute(&inputs[b])`. One
    /// transform is `try_run(plan, &[x], &mut [&mut out[..]], &())`. See
    /// the module docs for the paths, the checks and what `obs` receives.
    /// Every failure returns `Err` in bounded time, and the executor stays
    /// usable afterwards. A warm call allocates nothing on any thread.
    pub fn try_run<O: Observer>(
        &self,
        plan: &Plan,
        inputs: &[impl AsRef<[Cplx]> + Sync],
        outputs: &mut [impl AsMut<[Cplx]> + Send],
        obs: &O,
    ) -> Result<(), SpiralError> {
        self.check(plan, inputs, outputs)?;
        let first_bad = FirstBad::new(plan.n);
        if plan.threads > 1 {
            self.run_schedule(plan, inputs, outputs, &first_bad, obs)?;
        } else if let ([x], [out]) = (inputs, &mut *outputs) {
            catch_unwind(AssertUnwindSafe(|| {
                PlanWorkspace::with_thread_local(|ws| {
                    run_into(plan, x.as_ref(), out.as_mut(), ws, obs);
                });
            }))
            .map_err(|p| SpiralError::WorkerPanic {
                thread: 0,
                payload: panic_payload(p),
            })?;
            first_bad.scan(out.as_mut(), 0, 0);
        } else if !outputs.is_empty() {
            self.run_rows(plan, inputs, outputs, &first_bad, obs)?;
        }
        first_bad.into_result()
    }

    /// `Err(Plan)` unless the rows fit `plan` and the executor runs its
    /// schedule; in debug builds, also unless the installed validator
    /// accepts the plan.
    fn check(
        &self,
        plan: &Plan,
        inputs: &[impl AsRef<[Cplx]>],
        outputs: &mut [impl AsMut<[Cplx]>],
    ) -> Result<(), SpiralError> {
        if plan.threads > 1 && plan.threads != self.threads {
            return Err(SpiralError::Plan(format!(
                "plan wants {} threads, executor has {}",
                plan.threads, self.threads
            )));
        }
        let (rows, n) = (inputs.len(), plan.n);
        if outputs.len() != rows {
            let msg = format!("{rows} input rows for {} output rows", outputs.len());
            return Err(SpiralError::Plan(msg));
        }
        for (b, (x, out)) in inputs.iter().zip(outputs.iter_mut()).enumerate() {
            let (x, out) = (x.as_ref().len(), out.as_mut().len());
            if x != n || out != n {
                let msg =
                    format!("row {b} has input length {x}, output length {out}, plan size {n}");
                return Err(SpiralError::Plan(msg));
            }
        }
        // The soundness of the `unsafe` buffer sharing is a static
        // property of the plan (see `Shared`); debug builds re-check it
        // with the installed analyzer before running anything.
        #[cfg(debug_assertions)]
        if let Some(validate) = crate::plan::validator() {
            if let Err(e) = validate(plan) {
                return Err(SpiralError::Plan(format!(
                    "plan failed static verification: {e}"
                )));
            }
        }
        Ok(())
    }

    /// A 1-thread plan over several rows: each thread runs its
    /// contiguous share of the rows whole, in one dispatch, and scans
    /// each row right after writing it.
    fn run_rows<O: Observer>(
        &self,
        plan: &Plan,
        inputs: &[impl AsRef<[Cplx]> + Sync],
        outputs: &mut [impl AsMut<[Cplx]> + Send],
        first_bad: &FirstBad,
        obs: &O,
    ) -> Result<(), SpiralError> {
        let rows = Rows(outputs.as_mut_ptr());
        let (count, threads) = (outputs.len(), self.threads);
        let job = |tid: usize| {
            let job_t0 = obs.active().then(Instant::now);
            let (lo, hi) = share(count, threads, tid);
            PlanWorkspace::with_thread_local(|ws| {
                for (b, x) in inputs.iter().enumerate().take(hi).skip(lo) {
                    let t0 = obs.active().then(Instant::now);
                    // SAFETY: see `Rows` — the shares are disjoint.
                    let out = unsafe { (*rows.row(b)).as_mut() };
                    run_into(plan, x.as_ref(), out, ws, &());
                    first_bad.scan(out, b, 0);
                    if let Some(t0) = t0 {
                        let b = crate::u32_idx(b);
                        obs.span(tid, SpanKind::BatchTransform, b, t0, Instant::now());
                    }
                }
            });
            if let Some(t0) = job_t0 {
                obs.span(tid, SpanKind::PoolJob, 0, t0, Instant::now());
            }
        };
        self.pool.try_run(&job)
    }

    /// A `p`-thread plan: each row on the static schedule, one dispatch
    /// per row. The step buffer and thread 0's scratch are the caller's
    /// workspace; every other thread uses its own.
    fn run_schedule<O: Observer>(
        &self,
        plan: &Plan,
        inputs: &[impl AsRef<[Cplx]> + Sync],
        outputs: &mut [impl AsMut<[Cplx]> + Send],
        first_bad: &FirstBad,
        obs: &O,
    ) -> Result<(), SpiralError> {
        PlanWorkspace::with_thread_local(|ws| {
            let tmp_dim = plan.tmp_dim();
            ws.fit_a(plan)?;
            ws.fit_tmp(tmp_dim);
            for (b, (x, out)) in inputs.iter().zip(outputs.iter_mut()).enumerate() {
                let shared = Shared {
                    row: Row {
                        x: x.as_ref().as_ptr(),
                        a: ws.a.as_ptr(),
                        out: out.as_mut().as_mut_ptr(),
                    },
                    tmp: ws.tmp.as_mut_ptr(),
                    tmp_dim,
                };
                self.dispatch_row(plan, &shared, first_bad, b, obs)?;
            }
            Ok(())
        })
    }

    /// Run row `row` of a `p`-thread plan on every thread, with a
    /// barrier after every step; each thread scans its portion of the
    /// last step into `first_bad`.
    fn dispatch_row<O: Observer>(
        &self,
        plan: &Plan,
        shared: &Shared,
        first_bad: &FirstBad,
        row: usize,
        obs: &O,
    ) -> Result<(), SpiralError> {
        // The whole run, and the barrier reset after a failed one, in one
        // turn: a reset that lands during the next caller's run would
        // release its waiters early or drop their arrivals.
        let turn = self.pool.turn();
        #[cfg(feature = "faults")]
        spiral_smp::faults::begin_run();
        let lockstep = Lockstep {
            barrier: &*self.barrier,
            watchdog: self.watchdog,
            failed: AtomicBool::new(false),
            err: Mutex::new(None),
            first_bad,
            row,
        };
        let job = |tid: usize| {
            let job_t0 = obs.active().then(Instant::now);
            let run = |tmp: &mut [Cplx]| {
                // SAFETY: see `Shared`.
                unsafe { run_steps(plan, shared.row, tmp, tid, Some(&lockstep), obs) };
            };
            if tid == 0 {
                // SAFETY: see `Shared` — thread 0 alone uses `tmp`.
                run(unsafe { &mut *shared.caller_tmp() });
            } else {
                PlanWorkspace::with_thread_local(|ws| {
                    ws.fit_tmp(shared.tmp_dim);
                    run(&mut ws.tmp);
                });
            }
            if let Some(t0) = job_t0 {
                obs.span(tid, SpanKind::PoolJob, 0, t0, Instant::now());
            }
        };
        let result = turn.try_run(&job);
        // A failed run can leave the barrier mid-phase (retracted
        // arrivals, stale count); restore it before anyone reuses us.
        if result.is_err() || lockstep.failed.load(Ordering::Acquire) {
            self.barrier.reset();
        }
        drop(turn);
        result?;
        match lockstep.err.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// The lowest `(row, index)` of a non-finite output element that the
/// threads of one run found: the element a scan of every row in order
/// would name first, whichever thread wrote it.
struct FirstBad {
    /// `row · n + index`; `usize::MAX` while every scanned element is
    /// finite.
    key: AtomicUsize,
    n: usize,
}

impl FirstBad {
    fn new(n: usize) -> FirstBad {
        FirstBad {
            key: AtomicUsize::new(usize::MAX),
            n,
        }
    }

    /// Scan `written`, the elements `offset..` of output row `row`;
    /// `true` when one is non-finite.
    fn scan(&self, written: &[Cplx], row: usize, offset: usize) -> bool {
        let Some(i) = first_non_finite(written) else {
            return false;
        };
        self.key
            .fetch_min(row * self.n + offset + i, Ordering::Relaxed);
        true
    }

    /// `Err(NonFinite)` at the lowest element found, if any. Called after
    /// the dispatch that ran the scans has joined.
    fn into_result(self) -> Result<(), SpiralError> {
        let (key, n) = (self.key.into_inner(), self.n);
        if key == usize::MAX {
            return Ok(());
        }
        Err(SpiralError::NonFinite {
            index: key % n,
            context: format!("row {} of a {n}-point run", key / n),
        })
    }
}

/// The buffers of one row: the input `x`, the step buffer `a` and the
/// output `out`, `n` elements each (`a` only for plans of two or more
/// steps).
#[derive(Copy, Clone)]
struct Row {
    x: *const Cplx,
    a: *mut Cplx,
    out: *mut Cplx,
}

/// One row's buffers and the caller's scratch, shared by the threads of
/// a `p`-thread run.
///
/// # Safety
///
/// `Sync` is sound only for plans satisfying the invariant the
/// `spiral-verify` analyzer checks statically over the stage IR: in every
/// step, per-thread write index sets are pairwise disjoint and in bounds,
/// and reads target only a buffer the step does not write, fixed before
/// the barrier that opened the step. Step 0 reads the input `x`; the
/// steps then alternate between `a` and `out` by the step-level
/// [`ping_pong`] rule, so the last step writes `out` and no step reads
/// the buffer it writes. So writes are unaliased, and every
/// read-after-write pair is ordered by a barrier. A chunk program's
/// in-place passes read back only its own output chunk. Thread 0, the
/// caller, alone uses `tmp`; every other thread uses its own workspace's
/// scratch. All plans from `Plan::from_formula` satisfy the invariant;
/// debug builds re-verify each plan through the validator registered
/// with [`crate::plan::install_validator`]
/// (`spiral_verify::install_executor_guard` installs the analyzer).
struct Shared {
    row: Row,
    tmp: *mut Cplx,
    /// The plan's [`Plan::tmp_dim`].
    tmp_dim: usize,
}
// SAFETY: see the type's docs; every field is a pointer into buffers
// the run shares under that invariant, or a length.
unsafe impl Sync for Shared {}

impl Shared {
    /// Thread 0's scratch: the caller's workspace scratch, borrowed for
    /// the run.
    fn caller_tmp(&self) -> *mut [Cplx] {
        std::ptr::slice_from_raw_parts_mut(self.tmp, self.tmp_dim)
    }
}

/// The output rows of a batch, shared by the threads of one dispatch.
///
/// # Safety
///
/// `Sync` is sound because the batch partition assigns each row index to
/// exactly one thread (`share` produces disjoint contiguous ranges
/// covering `0..B`), and a thread touches only its own rows, so no two
/// threads ever alias a row; `T: Send` lets a row be written from another
/// thread.
struct Rows<T>(*mut T);
// SAFETY: see the type's docs.
unsafe impl<T: Send> Sync for Rows<T> {}

impl<T> Rows<T> {
    /// Row `b` (in bounds).
    fn row(&self, b: usize) -> *mut T {
        self.0.wrapping_add(b)
    }
}

/// What the threads of a `p`-thread run share besides the buffers: the
/// step barrier with its watchdog, the first failure any thread saw, and
/// where each thread reports a non-finite output of row `row`.
struct Lockstep<'a> {
    barrier: &'a dyn Barrier,
    watchdog: Duration,
    /// Set on the first failure, so the other threads drain at the next
    /// step boundary instead of waiting out their own deadline.
    failed: AtomicBool,
    err: Mutex<Option<SpiralError>>,
    first_bad: &'a FirstBad,
    row: usize,
}

impl Lockstep<'_> {
    /// Scan what the thread's `portion` of the last step wrote into the
    /// output row `out`, while it is still in the thread's cache.
    ///
    /// # Safety
    ///
    /// As [`run_portion`]: no other thread accesses those elements
    /// during the step.
    unsafe fn scan(&self, portion: &Portion, out: *const Cplx) {
        for r in portion.writes() {
            // SAFETY: see the function's docs.
            let written = unsafe { std::slice::from_raw_parts(out.add(r.start), r.len()) };
            if self.first_bad.scan(written, self.row, r.start) {
                return;
            }
        }
    }
}

/// Run all of one row on the calling thread, in `ws`: the one-thread
/// case of [`run_steps`], which [`Plan::execute_into`] and both 1-thread
/// paths of [`Executor::try_run`] share.
pub(crate) fn run_into<O: Observer>(
    plan: &Plan,
    x: &[Cplx],
    out: &mut [Cplx],
    ws: &mut PlanWorkspace,
    obs: &O,
) {
    assert_eq!(x.len(), plan.n, "input length mismatch");
    assert_eq!(out.len(), plan.n, "output length mismatch");
    ws.fit_a(plan).unwrap_or_else(|e| panic!("{e}"));
    ws.fit_tmp(plan.tmp_dim());
    let row = Row {
        x: x.as_ptr(),
        a: ws.a.as_ptr(),
        out: out.as_mut_ptr(),
    };
    // SAFETY: one thread, and `x`, `a` and `out` are distinct buffers of
    // `n` elements (`a` when the plan has two or more steps) borrowed for
    // the call.
    unsafe { run_steps(plan, row, &mut ws.tmp, 0, None, obs) };
}

/// Thread `tid`'s part of one row: each step of `plan` on the static
/// schedule ([`Step::portion`](crate::plan::Step::portion)), by the
/// step-level [`ping_pong`] rule over `(x, a, out)`. With `lockstep`
/// the schedule is the plan's `p` threads and every step ends at the
/// barrier; without, the one thread runs every step whole.
///
/// # Safety
///
/// See [`Shared`]: `row` holds `n`-element buffers, and the other
/// threads of the run (if any) run the other portions of the same steps.
unsafe fn run_steps<O: Observer>(
    plan: &Plan,
    row: Row,
    tmp: &mut [Cplx],
    tid: usize,
    lockstep: Option<&Lockstep>,
    obs: &O,
) {
    let (n, l) = (plan.n, plan.steps.len());
    if l == 0 {
        if tid == 0 {
            // SAFETY: distinct `n`-element buffers; thread 0 alone writes.
            unsafe { std::ptr::copy_nonoverlapping(row.x, row.out, n) };
            if let Some(s) = lockstep {
                // SAFETY: as the copy.
                s.first_bad
                    .scan(unsafe { std::slice::from_raw_parts(row.out, n) }, s.row, 0);
            }
        }
        return;
    }
    let threads = if lockstep.is_some() { plan.threads } else { 1 };
    let passes = ping_pong(std::iter::repeat_n(false, l));
    for (si, (step, pass)) in plan.steps.iter().zip(passes).enumerate() {
        if lockstep.is_some_and(|s| s.failed.load(Ordering::Acquire)) {
            return;
        }
        let (Some(src), dst) = pass_buffers(pass, row.x, row.a, row.out, <*mut Cplx>::cast_const)
        else {
            unreachable!("steps never run in place")
        };
        // SAFETY: see `Shared` — no thread writes `src` during the step.
        let src = unsafe { std::slice::from_raw_parts(src, n) };
        #[cfg(feature = "faults")]
        let corrupt = lockstep.is_some() && fault(si, tid);
        let portion = step.portion(n, plan.mu, tid, threads);
        let t0 = obs.active().then(Instant::now);
        // SAFETY: see `Shared` — each thread writes only its own portion
        // of `dst`, and `src` is another buffer.
        unsafe { run_portion(&portion, src, dst, tmp) };
        #[cfg(feature = "faults")]
        if corrupt {
            inject_nan(&portion, dst);
        }
        if let Some(s) = lockstep.filter(|_| si + 1 == l) {
            debug_assert_eq!(dst, row.out, "the last step writes `out`");
            // SAFETY: as `run_portion`.
            unsafe { s.scan(&portion, dst) };
        }
        let t1 = t0.map(|_| Instant::now());
        let waited = lockstep.map(|s| s.barrier.wait_deadline(s.watchdog));
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let (jobs, elements) = portion.stats();
            let si = crate::u32_idx(si);
            obs.span(tid, SpanKind::StageCompute { jobs, elements }, si, t0, t1);
            if let Some(waited) = &waited {
                // Arrival → release: on a clean step this is the time
                // spent blocked waiting for slower peers.
                let b1 = Instant::now();
                obs.span(tid, SpanKind::BarrierWait, si, t1, b1);
                let mark = match waited {
                    Ok(_) => MarkKind::BarrierRelease,
                    Err(_) => MarkKind::WatchdogFire,
                };
                obs.mark(tid, mark, si, b1);
            }
        }
        if let (Some(s), Some(Err(e))) = (lockstep, waited) {
            s.failed.store(true, Ordering::Release);
            lock_recover(&s.err).get_or_insert(e);
            return;
        }
    }
}

/// Fire the injected fault of `(step, tid)`, if any: panic, sleep, or
/// return `true` for a NaN to write after the step.
#[cfg(feature = "faults")]
fn fault(step: usize, tid: usize) -> bool {
    match spiral_smp::faults::at(step, tid) {
        Some(spiral_smp::faults::Fault::Panic) => {
            panic!("injected fault: panic at stage {step}, thread {tid}")
        }
        Some(spiral_smp::faults::Fault::Delay(d)) => {
            std::thread::sleep(d);
            false
        }
        Some(spiral_smp::faults::Fault::CorruptNan) => true,
        None => false,
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

/// Execute one thread's statically scheduled portion of a step.
///
/// # Safety
///
/// `dst` must point to a buffer that holds every element the portion
/// writes and does not overlap `src`, and while this call runs no other
/// thread may access those elements.
unsafe fn run_portion(portion: &Portion, src: &[Cplx], dst: *mut Cplx, tmp: &mut [Cplx]) {
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

// Compatibility for perfbench (`perfbench/src/{layers,workloads,fft}.rs`),
// which names the two executors this type replaced. ROADMAP item 9 moves
// perfbench onto `try_run`; then this block goes.

/// The executor, under the name of its former `p`-thread half.
pub type ParallelExecutor = Executor;
/// The executor, under the name of its former batch half.
pub type BatchExecutor = Executor;

impl Executor {
    #[doc(hidden)]
    pub fn with_auto_barrier(threads: usize) -> Executor {
        Executor::new(threads)
    }

    #[doc(hidden)]
    pub fn execute(&self, plan: &Plan, x: &[Cplx]) -> Vec<Cplx> {
        let mut out = vec![Cplx::ZERO; plan.n];
        let run = self.try_run(plan, &[x], &mut [&mut out[..]], &());
        run.map(|()| out).unwrap_or_else(|e| panic!("{e}"))
    }

    #[doc(hidden)]
    pub fn try_execute_batch(
        &self,
        plan: &Plan,
        inputs: &[Vec<Cplx>],
    ) -> Result<Vec<Vec<Cplx>>, SpiralError> {
        let mut out = vec![vec![Cplx::ZERO; plan.n]; inputs.len()];
        self.try_run(plan, inputs, &mut out, &()).map(|()| out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, Step};
    use crate::stage::LocalProgram;
    use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(j as f64 * 0.5, 3.0 - j as f64))
            .collect()
    }

    fn parallel_plan(n: usize, p: usize) -> Plan {
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        Plan::from_formula(&f, p, 4).unwrap()
    }

    fn sequential_plan(n: usize) -> Plan {
        Plan::from_formula(&sequential_dft(n, 8), 1, 4).unwrap()
    }

    /// One transform through `try_run`.
    fn run(exec: &Executor, plan: &Plan, x: &[Cplx]) -> Result<Vec<Cplx>, SpiralError> {
        let mut out = vec![Cplx::ZERO; x.len()];
        exec.try_run(plan, &[x], &mut [&mut out[..]], &())?;
        Ok(out)
    }

    /// `rows` inputs of `n` points, each different.
    fn batch_inputs(rows: usize, n: usize) -> Vec<Vec<Cplx>> {
        (0..rows)
            .map(|k| {
                (0..n)
                    .map(|j| Cplx::new(j as f64 + k as f64 * 0.25, k as f64 - j as f64 * 0.5))
                    .collect()
            })
            .collect()
    }

    /// A batch through `try_run`.
    fn run_batch(
        exec: &Executor,
        plan: &Plan,
        xs: &[Vec<Cplx>],
    ) -> Result<Vec<Vec<Cplx>>, SpiralError> {
        let mut out = vec![vec![Cplx::ZERO; plan.n]; xs.len()];
        exec.try_run(plan, xs, &mut out, &())?;
        Ok(out)
    }

    #[test]
    fn parallel_matches_sequential_execution() {
        for (n, p) in [(64usize, 2usize), (256, 2), (256, 4), (1024, 4)] {
            let plan = parallel_plan(n, p);
            let exec = Executor::with_barrier(p, BarrierKind::Park, DEFAULT_WATCHDOG);
            let x = ramp(n);
            let got = run(&exec, &plan, &x).unwrap();
            assert_slices_close(&got, &plan.execute(&x), 1e-12);
            assert_slices_close(&got, &dft(n).eval(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn spin_barrier_also_correct() {
        let (n, p) = (256usize, 2usize);
        let plan = parallel_plan(n, p);
        let exec = Executor::with_barrier(p, BarrierKind::Spin, DEFAULT_WATCHDOG);
        let x = ramp(n);
        assert_slices_close(&run(&exec, &plan, &x).unwrap(), &dft(n).eval(&x), 1e-6);
    }

    #[test]
    fn sequential_plan_on_a_parallel_executor() {
        // A 1-thread plan runs whole on the caller, whatever the
        // executor's thread count.
        let n = 64;
        let plan = sequential_plan(n);
        let exec = Executor::new(2);
        let x = ramp(n);
        assert_slices_close(&run(&exec, &plan, &x).unwrap(), &dft(n).eval(&x), 1e-7);
    }

    #[test]
    fn executor_is_reusable() {
        let exec = Executor::new(2);
        for n in [64usize, 256] {
            let plan = parallel_plan(n, 2);
            let x = ramp(n);
            for _ in 0..3 {
                assert_slices_close(&run(&exec, &plan, &x).unwrap(), &dft(n).eval(&x), 1e-6);
            }
        }
    }

    #[test]
    fn odd_step_count_lands_in_right_buffer() {
        // An identity plan with a single exchange step (odd count), on
        // its own thread and as the 2-thread schedule.
        use spiral_spl::builder::*;
        let f = stride(16, 4);
        let mut plan = Plan::from_formula(&f, 1, 1).unwrap();
        assert_eq!(plan.steps.len() % 2, 1);
        let x = ramp(16);
        assert_slices_close(
            &run(&Executor::new(2), &plan, &x).unwrap(),
            &f.eval(&x),
            0.0,
        );
        plan.threads = 2;
        assert_slices_close(
            &run(&Executor::new(2), &plan, &x).unwrap(),
            &f.eval(&x),
            0.0,
        );
    }

    #[test]
    fn rejects_bad_rows_as_err() {
        let plan = parallel_plan(64, 2);
        let exec = Executor::new(2);
        // Wrong input length.
        let err = run(&exec, &plan, &ramp(63)).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)), "{err}");
        // Fewer output rows than input rows.
        let xs = batch_inputs(2, 64);
        let mut out = [vec![Cplx::ZERO; 64]];
        let err = exec.try_run(&plan, &xs, &mut out, &()).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)), "{err}");
        // Neither is a runtime fault: retrying cannot fix it.
        assert!(!err.is_runtime_fault());
    }

    /// One observed span (`Ok`) or mark (`Err`), as `(tid, stage, kind)`.
    type Event = (usize, u32, Result<SpanKind, MarkKind>);

    /// Every event one observed run reports.
    #[derive(Default)]
    struct Events(Mutex<Vec<Event>>);

    impl Observer for Events {
        fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant) {
            assert!(start <= end);
            self.0.lock().unwrap().push((tid, stage, Ok(kind)));
        }
        fn mark(&self, tid: usize, kind: MarkKind, stage: u32, _: Instant) {
            self.0.lock().unwrap().push((tid, stage, Err(kind)));
        }
    }

    impl Events {
        fn count(&self, event: Result<SpanKind, MarkKind>) -> usize {
            let events = self.0.lock().unwrap();
            events.iter().filter(|e| e.2 == event).count()
        }
    }

    /// A plan runs only on the schedule that was verified: a 4-thread
    /// plan on 2 threads and a 2-thread plan on 4 are both `Err(Plan)`.
    /// On 2 threads, each thread's compute span of each step carries the
    /// counts of its `Step::portion(.., 2)`.
    #[test]
    fn runs_only_the_verified_schedule() {
        let n = 256;
        let (two, four) = (parallel_plan(n, 2), parallel_plan(n, 4));
        let x = ramp(n);
        for (plan, threads) in [(&four, 2), (&two, 4)] {
            let err = run(&Executor::new(threads), plan, &x).unwrap_err();
            assert!(matches!(err, SpiralError::Plan(_)), "{err}");
            assert!(err.to_string().contains("plan wants"), "{err}");
            assert!(!err.is_runtime_fault());
        }
        let events = Events::default();
        let mut out = vec![Cplx::ZERO; n];
        let exec = Executor::new(2);
        exec.try_run(&two, &[&x], &mut [&mut out], &events).unwrap();
        let events = events.0.into_inner().unwrap();
        for (si, step) in two.steps.iter().enumerate() {
            for tid in 0..2 {
                let (jobs, elements) = step.portion(n, two.mu, tid, 2).stats();
                let want = SpanKind::StageCompute { jobs, elements };
                let seen: Vec<_> = events
                    .iter()
                    .filter(|e| e.0 == tid && e.1 == crate::u32_idx(si))
                    .filter(|e| matches!(e.2, Ok(SpanKind::StageCompute { .. })))
                    .collect();
                assert_eq!(seen.len(), 1, "step {si}, thread {tid}");
                assert_eq!(seen[0].2, Ok(want), "step {si}, thread {tid}");
            }
        }
    }

    #[test]
    fn observed_run_reports_every_span_and_mark() {
        let (n, p) = (256usize, 2usize);
        let plan = parallel_plan(n, p);
        let exec = Executor::new(p);
        let (x, events) = (ramp(n), Events::default());
        let mut got = vec![Cplx::ZERO; n];
        exec.try_run(&plan, &[&x], &mut [&mut got], &events)
            .unwrap();
        assert_eq!(got, run(&exec, &plan, &x).unwrap());
        let stages = plan.steps.len() * p;
        // One pool job per thread; per stage and thread a barrier wait
        // and a release.
        assert_eq!(events.count(Ok(SpanKind::PoolJob)), p);
        assert_eq!(events.count(Ok(SpanKind::BarrierWait)), stages);
        assert_eq!(events.count(Err(MarkKind::BarrierRelease)), stages);
        // Compute spans carry the schedule: every stage writes the whole
        // vector exactly once.
        let events = events.0.into_inner().unwrap();
        let elements: u64 = events
            .iter()
            .filter_map(|v| match v.2 {
                Ok(SpanKind::StageCompute { elements, .. }) => Some(elements),
                _ => None,
            })
            .sum();
        assert_eq!(elements, (plan.steps.len() * n) as u64);
    }

    #[test]
    fn observed_single_row_reports_one_compute_span_per_step() {
        let n = 1024;
        let plan = Plan::from_formula(&parallel_plan_formula(n), 1, 4).unwrap();
        assert!(plan.steps.len() > 1);
        let (x, events) = (ramp(n), Events::default());
        let mut got = vec![Cplx::ZERO; n];
        Executor::new(2)
            .try_run(&plan, &[&x], &mut [&mut got], &events)
            .unwrap();
        assert_eq!(got, plan.execute(&x));
        let events = events.0.into_inner().unwrap();
        // No dispatch: no pool job, no barrier, thread 0 alone.
        assert_eq!(events.len(), plan.steps.len());
        for (si, e) in events.iter().enumerate() {
            let (jobs, elements) = plan.steps[si].portion(n, plan.mu, 0, 1).stats();
            assert_eq!(
                *e,
                (
                    0,
                    crate::u32_idx(si),
                    Ok(SpanKind::StageCompute { jobs, elements })
                )
            );
        }
    }

    fn parallel_plan_formula(n: usize) -> spiral_spl::Spl {
        multicore_dft_expanded(n, 2, 4, None, 8).unwrap()
    }

    /// A plan whose one step panics: a 4-point program on an 8-point
    /// step.
    fn panicking_plan() -> Plan {
        Plan {
            n: 8,
            threads: 1,
            mu: 1,
            vec_width: 1,
            steps: vec![Step::Seq(LocalProgram::identity(4))],
        }
    }

    #[test]
    fn a_panic_is_an_err_on_every_path() {
        let plan = panicking_plan();
        // Thread 1 waits out the watchdog at the barrier thread 0 never
        // reaches.
        let exec = Executor::with_barrier(2, BarrierKind::Park, Duration::from_millis(100));
        let single = run(&exec, &plan, &ramp(8)).unwrap_err();
        let batch = run_batch(&exec, &plan, &batch_inputs(3, 8)).unwrap_err();
        let mut par = panicking_plan();
        par.threads = 2;
        let schedule = run(&exec, &par, &ramp(8)).unwrap_err();
        for err in [single, batch, schedule] {
            assert!(matches!(err, SpiralError::WorkerPanic { .. }), "{err}");
        }
        // The executor survives and runs a healthy plan.
        let healthy = sequential_plan(8);
        assert_eq!(
            run(&exec, &healthy, &ramp(8)).unwrap(),
            healthy.execute(&ramp(8))
        );
        assert!(exec.healthy());
    }

    /// One executor shared by two threads: the calls take turns on the
    /// pool, every output is exact, and the whole run finishes in
    /// bounded time (a lost hand-off would hang it).
    #[test]
    fn shared_executor_serves_concurrent_callers() {
        use std::sync::{mpsc, Arc};
        let (n, p) = (4096usize, 2usize);
        let plan = Arc::new(parallel_plan(n, p).fuse_exchanges());
        let exec = Arc::new(Executor::new(p));
        let x = Arc::new(ramp(n));
        let want = Arc::new(run(&exec, &plan, &x).unwrap());
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
                let ok = (0..200).all(|_| run(&exec, &plan, &x).ok().as_ref() == Some(&*want));
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

    /// A failed run resets the barrier before the next caller's run
    /// starts: while one caller fails run after run, a healthy 2-thread
    /// plan on the same executor stays exact and never times out.
    #[test]
    fn failed_runs_do_not_disturb_a_concurrent_caller() {
        let exec = Executor::with_barrier(2, BarrierKind::Park, Duration::from_millis(200));
        let mut bad = panicking_plan();
        bad.threads = 2;
        let (n, done) = (1024, AtomicBool::new(false));
        let plan = parallel_plan(n, 2);
        let x = ramp(n);
        let want = plan.execute(&x);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..10 {
                    let err = run(&exec, &bad, &ramp(8)).unwrap_err();
                    assert!(matches!(err, SpiralError::WorkerPanic { .. }), "{err}");
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                assert_eq!(run(&exec, &plan, &x).unwrap(), want);
            }
        });
    }

    /// A 1-thread plan over 32 rows on 2 threads, with NaN inputs in rows
    /// 5 and 20 (one in each thread's rows): the error names row 5 and
    /// the index the plain scan of row 5's output gives.
    #[test]
    fn batch_reports_the_first_bad_row_and_index() {
        let n = 64;
        let plan = sequential_plan(n);
        let mut xs = batch_inputs(32, n);
        xs[5][9] = Cplx::new(f64::NAN, 0.0);
        xs[20][0] = Cplx::new(0.0, f64::INFINITY);
        let want = first_non_finite(&plan.execute(&xs[5])).unwrap();
        for exec in [Executor::new(2), Executor::new(1)] {
            let (index, context) = non_finite(run_batch(&exec, &plan, &xs).unwrap_err());
            assert_eq!(index, want);
            assert_eq!(context, format!("row 5 of a {n}-point run"));
        }
    }

    /// `Err(NonFinite)`'s `(index, context)`.
    fn non_finite(err: SpiralError) -> (usize, String) {
        match err {
            SpiralError::NonFinite { index, context } => (index, context),
            err => panic!("{err}"),
        }
    }

    /// A 2-thread plan whose output goes non-finite in both threads'
    /// portions: the error gives the global first index of the first bad
    /// row, whichever thread found it.
    #[test]
    fn parallel_plan_reports_the_global_first_index() {
        use spiral_spl::builder::tensor_par;
        // I_2 ⊗∥ DFT_8: thread c writes output chunk c, and a bad input
        // in chunk c makes that chunk's outputs non-finite.
        let (n, p) = (16usize, 2usize);
        let plan = Plan::from_formula(&tensor_par(p, dft(8)), p, 4).unwrap();
        let last = plan.steps.last().unwrap();
        for tid in 0..p {
            let writes = last.portion(n, plan.mu, tid, p).writes();
            assert!(writes.eq(std::iter::once(tid * 8..tid * 8 + 8)));
        }
        let mut xs = batch_inputs(3, n);
        xs[1][12].re = f64::NAN;
        xs[2][3].im = f64::INFINITY;
        xs[2][9].re = f64::NAN;
        let want = |x: &[Cplx]| first_non_finite(&plan.execute(x)).unwrap();
        let both = plan.execute(&xs[2]);
        assert!(want(&xs[2]) < 8 && first_non_finite(&both[8..]).is_some());
        let exec = Executor::new(p);
        for row in [1, 2] {
            let (index, context) = non_finite(run(&exec, &plan, &xs[row]).unwrap_err());
            assert_eq!(index, want(&xs[row]), "row {row} alone");
            assert_eq!(context, format!("row 0 of a {n}-point run"));
        }
        // Row 1's bad index (thread 1's) is higher than row 2's, but row 1
        // comes first.
        let (index, context) = non_finite(run_batch(&exec, &plan, &xs).unwrap_err());
        assert_eq!(
            (index, context),
            (want(&xs[1]), format!("row 1 of a {n}-point run"))
        );
        // A whole multicore FFT plan: the index the plain scan gives.
        let plan = parallel_plan(256, p);
        let mut x = ramp(256);
        x[100] = Cplx::new(f64::NAN, 0.0);
        let (index, _) = non_finite(run(&exec, &plan, &x).unwrap_err());
        assert_eq!(index, first_non_finite(&plan.execute(&x)).unwrap());
    }

    #[test]
    fn batch_matches_sequential_execute_bitwise() {
        let n = 64;
        let plan = sequential_plan(n);
        for p in [1usize, 2, 3, 4] {
            let exec = Executor::new(p);
            for b in [1usize, 2, 7, 16] {
                let xs = batch_inputs(b, n);
                let got = run_batch(&exec, &plan, &xs).unwrap();
                for (y, x) in got.iter().zip(&xs) {
                    // Same step loop on both paths → bitwise equal.
                    assert_eq!(y, &plan.execute(x));
                }
            }
        }
    }

    #[test]
    fn batch_computes_the_dft() {
        let n = 32;
        let plan = sequential_plan(n);
        let xs = batch_inputs(5, n);
        let got = run_batch(&Executor::new(2), &plan, &xs).unwrap();
        for (y, x) in got.iter().zip(&xs) {
            assert_slices_close(y, &dft(n).eval(x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn batch_of_a_parallel_plan_runs_row_by_row() {
        let (n, p) = (256usize, 2usize);
        let plan = parallel_plan(n, p);
        let xs = batch_inputs(3, n);
        let got = run_batch(&Executor::new(p), &plan, &xs).unwrap();
        for (y, x) in got.iter().zip(&xs) {
            assert_eq!(y, &run(&Executor::new(p), &plan, x).unwrap());
        }
    }

    #[test]
    fn observed_batch_reports_one_span_per_transform_and_thread() {
        let (n, p, b) = (16usize, 3usize, 7usize);
        let plan = sequential_plan(n);
        let exec = Executor::new(p);
        let (xs, events) = (batch_inputs(b, n), Events::default());
        let mut got = vec![vec![Cplx::ZERO; n]; b];
        exec.try_run(&plan, &xs, &mut got, &events).unwrap();
        assert_eq!(got, run_batch(&exec, &plan, &xs).unwrap());
        assert_eq!(events.count(Ok(SpanKind::BatchTransform)), b);
        assert_eq!(events.count(Ok(SpanKind::PoolJob)), p);
        let events = events.0.into_inner().unwrap();
        assert_eq!(events.len(), b + p, "a batch run has no barriers");
    }

    #[test]
    fn empty_batch_is_ok() {
        let exec = Executor::new(2);
        assert!(run_batch(&exec, &sequential_plan(16), &[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn wrong_length_input_is_rejected() {
        let exec = Executor::new(2);
        let mut xs = batch_inputs(3, 16);
        xs[1].pop();
        let err = run_batch(&exec, &sequential_plan(16), &xs).unwrap_err();
        assert!(matches!(err, SpiralError::Plan(_)), "{err}");
        assert!(err.to_string().contains("row 1"), "{err}");
    }

    #[test]
    fn executor_is_reusable_across_batches_and_plans() {
        let exec = Executor::new(3);
        for n in [16usize, 64, 32] {
            let plan = sequential_plan(n);
            let xs = batch_inputs(9, n);
            let got = run_batch(&exec, &plan, &xs).unwrap();
            for (y, x) in got.iter().zip(&xs) {
                assert_eq!(y, &plan.execute(x));
            }
        }
        assert!(exec.healthy());
    }

    #[test]
    fn more_threads_than_transforms_is_fine() {
        let n = 16;
        let plan = sequential_plan(n);
        let xs = batch_inputs(2, n);
        let got = run_batch(&Executor::new(4), &plan, &xs).unwrap();
        for (y, x) in got.iter().zip(&xs) {
            assert_eq!(y, &plan.execute(x));
        }
    }
}
