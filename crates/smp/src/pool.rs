//! Persistent worker-thread pool with panic isolation.
//!
//! FFTW's experimental "thread pooling" (which the paper found broken on
//! 4 processors) exists to avoid paying thread-creation cost per
//! transform; Spiral-generated code assumes the same. This pool keeps
//! `p-1` workers between calls; [`Pool::run`] executes a closure on all
//! `p` logical threads (the caller participates as thread 0) and returns
//! when every thread has finished.
//!
//! ## Dispatch: spin, then park
//!
//! An idle worker polls the atomic job generation for
//! [`SPIN_WINDOW`] before it parks on a condvar, and the caller polls the
//! completion counter for the same window before it parks; a poller
//! yields its core between bursts of polls. Back-to-back dispatches (a
//! closed loop of small transforms) therefore never wait for a wake-up,
//! while an idle pool still sleeps after at most one window. Wake-ups
//! are skipped when nobody is parked: a parked count (workers) and a
//! parked flag (caller) say whether a `notify` is needed.
//!
//! Jobs are serialized inside [`Pool::try_run`]: concurrent callers on
//! one pool take turns, so a shared executor needs no lock of its own.
//! [`Pool::turn`] holds a turn across several steps (a run and the
//! cleanup after it). A job must not dispatch on the pool that runs it
//! (it would wait for itself).
//!
//! ## Failure model
//!
//! Every job invocation is wrapped in `catch_unwind`: a panicking job
//! *always* decrements the completion counter (no deadlocked `run`), the
//! payload is recorded, and [`Pool::try_run`] re-surfaces the first
//! recorded panic as [`SpiralError::WorkerPanic`]. Workers survive
//! panics, so the same pool instance runs subsequent healthy jobs. A
//! configurable watchdog bounds how long `try_run` credits the job: if
//! workers have not drained by the deadline the run is reported as
//! [`SpiralError::WatchdogTimeout`]. For memory safety `try_run` still
//! waits for stragglers before returning (the job closure borrows the
//! caller's stack); bounded termination is guaranteed by construction
//! because every blocking primitive reachable from a job (the stage
//! barriers) is itself deadline-bounded and stage compute is finite.

use crate::error::{lock_recover, panic_payload, SpiralError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default pool watchdog: generous, so healthy long transforms never
/// trip it; the executor layers tighter step-level deadlines underneath.
pub const DEFAULT_POOL_WATCHDOG: Duration = Duration::from_secs(60);

/// How long an idle worker waits for the next job, and the caller for
/// the workers to finish, by polling before parking on a condvar. Long
/// enough to cover the gap between the calls of a closed loop over small
/// transforms (a few µs), short enough that an idle pool sleeps almost
/// at once.
pub const SPIN_WINDOW: Duration = Duration::from_micros(50);
const _: () = assert!(
    SPIN_WINDOW.as_micros() <= 100,
    "spin window is capped at 100 µs"
);

/// Type-erased job pointer. Valid only while the publishing `run` call is
/// blocked, which the completion protocol guarantees.
struct Job {
    f: *const (dyn Fn(usize) + Sync),
}
// Safety: the pointee is Sync and outlives all uses (see `run`).
unsafe impl Send for Job {}

struct Slot {
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    start: Condvar,
    /// Bumped for every job and at shutdown; written only under the
    /// `slot` lock, so parked workers can wait on it, and read without
    /// the lock by spinning ones.
    generation: AtomicU64,
    /// Workers parked (or about to park) on `start`; changed only under
    /// the `slot` lock, so a publisher holding it reads it exactly.
    parked: AtomicUsize,
    /// Number of workers still running the current job.
    remaining: AtomicUsize,
    /// The caller is parked (or about to park) on `done`.
    caller_parked: AtomicBool,
    done_lock: Mutex<()>,
    done: Condvar,
    /// Panics caught during the current job, in completion order.
    panics: Mutex<Vec<(usize, String)>>,
}

/// Poll `ready` for up to [`SPIN_WINDOW`]; returns whether it turned true.
/// Between bursts of polls the thread yields its core, so a poller never
/// holds off a thread that has real work (the host may have fewer cores
/// than runnable threads); on an idle core the yield returns at once.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN_WINDOW {
            return ready();
        }
        std::thread::yield_now();
    }
}

/// A pool of `p` logical threads: `p - 1` workers plus the caller.
pub struct Pool {
    p: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    watchdog: Duration,
    /// Held for a whole job: one job at a time per pool.
    running: Mutex<()>,
}

impl Pool {
    /// Create a pool presenting `p ≥ 1` logical threads with the default
    /// watchdog.
    pub fn new(p: usize) -> Pool {
        Pool::with_watchdog(p, DEFAULT_POOL_WATCHDOG)
    }

    /// Create a pool with an explicit job-drain watchdog.
    pub fn with_watchdog(p: usize, watchdog: Duration) -> Pool {
        assert!(p >= 1, "pool needs at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            generation: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            caller_parked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            panics: Mutex::new(Vec::new()),
        });
        let handles = (1..p)
            .map(|tid| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spiral-worker-{tid}"))
                    .spawn(move || worker_loop(tid, sh))
                    .expect("failed to spawn worker")
            })
            .collect();
        Pool {
            p,
            shared,
            handles,
            watchdog,
            running: Mutex::new(()),
        }
    }

    /// Number of logical threads.
    pub fn size(&self) -> usize {
        self.p
    }

    /// The configured job-drain watchdog.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Change the job-drain watchdog.
    pub fn set_watchdog(&mut self, watchdog: Duration) {
        self.watchdog = watchdog;
    }

    /// True when every worker thread is alive. Workers survive job
    /// panics (they are caught), so this goes false only if a worker
    /// died outside the catch (a defensive signal for callers that can
    /// degrade to sequential execution).
    pub fn healthy(&self) -> bool {
        self.handles.iter().all(|h| !h.is_finished())
    }

    /// Run `f(tid)` for every `tid` in `0..p` concurrently; the caller
    /// executes `f(0)`. Returns after all threads complete. Panics if
    /// any thread's portion panicked (see [`Pool::try_run`] for the
    /// non-panicking variant).
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if let Err(e) = self.try_run(f) {
            panic!("{e}");
        }
    }

    /// Run `f(tid)` on all `p` threads, isolating panics: a panic on any
    /// thread is caught, the run completes on the other threads, and the
    /// first recorded panic returns as [`SpiralError::WorkerPanic`]. The
    /// pool remains usable after an `Err`. Concurrent calls on one pool
    /// run one after the other.
    pub fn try_run(&self, f: &(dyn Fn(usize) + Sync)) -> Result<(), SpiralError> {
        self.turn().try_run(f)
    }

    /// Exclusive use of the pool until the [`Turn`] drops: no other
    /// caller's job starts in between. A caller whose jobs share state
    /// with the next caller's (a step barrier that a failed run leaves
    /// mid-phase) restores that state before giving up its turn.
    pub fn turn(&self) -> Turn<'_> {
        Turn {
            pool: self,
            _running: (self.p > 1).then(|| lock_recover(&self.running)),
        }
    }
}

/// A caller's exclusive use of a [`Pool`]; see [`Pool::turn`].
pub struct Turn<'a> {
    pool: &'a Pool,
    _running: Option<MutexGuard<'a, ()>>,
}

impl Turn<'_> {
    /// [`Pool::try_run`] within this turn.
    pub fn try_run(&self, f: &(dyn Fn(usize) + Sync)) -> Result<(), SpiralError> {
        let pool = self.pool;
        if pool.p == 1 {
            return match catch_unwind(AssertUnwindSafe(|| f(0))) {
                Ok(()) => Ok(()),
                Err(p) => Err(SpiralError::WorkerPanic {
                    thread: 0,
                    payload: panic_payload(p),
                }),
            };
        }
        let sh = &*pool.shared;
        lock_recover(&sh.panics).clear();
        // Publish the job.
        {
            let mut slot = lock_recover(&sh.slot);
            sh.remaining.store(pool.p - 1, Ordering::Release);
            // Safety: erase the borrow's lifetime; `try_run` blocks until
            // all workers finish with the pointer, then clears the slot.
            let erased: *const (dyn Fn(usize) + Sync + 'static) =
                unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
            slot.job = Some(Job { f: erased });
            sh.generation.fetch_add(1, Ordering::Release);
            if sh.parked.load(Ordering::Relaxed) > 0 {
                sh.start.notify_all();
            }
        }
        // Participate as thread 0, isolating our own panic so we always
        // reach the drain below (returning early would dangle the
        // published job pointer under running workers).
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        // Wait for the workers: spin, then park under the watchdog.
        let start = Instant::now();
        let mut overrun = false;
        if !spin_until(|| sh.remaining.load(Ordering::Acquire) == 0) {
            let deadline = start + pool.watchdog;
            let mut guard = lock_recover(&sh.done_lock);
            // Announce the park before the last check; the last worker
            // checks the flag after its decrement (both SeqCst), so one
            // of the two sees the other and no wake-up is lost.
            sh.caller_parked.store(true, Ordering::SeqCst);
            while sh.remaining.load(Ordering::SeqCst) != 0 {
                let now = Instant::now();
                let wait = if now < deadline {
                    deadline - now
                } else {
                    // Past the deadline: the run is failed, but we must
                    // not return while a worker may still dereference the
                    // job pointer. Stage-level deadlines below us bound
                    // how long this drain can take.
                    overrun = true;
                    Duration::from_millis(100)
                };
                let (g, _) = sh
                    .done
                    .wait_timeout(guard, wait)
                    .unwrap_or_else(PoisonError::into_inner);
                guard = g;
            }
            sh.caller_parked.store(false, Ordering::Relaxed);
        }
        // Clear the job so the pointer cannot be observed after return.
        lock_recover(&sh.slot).job = None;
        // Surface failures: first recorded panic wins, then the caller's
        // own panic, then a watchdog overrun.
        let mut panics = lock_recover(&sh.panics);
        if let Err(p) = caller {
            panics.push((0, panic_payload(p)));
        }
        if let Some((thread, payload)) = panics.first().cloned() {
            drop(panics);
            return Err(SpiralError::WorkerPanic { thread, payload });
        }
        drop(panics);
        if overrun {
            return Err(SpiralError::WatchdogTimeout {
                waited: start.elapsed(),
            });
        }
        Ok(())
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = lock_recover(&self.shared.slot);
            slot.shutdown = true;
            self.shared.generation.fetch_add(1, Ordering::Release);
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(tid: usize, sh: Arc<Shared>) {
    let mut seen_generation = 0u64;
    loop {
        let generation = || sh.generation.load(Ordering::Acquire);
        spin_until(|| generation() != seen_generation);
        let job = {
            let mut slot = lock_recover(&sh.slot);
            if generation() == seen_generation && !slot.shutdown {
                sh.parked.fetch_add(1, Ordering::Relaxed);
                while generation() == seen_generation && !slot.shutdown {
                    slot = sh.start.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                sh.parked.fetch_sub(1, Ordering::Relaxed);
            }
            if slot.shutdown {
                return;
            }
            seen_generation = generation();
            match &slot.job {
                Some(j) => Job { f: j.f },
                None => continue,
            }
        };
        // Safety: the publisher blocks in `try_run` until `remaining`
        // hits 0, so the closure outlives this call.
        let f = unsafe { &*job.f };
        // Panic isolation: catch the unwind so `remaining` is always
        // decremented (no deadlocked publisher) and the worker survives
        // to serve the next job.
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(tid))) {
            lock_recover(&sh.panics).push((tid, panic_payload(p)));
        }
        if sh.remaining.fetch_sub(1, Ordering::SeqCst) == 1
            && sh.caller_parked.load(Ordering::SeqCst)
        {
            let _g = lock_recover(&sh.done_lock);
            sh.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::{Barrier, BarrierKind};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_threads() {
        let pool = Pool::new(4);
        let hits = AtomicU64::new(0);
        pool.run(&|tid| {
            assert!(tid < 4);
            hits.fetch_add(1 << (tid * 8), Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0x01010101);
    }

    #[test]
    fn reusable_across_many_jobs() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(&|_tid| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let hit = AtomicU64::new(0);
        pool.run(&|tid| {
            assert_eq!(tid, 0);
            hit.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn threads_can_synchronize_with_barriers() {
        // The executor pattern: shared barrier between pipeline stages.
        let p = 4;
        let pool = Pool::new(p);
        let barrier = BarrierKind::Park.build(p);
        let barrier: &dyn Barrier = &*barrier;
        let stage_data: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
        pool.run(&|tid| {
            stage_data[tid].store((tid + 1) as u64, Ordering::SeqCst);
            barrier.wait();
            // After the barrier every thread sees all stage-1 writes.
            let sum: u64 = stage_data.iter().map(|a| a.load(Ordering::SeqCst)).sum();
            assert_eq!(sum, (1..=p as u64).sum::<u64>());
        });
    }

    #[test]
    fn writes_are_visible_after_run() {
        let pool = Pool::new(4);
        let data: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(&|tid| {
            for i in (tid..64).step_by(4) {
                data[i].store(i as u64, Ordering::Relaxed);
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), i as u64);
        }
    }

    #[test]
    fn worker_panic_surfaces_as_err_and_pool_stays_usable() {
        let pool = Pool::new(4);
        let err = pool
            .try_run(&|tid| {
                if tid == 2 {
                    panic!("injected worker failure");
                }
            })
            .unwrap_err();
        match err {
            SpiralError::WorkerPanic { thread, payload } => {
                assert_eq!(thread, 2);
                assert!(payload.contains("injected worker failure"));
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        assert!(pool.healthy());
        // The same pool must run a subsequent healthy job to completion.
        let total = AtomicU64::new(0);
        pool.try_run(&|_tid| {
            total.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn caller_panic_is_caught_and_workers_drain() {
        let pool = Pool::new(3);
        let worker_hits = AtomicU64::new(0);
        let err = pool
            .try_run(&|tid| {
                if tid == 0 {
                    panic!("thread 0 dies");
                }
                worker_hits.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        assert!(matches!(err, SpiralError::WorkerPanic { thread: 0, .. }));
        // Both workers finished their portions despite the caller panic.
        assert_eq!(worker_hits.load(Ordering::SeqCst), 2);
        assert!(pool.healthy());
    }

    #[test]
    fn single_thread_pool_catches_panics() {
        let pool = Pool::new(1);
        let err = pool.try_run(&|_tid| panic!("inline boom")).unwrap_err();
        assert!(matches!(err, SpiralError::WorkerPanic { thread: 0, .. }));
        pool.try_run(&|_tid| {}).unwrap();
    }

    #[test]
    #[should_panic(expected = "injected worker failure")]
    fn run_repanics_on_worker_panic() {
        let pool = Pool::new(2);
        pool.run(&|tid| {
            if tid == 1 {
                panic!("injected worker failure");
            }
        });
    }

    #[test]
    fn watchdog_reports_late_jobs() {
        let pool = Pool::with_watchdog(2, Duration::from_millis(40));
        let err = pool
            .try_run(&|tid| {
                if tid == 1 {
                    std::thread::sleep(Duration::from_millis(250));
                }
            })
            .unwrap_err();
        match err {
            SpiralError::WatchdogTimeout { waited } => {
                assert!(waited >= Duration::from_millis(40));
            }
            other => panic!("expected WatchdogTimeout, got {other}"),
        }
        // The straggler drained before return; the pool is reusable.
        assert!(pool.healthy());
        pool.try_run(&|_tid| {}).unwrap();
    }

    /// Poll `cond` every 100 µs for up to `limit`; whether it held.
    fn eventually(limit: Duration, cond: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < limit {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        cond()
    }

    #[test]
    fn idle_workers_park_after_the_spin_window() {
        let pool = Pool::new(3);
        pool.run(&|_tid| {});
        // Each worker spins for one SPIN_WINDOW (≤ 100 µs), then parks;
        // the generous limit only absorbs scheduling delay on a loaded
        // host.
        let parked = || pool.shared.parked.load(Ordering::Relaxed) == 2;
        assert!(eventually(Duration::from_secs(2), parked));
        // Parked workers still wake for the next job.
        let hits = AtomicU64::new(0);
        pool.run(&|_tid| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn dropping_a_pool_with_spinning_workers_joins_promptly() {
        for p in [2usize, 4] {
            let pool = Pool::new(p);
            pool.run(&|_tid| {});
            // The workers are inside their spin window now.
            let t0 = Instant::now();
            drop(pool);
            assert!(t0.elapsed() < Duration::from_millis(500), "p={p}");
        }
    }

    /// Back-to-back dispatches, with pauses longer than the spin window
    /// (workers park) and slow workers (the caller parks), so both the
    /// spinning and the parking hand-offs run thousands of times. A lost
    /// wake-up would surface as a watchdog error.
    #[test]
    fn ten_thousand_dispatches_lose_no_wake_up() {
        for p in [2usize, 4] {
            let pool = Pool::with_watchdog(p, Duration::from_secs(10));
            let total = AtomicU64::new(0);
            let rounds = 10_000u64;
            for round in 0..rounds {
                if round % 500 == 0 {
                    std::thread::sleep(SPIN_WINDOW * 3);
                }
                let slow = round % 500 == 250;
                pool.try_run(&|tid| {
                    if slow && tid != 0 {
                        std::thread::sleep(SPIN_WINDOW * 3);
                    }
                    total.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap_or_else(|e| panic!("p={p} round {round}: {e}"));
            }
            assert_eq!(total.load(Ordering::Relaxed), rounds * p as u64);
        }
    }

    #[test]
    fn concurrent_callers_take_turns() {
        let pool = Pool::with_watchdog(2, Duration::from_secs(10));
        std::thread::scope(|s| {
            for caller in 0..2u64 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..200 {
                        let hits = AtomicU64::new(0);
                        pool.try_run(&|tid| {
                            hits.fetch_add(1 << (tid * 8), Ordering::SeqCst);
                        })
                        .unwrap();
                        assert_eq!(hits.load(Ordering::SeqCst), 0x0101, "caller {caller}");
                    }
                });
            }
        });
    }
}
