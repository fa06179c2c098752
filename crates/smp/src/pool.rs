//! Persistent worker-thread pool with panic isolation.
//!
//! FFTW's experimental "thread pooling" (which the paper found broken on
//! 4 processors) exists to avoid paying thread-creation cost per
//! transform; Spiral-generated code assumes the same. This pool keeps
//! `p-1` workers parked between calls; [`Pool::run`] executes a closure
//! on all `p` logical threads (the caller participates as thread 0) and
//! returns when every thread has finished.
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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default pool watchdog: generous, so healthy long transforms never
/// trip it; executors layer tighter stage-level deadlines underneath.
pub const DEFAULT_POOL_WATCHDOG: Duration = Duration::from_secs(60);

/// Type-erased job pointer. Valid only while the publishing `run` call is
/// blocked, which the completion protocol guarantees.
struct Job {
    f: *const (dyn Fn(usize) + Sync),
}
// Safety: the pointee is Sync and outlives all uses (see `run`).
unsafe impl Send for Job {}

struct Slot {
    generation: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    start: Condvar,
    /// Number of workers still running the current job.
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// Panics caught during the current job, in completion order.
    panics: Mutex<Vec<(usize, String)>>,
}

/// A pool of `p` logical threads: `p - 1` parked workers plus the caller.
pub struct Pool {
    p: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    watchdog: Duration,
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
                generation: 0,
                job: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            remaining: AtomicUsize::new(0),
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
    /// pool remains usable after an `Err`.
    pub fn try_run(&self, f: &(dyn Fn(usize) + Sync)) -> Result<(), SpiralError> {
        if self.p == 1 {
            return match catch_unwind(AssertUnwindSafe(|| f(0))) {
                Ok(()) => Ok(()),
                Err(p) => Err(SpiralError::WorkerPanic {
                    thread: 0,
                    payload: panic_payload(p),
                }),
            };
        }
        lock_recover(&self.shared.panics).clear();
        // Publish the job.
        {
            let mut slot = lock_recover(&self.shared.slot);
            debug_assert!(slot.job.is_none(), "pool is not reentrant");
            self.shared.remaining.store(self.p - 1, Ordering::Release);
            slot.generation += 1;
            // Safety: erase the borrow's lifetime; `try_run` blocks until
            // all workers finish with the pointer, then clears the slot.
            let erased: *const (dyn Fn(usize) + Sync + 'static) =
                unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync)) };
            slot.job = Some(Job { f: erased });
            self.shared.start.notify_all();
        }
        // Participate as thread 0, isolating our own panic so we always
        // reach the drain loop below (returning early would dangle the
        // published job pointer under running workers).
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        // Wait for the workers, under the watchdog.
        let start = Instant::now();
        let deadline = start + self.watchdog;
        let mut overrun = false;
        let mut guard = lock_recover(&self.shared.done_lock);
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            let now = Instant::now();
            let wait = if now < deadline {
                deadline - now
            } else {
                // Past the deadline: the run is failed, but we must not
                // return while a worker may still dereference the job
                // pointer. Stage-level deadlines below us bound how long
                // this drain can take.
                overrun = true;
                Duration::from_millis(100)
            };
            let (g, _) = self
                .shared
                .done
                .wait_timeout(guard, wait)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        drop(guard);
        // Clear the job so the pointer cannot be observed after return.
        lock_recover(&self.shared.slot).job = None;
        // Surface failures: first recorded panic wins, then the caller's
        // own panic, then a watchdog overrun.
        let mut panics = lock_recover(&self.shared.panics);
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
            slot.generation += 1;
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
        let job = {
            let mut slot = lock_recover(&sh.slot);
            while slot.generation == seen_generation && !slot.shutdown {
                slot = sh.start.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
            if slot.shutdown {
                return;
            }
            seen_generation = slot.generation;
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
        if sh.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
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
}
