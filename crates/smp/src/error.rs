//! Workspace-wide structured errors for the fault-tolerant execution
//! layer.
//!
//! The paper's static-schedule runtime (per-stage barriers, persistent
//! pool) is only viable at production scale if failure is *bounded in
//! time and scoped in blast radius*: a panicking worker must surface as
//! an [`Err`] to the caller instead of deadlocking `Pool::run`, a dead
//! barrier peer must yield [`SpiralError::BarrierTimeout`] instead of
//! parking forever, and a poisoned lock must be recovered instead of
//! cascading. `SpiralError` is that contract, shared by `spiral-smp`,
//! `spiral-codegen`, and `spiral-search`.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Structured error for the execution stack (pool, barriers, executor,
/// tuner). Every fallible runtime entry point (`Pool::try_run`,
/// `ParallelExecutor::try_execute`, `Tuner::tune_parallel`) returns this.
#[derive(Debug, Clone)]
pub enum SpiralError {
    /// A job closure panicked on the given logical thread. The pool
    /// catches the unwind, records the payload, and keeps the worker
    /// alive, so the pool stays usable after this error.
    WorkerPanic {
        /// Logical thread id (0 = the calling thread).
        thread: usize,
        /// Stringified panic payload.
        payload: String,
    },
    /// A barrier watchdog expired: at least one of the `parties`
    /// participants never arrived within the deadline (dead or wedged
    /// peer). The timed-out waiter retracts its arrival so the barrier
    /// stays consistent for later phases.
    BarrierTimeout {
        /// Number of participants the barrier expects.
        parties: usize,
        /// How long the waiter waited before giving up.
        waited: Duration,
    },
    /// The pool-level watchdog expired while waiting for workers to
    /// drain. The pool still waits for stragglers before returning (the
    /// job closure borrows the caller's stack), but the run is reported
    /// as failed.
    WatchdogTimeout {
        /// Total time spent waiting for the job to drain.
        waited: Duration,
    },
    /// An aligned allocation could not be performed.
    Alloc {
        /// Requested element count.
        elems: usize,
        /// Requested alignment in bytes.
        align: usize,
        /// Why the allocation failed.
        reason: &'static str,
    },
    /// A computed result contains a non-finite value (NaN/∞). Results
    /// are scanned before they leave the executor, so corrupted output
    /// is never silently returned.
    NonFinite {
        /// Index of the first offending element.
        index: usize,
        /// Where the value was observed.
        context: String,
    },
    /// A plan could not be executed as requested (size/thread mismatch,
    /// failed static verification).
    Plan(String),
    /// A formula failed to lower to an executable plan.
    Lower(String),
    /// The search layer could not produce a result.
    Search(String),
}

impl SpiralError {
    /// True for errors caused by the runtime failing underneath a valid
    /// request (panic, timeout, corruption) — the class the serving tier
    /// retries on the verified sequential path. Deterministic
    /// misuse (bad plan, bad lowering) is excluded: retrying cannot fix
    /// it.
    pub fn is_runtime_fault(&self) -> bool {
        matches!(
            self,
            SpiralError::WorkerPanic { .. }
                | SpiralError::BarrierTimeout { .. }
                | SpiralError::WatchdogTimeout { .. }
                | SpiralError::NonFinite { .. }
        )
    }
}

impl std::fmt::Display for SpiralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpiralError::WorkerPanic { thread, payload } => {
                write!(f, "worker thread {thread} panicked: {payload}")
            }
            SpiralError::BarrierTimeout { parties, waited } => write!(
                f,
                "barrier watchdog expired after {waited:?}: not all {parties} parties arrived"
            ),
            SpiralError::WatchdogTimeout { waited } => {
                write!(
                    f,
                    "pool watchdog expired after {waited:?} waiting for workers"
                )
            }
            SpiralError::Alloc {
                elems,
                align,
                reason,
            } => write!(
                f,
                "cannot allocate {elems} elements aligned to {align} bytes: {reason}"
            ),
            SpiralError::NonFinite { index, context } => {
                write!(f, "non-finite value at index {index} in {context}")
            }
            SpiralError::Plan(msg) => write!(f, "{msg}"),
            SpiralError::Lower(msg) => write!(f, "lowering failed: {msg}"),
            SpiralError::Search(msg) => write!(f, "search failed: {msg}"),
        }
    }
}

impl std::error::Error for SpiralError {}

/// Lock a mutex, recovering from poisoning instead of panicking.
///
/// With panic isolation in the pool, a panicked job can poison shared
/// locks; the data they guard (job slots, barrier counters, panic
/// records) stays consistent because every critical section restores its
/// invariants before any panic-capable call. Propagating the poison
/// would turn one contained failure into a cascade of `.unwrap()`
/// panics.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a `catch_unwind` payload as a human-readable string.
pub fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn lock_recover_survives_poison() {
        let m = Mutex::new(5i32);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 5);
        *lock_recover(&m) = 7;
        assert_eq!(*lock_recover(&m), 7);
    }

    #[test]
    fn payloads_render() {
        let p = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_payload(p), "static str");
        let p = catch_unwind(|| panic!("formatted {}", 3)).unwrap_err();
        assert_eq!(panic_payload(p), "formatted 3");
    }

    #[test]
    fn error_classification() {
        assert!(SpiralError::WorkerPanic {
            thread: 1,
            payload: "x".into()
        }
        .is_runtime_fault());
        assert!(!SpiralError::Plan("bad".into()).is_runtime_fault());
        assert!(!SpiralError::Lower("bad".into()).is_runtime_fault());
    }
}
