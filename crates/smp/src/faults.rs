//! Deterministic fault injection (compiled only with the `faults`
//! feature).
//!
//! The failure model of the execution layer — panic isolation in the
//! pool, barrier watchdogs, NaN guards — is only trustworthy if it can
//! be *exercised*. This registry lets tests inject worker panics,
//! artificial stage delays, and NaN corruption of plan output at chosen
//! `(stage, thread)` points, deterministically (seeded) so failures are
//! reproducible.
//!
//! The executor queries [`at`] once per `(stage, thread)` pair per run;
//! it calls [`begin_run`] at the start of every parallel execution so
//! specs can target a specific run in a sequence (e.g. "fail only the
//! second candidate the tuner measures"). Installation returns a guard
//! holding a global session lock, so concurrent tests serialize instead
//! of observing each other's faults.

use crate::error::lock_recover;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A fault to inject at a matched site.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Panic on the matched thread at the start of the matched stage.
    Panic,
    /// Sleep for the given duration before running the stage portion
    /// (models a descheduled or wedged peer).
    Delay(Duration),
    /// Overwrite one element of the thread's output portion with NaN
    /// after the stage portion runs (models silent data corruption).
    CorruptNan,
}

/// Matcher + fault. `None` fields match everything.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// Match a specific plan stage index (`None` = any stage).
    pub stage: Option<usize>,
    /// Match a specific logical thread (`None` = any thread).
    pub thread: Option<usize>,
    /// Match a specific run index since installation (`None` = any run).
    /// Runs are counted by [`begin_run`].
    pub run: Option<usize>,
    /// Fire probability in `[0, 1]`, decided by a hash of
    /// `(seed, stage, thread, run)` — deterministic per site.
    pub probability: f64,
    /// The fault to inject when the matcher fires.
    pub fault: Fault,
}

impl FaultSpec {
    /// A spec that always fires at exactly `(stage, thread)`, every run.
    pub fn always(stage: usize, thread: usize, fault: Fault) -> FaultSpec {
        FaultSpec {
            stage: Some(stage),
            thread: Some(thread),
            run: None,
            probability: 1.0,
            fault,
        }
    }

    /// Restrict this spec to the given run index.
    pub fn on_run(mut self, run: usize) -> FaultSpec {
        self.run = Some(run);
        self
    }
}

/// A seeded set of fault specs.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for probabilistic specs.
    pub seed: u64,
    /// Specs checked in order; the first match fires.
    pub specs: Vec<FaultSpec>,
}

struct Registry {
    plan: FaultPlan,
    runs: AtomicUsize,
}

static ACTIVE: Mutex<Option<Registry>> = Mutex::new(None);
static SESSION: Mutex<()> = Mutex::new(());

/// Guard returned by [`install`]; clears the registry on drop and holds
/// the session lock so concurrent installers serialize.
pub struct FaultGuard {
    _session: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        *lock_recover(&ACTIVE) = None;
    }
}

/// Install a fault plan for the duration of the returned guard.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    *lock_recover(&ACTIVE) = Some(Registry {
        plan,
        runs: AtomicUsize::new(0),
    });
    FaultGuard { _session: session }
}

/// True when a fault plan is installed.
pub fn active() -> bool {
    lock_recover(&ACTIVE).is_some()
}

/// Mark the start of a new run (called by the executor once per
/// `try_execute`). Returns the index of the run that just started.
pub fn begin_run() -> usize {
    match lock_recover(&ACTIVE).as_ref() {
        Some(reg) => reg.runs.fetch_add(1, Ordering::SeqCst),
        None => 0,
    }
}

/// Query the registry at a `(stage, thread)` site of the current run.
pub fn at(stage: usize, thread: usize) -> Option<Fault> {
    let guard = lock_recover(&ACTIVE);
    let reg = guard.as_ref()?;
    let run = reg.runs.load(Ordering::SeqCst).saturating_sub(1);
    for spec in &reg.plan.specs {
        if spec.stage.is_some_and(|s| s != stage)
            || spec.thread.is_some_and(|t| t != thread)
            || spec.run.is_some_and(|r| r != run)
        {
            continue;
        }
        if spec.probability < 1.0 {
            let h = splitmix64(
                reg.plan
                    .seed
                    .wrapping_add((stage as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add((thread as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                    .wrapping_add((run as u64).wrapping_mul(0x94D0_49BB_1331_11EB)),
            );
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            if unit >= spec.probability {
                continue;
            }
        }
        return Some(spec.fault.clone());
    }
    None
}

// --- request-path fault registry (serving tier) ----------------------
//
// The execution-layer registry above matches `(stage, thread, run)`
// sites inside one parallel run. The serving tier's failure surface is
// different — connections, frames, deadlines, persistence — so it gets
// a *sibling* registry with its own site vocabulary, its own static,
// and its own session lock. Keeping them separate means a chaos test
// can hold a pool-fault plan and a request-path plan simultaneously,
// and neither extends `FaultPlan` (whose struct literals appear in
// tests across the workspace).

/// A request-path fault site in the serving tier. Sites are *queried*
/// by the component that would misbehave (client writers, the server's
/// request loop, the wisdom store, the plan service); the registry only
/// answers "does this site fire now?".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeSite {
    /// Client stalls mid-frame (server's read timeout must reap it).
    SlowClient,
    /// Client closes the socket mid-frame (torn frame on the wire).
    TornFrame,
    /// Client disconnects after sending, before reading the response.
    Disconnect,
    /// Server treats the request's deadline as already expired.
    ExpireDeadline,
    /// Wisdom persistence tears: partial temp-file write, no rename.
    WisdomSaveFail,
    /// The tuner fails for a cold key (single-flight error path).
    TunerFail,
    /// A batch dispatch behaves as if the pool watchdog tripped.
    BatchWedge,
}

impl ServeSite {
    fn code(self) -> u64 {
        match self {
            ServeSite::SlowClient => 0,
            ServeSite::TornFrame => 1,
            ServeSite::Disconnect => 2,
            ServeSite::ExpireDeadline => 3,
            ServeSite::WisdomSaveFail => 4,
            ServeSite::TunerFail => 5,
            ServeSite::BatchWedge => 6,
        }
    }
}

/// Matcher for one request-path site: which site, how often, and for at
/// most how many firings.
#[derive(Clone, Debug)]
pub struct ServeFaultSpec {
    /// The site this spec arms.
    pub site: ServeSite,
    /// Fire probability in `[0, 1]`, decided by a hash of
    /// `(seed, site, index)` — deterministic per queried index.
    pub probability: f64,
    /// Stop firing after this many hits (`None` = unlimited).
    pub max_fires: Option<usize>,
}

impl ServeFaultSpec {
    /// A spec that always fires, with no firing limit.
    pub fn always(site: ServeSite) -> ServeFaultSpec {
        ServeFaultSpec {
            site,
            probability: 1.0,
            max_fires: None,
        }
    }

    /// A spec that fires exactly once, on the first query of its site.
    pub fn once(site: ServeSite) -> ServeFaultSpec {
        ServeFaultSpec {
            site,
            probability: 1.0,
            max_fires: Some(1),
        }
    }

    /// A seeded probabilistic spec (the chaos grid's workhorse).
    pub fn with_probability(site: ServeSite, probability: f64) -> ServeFaultSpec {
        ServeFaultSpec {
            site,
            probability,
            max_fires: None,
        }
    }
}

/// A seeded set of request-path fault specs.
#[derive(Clone, Debug, Default)]
pub struct ServeFaultPlan {
    /// Seed for probabilistic specs.
    pub seed: u64,
    /// Specs checked in order; the first one that fires wins.
    pub specs: Vec<ServeFaultSpec>,
}

struct ServeRegistry {
    plan: ServeFaultPlan,
    /// Firing count per spec (aligned with `plan.specs`), enforcing
    /// `max_fires`.
    fired: Vec<usize>,
}

static SERVE_ACTIVE: Mutex<Option<ServeRegistry>> = Mutex::new(None);
static SERVE_SESSION: Mutex<()> = Mutex::new(());

/// Guard returned by [`install_serve`]; clears the request-path
/// registry on drop and holds its session lock so concurrent installers
/// serialize.
pub struct ServeFaultGuard {
    _session: MutexGuard<'static, ()>,
}

impl Drop for ServeFaultGuard {
    fn drop(&mut self) {
        *lock_recover(&SERVE_ACTIVE) = None;
    }
}

/// Install a request-path fault plan for the duration of the guard.
pub fn install_serve(plan: ServeFaultPlan) -> ServeFaultGuard {
    let session = SERVE_SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    let fired = vec![0; plan.specs.len()];
    *lock_recover(&SERVE_ACTIVE) = Some(ServeRegistry { plan, fired });
    ServeFaultGuard { _session: session }
}

/// True when a request-path fault plan is installed.
pub fn serve_active() -> bool {
    lock_recover(&SERVE_ACTIVE).is_some()
}

/// Query the request-path registry: does `site` fire for this `index`?
///
/// `index` is whatever uniqueness the caller has — a request counter, a
/// connection id — so probabilistic specs draw independently per query
/// while staying deterministic for a fixed seed.
pub fn serve_at(site: ServeSite, index: usize) -> bool {
    let mut guard = lock_recover(&SERVE_ACTIVE);
    let Some(reg) = guard.as_mut() else {
        return false;
    };
    for (i, spec) in reg.plan.specs.iter().enumerate() {
        if spec.site != site {
            continue;
        }
        if spec.max_fires.is_some_and(|m| reg.fired[i] >= m) {
            continue;
        }
        if spec.probability < 1.0 {
            let h = splitmix64(
                reg.plan
                    .seed
                    .wrapping_add(site.code().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)),
            );
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            if unit >= spec.probability {
                continue;
            }
        }
        reg.fired[i] += 1;
        return true;
    }
    false
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matchers_select_sites() {
        let _g = install(FaultPlan {
            seed: 7,
            specs: vec![FaultSpec::always(2, 1, Fault::Panic)],
        });
        begin_run();
        assert!(matches!(at(2, 1), Some(Fault::Panic)));
        assert!(at(2, 0).is_none());
        assert!(at(1, 1).is_none());
    }

    #[test]
    fn run_matcher_counts_runs() {
        let _g = install(FaultPlan {
            seed: 0,
            specs: vec![FaultSpec::always(0, 0, Fault::CorruptNan).on_run(1)],
        });
        begin_run(); // run 0
        assert!(at(0, 0).is_none());
        begin_run(); // run 1
        assert!(matches!(at(0, 0), Some(Fault::CorruptNan)));
        begin_run(); // run 2
        assert!(at(0, 0).is_none());
    }

    #[test]
    fn probability_is_deterministic() {
        let spec = FaultSpec {
            stage: None,
            thread: None,
            run: None,
            probability: 0.5,
            fault: Fault::Panic,
        };
        let _g = install(FaultPlan {
            seed: 42,
            specs: vec![spec],
        });
        begin_run();
        let first: Vec<bool> = (0..32).map(|s| at(s, 0).is_some()).collect();
        let second: Vec<bool> = (0..32).map(|s| at(s, 0).is_some()).collect();
        assert_eq!(first, second);
        // With p = 0.5 over 32 sites, both outcomes must occur.
        assert!(first.iter().any(|&b| b) && first.iter().any(|&b| !b));
    }

    #[test]
    fn uninstalled_registry_is_silent() {
        // Hold the session lock so a concurrently running test's
        // installation cannot be observed.
        let _s = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!active());
        assert!(at(0, 0).is_none());
        assert_eq!(begin_run(), 0);
    }

    #[test]
    fn serve_registry_fires_and_clears() {
        {
            let _g = install_serve(ServeFaultPlan {
                seed: 0,
                specs: vec![ServeFaultSpec::always(ServeSite::TornFrame)],
            });
            assert!(serve_active());
            assert!(serve_at(ServeSite::TornFrame, 0));
            assert!(serve_at(ServeSite::TornFrame, 1));
            // Other sites stay silent.
            assert!(!serve_at(ServeSite::Disconnect, 0));
        }
        // Guard drop clears the registry.
        let _s = SERVE_SESSION.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!serve_active());
        assert!(!serve_at(ServeSite::TornFrame, 0));
    }

    #[test]
    fn serve_once_spec_fires_exactly_once() {
        let _g = install_serve(ServeFaultPlan {
            seed: 0,
            specs: vec![ServeFaultSpec::once(ServeSite::TunerFail)],
        });
        assert!(serve_at(ServeSite::TunerFail, 0));
        assert!(!serve_at(ServeSite::TunerFail, 1));
        assert!(!serve_at(ServeSite::TunerFail, 0));
    }

    #[test]
    fn serve_probability_is_deterministic_per_index() {
        let plan = ServeFaultPlan {
            seed: 7,
            specs: vec![ServeFaultSpec::with_probability(ServeSite::Disconnect, 0.5)],
        };
        let first: Vec<bool> = {
            let _g = install_serve(plan.clone());
            (0..64)
                .map(|i| serve_at(ServeSite::Disconnect, i))
                .collect()
        };
        let second: Vec<bool> = {
            let _g = install_serve(plan);
            (0..64)
                .map(|i| serve_at(ServeSite::Disconnect, i))
                .collect()
        };
        assert_eq!(first, second);
        // With p = 0.5 over 64 indices, both outcomes must occur.
        assert!(first.iter().any(|&b| b) && first.iter().any(|&b| !b));
    }
}
