//! Single-flight *failure* paths of `PlanService` (compiled only with
//! the `faults` feature, which provides the injected tuner failure):
//! a tuner error for a cold key must reach every waiter without
//! deadlock, must not be cached, and must leave the counters
//! consistent so a later request retries cleanly.
#![cfg(feature = "faults")]

use spiral_serve::PlanService;
use spiral_smp::faults::{install_serve, ServeFaultPlan, ServeFaultSpec, ServeSite};

#[test]
fn tuner_error_reaches_all_waiters_without_deadlock_or_caching() {
    let svc = PlanService::new(2, 4);
    let failed_invocations;
    {
        let _guard = install_serve(ServeFaultPlan {
            seed: 0,
            specs: vec![ServeFaultSpec::always(ServeSite::TunerFail)],
        });

        // Eight concurrent cold requests for one key: a leader runs the
        // (failing) tuner, followers wait on the flight slot; a thread
        // arriving after the slot cleared becomes a fresh leader and
        // fails again. All eight must see the error — promptly, not
        // via deadlock or timeout.
        let results: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        svc.sequential_plan(128)
                            .map(|_| ())
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("waiter threads survive"))
                .collect()
        });
        for r in &results {
            let e = r.as_ref().expect_err("the injected failure must propagate");
            assert!(e.contains("injected"), "got: {e}");
        }

        // Nothing was cached, and every request was a miss (never a
        // hit): failures must not be memoized.
        failed_invocations = svc.tuner_invocations();
        assert!(
            (1..=8).contains(&failed_invocations),
            "between one (perfect collapse) and eight (all leaders) runs: {failed_invocations}"
        );
        assert_eq!(svc.cached_plans(), 0);
        assert_eq!(svc.cache_misses(), 8);
        assert_eq!(svc.cache_hits(), 0);
    }

    // The injection is gone and the slot cleared: a later request
    // retries the tuner and succeeds.
    svc.sequential_plan(128).expect("retry tunes cleanly");
    assert_eq!(svc.tuner_invocations(), failed_invocations + 1);
    assert_eq!(svc.cached_plans(), 1);

    // And the now-warm key serves from cache.
    svc.sequential_plan(128).expect("cache hit");
    assert_eq!(svc.tuner_invocations(), failed_invocations + 1);
    assert!(svc.cache_hits() >= 1);
}

#[test]
fn failure_on_one_key_does_not_poison_other_keys() {
    let _guard = install_serve(ServeFaultPlan {
        seed: 0,
        specs: vec![ServeFaultSpec::once(ServeSite::TunerFail)],
    });
    let svc = PlanService::new(2, 4);

    assert!(
        svc.sequential_plan(64).is_err(),
        "first cold key must eat the injected failure"
    );
    // A *different* key is unaffected (the spec is spent).
    svc.sequential_plan(256).expect("other keys tune normally");
    // The failed key itself recovers.
    svc.sequential_plan(64).expect("failed key retries cleanly");
    assert_eq!(svc.cached_plans(), 2);
    assert_eq!(svc.tuner_invocations(), 3);
}
