//! Wisdom persistence round-trip: a plan loaded from disk must be the
//! same executable object a fresh tuning run produces, corrupt entries
//! must be rejected individually with reasons, and a stale host
//! fingerprint must discard the whole file.

use spiral_codegen::Executor;
use spiral_search::{CostModel, Tuner};
use spiral_serve::{
    compile_entry, PlanService, PlanSource, WisdomEntry, WisdomFile, WisdomStore,
    WISDOM_SCHEMA_VERSION,
};
use spiral_smp::topology::HostFingerprint;
use spiral_spl::cplx::Cplx;
use std::sync::Arc;

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spiral-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new(0.25 + j as f64, -(j as f64) * 0.75))
        .collect()
}

fn assert_close(n: usize, got: &[Cplx], want: &[Cplx]) {
    for (a, b) in got.iter().zip(want) {
        assert!(
            (a.re - b.re).abs() <= 1e-10 && (a.im - b.im).abs() <= 1e-10,
            "n={n}: wisdom-loaded {a:?} vs freshly tuned {b:?}"
        );
    }
}

/// Wisdom-loaded and freshly tuned plans agree elementwise to 1e-10:
/// the service's sequential plans, and a 2-thread entry recorded and
/// reloaded through the store.
#[test]
fn wisdom_loaded_plan_matches_freshly_tuned_output() {
    let path = tmp_path("roundtrip.json");
    let _ = std::fs::remove_file(&path);
    let threads = 2;
    let mu = 4;

    // Cold service: tune, which also writes wisdom.
    let (cold, report) = PlanService::with_wisdom(threads, mu, &path);
    assert!(report.discarded.is_none() && report.loaded == 0);
    for n in [64usize, 256, 1024] {
        cold.sequential_plan(n).unwrap();
    }
    assert_eq!(cold.tuner_invocations(), 3, "every cold key must tune");

    // A 2-thread entry goes through the store directly.
    let n_par = 256;
    let par = Tuner::new(2, mu, CostModel::Analytic)
        .tune_parallel(n_par)
        .unwrap()
        .expect("2^8 admits the multicore split");
    assert_eq!(par.plan.threads, 2);
    {
        let (mut store, report) = WisdomStore::open(&path);
        assert_eq!(report.loaded, 3, "rejected: {:?}", report.rejected);
        store.record(
            WisdomEntry {
                n: n_par as u64,
                threads: 2,
                mu: mu as u64,
                plan_threads: 2,
                formula: par.formula.to_string(),
                choice: par.choice.clone(),
                cost: par.cost,
                vec_width: par.plan.vec_width.max(1) as u64,
            },
            Arc::new(par.plan.clone()),
        );
        store.save().unwrap();
    }

    // Warm service: every plan comes back from wisdom.
    let (warm, report) = PlanService::with_wisdom(threads, mu, &path);
    assert!(report.discarded.is_none(), "{:?}", report.discarded);
    assert_eq!(report.loaded, 4, "rejected: {:?}", report.rejected);
    for n in [64usize, 256, 1024] {
        let loaded = warm.sequential_plan(n).unwrap();
        assert_eq!(loaded.source, PlanSource::Wisdom);
        // Freshly tuned reference, bypassing wisdom entirely.
        let fresh = Tuner::new(1, mu, CostModel::Analytic)
            .tune_sequential(n)
            .unwrap();
        let x = ramp(n);
        let got = warm.serve_batch(n, std::slice::from_ref(&x)).unwrap();
        assert_close(n, &got[0], &fresh.plan.execute(&x));
    }
    assert_eq!(
        warm.tuner_invocations(),
        0,
        "a warm wisdom file must serve without tuning"
    );

    let (store, _) = WisdomStore::open(&path);
    let hit = store.get(n_par, 2, mu).expect("the 2-thread entry loads");
    assert_eq!((hit.plan.threads, &hit.choice), (2, &par.choice));
    let x = ramp(n_par);
    let mut got = vec![Cplx::ZERO; n_par];
    Executor::new(2)
        .try_run(&hit.plan, &[&x], &mut [&mut got], &())
        .unwrap();
    assert_close(n_par, &got, &par.plan.execute(&x));
}

#[test]
fn warm_service_survives_concurrent_requests_without_tuning() {
    let path = tmp_path("warm_concurrent.json");
    let _ = std::fs::remove_file(&path);
    let (cold, _) = PlanService::with_wisdom(2, 4, &path);
    cold.sequential_plan(64).unwrap();
    cold.sequential_plan(256).unwrap();

    let (warm, report) = PlanService::with_wisdom(2, 4, &path);
    assert_eq!(report.loaded, 2);
    std::thread::scope(|s| {
        for k in 0..8 {
            let warm = &warm;
            s.spawn(move || {
                let n = if k % 2 == 0 { 64 } else { 256 };
                let xs: Vec<Vec<Cplx>> = (0..4).map(|_| ramp(n)).collect();
                warm.serve_batch(n, &xs).unwrap();
            });
        }
    });
    assert_eq!(warm.tuner_invocations(), 0);
    assert_eq!(warm.cached_plans(), 2);
}

#[test]
fn corrupt_entries_are_rejected_individually_with_reasons() {
    let host = HostFingerprint::current();
    let good = WisdomEntry {
        n: 16,
        threads: 1,
        mu: 4,
        plan_threads: 1,
        formula: "(DFT_4 @ I_4) * T^16_4 * (I_4 @ DFT_4) * L^16_4".to_string(),
        choice: "test".to_string(),
        cost: 100.0,
        vec_width: 1,
    };
    let bad_parse = WisdomEntry {
        formula: "DFT_oops".to_string(),
        n: 32,
        ..good.clone()
    };
    let bad_dim = WisdomEntry {
        n: 64, // formula is 16-dimensional
        ..good.clone()
    };
    let bad_cost = WisdomEntry {
        n: 16,
        threads: 2,
        cost: -3.0,
        ..good.clone()
    };
    let file = WisdomFile {
        schema: WISDOM_SCHEMA_VERSION,
        host: host.clone(),
        entries: vec![good.clone(), bad_parse, bad_dim, bad_cost],
    };
    let path = tmp_path("corrupt_entries.json");
    std::fs::write(&path, serde_json::to_string_pretty(&file).unwrap()).unwrap();

    let (store, report) = WisdomStore::open_for_host(&path, host);
    assert!(report.discarded.is_none());
    assert_eq!(report.loaded, 1);
    assert_eq!(report.rejected.len(), 3);
    assert!(store.get(16, 1, 4).is_some());
    assert!(store.get(64, 1, 4).is_none());
    let reasons: Vec<&str> = report.rejected.iter().map(|r| r.reason.as_str()).collect();
    assert!(reasons.iter().any(|r| r.contains("parse")), "{reasons:?}");
    assert!(
        reasons.iter().any(|r| r.contains("dimension")),
        "{reasons:?}"
    );
    assert!(reasons.iter().any(|r| r.contains("cost")), "{reasons:?}");
}

#[test]
fn stale_host_fingerprint_discards_the_whole_file() {
    let mut other = HostFingerprint::current();
    other.cores += 1; // a different machine
    let file = WisdomFile {
        schema: WISDOM_SCHEMA_VERSION,
        host: other,
        entries: vec![WisdomEntry {
            n: 16,
            threads: 1,
            mu: 4,
            plan_threads: 1,
            formula: "(DFT_4 @ I_4) * T^16_4 * (I_4 @ DFT_4) * L^16_4".to_string(),
            choice: "test".to_string(),
            cost: 100.0,
            vec_width: 1,
        }],
    };
    let path = tmp_path("stale_host.json");
    std::fs::write(&path, serde_json::to_string_pretty(&file).unwrap()).unwrap();

    let (store, report) = WisdomStore::open_for_host(&path, HostFingerprint::current());
    assert!(store.is_empty());
    let reason = report.discarded.expect("stale file must be discarded");
    assert!(reason.contains("stale host"), "{reason}");
}

/// A file whose fingerprint matches this host field-for-field can still
/// contain an individually stale entry: one tuned with a short-vector
/// width the host cannot execute (hand-merged wisdom, edited files).
/// Such entries are rejected entry-by-entry; the rest of the file loads.
#[test]
fn entries_wider_than_host_simd_are_rejected_as_stale() {
    let mut host = HostFingerprint::current();
    host.simd_width = 2; // pretend this host tops out at two lanes
    let good = WisdomEntry {
        n: 16,
        threads: 1,
        mu: 4,
        plan_threads: 1,
        formula: "(DFT_4 @ I_4) * T^16_4 * (I_4 @ DFT_4) * L^16_4".to_string(),
        choice: "test".to_string(),
        cost: 100.0,
        vec_width: 1,
    };
    let too_wide = WisdomEntry {
        n: 64,
        formula: "vec(4)[(DFT_8 @ I_8) * T^64_8 * (I_8 @ DFT_8) * L^64_8]".to_string(),
        choice: "test + vec(4)".to_string(),
        vec_width: 4,
        ..good.clone()
    };
    let file = WisdomFile {
        schema: WISDOM_SCHEMA_VERSION,
        host: host.clone(),
        entries: vec![good, too_wide],
    };
    let path = tmp_path("stale_simd_width.json");
    std::fs::write(&path, serde_json::to_string_pretty(&file).unwrap()).unwrap();

    let (store, report) = WisdomStore::open_for_host(&path, host);
    assert!(report.discarded.is_none(), "{:?}", report.discarded);
    assert_eq!(report.loaded, 1, "the scalar entry still loads");
    assert_eq!(report.rejected.len(), 1);
    let reason = &report.rejected[0].reason;
    assert!(
        reason.contains("stale host") && reason.contains("vec(4)"),
        "reason names the width gate: {reason}"
    );
    assert!(store.get(16, 1, 4).is_some());
    assert!(store.get(64, 1, 4).is_none());
}

/// Hosts that differ only in detected SIMD width are different machines
/// as far as wisdom is concerned: the fingerprint comparison discards
/// the whole file.
#[test]
fn fingerprint_simd_width_mismatch_discards_the_whole_file() {
    let mut other = HostFingerprint::current();
    other.simd_width *= 2;
    let file = WisdomFile {
        schema: WISDOM_SCHEMA_VERSION,
        host: other,
        entries: Vec::new(),
    };
    let path = tmp_path("stale_simd_host.json");
    std::fs::write(&path, serde_json::to_string_pretty(&file).unwrap()).unwrap();
    let (store, report) = WisdomStore::open_for_host(&path, HostFingerprint::current());
    assert!(store.is_empty());
    let reason = report.discarded.expect("wider-host file must be discarded");
    assert!(reason.contains("stale host"), "{reason}");
}

#[test]
fn wrong_schema_version_discards_the_whole_file() {
    let file = WisdomFile {
        schema: WISDOM_SCHEMA_VERSION + 1,
        host: HostFingerprint::current(),
        entries: Vec::new(),
    };
    let future = serde_json::to_string_pretty(&file).unwrap();
    // A schema-3 file from the removed multi-process tier: its host
    // carries a process budget and its entries a `dist_procs` count.
    let host = serde_json::to_string(&HostFingerprint::current())
        .unwrap()
        .replacen("\"features\"", "\"process_budget\":4,\"features\"", 1);
    let v3 = format!(
        r#"{{"schema":3,"host":{host},"entries":[{{"n":4096,"threads":2,"mu":4,
        "plan_threads":2,"formula":"dist(4)[smp(2,4)[DFT_4096]]",
        "choice":"multicore + dist(4)","cost":1.0,"vec_width":1,"dist_procs":4}}]}}"#
    );
    for (name, text) in [("wrong_schema.json", future), ("schema_v3.json", v3)] {
        let path = tmp_path(name);
        std::fs::write(&path, text).unwrap();
        let (store, report) = WisdomStore::open_for_host(&path, HostFingerprint::current());
        assert!(store.is_empty(), "{name}");
        let reason = report.discarded.expect("stale schema must be discarded");
        assert!(reason.contains("schema version"), "{name}: {reason}");
    }
}

#[test]
fn unparseable_file_discards_and_serves_fresh() {
    let path = tmp_path("garbage.json");
    std::fs::write(&path, "{ not json").unwrap();
    let (store, report) = WisdomStore::open_for_host(&path, HostFingerprint::current());
    assert!(store.is_empty());
    assert!(report.discarded.unwrap().contains("unparseable"));
}

/// A plan the static analyzer rejects must not load: hand-craft an
/// entry whose formula compiles but whose recompilation is checked —
/// here via a plan_threads value outside the valid range, the cheapest
/// deterministic rejection the validator owns.
#[test]
fn invalid_plan_threads_is_rejected() {
    let entry = WisdomEntry {
        n: 16,
        threads: 2,
        mu: 4,
        plan_threads: 3, // > threads
        formula: "(DFT_4 @ I_4) * T^16_4 * (I_4 @ DFT_4) * L^16_4".to_string(),
        choice: "test".to_string(),
        cost: 10.0,
        vec_width: 1,
    };
    let err = compile_entry(&entry).unwrap_err();
    assert!(err.contains("plan_threads"), "{err}");
}

/// An entry whose formula has a prime leaf without a kernel (DFT_47, in
/// a Cooley–Tukey step of DFT_94) is rejected on its own: its formula
/// fails to lower.
#[test]
fn leaf_without_a_kernel_is_rejected() {
    let entry = WisdomEntry {
        n: 94,
        threads: 1,
        mu: 4,
        plan_threads: 1,
        formula: "(DFT_2 @ I_47) * T^94_47 * (I_2 @ DFT_47) * L^94_2".to_string(),
        choice: "test".to_string(),
        cost: 10.0,
        vec_width: 1,
    };
    let err = compile_entry(&entry).unwrap_err();
    assert!(
        err.contains("fails to lower") && err.contains("no kernel"),
        "{err}"
    );
}

/// The tuner's winning formulas — sequential and parallel — round-trip
/// through the ASCII rendering and recompile to plans of the right
/// shape via `compile_entry` (the loader's pipeline).
#[test]
fn tuner_winners_round_trip_through_ascii() {
    let tuner = Tuner::new(2, 4, CostModel::Analytic);
    let seq = tuner.tune_sequential(256).unwrap();
    let par = tuner.tune_parallel(256).unwrap().expect("2^8 admits p=2");
    for (tuned, threads, plan_threads) in [(&seq, 1u64, 1u64), (&par, 2, 2)] {
        let entry = WisdomEntry {
            n: 256,
            threads,
            mu: 4,
            plan_threads,
            formula: tuned.formula.to_string(),
            choice: tuned.choice.clone(),
            cost: tuned.cost,
            vec_width: tuned.plan.vec_width.max(1) as u64,
        };
        let compiled = compile_entry(&entry).unwrap_or_else(|e| {
            panic!(
                "winner must recompile (p={plan_threads}): {e}\n{}",
                entry.formula
            )
        });
        assert_eq!(compiled.plan.n, 256);
        assert_eq!(
            compiled.plan.threads,
            usize::try_from(plan_threads).unwrap()
        );
        let x = ramp(256);
        let want = tuned.plan.execute(&x);
        let got = compiled.plan.execute(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!(
                (a.re - b.re).abs() <= 1e-10 && (a.im - b.im).abs() <= 1e-10,
                "p={plan_threads}: {a:?} vs {b:?}"
            );
        }
    }
}

/// A formula with a `DFT_12` leaf, a size with no compiled kernel,
/// loads (lowering expands the leaf to kernels of the set), passes the
/// load-time certification, and serves without tuning.
#[test]
fn entry_with_a_leaf_outside_the_kernel_set_loads_certifies_and_serves() {
    let host = HostFingerprint::current();
    let file = WisdomFile {
        schema: WISDOM_SCHEMA_VERSION,
        host: host.clone(),
        entries: vec![WisdomEntry {
            n: 24,
            threads: 1,
            mu: 4,
            plan_threads: 1,
            formula: "(DFT_2 @ I_12) * T^24_12 * (I_2 @ DFT_12) * L^24_2".to_string(),
            choice: "test".to_string(),
            cost: 100.0,
            vec_width: 1,
        }],
    };
    let path = tmp_path("dft12_leaf.json");
    std::fs::write(&path, serde_json::to_string_pretty(&file).unwrap()).unwrap();

    let (svc, report) = PlanService::with_wisdom(2, 4, &path);
    assert!(report.discarded.is_none(), "{:?}", report.discarded);
    assert_eq!(report.loaded, 1, "rejected: {:?}", report.rejected);
    assert_eq!(svc.sequential_plan(24).unwrap().source, PlanSource::Wisdom);
    let x = ramp(24);
    let got = svc.serve_batch(24, std::slice::from_ref(&x)).unwrap();
    let want = spiral_spl::builder::dft(24).eval(&x);
    spiral_spl::cplx::assert_slices_close(&got[0], &want, 1e-10);
    assert_eq!(svc.tuner_invocations(), 0);
}
