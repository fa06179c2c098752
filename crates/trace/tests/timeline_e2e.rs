//! End-to-end timeline checks on real observed executions: the event
//! stream recorded through `try_execute_with` must agree with the
//! independently aggregated `RunProfile` of the same run, satisfy the
//! static timeline checker, count one barrier release per thread per
//! synchronized stage, and export as well-formed Chrome trace JSON.

// Stage/thread ids in these runs are tiny; the JSON data model stores
// numbers as f64, so reading them back is a narrowing cast by design.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use serde_json::Value;
use spiral_codegen::plan::Plan;
use spiral_codegen::ParallelExecutor;
use spiral_rewrite::multicore_dft_expanded;
use spiral_spl::cplx::Cplx;
use spiral_trace::{profile_run, RunProfile, Timeline, TimelineEventKind};
use spiral_verify::timeline::verify_timeline;

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|j| Cplx::new(0.5 + j as f64, -(j as f64) * 0.25))
        .collect()
}

fn balanced_plan(n: usize, p: usize) -> Plan {
    let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
    Plan::from_formula(&f, p, 4).unwrap().fuse_exchanges()
}

/// One run of `plan` observed by a `Collector` and `timeline` together.
fn profile_into(plan: &Plan, p: usize, timeline: &Timeline) -> (Vec<Cplx>, RunProfile) {
    let exec = ParallelExecutor::with_auto_barrier(p);
    profile_run(plan.n, p, &plan.stage_labels(), |c| {
        exec.try_execute_with(plan, &ramp(plan.n), &(c, timeline))
    })
    .expect("healthy plan must execute")
}

fn observed_run(n: usize, p: usize) -> (Timeline, RunProfile, Plan) {
    let plan = balanced_plan(n, p);
    let timeline = Timeline::new(p);
    let (out, profile) = profile_into(&plan, p, &timeline);
    assert_eq!(out.len(), n);
    (timeline, profile, plan)
}

#[test]
fn barrier_release_marks_count_threads_per_synchronized_stage() {
    for p in [2usize, 4] {
        let (timeline, profile, _) = observed_run(1 << 10, p);
        let mut synchronized = 0;
        for s in 0..profile.stages.len() {
            let releases = timeline.count(TimelineEventKind::BarrierRelease, s as u32);
            assert!(
                releases == 0 || releases == p,
                "p={p} stage {s}: {releases} release marks (want 0 or {p})"
            );
            if releases == p {
                synchronized += 1;
            }
        }
        assert!(
            synchronized > 0,
            "p={p}: a parallel run must cross at least one barrier"
        );
        assert_eq!(timeline.total_dropped(), 0);
    }
}

#[test]
fn timeline_totals_agree_with_profile_aggregates() {
    // Both instruments observe the same run, so the sums must agree to
    // well within the 5% acceptance bound — they differ only by
    // clock-read placement.
    let (timeline, profile, _) = observed_run(1 << 12, 2);
    let within = |name: &str, tl: u64, prof: u64| {
        let rel = (tl as f64 - prof as f64).abs() / prof.max(1) as f64;
        assert!(
            rel <= 0.05,
            "{name}: timeline {tl} ns vs profile {prof} ns ({:.1}% apart)",
            100.0 * rel
        );
    };
    within(
        "compute",
        timeline.total_ns(TimelineEventKind::StageCompute),
        profile.total_compute_ns(),
    );
    within(
        "barrier wait",
        timeline.total_ns(TimelineEventKind::BarrierWait),
        profile.total_barrier_wait_ns(),
    );
}

#[test]
fn static_timeline_checker_passes_a_real_run() {
    let (timeline, profile, _) = observed_run(1 << 11, 2);
    let diags = verify_timeline(&timeline.events(), 2, profile.stages.len());
    assert!(
        diags.is_empty(),
        "real observed run must satisfy the timeline checker: {:?}",
        diags.iter().map(|d| d.detail.as_str()).collect::<Vec<_>>()
    );
}

#[test]
fn chrome_export_of_real_run_is_well_formed() {
    let (timeline, _, plan) = observed_run(1 << 10, 2);
    let json = timeline.chrome_trace(&plan.stage_labels());
    let doc: Value = serde_json::from_str(&json).expect("export must parse");
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    let ph = |e: &Value| match e.get("ph") {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("ph must be a string, got {other:?}"),
    };
    let b = events.iter().filter(|e| ph(e) == "B").count();
    let e_count = events.iter().filter(|e| ph(e) == "E").count();
    assert_eq!(b, e_count, "B/E phases must be balanced");
    assert!(b > 0, "a real run must record spans");
    for ev in events.iter().filter(|e| ph(e) == "i") {
        assert_eq!(
            ev.get("s").and_then(|v| match v {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("t"),
            "instants must be thread-scoped"
        );
    }
    // Per-thread timestamps of B events are monotone (ring order).
    let mut last = std::collections::HashMap::new();
    for ev in events.iter().filter(|e| ph(e) == "B") {
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap() as usize;
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap();
        let prev = last.insert(tid, ts).unwrap_or(-1.0);
        assert!(ts >= prev, "tid {tid}: B at {ts} after {prev}");
    }
}

#[test]
fn overflowed_tiny_ring_reports_nonzero_drop_count_in_profile() {
    // A real observed run into a deliberately tiny ring: the run emits
    // far more events per thread than 2 slots, so the ring must wrap —
    // and the profile stamped from that timeline must SAY so instead of
    // silently truncating history.
    let n = 1 << 10;
    let p = 2;
    let plan = balanced_plan(n, p);
    let timeline = Timeline::with_capacity(p, 2);
    let (_, profile) = profile_into(&plan, p, &timeline);
    let profile = profile.with_timeline(&timeline);
    assert!(
        timeline.total_dropped() > 0,
        "a 2-slot ring must wrap on a real run"
    );
    assert_eq!(profile.timeline_dropped, timeline.total_dropped());
    // The drop count survives the JSON interchange round-trip.
    let back = RunProfile::from_json(&profile.to_json()).unwrap();
    assert_eq!(back.timeline_dropped, profile.timeline_dropped);
    // And the exported trace carries the same wrap counter.
    let trace = timeline.chrome_trace(&[]);
    assert!(trace.contains(&format!("\"dropped_events\": {}", timeline.total_dropped())));

    // Control: an ample ring on the same workload drops nothing.
    let (roomy, ample_profile, _) = observed_run(n, p);
    assert_eq!(roomy.total_dropped(), 0);
    assert_eq!(ample_profile.with_timeline(&roomy).timeline_dropped, 0);
}
