//! Sanity checking of recorded execution timelines.
//!
//! The static analyzers in this crate judge a *plan*; this module judges
//! a *run*: the stream of timestamped spans and instants a
//! `spiral-trace` [`Timeline`](spiral_trace::Timeline) recorded, checked
//! as the recorder's own [`TimelineEvent`]s. A well-formed run obeys
//! structural invariants that follow directly from the execution model —
//! one thread does one thing at a time, stage work happens inside the
//! thread's pool job, and a stage's barrier releases every thread
//! exactly once — and a timeline that violates them points at recorder
//! bugs, clock trouble, or a genuinely broken run (e.g. a watchdog
//! fire).

use crate::{DiagKind, Diagnostic, Severity};
use spiral_trace::{TimelineEvent, TimelineEventKind as Kind};

/// True for the exclusive *activity* spans — the things a thread does
/// one at a time (pool jobs are containers, instants are points).
fn is_activity(kind: Kind) -> bool {
    matches!(
        kind,
        Kind::StageCompute
            | Kind::BarrierWait
            | Kind::TunerCandidate
            | Kind::BatchTransform
            | Kind::RequestServe
            | Kind::PoolExecute
    )
}

/// True for kinds whose `stage` field indexes a plan stage (tuner,
/// batch and serving events index candidates, transforms or requests
/// instead).
fn stage_indexed(kind: Kind) -> bool {
    matches!(
        kind,
        Kind::StageCompute | Kind::BarrierWait | Kind::BarrierRelease | Kind::WatchdogFire
    )
}

/// Check a recorded timeline of a `threads`-thread, `stages`-stage run.
///
/// Findings, most severe first:
///
/// * **Error / [`DiagKind::TimelineMalformed`]** — inverted span
///   (`end < start`), out-of-range thread id, or a stage-indexed event
///   whose stage is `>= stages`.
/// * **Error / [`DiagKind::TimelineOverlap`]** — two activity spans
///   (compute / barrier-wait / tuner-candidate) of one thread overlap in
///   time: a thread does one thing at a time.
/// * **Error / [`DiagKind::TimelineNesting`]** — a thread recorded pool
///   jobs, but one of its activity spans lies outside every pool job.
/// * **Error / [`DiagKind::TimelineBarrier`]** — a stage with barrier
///   events whose barrier-release count differs from `threads`.
/// * **Warning / [`DiagKind::TimelineBarrier`]** — a watchdog fired:
///   structurally valid, but the run it describes timed out.
pub fn verify_timeline(events: &[TimelineEvent], threads: usize, stages: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // --- shape: spans ordered, ids in range ---------------------------
    for e in events {
        if e.end_ns < e.start_ns {
            diags.push(diag(
                DiagKind::TimelineMalformed,
                Severity::Error,
                e,
                format!(
                    "inverted span: {:?} on thread {} ends at {} before it starts at {}",
                    e.kind, e.tid, e.end_ns, e.start_ns
                ),
            ));
        }
        if e.tid >= threads {
            diags.push(diag(
                DiagKind::TimelineMalformed,
                Severity::Error,
                e,
                format!(
                    "thread id {} out of range for a {threads}-thread run",
                    e.tid
                ),
            ));
        }
        if stage_indexed(e.kind) && e.stage as usize >= stages {
            diags.push(diag(
                DiagKind::TimelineMalformed,
                Severity::Error,
                e,
                format!(
                    "{:?} references stage {} of a {stages}-stage plan",
                    e.kind, e.stage
                ),
            ));
        }
    }

    // --- per-thread exclusivity and nesting ---------------------------
    for tid in 0..threads {
        let mut activity: Vec<&TimelineEvent> = events
            .iter()
            .filter(|e| e.tid == tid && is_activity(e.kind) && e.end_ns >= e.start_ns)
            .collect();
        activity.sort_by_key(|e| (e.start_ns, e.end_ns));
        for w in activity.windows(2) {
            // Sorted by start, so overlap is exactly "next starts before
            // previous ends". Touching endpoints (end == start) are fine:
            // compute hands off to the barrier wait at one instant.
            if w[1].start_ns < w[0].end_ns {
                diags.push(diag(
                    DiagKind::TimelineOverlap,
                    Severity::Error,
                    w[1],
                    format!(
                        "thread {tid}: {:?} (stage {}) starting at {} overlaps {:?} (stage {}) \
                         still running until {}",
                        w[1].kind, w[1].stage, w[1].start_ns, w[0].kind, w[0].stage, w[0].end_ns
                    ),
                ));
            }
        }

        let jobs: Vec<&TimelineEvent> = events
            .iter()
            .filter(|e| e.tid == tid && e.kind == Kind::PoolJob && e.end_ns >= e.start_ns)
            .collect();
        if jobs.is_empty() {
            // Single-threaded / non-pooled execution records no pool
            // jobs; there is nothing to nest inside.
            continue;
        }
        for a in &activity {
            if a.kind == Kind::TunerCandidate || a.kind == Kind::RequestServe {
                // Tuner spans are recorded by the coordinating thread
                // *around* whole runs, not inside a pool job; request
                // spans live on server worker threads that never run
                // pool jobs at all.
                continue;
            }
            let nested = jobs
                .iter()
                .any(|j| j.start_ns <= a.start_ns && a.end_ns <= j.end_ns);
            if !nested {
                diags.push(diag(
                    DiagKind::TimelineNesting,
                    Severity::Error,
                    a,
                    format!(
                        "thread {tid}: {:?} (stage {}) at [{}, {}] lies outside every pool job \
                         span of its thread",
                        a.kind, a.stage, a.start_ns, a.end_ns
                    ),
                ));
            }
        }
    }

    // --- per-stage barrier accounting ---------------------------------
    for si in 0..stages {
        let releases = events
            .iter()
            .filter(|e| e.kind == Kind::BarrierRelease && e.stage as usize == si)
            .count();
        let waits = events
            .iter()
            .filter(|e| e.kind == Kind::BarrierWait && e.stage as usize == si)
            .count();
        if (releases > 0 || waits > 0) && releases != threads {
            diags.push(Diagnostic {
                kind: DiagKind::TimelineBarrier,
                severity: Severity::Error,
                step: Some(si),
                threads: (0..threads).collect(),
                region: None,
                witness: Some(releases),
                detail: format!(
                    "stage {si}: {releases} barrier-release instants recorded, expected exactly \
                     {threads} (one per thread); {waits} barrier waits seen"
                ),
            });
        }
    }

    for e in events.iter().filter(|e| e.kind == Kind::WatchdogFire) {
        diags.push(diag(
            DiagKind::TimelineBarrier,
            Severity::Warning,
            e,
            format!(
                "watchdog fired on thread {} at stage {}: the recorded run timed out",
                e.tid, e.stage
            ),
        ));
    }

    diags.sort_by_key(|d| (d.severity.rank(), d.step));
    diags
}

fn diag(kind: DiagKind, severity: Severity, e: &TimelineEvent, detail: String) -> Diagnostic {
    Diagnostic {
        kind,
        severity,
        step: stage_indexed(e.kind).then_some(e.stage as usize),
        threads: vec![e.tid],
        region: None,
        witness: None,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: usize, kind: Kind, stage: u32, start_ns: u64, end_ns: u64) -> TimelineEvent {
        TimelineEvent {
            tid,
            kind,
            stage,
            start_ns,
            end_ns,
        }
    }

    fn mark(tid: usize, kind: Kind, stage: u32, at: u64) -> TimelineEvent {
        span(tid, kind, stage, at, at)
    }

    /// A clean 2-thread, 2-stage run.
    fn clean_run() -> Vec<TimelineEvent> {
        let mut ev = Vec::new();
        for tid in 0..2 {
            ev.push(span(tid, Kind::PoolJob, 0, 0, 1000));
            ev.push(span(tid, Kind::StageCompute, 0, 10, 400));
            ev.push(span(tid, Kind::BarrierWait, 0, 400, 450));
            ev.push(mark(tid, Kind::BarrierRelease, 0, 450));
            ev.push(span(tid, Kind::StageCompute, 1, 450, 900));
            ev.push(span(tid, Kind::BarrierWait, 1, 900, 950));
            ev.push(mark(tid, Kind::BarrierRelease, 1, 950));
        }
        ev
    }

    #[test]
    fn clean_run_has_no_findings() {
        assert!(verify_timeline(&clean_run(), 2, 2).is_empty());
    }

    #[test]
    fn overlapping_activity_is_an_error() {
        let mut ev = clean_run();
        // Thread 0 "computes" stage 1 while still waiting on stage 0.
        ev.push(span(0, Kind::StageCompute, 1, 420, 440));
        let diags = verify_timeline(&ev, 2, 2);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagKind::TimelineOverlap && d.severity == Severity::Error));
    }

    #[test]
    fn activity_outside_pool_job_is_an_error() {
        let mut ev = clean_run();
        ev.push(span(1, Kind::StageCompute, 1, 1100, 1200));
        let diags = verify_timeline(&ev, 2, 2);
        assert!(diags.iter().any(|d| d.kind == DiagKind::TimelineNesting));
    }

    #[test]
    fn no_pool_jobs_means_no_nesting_requirement() {
        // Sequential execution records stage spans but no pool jobs.
        let ev = vec![
            span(0, Kind::StageCompute, 0, 0, 100),
            span(0, Kind::StageCompute, 1, 100, 200),
        ];
        assert!(verify_timeline(&ev, 1, 2).is_empty());
    }

    #[test]
    fn missing_barrier_release_is_an_error() {
        let mut ev = clean_run();
        // Drop one of thread 1's release marks.
        let idx = ev
            .iter()
            .position(|e| e.tid == 1 && e.kind == Kind::BarrierRelease && e.stage == 1)
            .unwrap();
        ev.remove(idx);
        let diags = verify_timeline(&ev, 2, 2);
        let d = diags
            .iter()
            .find(|d| d.kind == DiagKind::TimelineBarrier)
            .expect("barrier count finding");
        assert_eq!(d.step, Some(1));
        assert_eq!(d.witness, Some(1)); // one release seen, two expected
    }

    #[test]
    fn inverted_span_and_bad_stage_are_malformed() {
        let ev = vec![
            span(0, Kind::StageCompute, 0, 500, 400),
            mark(0, Kind::BarrierRelease, 9, 600),
            span(7, Kind::PoolJob, 0, 0, 10),
        ];
        let diags = verify_timeline(&ev, 2, 2);
        let malformed = diags
            .iter()
            .filter(|d| d.kind == DiagKind::TimelineMalformed)
            .count();
        assert_eq!(malformed, 3);
    }

    #[test]
    fn watchdog_fire_is_a_warning_not_an_error() {
        let mut ev = clean_run();
        ev.push(mark(1, Kind::WatchdogFire, 1, 940));
        let diags = verify_timeline(&ev, 2, 2);
        assert!(diags
            .iter()
            .any(|d| d.kind == DiagKind::TimelineBarrier && d.severity == Severity::Warning));
        assert!(!diags.iter().any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn request_spans_need_not_nest_but_stay_exclusive() {
        let mut ev = clean_run();
        // A server worker thread serves requests outside any pool job.
        ev.push(span(1, Kind::RequestServe, 0, 2000, 2500));
        ev.push(span(1, Kind::RequestServe, 1, 2500, 3000));
        assert!(verify_timeline(&ev, 2, 2).is_empty());
        // But two requests on one thread must not overlap in time.
        ev.push(span(1, Kind::RequestServe, 2, 2400, 2600));
        let diags = verify_timeline(&ev, 2, 2);
        assert!(diags.iter().any(|d| d.kind == DiagKind::TimelineOverlap));
    }

    #[test]
    fn tuner_spans_need_not_nest_in_pool_jobs() {
        let mut ev = clean_run();
        // The coordinating thread evaluates candidates outside any job.
        ev.push(span(0, Kind::TunerCandidate, 0, 2000, 3000));
        ev.push(span(0, Kind::TunerCandidate, 1, 3000, 4000));
        ev.push(mark(0, Kind::TunerReject, 1, 4000));
        assert!(verify_timeline(&ev, 2, 2).is_empty());
    }
}
