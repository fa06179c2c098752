//! Property tests for the event timeline's Chrome trace export: for
//! arbitrary well-nested span trees pushed through the `Observer`
//! interface, the exported JSON must parse, keep `B`/`E` phases
//! balanced and paired, keep per-thread timestamps monotone, and tag
//! every instant as thread-scoped — the invariants Perfetto and
//! `chrome://tracing` rely on to render the trace at all.

// Generated stage/thread ids are tiny (< 8); the JSON data model stores
// numbers as f64, so reading them back is a narrowing cast by design.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use proptest::collection::vec;
use proptest::prelude::*;
use serde_json::Value;
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use spiral_trace::{Timeline, TimelineEventKind};
use std::time::{Duration, Instant};

/// One synthetic pool job: idle gap before it, compute duration inside
/// it, and how many nested compute spans that duration is split into.
type Job = (u64, u64, usize);

/// Replay `jobs_per_thread` onto a fresh timeline as properly nested
/// spans: each job wraps its compute children and a trailing barrier
/// wait + release mark, threads laid out independently. Returns the
/// timeline and the number of span (not mark) events pushed.
fn build(jobs_per_thread: &[Vec<Job>]) -> (Timeline, usize) {
    let timeline = Timeline::new(jobs_per_thread.len());
    let base = Instant::now();
    let at = |ns: u64| base + Duration::from_nanos(ns);
    let mut spans = 0;
    for (tid, jobs) in jobs_per_thread.iter().enumerate() {
        let mut cursor = 0u64;
        for (stage, &(gap, dur, kids)) in jobs.iter().enumerate() {
            let job_start = cursor + gap;
            let mut t = job_start;
            for _ in 0..kids {
                let step = dur / kids as u64;
                timeline.span(
                    tid,
                    SpanKind::StageCompute {
                        jobs: 1,
                        elements: step,
                    },
                    stage as u32,
                    at(t),
                    at(t + step),
                );
                spans += 1;
                t += step;
            }
            let barrier_end = job_start + dur + 10;
            timeline.span(
                tid,
                SpanKind::BarrierWait,
                stage as u32,
                at(t),
                at(barrier_end),
            );
            timeline.mark(tid, MarkKind::BarrierRelease, stage as u32, at(barrier_end));
            timeline.span(
                tid,
                SpanKind::PoolJob,
                stage as u32,
                at(job_start),
                at(barrier_end),
            );
            spans += 2;
            cursor = barrier_end;
        }
    }
    (timeline, spans)
}

fn trace_events(json: &str) -> Vec<Value> {
    let doc: Value = serde_json::from_str(json).expect("export must parse as JSON");
    match doc.get("traceEvents") {
        Some(Value::Arr(events)) => events.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    }
}

fn field<'a>(e: &'a Value, key: &str) -> &'a Value {
    e.get(key)
        .unwrap_or_else(|| panic!("event missing `{key}`: {e:?}"))
}

fn str_field(e: &Value, key: &str) -> String {
    match field(e, key) {
        Value::Str(s) => s.clone(),
        other => panic!("`{key}` must be a string, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exporter's structural contract over random span trees.
    fn chrome_export_well_formed_for_random_span_trees(
        jobs_per_thread in vec(vec((0u64..500, 1u64..600, 1usize..=3), 0..5), 1..=3),
    ) {
        let (timeline, spans) = build(&jobs_per_thread);
        let json = timeline.chrome_trace(&[]);
        let events = trace_events(&json);

        let mut b = 0usize;
        let mut e = 0usize;
        let mut instants = 0usize;
        let mut meta = 0usize;
        // Last B timestamp seen per tid: per-thread monotonicity.
        let mut last_b: Vec<f64> = vec![-1.0; jobs_per_thread.len()];
        let mut i = 0;
        while i < events.len() {
            let ev = &events[i];
            match str_field(ev, "ph").as_str() {
                "M" => meta += 1,
                "i" => {
                    instants += 1;
                    // Instants must be thread-scoped or Perfetto
                    // renders them on the global track.
                    prop_assert_eq!(str_field(ev, "s"), "t");
                }
                "B" => {
                    b += 1;
                    let tid = field(ev, "tid").as_f64().unwrap() as usize;
                    let ts = field(ev, "ts").as_f64().unwrap();
                    prop_assert!(
                        ts >= last_b[tid],
                        "per-thread B timestamps must be monotone: {} after {}",
                        ts,
                        last_b[tid]
                    );
                    last_b[tid] = ts;
                    // The exporter emits each span's E adjacent to its
                    // B, same name and tid, never ending before it
                    // starts.
                    let end = &events[i + 1];
                    prop_assert_eq!(str_field(end, "ph"), "E");
                    prop_assert_eq!(str_field(end, "name"), str_field(ev, "name"));
                    prop_assert_eq!(
                        field(end, "tid").as_f64().unwrap(),
                        field(ev, "tid").as_f64().unwrap()
                    );
                    prop_assert!(field(end, "ts").as_f64().unwrap() >= ts);
                    e += 1;
                    i += 1;
                }
                other => prop_assert!(false, "unexpected phase {other}"),
            }
            i += 1;
        }
        prop_assert_eq!(b, e, "every B must have a matching E");
        prop_assert_eq!(b, spans, "one B/E pair per recorded span");
        let marks: usize = jobs_per_thread.iter().map(Vec::len).sum();
        prop_assert_eq!(instants, marks, "one instant per release mark");
        // Process metadata + one thread_name row per pool thread.
        prop_assert_eq!(meta, 1 + jobs_per_thread.len());
    }

    /// The collector's arithmetic over the same random trees: kind
    /// totals reconstruct the pushed durations exactly.
    fn totals_reconstruct_random_trees(
        jobs_per_thread in vec(vec((0u64..500, 1u64..600, 1usize..=3), 0..5), 1..=3),
    ) {
        let (timeline, _) = build(&jobs_per_thread);
        let mut compute = 0u64;
        let mut pool = 0u64;
        for jobs in &jobs_per_thread {
            for &(_, dur, kids) in jobs {
                compute += (dur / kids as u64) * kids as u64;
                pool += dur + 10;
            }
        }
        prop_assert_eq!(timeline.total_ns(TimelineEventKind::StageCompute), compute);
        prop_assert_eq!(timeline.total_ns(TimelineEventKind::PoolJob), pool);
        prop_assert_eq!(timeline.total_dropped(), 0);
    }
}
