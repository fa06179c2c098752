//! Flight recorder: an always-on bounded [`Timeline`] plus triggered
//! Perfetto persistence.
//!
//! The offline [`Timeline`] workflow is "instrument a run, export it".
//! A serving process needs the inverse: record *continuously* into small
//! bounded rings (so memory stays fixed and the hot path stays
//! single-writer lock-free), and only when something goes wrong — an SLO
//! breach, a shed request, an explicit `SS01 dump` — export the recent
//! past as a Perfetto trace with the triggering request marked. That is
//! exactly a flight recorder: nobody reads it until the incident, and
//! then the last seconds before the incident are the evidence.
//!
//! The recorder is a thin policy layer over [`Timeline`]:
//!
//! * it forwards the [`Observer`] hooks, so server workers record
//!   `RequestServe` spans and dispatchers record `PoolExecute` spans
//!   into it exactly as they would into any timeline;
//! * [`FlightRecorder::breach`] records an [`MarkKind::SloBreach`]
//!   instant carrying the triggering request's sequence number — the
//!   exported trace shows the mark on the same lane, at the same
//!   timestamp, as the request's span — and latches, so the *first*
//!   breach asks the caller to persist and later breaches only mark;
//! * [`FlightRecorder::dump`] exports everything currently held as
//!   Chrome-trace/Perfetto JSON.
//!
//! Ring capacity bounds the retained history: at `c` slots per thread
//! and an event rate `r`, the recorder holds the last `c / r` seconds.
//! Overwritten history is never silent — the wrap counter is exported in
//! the trace's `otherData.dropped_events` and as a gauge in the serving
//! metrics snapshot.

use crate::timeline::Timeline;
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Default per-thread ring capacity of an always-on recorder: small
/// enough to be memory-irrelevant (24 B/slot), large enough to hold the
/// last few thousand request spans per worker.
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

/// Always-on bounded timeline with breach-triggered export.
pub struct FlightRecorder {
    timeline: Timeline,
    breaches: AtomicU64,
    dump_latch: AtomicBool,
}

impl FlightRecorder {
    /// Recorder for `threads` recording threads at the default capacity.
    pub fn new(threads: usize) -> FlightRecorder {
        FlightRecorder::with_capacity(threads, DEFAULT_RECORDER_CAPACITY)
    }

    /// Recorder with an explicit per-thread ring capacity (≥ 1).
    pub fn with_capacity(threads: usize, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            timeline: Timeline::with_capacity(threads, capacity),
            breaches: AtomicU64::new(0),
            dump_latch: AtomicBool::new(false),
        }
    }

    /// The underlying timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// SLO breaches recorded so far.
    pub fn breaches(&self) -> u64 {
        self.breaches.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap across all threads (the drop counter the
    /// serving metrics snapshot exposes as a gauge).
    pub fn dropped_events(&self) -> u64 {
        self.timeline.total_dropped()
    }

    /// Record an SLO breach for the request with sequence number `seq`
    /// on recording thread `tid` at `at`. Returns `true` exactly once —
    /// for the first breach — telling the caller to persist
    /// [`dump`](Self::dump) now; subsequent breaches only add their mark
    /// to the rings.
    pub fn breach(&self, tid: usize, seq: u32, at: Instant) -> bool {
        self.mark(tid, MarkKind::SloBreach, seq, at);
        self.breaches.fetch_add(1, Ordering::Relaxed);
        !self.dump_latch.swap(true, Ordering::Relaxed)
    }

    /// Re-arm the first-breach persistence latch (a new load phase may
    /// want a fresh incident capture).
    pub fn rearm(&self) {
        self.dump_latch.store(false, Ordering::Relaxed);
    }

    /// Export everything currently held as Chrome-trace/Perfetto JSON.
    /// Breach marks render as `SLO BREACH request <seq>` instants in the
    /// `slo` category, on the same lane and timestamp as the triggering
    /// request's `request <seq>` span.
    pub fn dump(&self) -> String {
        self.timeline.chrome_trace(&[])
    }
}

impl Observer for FlightRecorder {
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant) {
        self.timeline.span(tid, kind, stage, start, end);
    }

    fn mark(&self, tid: usize, kind: MarkKind, stage: u32, at: Instant) {
        self.timeline.mark(tid, kind, stage, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::time::Duration;

    #[test]
    fn breach_marks_and_latches_once() {
        let fr = FlightRecorder::with_capacity(2, 16);
        let now = Instant::now();
        fr.span(
            0,
            SpanKind::RequestServe,
            7,
            now,
            now + Duration::from_micros(50),
        );
        assert!(fr.breach(0, 7, now + Duration::from_micros(50)));
        assert!(!fr.breach(0, 8, now + Duration::from_micros(60)));
        assert_eq!(fr.breaches(), 2);
        fr.rearm();
        assert!(fr.breach(1, 9, now + Duration::from_micros(70)));
    }

    #[test]
    fn dump_is_valid_perfetto_with_breach_marked() {
        let fr = FlightRecorder::with_capacity(1, 16);
        let now = Instant::now();
        fr.span(
            0,
            SpanKind::RequestServe,
            3,
            now,
            now + Duration::from_micros(80),
        );
        fr.span(
            0,
            SpanKind::PoolExecute,
            0,
            now + Duration::from_micros(10),
            now + Duration::from_micros(70),
        );
        fr.breach(0, 3, now + Duration::from_micros(80));
        let json = fr.dump();
        let v: Value = serde_json::from_str(&json).expect("dump parses as JSON");
        assert!(matches!(v.get("traceEvents"), Some(Value::Arr(_))));
        assert!(json.contains("SLO BREACH request 3"));
        assert!(json.contains("request 3"));
        assert!(json.contains("pool execute 0"));
    }

    #[test]
    fn bounded_rings_report_drops() {
        let fr = FlightRecorder::with_capacity(1, 4);
        let now = Instant::now();
        for seq in 0..10u32 {
            fr.span(0, SpanKind::RequestServe, seq, now, now);
        }
        assert_eq!(fr.dropped_events(), 6);
        assert!(fr.dump().contains("\"dropped_events\": 6"));
    }
}
