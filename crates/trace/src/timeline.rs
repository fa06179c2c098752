//! Event-timeline recording and Chrome-trace/Perfetto export.
//!
//! [`crate::Collector`] answers *how much* time each (stage, thread)
//! pair spent computing and waiting; it cannot answer *when*. Scheduling
//! gaps, barrier convoys (every thread arriving staggered behind one
//! straggler), and tuner candidate churn are temporal phenomena, so this
//! module adds the missing recorder: a [`Timeline`] of timestamped spans
//! and instants, one bounded lock-free ring buffer per thread, fed
//! through the [`spiral_smp::trace::Observer`] hook.
//!
//! Design constraints, in order:
//!
//! 1. **No shared writes.** Every event for thread `tid` is recorded *by*
//!    thread `tid` into its own ring; rings are separate allocations, so
//!    recording never bounces a cache line between threads.
//! 2. **Bounded.** Each ring holds a fixed number of slots and wraps,
//!    keeping the most recent events; [`Timeline::dropped`] reports how
//!    many were overwritten. Recording never allocates.
//! 3. **Safe.** Slots are plain relaxed atomics (single writer, readers
//!    only after the run's completion synchronization), so the recorder
//!    is data-race-free by construction — no `unsafe`.
//!
//! The exporter ([`Timeline::chrome_trace`]) emits the Chrome
//! trace-event JSON format (`B`/`E` duration events plus `i` instants),
//! which loads directly in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev).

use serde::Value;
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default per-thread ring capacity: a traced transform emits ~2 spans +
/// 1 mark per stage per thread, so 4096 slots cover plans hundreds of
/// stages deep with room for repeated runs.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// What one timeline event is. Span kinds carry a duration
/// (`start_ns < end_ns` possible); mark kinds are instants
/// (`start_ns == end_ns`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimelineEventKind {
    /// A thread's whole pool job.
    PoolJob,
    /// One thread's portion of one stage.
    StageCompute,
    /// Blocked at the stage barrier (arrival → release).
    BarrierWait,
    /// The tuner evaluating one candidate (stage = candidate index).
    TunerCandidate,
    /// One whole transform executed as part of a batch (stage =
    /// transform index within the batch).
    BatchTransform,
    /// Instant: the stage barrier released this thread.
    BarrierRelease,
    /// Instant: a watchdog expired on this thread.
    WatchdogFire,
    /// Instant: the tuner quarantined a candidate.
    TunerReject,
    /// One served network request on a server worker thread (stage =
    /// request sequence number on that worker).
    RequestServe,
    /// One coalesced batch pushed through the plan executor by a serving
    /// dispatcher (stage = dispatch sequence number).
    PoolExecute,
    /// Instant: a serving SLO breach (deadline blown or request shed);
    /// stage = the triggering request's sequence number.
    SloBreach,
}

impl TimelineEventKind {
    /// True for instantaneous marks (zero-duration events).
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            TimelineEventKind::BarrierRelease
                | TimelineEventKind::WatchdogFire
                | TimelineEventKind::TunerReject
                | TimelineEventKind::SloBreach
        )
    }

    fn code(self) -> u64 {
        match self {
            TimelineEventKind::PoolJob => 0,
            TimelineEventKind::StageCompute => 1,
            TimelineEventKind::BarrierWait => 2,
            TimelineEventKind::TunerCandidate => 3,
            TimelineEventKind::BarrierRelease => 4,
            TimelineEventKind::WatchdogFire => 5,
            TimelineEventKind::TunerReject => 6,
            TimelineEventKind::BatchTransform => 7,
            TimelineEventKind::RequestServe => 8,
            TimelineEventKind::PoolExecute => 9,
            TimelineEventKind::SloBreach => 10,
        }
    }

    fn from_code(c: u64) -> TimelineEventKind {
        match c {
            0 => TimelineEventKind::PoolJob,
            1 => TimelineEventKind::StageCompute,
            2 => TimelineEventKind::BarrierWait,
            3 => TimelineEventKind::TunerCandidate,
            4 => TimelineEventKind::BarrierRelease,
            5 => TimelineEventKind::WatchdogFire,
            7 => TimelineEventKind::BatchTransform,
            8 => TimelineEventKind::RequestServe,
            9 => TimelineEventKind::PoolExecute,
            10 => TimelineEventKind::SloBreach,
            _ => TimelineEventKind::TunerReject,
        }
    }

    /// Chrome trace-event category string.
    pub fn category(self) -> &'static str {
        match self {
            TimelineEventKind::PoolJob => "pool",
            TimelineEventKind::StageCompute | TimelineEventKind::BatchTransform => "compute",
            TimelineEventKind::BarrierWait | TimelineEventKind::BarrierRelease => "barrier",
            TimelineEventKind::TunerCandidate | TimelineEventKind::TunerReject => "tuner",
            TimelineEventKind::WatchdogFire => "fault",
            TimelineEventKind::RequestServe | TimelineEventKind::PoolExecute => "serve",
            TimelineEventKind::SloBreach => "slo",
        }
    }
}

/// One recorded event, timestamps in nanoseconds since the timeline's
/// epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Logical thread that recorded the event.
    pub tid: usize,
    /// Event kind (span or instant).
    pub kind: TimelineEventKind,
    /// Stage index for executor events, candidate index for tuner
    /// events, 0 for pool jobs.
    pub stage: u32,
    /// Start offset from the timeline epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset; equals `start_ns` for instants.
    pub end_ns: u64,
}

impl TimelineEvent {
    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One slot of a thread ring: `meta` packs `kind` (low 32 bits) and
/// `stage` (high 32 bits). Plain atomics so concurrent (misuse) access
/// can tear an event logically but never races.
#[derive(Default)]
struct Slot {
    meta: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

/// One thread's bounded event ring: a separate allocation per thread so
/// writer threads never share lines, with the write counter padded away
/// from the slots.
#[repr(align(64))]
struct ThreadRing {
    /// Total events ever recorded by the owner (wraps modulo capacity
    /// into `slots`; monotone, so `written - capacity` events were
    /// dropped once it exceeds the capacity).
    written: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn new(capacity: usize) -> ThreadRing {
        ThreadRing {
            written: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::default()).collect(),
        }
    }

    /// Record one event. Only the owning thread calls this on the hot
    /// path; relaxed stores are enough because readers are ordered after
    /// the run by the pool's completion synchronization.
    fn push(&self, kind: TimelineEventKind, stage: u32, start_ns: u64, end_ns: u64) {
        let i = self.written.load(Ordering::Relaxed);
        let slot = &self.slots
            [usize::try_from(i % self.slots.len() as u64).expect("index below capacity")];
        slot.meta
            .store(kind.code() | (u64::from(stage) << 32), Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.end_ns.store(end_ns, Ordering::Relaxed);
        self.written.store(i + 1, Ordering::Release);
    }

    /// Events currently held, oldest first.
    fn events(&self, tid: usize, out: &mut Vec<TimelineEvent>) {
        let written = self.written.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let held = written.min(cap);
        // Oldest surviving event is at index `written - held` (mod cap).
        for k in 0..held {
            let i = usize::try_from((written - held + k) % cap).expect("index below capacity");
            let meta = self.slots[i].meta.load(Ordering::Relaxed);
            out.push(TimelineEvent {
                tid,
                kind: TimelineEventKind::from_code(meta & 0xffff_ffff),
                stage: (meta >> 32) as u32,
                start_ns: self.slots[i].start_ns.load(Ordering::Relaxed),
                end_ns: self.slots[i].end_ns.load(Ordering::Relaxed),
            });
        }
    }
}

/// Bounded, lock-free event-timeline recorder: one ring per thread,
/// timestamps relative to the construction epoch. Implements
/// [`Observer`]; pass it to `ParallelExecutor::try_execute_with`,
/// `BatchExecutor::try_execute_batch_with` or
/// `Tuner::tune_parallel_report_with`.
pub struct Timeline {
    epoch: Instant,
    rings: Box<[ThreadRing]>,
}

impl Timeline {
    /// Timeline for `threads` threads with the default ring capacity.
    pub fn new(threads: usize) -> Timeline {
        Timeline::with_capacity(threads, DEFAULT_RING_CAPACITY)
    }

    /// Timeline with an explicit per-thread ring capacity (≥ 1).
    pub fn with_capacity(threads: usize, capacity: usize) -> Timeline {
        let threads = threads.max(1);
        let capacity = capacity.max(1);
        Timeline {
            epoch: Instant::now(),
            rings: (0..threads).map(|_| ThreadRing::new(capacity)).collect(),
        }
    }

    /// Number of thread rings.
    pub fn threads(&self) -> usize {
        self.rings.len()
    }

    /// Per-thread ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.rings[0].slots.len()
    }

    /// Events dropped (overwritten after ring wrap) on thread `tid`.
    pub fn dropped(&self, tid: usize) -> u64 {
        self.rings.get(tid).map_or(0, |r| {
            r.written
                .load(Ordering::Acquire)
                .saturating_sub(r.slots.len() as u64)
        })
    }

    /// Total events dropped across all threads.
    pub fn total_dropped(&self) -> u64 {
        (0..self.rings.len()).map(|t| self.dropped(t)).sum()
    }

    /// Forget all recorded events (reuse across runs; the epoch is
    /// unchanged, so timestamps stay comparable across the reuse).
    pub fn reset(&self) {
        for r in self.rings.iter() {
            r.written.store(0, Ordering::Release);
        }
    }

    /// Offset of `t` from the epoch in nanoseconds (0 if `t` predates
    /// the epoch, which cannot happen for events recorded through the
    /// sink after construction).
    fn offset_ns(&self, t: Instant) -> u64 {
        crate::ns_u64(t.saturating_duration_since(self.epoch))
    }

    /// All held events, ordered by thread then chronologically (the
    /// per-thread recording order, which is start-time sorted because
    /// each thread records its own events as they finish).
    pub fn events(&self) -> Vec<TimelineEvent> {
        let mut out = Vec::new();
        for (tid, ring) in self.rings.iter().enumerate() {
            ring.events(tid, &mut out);
        }
        out
    }

    /// Summed duration of all spans of `kind`, nanoseconds.
    pub fn total_ns(&self, kind: TimelineEventKind) -> u64 {
        self.events()
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.duration_ns())
            .sum()
    }

    /// Number of `kind` events recorded for `stage`.
    pub fn count(&self, kind: TimelineEventKind, stage: u32) -> usize {
        self.events()
            .iter()
            .filter(|e| e.kind == kind && e.stage == stage)
            .count()
    }

    /// Export as Chrome trace-event JSON (loads in `chrome://tracing`
    /// and Perfetto). Spans become `B`/`E` duration-event pairs on
    /// `pid 0`, one Chrome "thread" per pool thread; instants become
    /// thread-scoped `i` events. `labels[stage]`, when provided, names
    /// executor stage events after the plan's stage IR labels.
    pub fn chrome_trace(&self, labels: &[String]) -> String {
        let mut events: Vec<Value> = Vec::new();
        // Process/thread metadata so Perfetto shows meaningful lanes.
        events.push(meta_event("process_name", 0, "spiral-fft run"));
        for tid in 0..self.rings.len() {
            events.push(meta_event_tid(
                "thread_name",
                tid,
                &format!("pool thread {tid}"),
            ));
        }
        let mut per_thread = self.events();
        // Chrome requires B/E properly ordered per thread; our rings are
        // already chronological per thread, but instants recorded at a
        // span boundary must not precede the span's E. Sort stably by
        // (tid, start) keeping recording order for ties.
        per_thread.sort_by_key(|e| (e.tid, e.start_ns));
        for e in &per_thread {
            let name = event_name(e, labels);
            let cat = e.kind.category();
            if e.kind.is_instant() {
                events.push(obj(vec![
                    ("name", Value::Str(name)),
                    ("cat", Value::Str(cat.to_string())),
                    ("ph", Value::Str("i".to_string())),
                    ("s", Value::Str("t".to_string())),
                    ("ts", Value::Num(e.start_ns as f64 / 1e3)),
                    ("pid", Value::Num(0.0)),
                    ("tid", Value::Num(e.tid as f64)),
                ]));
            } else {
                let common = |ph: &str, ts_ns: u64| {
                    obj(vec![
                        ("name", Value::Str(name.clone())),
                        ("cat", Value::Str(cat.to_string())),
                        ("ph", Value::Str(ph.to_string())),
                        ("ts", Value::Num(ts_ns as f64 / 1e3)),
                        ("pid", Value::Num(0.0)),
                        ("tid", Value::Num(e.tid as f64)),
                    ])
                };
                events.push(common("B", e.start_ns));
                events.push(common("E", e.end_ns));
            }
        }
        // B/E pairs of zero-length spans must still appear B-before-E;
        // the per-event emission above guarantees it. Nested spans
        // (compute inside pool job) are fine: Chrome nests by timestamps.
        let doc = obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::Str("ns".to_string())),
            (
                "otherData",
                obj(vec![
                    ("producer", Value::Str("spiral-trace".to_string())),
                    ("dropped_events", Value::Num(self.total_dropped() as f64)),
                ]),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("chrome trace serializes")
    }
}

impl Observer for Timeline {
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant) {
        if let Some(ring) = self.rings.get(tid) {
            let kind = match kind {
                SpanKind::PoolJob => TimelineEventKind::PoolJob,
                SpanKind::StageCompute { .. } => TimelineEventKind::StageCompute,
                SpanKind::BarrierWait => TimelineEventKind::BarrierWait,
                SpanKind::TunerCandidate => TimelineEventKind::TunerCandidate,
                SpanKind::BatchTransform => TimelineEventKind::BatchTransform,
                SpanKind::RequestServe => TimelineEventKind::RequestServe,
                SpanKind::PoolExecute => TimelineEventKind::PoolExecute,
            };
            let s = self.offset_ns(start);
            ring.push(kind, stage, s, self.offset_ns(end).max(s));
        }
    }

    fn mark(&self, tid: usize, kind: MarkKind, stage: u32, at: Instant) {
        if let Some(ring) = self.rings.get(tid) {
            let kind = match kind {
                MarkKind::BarrierRelease => TimelineEventKind::BarrierRelease,
                MarkKind::WatchdogFire => TimelineEventKind::WatchdogFire,
                MarkKind::TunerReject => TimelineEventKind::TunerReject,
                MarkKind::SloBreach => TimelineEventKind::SloBreach,
            };
            let t = self.offset_ns(at);
            ring.push(kind, stage, t, t);
        }
    }
}

/// Human-readable event name for the exported trace.
fn event_name(e: &TimelineEvent, labels: &[String]) -> String {
    let stage_label = || {
        labels
            .get(e.stage as usize)
            .cloned()
            .unwrap_or_else(|| format!("stage {}", e.stage))
    };
    match e.kind {
        TimelineEventKind::PoolJob => "pool job".to_string(),
        TimelineEventKind::StageCompute => stage_label(),
        TimelineEventKind::BarrierWait => format!("barrier after {}", stage_label()),
        TimelineEventKind::BarrierRelease => format!("release {}", stage_label()),
        TimelineEventKind::WatchdogFire => format!("WATCHDOG {}", stage_label()),
        TimelineEventKind::TunerCandidate => format!("candidate {}", e.stage),
        TimelineEventKind::TunerReject => format!("reject candidate {}", e.stage),
        TimelineEventKind::BatchTransform => format!("batch transform {}", e.stage),
        TimelineEventKind::RequestServe => format!("request {}", e.stage),
        TimelineEventKind::PoolExecute => format!("pool execute {}", e.stage),
        TimelineEventKind::SloBreach => format!("SLO BREACH request {}", e.stage),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn meta_event(name: &str, pid: usize, value: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(pid as f64)),
        ("args", obj(vec![("name", Value::Str(value.to_string()))])),
    ])
}

fn meta_event_tid(name: &str, tid: usize, value: &str) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(0.0)),
        ("tid", Value::Num(tid as f64)),
        ("args", obj(vec![("name", Value::Str(value.to_string()))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const STAGE: SpanKind = SpanKind::StageCompute {
        jobs: 1,
        elements: 1,
    };

    fn t(epoch: Instant, ns: u64) -> Instant {
        epoch + Duration::from_nanos(ns)
    }

    /// A deterministic 2-thread, 2-stage timeline.
    fn sample() -> Timeline {
        let tl = Timeline::with_capacity(2, 64);
        let e = tl.epoch;
        for tid in 0..2usize {
            let skew = (tid as u64) * 10;
            tl.span(tid, STAGE, 0, t(e, 100 + skew), t(e, 200));
            tl.span(tid, SpanKind::BarrierWait, 0, t(e, 200), t(e, 230));
            tl.mark(tid, MarkKind::BarrierRelease, 0, t(e, 230));
            tl.span(tid, STAGE, 1, t(e, 230), t(e, 300));
            tl.span(tid, SpanKind::BarrierWait, 1, t(e, 300), t(e, 310));
            tl.mark(tid, MarkKind::BarrierRelease, 1, t(e, 310));
            tl.span(tid, SpanKind::PoolJob, 0, t(e, 90 + skew), t(e, 315));
        }
        tl
    }

    #[test]
    fn records_and_reads_back_in_order() {
        let tl = sample();
        let ev = tl.events();
        assert_eq!(ev.len(), 14);
        // Per-thread chronological recording order is preserved.
        for tid in 0..2 {
            let mine: Vec<_> = ev.iter().filter(|e| e.tid == tid).collect();
            assert_eq!(mine.len(), 7);
            assert_eq!(mine[0].kind, TimelineEventKind::StageCompute);
            assert_eq!(mine.last().unwrap().kind, TimelineEventKind::PoolJob);
        }
        assert_eq!(tl.total_dropped(), 0);
        assert_eq!(tl.count(TimelineEventKind::BarrierRelease, 0), 2);
        assert_eq!(tl.count(TimelineEventKind::BarrierRelease, 1), 2);
    }

    #[test]
    fn totals_sum_span_durations() {
        let tl = sample();
        // Thread 0 compute: 100 + 70; thread 1: 90 + 70.
        assert_eq!(tl.total_ns(TimelineEventKind::StageCompute), 330);
        assert_eq!(tl.total_ns(TimelineEventKind::BarrierWait), 2 * (30 + 10));
        // Instants have zero duration.
        assert_eq!(tl.total_ns(TimelineEventKind::BarrierRelease), 0);
    }

    #[test]
    fn ring_wraps_keeping_most_recent() {
        let tl = Timeline::with_capacity(1, 4);
        let e = tl.epoch;
        for i in 0..10u32 {
            tl.mark(0, MarkKind::BarrierRelease, i, t(e, u64::from(i) * 100));
        }
        assert_eq!(tl.dropped(0), 6);
        let ev = tl.events();
        assert_eq!(ev.len(), 4);
        // Oldest-first among the survivors: stages 6, 7, 8, 9.
        let stages: Vec<u32> = ev.iter().map(|x| x.stage).collect();
        assert_eq!(stages, vec![6, 7, 8, 9]);
    }

    #[test]
    fn reset_clears_events() {
        let tl = sample();
        assert!(!tl.events().is_empty());
        tl.reset();
        assert!(tl.events().is_empty());
        assert_eq!(tl.total_dropped(), 0);
    }

    #[test]
    fn out_of_range_tid_is_ignored() {
        let tl = Timeline::with_capacity(2, 8);
        let e = tl.epoch;
        tl.span(9, SpanKind::PoolJob, 0, t(e, 0), t(e, 10));
        tl.mark(9, MarkKind::WatchdogFire, 0, t(e, 5));
        assert!(tl.events().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_phases() {
        let tl = sample();
        let s = tl.chrome_trace(&["par[2x8]".to_string(), "exchange".to_string()]);
        let v: Value = serde_json::from_str(&s).expect("chrome trace parses");
        let events = match v.get("traceEvents") {
            Some(Value::Arr(a)) => a,
            other => panic!("traceEvents missing: {other:?}"),
        };
        let mut begins = 0usize;
        let mut ends = 0usize;
        for ev in events {
            match ev.get("ph") {
                Some(Value::Str(p)) if p == "B" => begins += 1,
                Some(Value::Str(p)) if p == "E" => ends += 1,
                Some(Value::Str(p)) => assert!(p == "i" || p == "M", "unexpected ph {p}"),
                other => panic!("event without ph: {other:?}"),
            }
        }
        assert_eq!(begins, ends);
        assert_eq!(begins, 10); // 5 spans per thread.
        assert!(s.contains("par[2x8]"));
        assert!(s.contains("pool thread 1"));
    }

    #[test]
    fn instant_span_collapses_rather_than_inverting() {
        let tl = Timeline::with_capacity(1, 8);
        let e = tl.epoch;
        // end < start (clock weirdness) must clamp, not underflow.
        tl.span(0, STAGE, 0, t(e, 100), t(e, 50));
        let ev = tl.events();
        assert_eq!(ev[0].start_ns, 100);
        assert_eq!(ev[0].end_ns, 100);
    }
}
