//! The substrate-level observation hook.
//!
//! Every execution layer (plan executor, tuner, serving tier) reports
//! what it does through one trait, [`Observer`]:
//!
//! * [`Observer::span`] — a timestamped interval on one logical thread
//!   (pool job, per-stage compute, barrier wait, tuner candidate, batch
//!   transform, served request, serving dispatch);
//! * [`Observer::mark`] — a timestamped instant (barrier release,
//!   watchdog fire, candidate rejection, SLO breach);
//! * [`Observer::active`] — whether anything is listening. Callers take
//!   no clock reads when it is `false`.
//!
//! The unit type `()` is the no-op observer: its `active()` is the
//! constant `false`, so an entry point generic over `O: Observer` and
//! called with `&()` monomorphises to the plain, uninstrumented loop —
//! zero cost without a cargo feature. The recording implementations
//! (`Collector` for per-stage aggregates, `Timeline` for Perfetto
//! export, `FlightRecorder` for the serving tier) live in `spiral-trace`;
//! the trait lives here, below every consumer, so the executor needs no
//! dependency on them. A pair `(A, B)` observes with both.

use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A thread's whole pool job (stage 0; spans every stage).
    PoolJob,
    /// One thread's statically scheduled portion of one stage: `jobs`
    /// schedulable units (chunks, block ranges) covering `elements`
    /// output elements. The counts are deterministic properties of the
    /// schedule, so a collector can reduce them into timing-free
    /// load-balance figures.
    StageCompute {
        /// Schedulable units executed.
        jobs: u64,
        /// Output elements written.
        elements: u64,
    },
    /// Blocked at the stage barrier, arrival through release.
    BarrierWait,
    /// The tuner evaluating one candidate (stage = candidate index).
    TunerCandidate,
    /// One whole transform executed as part of a batch (stage =
    /// transform index within the batch).
    BatchTransform,
    /// One served network request, admission through response write
    /// (stage = request sequence number on that server worker).
    RequestServe,
    /// One coalesced batch pushed through the plan executor / thread
    /// pool by a serving dispatcher (stage = dispatch sequence number).
    /// This is the pool-execute phase of a served request: the slice of
    /// its life actually spent computing, as opposed to queued or being
    /// parsed.
    PoolExecute,
}

/// What an instant marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkKind {
    /// The stage barrier released this thread (one per thread per stage
    /// on a clean run, so a stage's marks must count exactly `p`).
    BarrierRelease,
    /// A barrier/pool watchdog expired on this thread.
    WatchdogFire,
    /// The tuner quarantined the candidate (stage = candidate index).
    TunerReject,
    /// A serving SLO breach: the request identified by `stage` (its
    /// sequence number on the recording worker) blew its latency budget
    /// or was shed. Recorded next to the request's `RequestServe` span
    /// so a flight-recorder export marks the triggering request.
    SloBreach,
}

/// Receiver for timestamped execution events.
///
/// Implementations are written to concurrently from all pool threads;
/// every event for thread `tid` is reported *by* thread `tid`, so an
/// observer can keep per-thread slots or rings free of write sharing.
/// Timestamps are the caller's [`Instant`]s, taken at the event boundary
/// itself; the observer anchors them to its own epoch.
pub trait Observer: Sync {
    /// Whether this observer records anything. When `false` the caller
    /// skips its clock reads and never calls [`span`](Self::span) or
    /// [`mark`](Self::mark).
    fn active(&self) -> bool {
        true
    }

    /// Thread `tid` spent `[start, end]` in a `kind` span of `stage`
    /// (stage index for executor spans, candidate index for tuner spans,
    /// 0 for pool jobs).
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant);

    /// Thread `tid` hit a `kind` instant for `stage` at `at`.
    fn mark(&self, tid: usize, kind: MarkKind, stage: u32, at: Instant);
}

/// The no-op observer.
impl Observer for () {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }
    #[inline(always)]
    fn span(&self, _: usize, _: SpanKind, _: u32, _: Instant, _: Instant) {}
    #[inline(always)]
    fn mark(&self, _: usize, _: MarkKind, _: u32, _: Instant) {}
}

impl<O: Observer + ?Sized> Observer for &O {
    fn active(&self) -> bool {
        (**self).active()
    }
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant) {
        (**self).span(tid, kind, stage, start, end);
    }
    fn mark(&self, tid: usize, kind: MarkKind, stage: u32, at: Instant) {
        (**self).mark(tid, kind, stage, at);
    }
}

/// Observe with both: one run feeds e.g. a `Collector` and a `Timeline`.
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn active(&self) -> bool {
        self.0.active() || self.1.active()
    }
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant) {
        self.0.span(tid, kind, stage, start, end);
        self.1.span(tid, kind, stage, start, end);
    }
    fn mark(&self, tid: usize, kind: MarkKind, stage: u32, at: Instant) {
        self.0.mark(tid, kind, stage, at);
        self.1.mark(tid, kind, stage, at);
    }
}
