//! # spiral-trace — per-stage/per-thread execution observability
//!
//! The paper's central runtime claims — static schedules are
//! load-balanced across `p` threads, and barrier synchronization is
//! cheap enough for an early parallel crossover — are checked statically
//! by `spiral-verify` and end-to-end by the wall-clock benches. This
//! crate adds the missing middle layer: *measuring where time actually
//! goes inside a run*, per stage and per thread.
//!
//! Two pieces:
//!
//! * [`Collector`] — the in-run recorder. One cache-line-padded slot per
//!   `(stage, thread)` pair (64-byte aligned, matching
//!   [`spiral_smp::CACHE_LINE_BYTES`]), written only by its owning
//!   thread through the [`spiral_smp::trace::Observer`] hook, so
//!   recording adds no shared-write contention to the run it observes.
//!   It reduces the executor's span stream: `StageCompute` spans (with
//!   their deterministic job/element counts), `BarrierWait` spans and
//!   `PoolJob` spans.
//! * [`RunProfile`] — the aggregated, serializable result, with the
//!   derived metrics the paper's claims are stated in: per-stage
//!   load-imbalance ratio (`max/mean` compute time), barrier-wait share,
//!   and per-stage throughput.
//!
//! Profiles of repeated runs [`merge`](RunProfile::try_merge)
//! associatively and commutatively (they are sums of per-slot counters),
//! and every derived metric is invariant under permutation of the thread
//! slots — both properties are enforced by the crate's property tests.
//!
//! [`Timeline`] (Perfetto export) and [`FlightRecorder`] (the serving
//! tier's always-on rings) observe the same stream. Every build carries
//! the hooks; an executor run with the no-op observer `&()` reads no
//! clock, and a run observed by a [`Collector`] costs three monotonic
//! clock reads and four relaxed adds into the thread's own padded slot
//! per `(stage, thread)` — bounded, and measured by perfbench's
//! `trace.overhead_pct.*` metrics.

#![warn(missing_docs)]

pub mod metrics;
pub mod recorder;
pub mod timeline;

pub use recorder::FlightRecorder;
pub use timeline::{Timeline, TimelineEvent, TimelineEventKind};

use serde::{Deserialize, Serialize};
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use spiral_smp::CACHE_LINE_BYTES;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Duration → saturating nanosecond count (u64 holds ~584 years).
pub(crate) fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Version stamp of the serialized [`RunProfile`] layout; bumped on any
/// field change so downstream readers (`figures trace`, the golden
/// snapshot under `results/`) can detect drift.
///
/// * v1 — initial layout (PR 3).
/// * v2 — added the [`HostMeta`] `host` block.
/// * v3 — the host block gained `simd_width` (detected short-vector
///   lane count; v2 profiles deserialize with the scalar default 1).
/// * v4 — added `timeline_dropped` (events overwritten in bounded
///   timeline rings while the profiled runs were recorded).
/// * v5 — the host block lost its worker-process budget field.
pub const SCHEMA_VERSION: u64 = 5;

/// The host a profile was measured on. Timing artifacts are meaningless
/// without this context: a 2-thread run on a 1-core container and on a
/// 32-core server produce structurally identical profiles with wildly
/// different barrier shares.
///
/// This is the workspace-wide [`spiral_smp::topology::HostFingerprint`]
/// (field layout unchanged from the struct this crate used to define, so
/// serialized v2 profiles stay readable).
pub use spiral_smp::topology::HostFingerprint as HostMeta;

/// One `(stage, thread)` accumulation slot, padded to a full cache line
/// so concurrent writers never share a line (the same guarantee the
/// executor's data buffers get from `smp::align`).
#[repr(align(64))]
#[derive(Default)]
struct Slot {
    compute_ns: AtomicU64,
    barrier_wait_ns: AtomicU64,
    jobs: AtomicU64,
    elements: AtomicU64,
}

const _: () = assert!(std::mem::align_of::<Slot>() == CACHE_LINE_BYTES);
const _: () = assert!(std::mem::size_of::<Slot>() == CACHE_LINE_BYTES);

/// One per-thread pool-job slot, padded like [`Slot`].
#[repr(align(64))]
#[derive(Default)]
struct JobSlot {
    total_ns: AtomicU64,
}

/// In-run recorder: `threads × stages` padded slots plus one pool-job
/// slot per thread. Implements [`Observer`]; pass it to
/// `ParallelExecutor::try_execute_with` (or use [`profile_run`]), then
/// [`finish`](Collector::finish) it into a [`RunProfile`].
pub struct Collector {
    threads: usize,
    stages: usize,
    /// Indexed `tid * stages + stage`: a thread's slots are contiguous.
    slots: Box<[Slot]>,
    jobs: Box<[JobSlot]>,
}

impl Collector {
    /// Collector for `threads` threads and `stages` plan steps.
    pub fn new(threads: usize, stages: usize) -> Collector {
        let threads = threads.max(1);
        Collector {
            threads,
            stages,
            slots: (0..threads * stages).map(|_| Slot::default()).collect(),
            jobs: (0..threads).map(|_| JobSlot::default()).collect(),
        }
    }

    /// The `(stage, thread)` slot, when both are in range.
    fn slot(&self, tid: usize, stage: u32) -> Option<&Slot> {
        let stage = usize::try_from(stage).ok()?;
        (tid < self.threads && stage < self.stages).then(|| &self.slots[tid * self.stages + stage])
    }

    /// Aggregate the recorded slots into a [`RunProfile`]. `labels` are
    /// the stage IR labels (padded/truncated to the slot count), `n` the
    /// transform size, `wall` the whole-run wall-clock span.
    pub fn finish(&self, n: usize, labels: &[String], wall: Duration) -> RunProfile {
        let stages = (0..self.stages)
            .map(|si| StageProfile {
                index: si as u64,
                label: labels.get(si).cloned().unwrap_or_else(|| "?".to_string()),
                threads: (0..self.threads)
                    .map(|tid| {
                        let s = &self.slots[tid * self.stages + si];
                        ThreadStageStats {
                            compute_ns: s.compute_ns.load(Ordering::Relaxed),
                            barrier_wait_ns: s.barrier_wait_ns.load(Ordering::Relaxed),
                            jobs: s.jobs.load(Ordering::Relaxed),
                            elements: s.elements.load(Ordering::Relaxed),
                        }
                    })
                    .collect(),
            })
            .collect();
        RunProfile {
            schema: SCHEMA_VERSION,
            n: n as u64,
            threads: self.threads as u64,
            runs: 1,
            wall_ns: ns_u64(wall),
            host: HostMeta::current(),
            pool_job_ns: self
                .jobs
                .iter()
                .map(|j| j.total_ns.load(Ordering::Relaxed))
                .collect(),
            timeline_dropped: 0,
            stages,
        }
    }
}

/// Relaxed accumulation: each slot is written by exactly one thread;
/// the publisher's run-completion synchronization orders the final reads
/// in [`Collector::finish`]. Spans other than pool jobs, stage compute
/// and barrier waits, and all marks, carry nothing a profile keeps.
impl Observer for Collector {
    fn span(&self, tid: usize, kind: SpanKind, stage: u32, start: Instant, end: Instant) {
        let ns = ns_u64(end.saturating_duration_since(start));
        match kind {
            SpanKind::StageCompute { jobs, elements } => {
                if let Some(s) = self.slot(tid, stage) {
                    s.compute_ns.fetch_add(ns, Ordering::Relaxed);
                    s.jobs.fetch_add(jobs, Ordering::Relaxed);
                    s.elements.fetch_add(elements, Ordering::Relaxed);
                }
            }
            SpanKind::BarrierWait => {
                if let Some(s) = self.slot(tid, stage) {
                    s.barrier_wait_ns.fetch_add(ns, Ordering::Relaxed);
                }
            }
            SpanKind::PoolJob => {
                if let Some(j) = self.jobs.get(tid) {
                    j.total_ns.fetch_add(ns, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }

    fn mark(&self, _: usize, _: MarkKind, _: u32, _: Instant) {}
}

/// Run `run` once under a fresh [`Collector`] sized for `threads` threads
/// and `labels.len()` stages, and reduce it into the [`RunProfile`] of an
/// `n`-point transform; the wall time spans the whole call. The closure
/// passes the collector (alone, or paired with another observer) to an
/// observed entry point, e.g.
/// `|c| exec.try_execute_with(&plan, &x, c)`.
pub fn profile_run<T, E>(
    n: usize,
    threads: usize,
    labels: &[String],
    run: impl FnOnce(&Collector) -> Result<T, E>,
) -> Result<(T, RunProfile), E> {
    let collector = Collector::new(threads, labels.len());
    let t0 = Instant::now();
    let out = run(&collector)?;
    let wall = t0.elapsed();
    Ok((out, collector.finish(n, labels, wall)))
}

/// What one thread did in one stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadStageStats {
    /// Nanoseconds spent executing the scheduled portion.
    pub compute_ns: u64,
    /// Nanoseconds blocked at the stage barrier (arrival → release).
    pub barrier_wait_ns: u64,
    /// Schedulable units (chunks / block ranges) executed.
    pub jobs: u64,
    /// Output elements written.
    pub elements: u64,
}

/// Per-thread measurements of one plan stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stage index in plan order.
    pub index: u64,
    /// Stage IR label (e.g. `par[2x128]`, `exchange(mu=4)`).
    pub label: String,
    /// One entry per thread slot, indexed by `tid`.
    pub threads: Vec<ThreadStageStats>,
}

impl StageProfile {
    /// Total compute nanoseconds across threads.
    pub fn compute_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.compute_ns).sum()
    }

    /// Total barrier-wait nanoseconds across threads.
    pub fn barrier_wait_ns(&self) -> u64 {
        self.threads.iter().map(|t| t.barrier_wait_ns).sum()
    }

    /// Total output elements written across threads.
    pub fn elements(&self) -> u64 {
        self.threads.iter().map(|t| t.elements).sum()
    }

    /// Load-imbalance ratio of this stage: `max / mean` per-thread
    /// compute time. `1.0` is perfect balance; a stage nobody computed
    /// in reports `1.0`. Invariant under permutation of thread slots.
    pub fn imbalance(&self) -> f64 {
        ratio_max_mean(self.threads.iter().map(|t| t.compute_ns))
    }

    /// Like [`imbalance`](Self::imbalance) but over the *element*
    /// counts, which are deterministic properties of the static schedule
    /// (timing-free — comparable to `spiral-verify`'s static verdict on
    /// any host).
    pub fn element_imbalance(&self) -> f64 {
        ratio_max_mean(self.threads.iter().map(|t| t.elements))
    }

    /// Stage throughput in elements per second: elements written divided
    /// by the stage's critical-path compute time (slowest thread).
    pub fn throughput_eps(&self) -> f64 {
        let span = self.threads.iter().map(|t| t.compute_ns).max().unwrap_or(0);
        if span == 0 {
            return 0.0;
        }
        self.elements() as f64 * 1e9 / span as f64
    }
}

/// Aggregated profile of one (or, after merging, several) traced runs.
///
/// All counter fields are plain sums, so merging profiles of repeated
/// runs is associative and commutative, and every derived metric — built
/// from per-thread sums via max/mean — is invariant under permutation of
/// the thread slots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Serialization layout version ([`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Transform size.
    pub n: u64,
    /// Thread-slot count.
    pub threads: u64,
    /// Number of runs accumulated into this profile.
    pub runs: u64,
    /// Wall-clock nanoseconds summed over the accumulated runs.
    pub wall_ns: u64,
    /// Host/build the profile was measured on.
    pub host: HostMeta,
    /// Whole-job nanoseconds per thread (pool-level spans).
    pub pool_job_ns: Vec<u64>,
    /// Timeline events overwritten (ring-wrap drops) while the profiled
    /// runs were recorded: 0 when no bounded `Timeline` was attached or
    /// nothing wrapped, nonzero when the rings lost history — a profile
    /// whose timeline silently truncated must say so.
    pub timeline_dropped: u64,
    /// Per-stage measurements, in plan order.
    pub stages: Vec<StageProfile>,
}

impl RunProfile {
    /// Total compute nanoseconds over all stages and threads.
    pub fn total_compute_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.compute_ns()).sum()
    }

    /// Total barrier-wait nanoseconds over all stages and threads.
    pub fn total_barrier_wait_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.barrier_wait_ns()).sum()
    }

    /// Worst per-stage load-imbalance ratio (`max/mean` compute time),
    /// over stages where any thread computed.
    pub fn max_stage_imbalance(&self) -> f64 {
        self.stages
            .iter()
            .map(|s| s.imbalance())
            .fold(1.0, f64::max)
    }

    /// Aggregate load-imbalance ratio: `max/mean` of per-thread compute
    /// time summed across all stages.
    pub fn load_imbalance(&self) -> f64 {
        let per = self.per_thread_compute_ns();
        ratio_max_mean(per.into_iter())
    }

    /// Per-thread compute nanoseconds summed across stages.
    pub fn per_thread_compute_ns(&self) -> Vec<u64> {
        let p = usize::try_from(self.threads).unwrap_or(usize::MAX);
        let mut per = vec![0u64; p];
        for s in &self.stages {
            for (tid, t) in s.threads.iter().enumerate() {
                if tid < p {
                    per[tid] += t.compute_ns;
                }
            }
        }
        per
    }

    /// Barrier-wait share of thread busy time: total barrier-wait
    /// nanoseconds over total (compute + barrier-wait) nanoseconds, in
    /// `[0, 1]`. This is the fraction of the threads' in-run time spent
    /// synchronizing — the quantity the paper's "minimal synchronization
    /// overhead" claim (§3.2) bounds. `0.0` when nothing was recorded.
    pub fn barrier_share(&self) -> f64 {
        let wait = self.total_barrier_wait_ns();
        let busy = self.total_compute_ns() + wait;
        if busy == 0 {
            return 0.0;
        }
        wait as f64 / busy as f64
    }

    /// Barrier-wait share of wall time: total wait over
    /// `threads × wall`. Sensitive to host oversubscription (threads
    /// time-slicing inflate wall); prefer [`barrier_share`] for
    /// assertions.
    pub fn barrier_share_of_wall(&self) -> f64 {
        let denom = self.threads.saturating_mul(self.wall_ns);
        if denom == 0 {
            return 0.0;
        }
        self.total_barrier_wait_ns() as f64 / denom as f64
    }

    /// Merge two profiles of the same shape (same `n`, `threads`, stage
    /// count, and stage labels) by summing every counter. Associative
    /// and commutative; `Err` describes the first shape mismatch.
    pub fn try_merge(&self, other: &RunProfile) -> Result<RunProfile, String> {
        if self.schema != other.schema {
            return Err(format!(
                "schema mismatch: {} vs {}",
                self.schema, other.schema
            ));
        }
        if self.n != other.n || self.threads != other.threads {
            return Err(format!(
                "shape mismatch: n {} threads {} vs n {} threads {}",
                self.n, self.threads, other.n, other.threads
            ));
        }
        if self.stages.len() != other.stages.len() {
            return Err(format!(
                "stage count mismatch: {} vs {}",
                self.stages.len(),
                other.stages.len()
            ));
        }
        if self.host != other.host {
            return Err(format!(
                "host mismatch: {:?} vs {:?} (merging profiles from \
                 different hosts would average incomparable clocks)",
                self.host, other.host
            ));
        }
        let stages = self
            .stages
            .iter()
            .zip(&other.stages)
            .map(|(a, b)| {
                if a.label != b.label {
                    return Err(format!(
                        "stage {} label mismatch: {} vs {}",
                        a.index, a.label, b.label
                    ));
                }
                let p = a.threads.len().max(b.threads.len());
                let threads = (0..p)
                    .map(|tid| {
                        let x = a.threads.get(tid).copied().unwrap_or_default();
                        let y = b.threads.get(tid).copied().unwrap_or_default();
                        ThreadStageStats {
                            compute_ns: x.compute_ns + y.compute_ns,
                            barrier_wait_ns: x.barrier_wait_ns + y.barrier_wait_ns,
                            jobs: x.jobs + y.jobs,
                            elements: x.elements + y.elements,
                        }
                    })
                    .collect();
                Ok(StageProfile {
                    index: a.index,
                    label: a.label.clone(),
                    threads,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let pool_job_ns = (0..self.pool_job_ns.len().max(other.pool_job_ns.len()))
            .map(|tid| {
                self.pool_job_ns.get(tid).copied().unwrap_or(0)
                    + other.pool_job_ns.get(tid).copied().unwrap_or(0)
            })
            .collect();
        Ok(RunProfile {
            schema: self.schema,
            n: self.n,
            threads: self.threads,
            runs: self.runs + other.runs,
            wall_ns: self.wall_ns + other.wall_ns,
            host: self.host.clone(),
            pool_job_ns,
            timeline_dropped: self.timeline_dropped + other.timeline_dropped,
            stages,
        })
    }

    /// Stamp the drop count of the bounded [`Timeline`] that observed
    /// these runs: nonzero means the ring wrapped and the exported
    /// timeline is missing its oldest events.
    pub fn with_timeline(mut self, timeline: &Timeline) -> RunProfile {
        self.timeline_dropped = timeline.total_dropped();
        self
    }

    /// Relabel the thread slots through `perm` (`perm[new_tid] =
    /// old_tid`). Physical thread identity carries no schedule meaning,
    /// so every derived metric is invariant under this map — the
    /// property tests pin that down.
    pub fn permute_threads(&self, perm: &[usize]) -> RunProfile {
        let remap_u64 = |v: &[u64]| -> Vec<u64> {
            perm.iter()
                .map(|&old| v.get(old).copied().unwrap_or(0))
                .collect()
        };
        RunProfile {
            schema: self.schema,
            n: self.n,
            threads: self.threads,
            runs: self.runs,
            wall_ns: self.wall_ns,
            host: self.host.clone(),
            pool_job_ns: remap_u64(&self.pool_job_ns),
            timeline_dropped: self.timeline_dropped,
            stages: self
                .stages
                .iter()
                .map(|s| StageProfile {
                    index: s.index,
                    label: s.label.clone(),
                    threads: perm
                        .iter()
                        .map(|&old| s.threads.get(old).copied().unwrap_or_default())
                        .collect(),
                })
                .collect(),
        }
    }

    /// Serialize to pretty JSON (the `figures trace` interchange form;
    /// layout guarded by the golden snapshot under `results/`).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunProfile serializes")
    }

    /// Parse a profile back from [`to_json`](Self::to_json) output.
    pub fn from_json(s: &str) -> Result<RunProfile, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// `max / mean` of a non-empty integer sequence; `1.0` when the sum is
/// zero (an all-idle stage is not "imbalanced").
fn ratio_max_mean(values: impl Iterator<Item = u64>) -> f64 {
    let mut max = 0u64;
    let mut sum = 0u64;
    let mut count = 0u64;
    for v in values {
        max = max.max(v);
        sum += v;
        count += 1;
    }
    if sum == 0 || count == 0 {
        return 1.0;
    }
    max as f64 * count as f64 / sum as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `c` the spans the stage executor emits for one `(stage, tid)`
    /// portion: compute, then barrier wait.
    fn stage(
        c: &Collector,
        tid: usize,
        stage: u32,
        compute: Duration,
        wait: Duration,
        jobs: u64,
        elements: u64,
    ) {
        let t0 = Instant::now();
        c.span(
            tid,
            SpanKind::StageCompute { jobs, elements },
            stage,
            t0,
            t0 + compute,
        );
        c.span(tid, SpanKind::BarrierWait, stage, t0, t0 + wait);
    }

    fn pool_job(c: &Collector, tid: usize, total: Duration) {
        let t0 = Instant::now();
        c.span(tid, SpanKind::PoolJob, 0, t0, t0 + total);
    }

    /// A deterministic profile for metric tests: 2 stages × 3 threads.
    fn sample() -> RunProfile {
        let c = Collector::new(3, 2);
        // Stage 0: balanced 100ns each, 8 elements each.
        for tid in 0..3 {
            stage(
                &c,
                tid,
                0,
                Duration::from_nanos(100),
                Duration::from_nanos(10),
                1,
                8,
            );
        }
        // Stage 1: thread 2 does double work.
        for (tid, ns) in [(0usize, 100u64), (1, 100), (2, 200)] {
            stage(
                &c,
                tid,
                1,
                Duration::from_nanos(ns),
                Duration::from_nanos(5),
                1,
                ns / 10,
            );
        }
        pool_job(&c, 0, Duration::from_nanos(400));
        pool_job(&c, 1, Duration::from_nanos(400));
        pool_job(&c, 2, Duration::from_nanos(500));
        c.finish(
            64,
            &["par[3x8]".to_string(), "exchange(mu=4)".to_string()],
            Duration::from_nanos(600),
        )
    }

    #[test]
    fn metrics_from_collected_slots() {
        let p = sample();
        assert_eq!(p.threads, 3);
        assert_eq!(p.stages.len(), 2);
        assert!((p.stages[0].imbalance() - 1.0).abs() < 1e-12);
        // Stage 1: max 200, mean 400/3.
        let want = 200.0 / (400.0 / 3.0);
        assert!((p.stages[1].imbalance() - want).abs() < 1e-12);
        assert!((p.max_stage_imbalance() - want).abs() < 1e-12);
        // Barrier share: waits 3*10 + 3*5 = 45; compute 300 + 400 = 700.
        assert!((p.barrier_share() - 45.0 / 745.0).abs() < 1e-12);
        assert_eq!(p.per_thread_compute_ns(), vec![200, 200, 300]);
    }

    #[test]
    fn merge_sums_counters_and_runs() {
        let p = sample();
        let m = p.try_merge(&p).unwrap();
        assert_eq!(m.runs, 2);
        assert_eq!(m.wall_ns, 2 * p.wall_ns);
        assert_eq!(m.total_compute_ns(), 2 * p.total_compute_ns());
        // Ratios are scale-invariant: doubling every counter fixes them.
        assert!((m.max_stage_imbalance() - p.max_stage_imbalance()).abs() < 1e-12);
        assert!((m.barrier_share() - p.barrier_share()).abs() < 1e-12);
    }

    #[test]
    fn merge_rejects_shape_mismatch() {
        let p = sample();
        let mut q = p.clone();
        q.n = 128;
        assert!(p.try_merge(&q).is_err());
        let mut r = p.clone();
        r.stages[0].label = "other".to_string();
        assert!(p.try_merge(&r).is_err());
        let mut h = p.clone();
        h.host.cores += 1;
        assert!(p.try_merge(&h).is_err());
    }

    #[test]
    fn finish_stamps_current_host() {
        let p = sample();
        assert_eq!(p.schema, SCHEMA_VERSION);
        assert_eq!(p.host, HostMeta::current());
        assert!(p.host.cores >= 1);
        assert!(p.host.mu >= 1);
        assert!(p.host.cache_line_bytes.is_power_of_two());
    }

    #[test]
    fn json_roundtrip() {
        let p = sample();
        let s = p.to_json();
        let q = RunProfile::from_json(&s).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn idle_stage_reports_unit_imbalance() {
        let c = Collector::new(4, 1);
        let p = c.finish(16, &["seq".to_string()], Duration::from_nanos(1));
        assert_eq!(p.stages[0].imbalance(), 1.0);
        assert_eq!(p.barrier_share(), 0.0);
        assert_eq!(p.stages[0].throughput_eps(), 0.0);
    }

    #[test]
    fn collector_ignores_out_of_range_slots() {
        let c = Collector::new(2, 1);
        stage(
            &c,
            7,
            0,
            Duration::from_nanos(1),
            Duration::from_nanos(1),
            1,
            1,
        );
        stage(
            &c,
            0,
            9,
            Duration::from_nanos(1),
            Duration::from_nanos(1),
            1,
            1,
        );
        pool_job(&c, 5, Duration::from_nanos(1));
        let p = c.finish(4, &["x".to_string()], Duration::from_nanos(1));
        assert_eq!(p.total_compute_ns(), 0);
        assert_eq!(p.pool_job_ns, vec![0, 0]);
    }

    #[test]
    fn slots_are_line_padded() {
        let c = Collector::new(2, 3);
        let base = c.slots.as_ptr() as usize;
        assert_eq!(base % CACHE_LINE_BYTES, 0);
        for i in 0..c.slots.len() {
            let addr = &c.slots[i] as *const Slot as usize;
            assert_eq!(addr % CACHE_LINE_BYTES, 0);
        }
    }
}
