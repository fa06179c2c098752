//! `spiral-verify` — static analyzer for compiled plans.
//!
//! The paper's Definition 1 demands that generated parallel programs be
//! *load balanced*, *avoid false sharing*, and need only barriers for
//! synchronization; the rewriting system (rules (6)–(11), formula (14))
//! is designed so every derived program has these properties, and the
//! parallel executor's `unsafe` shared-buffer access is sound exactly
//! because each step's writes are thread-disjoint. This crate checks all
//! of that *statically*, from the stage IR alone:
//!
//! * **Footprints** ([`footprint`]): per step and thread, exact read and
//!   write index sets computed symbolically from the affine loop nests
//!   (stride runs folded per loop dimension; permutation tables and
//!   fused gathers mapped exactly).
//! * **Bounds**: every index inside its ping-pong buffer or scratch.
//! * **Race freedom**: per step, writes pairwise thread-disjoint and
//!   disjoint from other threads' reads at element granularity — the
//!   property that makes the executor's `unsafe` sound.
//! * **False-sharing freedom**: per step, no cache line (µ elements)
//!   touched for writing by one thread and for anything by another —
//!   Definition 1's structural criterion. A complementary cache-line
//!   *tenure audit* ([`audit`]) replays the statically known schedule
//!   through the coherence-directory automaton and decides the exact
//!   machine-level false-sharing count that `spiral-sim` would observe.
//! * **Load balance**: per-thread flop totals within a configurable
//!   ratio of the mean.
//! * **Barrier audit**: barriers whose removal would violate no
//!   cross-thread dependency are flagged as redundant.
//!
//! [`verify_plan`] runs everything and returns a serializable [`Report`].
//! [`install_executor_guard`] registers the soundness checks (bounds +
//! races) with `spiral-codegen`'s validator registry so debug builds of
//! `ParallelExecutor` verify every plan before running it.

pub mod audit;
pub mod baseline;
pub mod certify;
pub mod differential;
pub mod footprint;
pub mod iset;
pub mod timeline;

use crate::audit::audit_plan;
use crate::baseline::{fftw_like_footprints, FftwLikeSchedule};
use crate::footprint::{plan_footprints, StepFootprint};
use crate::iset::IndexSet;
use serde::{Deserialize, Serialize};
use spiral_codegen::hook::Region;
use spiral_codegen::plan::Plan;

/// What kind of defect a diagnostic reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiagKind {
    /// An access lands outside its buffer.
    OutOfBounds,
    /// Two threads touch the same element in one step, at least one
    /// writing — the executor's `unsafe` would be unsound.
    Race,
    /// Two threads share a cache line in one step (or across steps, per
    /// the tenure audit) on disjoint elements.
    FalseSharing,
    /// Per-thread work differs by more than the allowed ratio.
    LoadImbalance,
    /// A barrier protects no cross-thread dependency.
    RedundantBarrier,
    /// A step leaves part of its destination buffer unwritten.
    IncompleteWrite,
    /// A recorded timeline event is internally inconsistent (inverted
    /// span, out-of-range thread or stage).
    TimelineMalformed,
    /// One thread's activity spans (compute / barrier wait / tuner
    /// candidate) overlap in time.
    TimelineOverlap,
    /// An activity span lies outside every pool-job span of its thread.
    TimelineNesting,
    /// A stage's barrier accounting is off (release count != threads),
    /// or a watchdog fired during the recorded run.
    TimelineBarrier,
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// Violates correctness or the fully-optimized contract.
    Error,
    /// Suspicious but not unsound.
    Warning,
    /// Optimization opportunity.
    Info,
}

impl Severity {
    fn rank(self) -> u8 {
        match self {
            Severity::Error => 0,
            Severity::Warning => 1,
            Severity::Info => 2,
        }
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Defect class.
    pub kind: DiagKind,
    /// Severity grade.
    pub severity: Severity,
    /// Step the finding is anchored to, if step-local.
    pub step: Option<usize>,
    /// Threads involved.
    pub threads: Vec<usize>,
    /// Buffer region involved (`"BufA"`, `"BufB"`, `"Tmp(0)"`), if any.
    pub region: Option<String>,
    /// A witness index (element, or cache line for false sharing).
    pub witness: Option<usize>,
    /// Human-readable explanation.
    pub detail: String,
}

/// Analyzer configuration.
#[derive(Clone, Copy, Debug)]
pub struct VerifyOptions {
    /// Cache-line length in elements to check against; `None` uses the
    /// plan's own µ. Set it to a machine's µ to examine a plan generated
    /// for a different (or no) line length.
    pub line: Option<usize>,
    /// Maximum allowed max/mean per-thread flop ratio.
    pub balance_ratio: f64,
    /// Run the cross-step cache-line tenure audit.
    pub tenure_audit: bool,
    /// Audit barriers for redundancy.
    pub barrier_audit: bool,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            line: None,
            balance_ratio: 1.05,
            tenure_audit: true,
            barrier_audit: true,
        }
    }
}

/// The analyzer's verdict over one plan (serializable).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Transform size.
    pub n: usize,
    /// Thread count analyzed.
    pub threads: usize,
    /// Cache-line length (elements) the checks used.
    pub mu: usize,
    /// Total real flops per thread across all steps.
    pub per_thread_flops: Vec<u64>,
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// No findings at all — the plan satisfies Definition 1 and the
    /// executor's soundness contract.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Any error-grade finding.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Any finding of `kind`.
    pub fn has_kind(&self, kind: DiagKind) -> bool {
        self.diagnostics.iter().any(|d| d.kind == kind)
    }

    /// Findings that make the parallel executor's `unsafe` unsound
    /// (races and out-of-bounds accesses).
    pub fn soundness_errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| matches!(d.kind, DiagKind::Race | DiagKind::OutOfBounds))
    }
}

/// Buffer capacities for the bounds check.
#[derive(Clone, Copy, Debug)]
pub struct RegionCaps {
    /// Elements in each ping-pong buffer.
    pub buf: usize,
    /// Elements in each per-thread scratch buffer.
    pub tmp: usize,
}

impl RegionCaps {
    fn of(&self, region: Region) -> usize {
        match region {
            Region::BufA | Region::BufB => self.buf,
            Region::Tmp(_) => self.tmp,
        }
    }
}

fn region_name(r: Region) -> String {
    format!("{r:?}")
}

/// Run the generic structural checks (bounds, races, false sharing, load
/// balance, barrier audit) over any schedule's footprints.
pub fn check_footprints(
    steps: &[StepFootprint],
    caps: &RegionCaps,
    mu: usize,
    opts: &VerifyOptions,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for sf in steps {
        check_bounds(sf, caps, &mut diags);
        check_step_conflicts(sf, mu, &mut diags);
    }
    if opts.barrier_audit {
        for pair in steps.windows(2) {
            check_barrier(&pair[0], &pair[1], &mut diags);
        }
    }
    check_balance(steps, opts.balance_ratio, &mut diags);
    diags
}

fn check_bounds(sf: &StepFootprint, caps: &RegionCaps, diags: &mut Vec<Diagnostic>) {
    for (tid, tf) in sf.threads.iter().enumerate() {
        for (is_write, rs) in [(false, &tf.reads), (true, &tf.writes)] {
            for (region, set) in rs.iter() {
                let cap = caps.of(*region);
                if let Some(max) = set.max() {
                    if max >= cap {
                        diags.push(Diagnostic {
                            kind: DiagKind::OutOfBounds,
                            severity: Severity::Error,
                            step: Some(sf.index),
                            threads: vec![tid],
                            region: Some(region_name(*region)),
                            witness: Some(max),
                            detail: format!(
                                "step {} ({}): thread {tid} {} index {max} outside \
                                 {} (capacity {cap})",
                                sf.index,
                                sf.kind,
                                if is_write { "writes" } else { "reads" },
                                region_name(*region),
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Per-step cross-thread conflicts: element-granularity races and
/// µ-granularity false sharing (only reported where no race exists — a
/// race subsumes the line conflict).
fn check_step_conflicts(sf: &StepFootprint, mu: usize, diags: &mut Vec<Diagnostic>) {
    // Regions touched in this step.
    let mut regions: Vec<Region> = Vec::new();
    for tf in &sf.threads {
        for (r, _) in tf.reads.iter().chain(tf.writes.iter()) {
            if !regions.contains(r) {
                regions.push(*r);
            }
        }
    }
    for region in regions {
        let empty = IndexSet::empty();
        let get = |rs: &crate::footprint::RegionSet| -> IndexSet {
            rs.get(region).cloned().unwrap_or_else(|| empty.clone())
        };
        let per_tid: Vec<(IndexSet, IndexSet)> = sf
            .threads
            .iter()
            .map(|tf| (get(&tf.reads), get(&tf.writes)))
            .collect();
        let lines: Vec<(IndexSet, IndexSet)> = per_tid
            .iter()
            .map(|(r, w)| (r.lines(mu), w.lines(mu)))
            .collect();
        let mut race_threads: Vec<usize> = Vec::new();
        let mut race_witness = None;
        let mut fs_threads: Vec<usize> = Vec::new();
        let mut fs_witness = None;
        for t in 0..sf.threads.len() {
            for u in t + 1..sf.threads.len() {
                let (rt, wt) = (&per_tid[t].0, &per_tid[t].1);
                let (ru, wu) = (&per_tid[u].0, &per_tid[u].1);
                let conflict = wt
                    .intersect(wu)
                    .or_else(|| wt.intersect(ru))
                    .or_else(|| rt.intersect(wu));
                if let Some(w) = conflict {
                    for x in [t, u] {
                        if !race_threads.contains(&x) {
                            race_threads.push(x);
                        }
                    }
                    race_witness.get_or_insert(w);
                    continue;
                }
                let (rlt, wlt) = (&lines[t].0, &lines[t].1);
                let (rlu, wlu) = (&lines[u].0, &lines[u].1);
                let line_conflict = wlt
                    .intersect(wlu)
                    .or_else(|| wlt.intersect(rlu))
                    .or_else(|| rlt.intersect(wlu));
                if let Some(l) = line_conflict {
                    for x in [t, u] {
                        if !fs_threads.contains(&x) {
                            fs_threads.push(x);
                        }
                    }
                    fs_witness.get_or_insert(l);
                }
            }
        }
        if let Some(w) = race_witness {
            diags.push(Diagnostic {
                kind: DiagKind::Race,
                severity: Severity::Error,
                step: Some(sf.index),
                threads: race_threads,
                region: Some(region_name(region)),
                witness: Some(w),
                detail: format!(
                    "step {} ({}): threads access element {w} of {} concurrently \
                     with at least one write — barrier-free data race",
                    sf.index,
                    sf.kind,
                    region_name(region),
                ),
            });
        }
        if let Some(l) = fs_witness {
            diags.push(Diagnostic {
                kind: DiagKind::FalseSharing,
                severity: Severity::Error,
                step: Some(sf.index),
                threads: fs_threads,
                region: Some(region_name(region)),
                witness: Some(l),
                detail: format!(
                    "step {} ({}): cache line {l} of {} (µ = {mu}) is shared \
                     between threads on disjoint elements — false sharing",
                    sf.index,
                    sf.kind,
                    region_name(region),
                ),
            });
        }
    }
}

/// The barrier after `a` is redundant iff no cross-thread dependency
/// (RAW, WAR, or WAW at element granularity) crosses from `a` into `b`.
fn check_barrier(a: &StepFootprint, b: &StepFootprint, diags: &mut Vec<Diagnostic>) {
    for (t, ta) in a.threads.iter().enumerate() {
        for (u, tb) in b.threads.iter().enumerate() {
            if t == u {
                continue;
            }
            for (region, wa) in ta.writes.iter() {
                let touched = tb
                    .reads
                    .get(*region)
                    .and_then(|s| wa.intersect(s))
                    .or_else(|| tb.writes.get(*region).and_then(|s| wa.intersect(s)));
                if touched.is_some() {
                    return;
                }
            }
            for (region, ra) in ta.reads.iter() {
                if let Some(wb) = tb.writes.get(*region) {
                    if ra.intersect(wb).is_some() {
                        return;
                    }
                }
            }
        }
    }
    diags.push(Diagnostic {
        kind: DiagKind::RedundantBarrier,
        severity: Severity::Info,
        step: Some(a.index),
        threads: Vec::new(),
        region: None,
        witness: None,
        detail: format!(
            "barrier after step {} ({}) protects no cross-thread dependency \
             into step {} ({})",
            a.index, a.kind, b.index, b.kind
        ),
    });
}

fn check_balance(steps: &[StepFootprint], ratio: f64, diags: &mut Vec<Diagnostic>) {
    let threads = steps.iter().map(|s| s.threads.len()).max().unwrap_or(0);
    if threads < 2 {
        return;
    }
    let per = per_thread_flops(steps, threads);
    let total: u64 = per.iter().sum();
    if total == 0 {
        return;
    }
    let mean = total as f64 / threads as f64;
    let max = *per.iter().max().unwrap() as f64;
    let actual = max / mean;
    if actual > ratio {
        diags.push(Diagnostic {
            kind: DiagKind::LoadImbalance,
            severity: Severity::Warning,
            step: None,
            threads: (0..threads).collect(),
            region: None,
            witness: None,
            detail: format!(
                "per-thread flops {per:?}: max/mean = {actual:.3} exceeds the \
                 allowed {ratio:.3}"
            ),
        });
    }
}

/// Total flops per thread across all steps.
pub fn per_thread_flops(steps: &[StepFootprint], threads: usize) -> Vec<u64> {
    let mut per = vec![0u64; threads];
    for sf in steps {
        for (tid, tf) in sf.threads.iter().enumerate() {
            per[tid % threads.max(1)] += tf.flops;
        }
    }
    per
}

/// Static per-stage load-imbalance ratios of a plan: for each step, the
/// `max/mean` of per-thread flops under the executor's static schedule
/// (thread `t` runs footprint entries `t, t+p, …`). A stage with zero
/// flops (pure data movement) reports `1.0` — it is bounded by memory,
/// not compute, so flop balance is not meaningful for it.
///
/// This is the static counterpart of the *measured* per-stage imbalance
/// a `spiral_trace::RunProfile` reports; the observability layer
/// cross-validates the two.
pub fn static_stage_balance(plan: &Plan) -> Vec<f64> {
    let threads = plan.threads.max(1);
    plan_footprints(plan)
        .iter()
        .map(|sf| {
            let mut per = vec![0u64; threads];
            for (tid, tf) in sf.threads.iter().enumerate() {
                per[tid % threads] += tf.flops;
            }
            let total: u64 = per.iter().sum();
            if total == 0 {
                return 1.0;
            }
            let max = *per.iter().max().unwrap() as f64;
            max * threads as f64 / total as f64
        })
        .collect()
}

/// Check that every step fully writes its expected destination region
/// (the ping-pong invariant: stale elements would be read downstream).
pub fn check_coverage(
    steps: &[StepFootprint],
    n: usize,
    expect_dst: impl Fn(usize) -> Region,
    diags: &mut Vec<Diagnostic>,
) {
    for sf in steps {
        let dst = expect_dst(sf.index);
        let mut covered = vec![false; n];
        for tf in &sf.threads {
            if let Some(set) = tf.writes.get(dst) {
                set.for_each(|x| {
                    if x < n {
                        covered[x] = true;
                    }
                });
            }
        }
        let missing = covered.iter().filter(|&&c| !c).count();
        if missing > 0 {
            let first = covered.iter().position(|&c| !c);
            diags.push(Diagnostic {
                kind: DiagKind::IncompleteWrite,
                severity: Severity::Warning,
                step: Some(sf.index),
                threads: Vec::new(),
                region: Some(region_name(dst)),
                witness: first,
                detail: format!(
                    "step {} ({}): {missing} element(s) of {} left unwritten \
                     (first at index {})",
                    sf.index,
                    sf.kind,
                    region_name(dst),
                    first.unwrap_or(0),
                ),
            });
        }
    }
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| (d.severity.rank(), d.step.unwrap_or(usize::MAX)));
}

/// Statically verify a compiled plan: symbolic footprints, bounds, race
/// freedom, false-sharing freedom, write coverage, load balance, barrier
/// audit, and (by default) the exact cross-step tenure audit.
pub fn verify_plan(plan: &Plan, opts: &VerifyOptions) -> Report {
    let mu = opts.line.unwrap_or(plan.mu).max(1);
    let steps = plan_footprints(plan);
    let caps = RegionCaps {
        buf: plan.n,
        tmp: plan.tmp_dim().max(1),
    };
    let mut diagnostics = check_footprints(&steps, &caps, mu, opts);
    check_coverage(
        &steps,
        plan.n,
        |si| {
            if si % 2 == 0 {
                Region::BufB
            } else {
                Region::BufA
            }
        },
        &mut diagnostics,
    );
    if opts.tenure_audit
        && plan.threads > 1
        && mu <= 64
        && !diagnostics.iter().any(|d| d.kind == DiagKind::FalseSharing)
    {
        // The per-step checks passed; decide the exact machine-level
        // verdict for cross-step line-granularity effects.
        let audit = audit_plan(plan, mu);
        if audit.false_sharing > 0 {
            let ev = audit.events.first();
            diagnostics.push(Diagnostic {
                kind: DiagKind::FalseSharing,
                severity: Severity::Error,
                step: ev.map(|e| e.step),
                threads: ev.map(|e| vec![e.tid]).unwrap_or_default(),
                region: None,
                witness: ev.map(|e| usize::try_from(e.line).expect("cache line index fits usize")),
                detail: format!(
                    "tenure audit: {} cache-line transfer(s) moved no needed \
                     data (µ = {mu}) — cross-step false sharing",
                    audit.false_sharing
                ),
            });
        }
    }
    sort_diags(&mut diagnostics);
    let threads = plan.threads.max(1);
    Report {
        n: plan.n,
        threads,
        mu,
        per_thread_flops: per_thread_flops(&steps, threads),
        diagnostics,
    }
}

/// Statically verify the µ-oblivious FFTW-like baseline schedule at the
/// given cache-line length. The generated multicore-CT plans pass
/// [`verify_plan`] with zero findings; this model demonstrates that the
/// same checks reject a µ-oblivious parallel Cooley–Tukey whenever its
/// block-cyclic slices undercut a cache line.
pub fn verify_fftw_like(sched: &FftwLikeSchedule, mu: usize, opts: &VerifyOptions) -> Report {
    let steps = fftw_like_footprints(sched);
    let caps = RegionCaps {
        buf: sched.n,
        tmp: 1,
    };
    let mut diagnostics = check_footprints(&steps, &caps, mu.max(1), opts);
    check_coverage(&steps, sched.n, |_| Region::BufB, &mut diagnostics);
    sort_diags(&mut diagnostics);
    let threads = sched.threads.max(1);
    Report {
        n: sched.n,
        threads,
        mu: mu.max(1),
        per_thread_flops: per_thread_flops(&steps, threads),
        diagnostics,
    }
}

/// Register the analyzer's soundness checks (bounds + races) and the
/// dataflow certification pass with the executor's validator registry:
/// debug builds of `ParallelExecutor` then verify every plan before
/// touching the shared buffers.
pub fn install_executor_guard() {
    spiral_codegen::plan::install_validator(executor_guard);
}

fn executor_guard(plan: &Plan) -> Result<(), String> {
    // Soundness only: a µ-oblivious (slow) plan is still safe to run.
    let opts = VerifyOptions {
        tenure_audit: false,
        barrier_audit: false,
        ..Default::default()
    };
    let report = verify_plan(plan, &opts);
    let mut errs: Vec<String> = report
        .soundness_errors()
        .map(|d| d.detail.clone())
        .collect();
    errs.extend(
        certify::dataflow::certify_dataflow(plan)
            .into_iter()
            .map(|f| f.to_string()),
    );
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_codegen::plan::Step;
    use spiral_codegen::stage::LocalProgram;
    use spiral_spl::cplx::Cplx;
    use std::sync::Arc;

    fn par_plan(n: usize, threads: usize, mu: usize, chunk: usize, dims: &[usize]) -> Plan {
        Plan {
            n,
            threads,
            mu,
            vec_width: 1,
            steps: vec![Step::Par {
                chunk,
                programs: dims.iter().map(|&d| LocalProgram::identity(d)).collect(),
                gather: None,
            }],
        }
    }

    #[test]
    fn disjoint_identity_chunks_are_clean_of_errors() {
        let plan = par_plan(16, 2, 4, 8, &[8, 8]);
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }

    #[test]
    fn overlapping_chunks_race() {
        // Chunk stride 4 but programs of dim 8: chunk 0 writes [0,8),
        // chunk 1 writes [4,12) — element overlap across threads.
        let plan = par_plan(16, 2, 4, 4, &[8, 8]);
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(report.has_kind(DiagKind::Race), "{:?}", report.diagnostics);
        assert!(report.soundness_errors().count() > 0);
    }

    #[test]
    fn sub_line_chunks_false_share_without_racing() {
        // µ = 4 but chunks of 2: threads 0 and 1 split every line.
        let plan = par_plan(8, 2, 4, 2, &[2, 2, 2, 2]);
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(
            report.has_kind(DiagKind::FalseSharing),
            "{:?}",
            report.diagnostics
        );
        assert!(!report.has_kind(DiagKind::Race), "{:?}", report.diagnostics);
        // Soundness is intact: false sharing is a performance defect.
        assert_eq!(report.soundness_errors().count(), 0);
    }

    #[test]
    fn out_of_bounds_write_detected() {
        // Two chunks of 8 on an 8-point plan: chunk 1 writes [8,16).
        let plan = par_plan(8, 2, 4, 8, &[8, 8]);
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(
            report.has_kind(DiagKind::OutOfBounds),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn aligned_scale_then_par_has_redundant_barrier() {
        // ScaleAll splits by lines, the following Par by equal chunks:
        // identical partitions — no cross-thread dependency, so the
        // barrier between them is redundant.
        let n = 16;
        let plan = Plan {
            n,
            threads: 2,
            mu: 4,
            vec_width: 1,
            steps: vec![
                Step::ScaleAll(Arc::new(vec![Cplx::ONE; n])),
                Step::Par {
                    chunk: 8,
                    programs: vec![LocalProgram::identity(8); 2],
                    gather: None,
                },
            ],
        };
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(
            report.has_kind(DiagKind::RedundantBarrier),
            "{:?}",
            report.diagnostics
        );
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
    }

    #[test]
    fn unequal_work_warns_imbalance() {
        // Thread 0 runs a scale stage (6 flops/element); thread 1 copies.
        use spiral_codegen::stage::LocalStage;
        let scale = LocalProgram {
            dim: 8,
            stages: vec![LocalStage::Scale(Arc::new(vec![Cplx::ONE; 8]))],
        };
        let plan = Plan {
            n: 16,
            threads: 2,
            mu: 4,
            vec_width: 1,
            steps: vec![Step::Par {
                chunk: 8,
                programs: vec![scale, LocalProgram::identity(8)],
                gather: None,
            }],
        };
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(
            report.has_kind(DiagKind::LoadImbalance),
            "{:?}",
            report.diagnostics
        );
        assert_eq!(report.per_thread_flops, vec![48, 0]);
    }

    #[test]
    fn incomplete_write_warns() {
        // One chunk of 8 on a 16-point plan: [8,16) never written.
        let plan = par_plan(16, 2, 4, 8, &[8]);
        let report = verify_plan(&plan, &VerifyOptions::default());
        assert!(
            report.has_kind(DiagKind::IncompleteWrite),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let plan = par_plan(8, 2, 4, 2, &[2, 2, 2, 2]);
        let report = verify_plan(&plan, &VerifyOptions::default());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("FalseSharing"), "{json}");
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.diagnostics, report.diagnostics);
        assert_eq!(back.n, report.n);
    }

    #[test]
    fn executor_guard_rejects_races_only() {
        assert!(executor_guard(&par_plan(16, 2, 4, 4, &[8, 8])).is_err());
        // False sharing alone is safe to execute.
        assert!(executor_guard(&par_plan(8, 2, 4, 2, &[2, 2, 2, 2])).is_ok());
    }
}
