//! Symbolic per-step, per-thread memory footprints of a compiled plan.
//!
//! Reads the schedule the executor runs: each thread's part of a step
//! comes from [`Step::portion`] and each chunk program's buffers from
//! [`LocalProgram::passes`] (which run in-place stages on the chunk's
//! own output), with the same step-level buffer ping-pong as
//! [`Plan::run_traced`]. Instead of enumerating the access stream it
//! computes each thread's read and write *index sets* from the affine
//! loop nests. Kernel stages stay symbolic (their loop dims fold into
//! stride runs); permutation tables and gathers are mapped exactly and
//! recompressed.

use crate::iset::IndexSet;
use spiral_codegen::hook::Region;
use spiral_codegen::plan::{ElementOp, Plan, Portion, Step};
use spiral_codegen::stage::{Buf, KernelStage, LocalProgram};

/// Index sets grouped by buffer region.
#[derive(Clone, Debug, Default)]
pub struct RegionSet {
    entries: Vec<(Region, IndexSet)>,
}

impl RegionSet {
    /// Union `set` into the entry for `region`.
    pub fn add(&mut self, region: Region, set: IndexSet) {
        if set.is_empty() {
            return;
        }
        match self.entries.iter_mut().find(|(r, _)| *r == region) {
            Some((_, s)) => s.union_with(&set),
            None => self.entries.push((region, set)),
        }
    }

    /// The set for `region`, if the thread touches it.
    pub fn get(&self, region: Region) -> Option<&IndexSet> {
        self.entries
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, s)| s)
    }

    /// All `(region, set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = &(Region, IndexSet)> {
        self.entries.iter()
    }

    /// True when the thread touches nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// What one thread touches during one step.
#[derive(Clone, Debug, Default)]
pub struct ThreadFootprint {
    /// Elements read, per region.
    pub reads: RegionSet,
    /// Elements written, per region.
    pub writes: RegionSet,
    /// Real flops this thread executes in the step.
    pub flops: u64,
}

/// The footprint of one synchronization-delimited step.
#[derive(Clone, Debug)]
pub struct StepFootprint {
    /// Step index within the plan.
    pub index: usize,
    /// Step kind, for diagnostics ("seq", "par", "exchange", "scale", …).
    pub kind: &'static str,
    /// One footprint per thread id (length = thread count).
    pub threads: Vec<ThreadFootprint>,
}

/// Input/output index sets of one kernel stage, in stage-local terms
/// (before any region offset), mirroring [`KernelStage::trace`].
fn kernel_sets(k: &KernelStage) -> (IndexSet, IndexSet) {
    let c = k.codelet.size();
    let mut reads = IndexSet::run(k.in_off, k.in_t_stride.max(1), c);
    let mut writes = IndexSet::run(k.out_off, k.out_t_stride.max(1), c);
    for l in &k.loops {
        reads = reads.fold_loop(l.count, l.in_stride);
        writes = writes.fold_loop(l.count, l.out_stride);
    }
    // Fused permutations apply to the complete affine index. An index
    // outside the table marks a malformed stage; map it far out of range
    // so the bounds check reports it instead of panicking here.
    if let Some(m) = &k.in_map {
        reads = reads.map_indices(|i| m.get(i).map_or(usize::MAX / 2, |&v| v as usize));
    }
    if let Some(m) = &k.out_map {
        writes = writes.map_indices(|i| m.get(i).map_or(usize::MAX / 2, |&v| v as usize));
    }
    (reads, writes)
}

/// Accumulate the footprint of one chunk program into `tf` — the symbolic
/// twin of the tracer's chunk replay: it reads `src` at `off + i` (or at
/// `gather[off + i]`) and writes `dst` at `off + i`.
fn local_footprint(
    prog: &LocalProgram,
    tf: &mut ThreadFootprint,
    tid: usize,
    src: Region,
    dst: Region,
    off: usize,
    gather: Option<&[u32]>,
) {
    let at = |buf: Buf, set: IndexSet| match buf {
        Buf::Src => match gather {
            Some(g) => (
                src,
                set.map_indices(|i| g.get(off + i).map_or(usize::MAX / 2, |&v| v as usize)),
            ),
            None => (src, set.shift(off)),
        },
        Buf::Tmp => (Region::Tmp(tid), set),
        Buf::Dst => (dst, set.shift(off)),
    };
    if prog.stages.is_empty() {
        // Identity chunk: straight copy.
        let (r, set) = at(Buf::Src, IndexSet::interval(0, prog.dim));
        tf.reads.add(r, set);
        let (r, set) = at(Buf::Dst, IndexSet::interval(0, prog.dim));
        tf.writes.add(r, set);
        return;
    }
    for (stage, input, output) in prog.passes() {
        let (rset, wset) = kernel_sets(stage);
        let (r, set) = at(input, rset);
        tf.reads.add(r, set);
        let (r, set) = at(output, wset);
        tf.writes.add(r, set);
        tf.flops += stage.flops();
    }
}

/// Compute the complete per-step, per-thread footprints of `plan`.
pub fn plan_footprints(plan: &Plan) -> Vec<StepFootprint> {
    let threads = plan.threads.max(1);
    let (mut src, mut dst) = (Region::BufA, Region::BufB);
    let mut out = Vec::with_capacity(plan.steps.len());
    for (index, step) in plan.steps.iter().enumerate() {
        let mut tfs = vec![ThreadFootprint::default(); threads];
        for (tid, tf) in tfs.iter_mut().enumerate() {
            let portion = step.portion(plan.n, plan.mu, tid, threads);
            match &portion {
                Portion::Chunks { chunk, gather, .. } => {
                    for (c, prog) in portion.chunks() {
                        local_footprint(prog, tf, tid, src, dst, c * chunk, *gather);
                    }
                }
                Portion::Elements { range, op, .. } if !range.is_empty() => {
                    let span = IndexSet::interval(range.start, range.len());
                    let reads = match op {
                        ElementOp::Gather(table) => span
                            .map_indices(|e| table.get(e).map_or(usize::MAX / 2, |&v| v as usize)),
                        ElementOp::Scale(_) => span.clone(),
                    };
                    tf.reads.add(src, reads);
                    tf.writes.add(dst, span);
                    tf.flops += op.flops(range.len());
                }
                Portion::Elements { .. } => {}
            }
        }
        let kind = match step {
            Step::Seq(_) => "seq",
            Step::Par { .. } => "par",
            Step::Exchange { .. } => "exchange",
            Step::ScaleAll(_) => "scale",
        };
        out.push(StepFootprint {
            index,
            kind,
            threads: tfs,
        });
        std::mem::swap(&mut src, &mut dst);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_codegen::hook::MemHook;
    use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
    use std::collections::{BTreeSet, HashMap};

    /// Collects exact (step, tid, region, index) access sets from the
    /// tracer, for cross-checking the symbolic footprints.
    #[derive(Default)]
    struct SetHook {
        step: usize,
        reads: HashMap<(usize, usize, String), BTreeSet<usize>>,
        writes: HashMap<(usize, usize, String), BTreeSet<usize>>,
        flops: HashMap<(usize, usize), u64>,
    }

    impl MemHook for SetHook {
        fn read(&mut self, tid: usize, region: Region, idx: usize) {
            self.reads
                .entry((self.step, tid, format!("{region:?}")))
                .or_default()
                .insert(idx);
        }
        fn write(&mut self, tid: usize, region: Region, idx: usize) {
            self.writes
                .entry((self.step, tid, format!("{region:?}")))
                .or_default()
                .insert(idx);
        }
        fn flops(&mut self, tid: usize, count: u64) {
            *self.flops.entry((self.step, tid)).or_default() += count;
        }
        fn barrier(&mut self) {
            self.step += 1;
        }
    }

    fn footprint_sets(
        steps: &[StepFootprint],
        writes: bool,
    ) -> HashMap<(usize, usize, String), BTreeSet<usize>> {
        let mut out: HashMap<(usize, usize, String), BTreeSet<usize>> = HashMap::new();
        for sf in steps {
            for (tid, tf) in sf.threads.iter().enumerate() {
                let rs = if writes { &tf.writes } else { &tf.reads };
                for (region, set) in rs.iter() {
                    let e = out
                        .entry((sf.index, tid, format!("{region:?}")))
                        .or_default();
                    set.for_each(|x| {
                        e.insert(x);
                    });
                }
            }
        }
        out
    }

    #[test]
    fn footprints_equal_traced_access_sets() {
        use spiral_codegen::plan::Plan;
        let cases: Vec<Plan> = vec![
            Plan::from_formula(&sequential_dft(64, 8), 1, 4).unwrap(),
            Plan::from_formula(&multicore_dft_expanded(64, 2, 4, None, 8).unwrap(), 2, 4).unwrap(),
            Plan::from_formula(&multicore_dft_expanded(256, 4, 4, None, 8).unwrap(), 4, 4).unwrap(),
            Plan::from_formula(&multicore_dft_expanded(256, 2, 4, None, 8).unwrap(), 2, 4)
                .unwrap()
                .fuse_exchanges(),
            Plan::from_formula(&multicore_dft_expanded(1024, 4, 8, None, 8).unwrap(), 4, 8)
                .unwrap()
                .fuse_exchanges(),
            scale_tail_plan(),
        ];
        for plan in &cases {
            let mut hook = SetHook::default();
            plan.run_traced(&mut hook);
            let fps = plan_footprints(plan);
            assert_eq!(
                footprint_sets(&fps, false),
                hook.reads,
                "reads n={}",
                plan.n
            );
            assert_eq!(
                footprint_sets(&fps, true),
                hook.writes,
                "writes n={}",
                plan.n
            );
            // Per-thread flops agree step by step.
            for sf in &fps {
                for (tid, tf) in sf.threads.iter().enumerate() {
                    let traced = hook.flops.get(&(sf.index, tid)).copied().unwrap_or(0);
                    assert_eq!(tf.flops, traced, "step {} tid {tid}", sf.index);
                }
            }
        }
    }

    /// `diag(6 entries) ∘ (I_2 ⊗∥ DFT_3)` on 2 threads with µ = 4: a `Par`
    /// step, then a `ScaleAll` step of one whole line and a 2-element
    /// tail.
    fn scale_tail_plan() -> Plan {
        use spiral_spl::builder::{compose, dft, diag, tensor_par};
        let w = (0..6)
            .map(|k| spiral_spl::cplx::Cplx::new(1.0 + k as f64, -0.5))
            .collect();
        Plan::from_formula(&compose(vec![diag(w), tensor_par(2, dft(3))]), 2, 4).unwrap()
    }

    #[test]
    fn last_thread_writes_the_scale_tail() {
        let plan = scale_tail_plan();
        assert!(matches!(
            plan.steps[..],
            [Step::Par { .. }, Step::ScaleAll(_)]
        ));
        let fps = plan_footprints(&plan);
        let mut written = Vec::new();
        if let Some(set) = fps[1].threads[1].writes.get(Region::BufA) {
            set.for_each(|e| written.push(e));
        }
        assert_eq!(written, [4, 5]);
        let report = crate::verify_plan(&plan, &crate::VerifyOptions::default());
        assert!(
            !report.has_kind(crate::DiagKind::IncompleteWrite),
            "{:?}",
            report.diagnostics
        );
    }
}
