//! Executable plans: the compiled form of a formula.
//!
//! A [`Plan`] is a sequence of [`Step`]s over ping-pong buffers. The
//! top-level parallel structure of a fully-optimized formula maps 1:1:
//!
//! * `I_p ⊗∥ A`  → [`Step::Par`] with `p` identical chunk programs,
//! * `⊕∥ A_i`    → [`Step::Par`] with per-chunk programs,
//! * `P ⊗̄ I_µ`   → [`Step::Exchange`] (cache-line-granular data exchange),
//! * diagonals    → [`Step::ScaleAll`],
//! * anything sequential → [`Step::Seq`].
//!
//! Between steps the executor synchronizes (one barrier per step) — the
//! only synchronization the generated programs need.

use crate::fuse::fuse;
use crate::hook::{MemHook, Region};
use crate::lower::{lower_seq, LowerError};
use crate::stage::{Buf, KernelStage, LocalProgram};
use spiral_smp::align::AlignedVec;
use spiral_smp::SpiralError;
use spiral_spl::ast::Spl;
use spiral_spl::cplx::Cplx;
use spiral_spl::perm::Perm;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// One synchronization-delimited step of a plan.
#[derive(Clone, Debug)]
pub enum Step {
    /// Sequential program over the whole vector (runs on thread 0).
    Seq(LocalProgram),
    /// `programs.len()` independent contiguous chunks of size `chunk`;
    /// chunk `c` runs `programs[c]` (thread `c mod threads`). If
    /// `gather` is set, chunk `c`'s logical input `i` is read directly
    /// from the *global* source buffer at `gather[c·chunk + i]` — a
    /// `P ⊗̄ I_µ` exchange merged into this compute step
    /// ([`Plan::fuse_exchanges`]).
    Par {
        /// Size of each contiguous chunk.
        chunk: usize,
        /// Per-chunk programs (`len` = chunk count).
        programs: Vec<LocalProgram>,
        /// Optional fused global-gather table (size `n`).
        gather: Option<Arc<Vec<u32>>>,
    },
    /// Global permutation `dst[i] = src[table[i]]` that moves whole
    /// `mu`-element blocks (a `P ⊗̄ I_µ` — no false sharing by
    /// construction). Split across threads by blocks.
    Exchange {
        /// Gather table: `dst[i] = src[table[i]]`.
        table: Arc<Vec<u32>>,
        /// Block granularity (whole `mu`-element lines move together).
        mu: usize,
    },
    /// Global pointwise scaling (unfused diagonal).
    ScaleAll(Arc<Vec<Cplx>>),
}

/// Thread `tid`'s part of one step under the static schedule
/// ([`Step::portion`]).
#[derive(Clone, Debug)]
pub enum Portion<'a> {
    /// Chunk programs: chunk `c` runs `programs[c]` from the source
    /// (read through the global `gather` table when set) into output
    /// elements `c·chunk ..`; the thread runs the chunks
    /// `c ≡ tid (mod threads)` ([`chunks`](Self::chunks)).
    Chunks {
        /// Size of each chunk.
        chunk: usize,
        /// Every chunk program of the step.
        programs: &'a [LocalProgram],
        /// Fused global-gather table of the step, if any.
        gather: Option<&'a [u32]>,
        /// The thread.
        tid: usize,
        /// Threads the step is split over.
        threads: usize,
    },
    /// A contiguous range of output elements, each computed by `op`.
    Elements {
        /// Output elements the thread writes.
        range: Range<usize>,
        /// Line length the range is cut in.
        line: usize,
        /// What each element is.
        op: ElementOp<'a>,
    },
}

/// The per-element operation of a [`Portion::Elements`].
#[derive(Copy, Clone, Debug)]
pub enum ElementOp<'a> {
    /// `dst[i] = src[table[i]]` (an exchange).
    Gather(&'a [u32]),
    /// `dst[i] = src[i] · w[i]` (a scaling).
    Scale(&'a [Cplx]),
}

impl ElementOp<'_> {
    /// Real flops of `count` elements.
    pub fn flops(&self, count: usize) -> u64 {
        match self {
            ElementOp::Gather(_) => 0,
            ElementOp::Scale(_) => 6 * count as u64,
        }
    }
}

impl<'a> Portion<'a> {
    /// The chunk programs the thread runs, as `(chunk index, program)`
    /// in chunk order; none for an element range.
    pub fn chunks(&self) -> impl Iterator<Item = (usize, &'a LocalProgram)> {
        let (programs, tid, threads) = match *self {
            Portion::Chunks {
                programs,
                tid,
                threads,
                ..
            } => (programs, tid, threads),
            Portion::Elements { .. } => (&[][..], 0, 1),
        };
        programs.iter().enumerate().skip(tid).step_by(threads)
    }

    /// The output ranges the thread writes, in order.
    pub fn writes(&self) -> impl Iterator<Item = Range<usize>> + 'a {
        let (chunk, range) = match self {
            Portion::Chunks { chunk, .. } => (*chunk, None),
            Portion::Elements { range, .. } => (0, Some(range.clone())),
        };
        self.chunks()
            .map(move |(c, _)| c * chunk..(c + 1) * chunk)
            .chain(range)
    }

    /// `(jobs, elements)`: the schedulable units the thread runs (chunks,
    /// or lines begun) and the output elements it writes.
    pub fn stats(&self) -> (u64, u64) {
        let jobs = match self {
            Portion::Chunks { .. } => self.chunks().count(),
            Portion::Elements { range, line, .. } => range.len().div_ceil(*line),
        };
        let elements: usize = self.writes().map(|r| r.len()).sum();
        (jobs as u64, elements as u64)
    }
}

/// Output elements of thread `tid` of `threads` in an element step of
/// size `n`: a contiguous share of the whole lines, and the sub-line tail
/// on the last thread, so no two threads write to one line.
fn line_range(n: usize, line: usize, tid: usize, threads: usize) -> Range<usize> {
    let (lo, hi) = share(n / line, threads, tid);
    let hi = if tid + 1 == threads { n } else { hi * line };
    lo * line..hi
}

impl Step {
    /// Real flops of this step for a size-`n` plan.
    pub fn flops(&self, n: usize) -> u64 {
        match self {
            Step::Seq(p) => p.flops(),
            Step::Par { programs, .. } => programs.iter().map(|p| p.flops()).sum(),
            Step::Exchange { .. } => 0,
            Step::ScaleAll(_) => 6 * n as u64,
        }
    }

    /// Short stage-IR label of this step, used by the observability
    /// layer (`spiral-trace`) to annotate per-stage profiles.
    pub fn label(&self) -> String {
        fn vec_mark(programs: &[&LocalProgram]) -> &'static str {
            let vectored = programs
                .iter()
                .any(|p| p.stages.iter().any(|k| k.vec_width > 1));
            if vectored {
                "+vec"
            } else {
                ""
            }
        }
        match self {
            Step::Seq(p) => format!("seq{}", vec_mark(&[p])),
            Step::Par {
                chunk,
                programs,
                gather,
            } => {
                let refs: Vec<&LocalProgram> = programs.iter().collect();
                let base = format!("par[{}x{}]{}", programs.len(), chunk, vec_mark(&refs));
                if gather.is_some() {
                    format!("{base}+gather")
                } else {
                    base
                }
            }
            Step::Exchange { mu, .. } => format!("exchange(mu={mu})"),
            Step::ScaleAll(_) => "scale".to_string(),
        }
    }

    /// Thread `tid`'s part of this step when a size-`n` plan with line
    /// length `plan_mu` runs on `threads` threads: the one definition of
    /// the static schedule, read by the executor, the tracer
    /// ([`Plan::run_traced`]), `spiral-verify`'s footprints and the C
    /// emitter. A `Seq` step is one chunk of size `n`, so thread 0 runs
    /// it. A `Par` step's chunk `c` runs on thread `c mod threads`. An
    /// `Exchange` is split by its own block size and a `ScaleAll` by
    /// `plan_mu`, in whole lines (`line_range`).
    pub fn portion(&self, n: usize, plan_mu: usize, tid: usize, threads: usize) -> Portion<'_> {
        let (chunk, programs, gather) = match self {
            Step::Seq(p) => (n, std::slice::from_ref(p), None),
            Step::Par {
                chunk,
                programs,
                gather,
            } => (
                *chunk,
                programs.as_slice(),
                gather.as_deref().map(Vec::as_slice),
            ),
            Step::Exchange { table, mu } => {
                let line = (*mu).max(1);
                return Portion::Elements {
                    range: line_range(n, line, tid, threads),
                    line,
                    op: ElementOp::Gather(table),
                };
            }
            Step::ScaleAll(w) => {
                let line = plan_mu.max(1);
                return Portion::Elements {
                    range: line_range(n, line, tid, threads),
                    line,
                    op: ElementOp::Scale(w),
                };
            }
        };
        Portion::Chunks {
            chunk,
            programs,
            gather,
            tid,
            threads,
        }
    }
}

/// The integers a structural cost model reads off a plan. A lowered
/// plan reports its own ([`Plan::shape`]); a search can also compute
/// the same summary from a formula's structure without building any
/// tables ([`PlanShape::sequential`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PlanShape {
    /// Transform size.
    pub n: usize,
    /// Total real flops of one execution ([`Plan::flops`]).
    pub flops: u64,
    /// Flops inside vector-marked kernel stages ([`Plan::vec_flops`]).
    pub vec_flops: u64,
    /// Synchronization-delimited steps ([`Plan::barriers`]).
    pub steps: usize,
    /// Lane width ν of the vector-marked stages (1 = scalar).
    pub vec_width: usize,
    /// Threads the plan runs on ([`Plan::threads`]).
    pub threads: usize,
}

impl PlanShape {
    /// Shape of an untagged sequential formula with at least one kernel
    /// and `flops` real flops: [`Plan::from_formula`] fuses it into one
    /// scalar [`Step::Seq`].
    pub fn sequential(n: usize, flops: u64) -> PlanShape {
        PlanShape {
            n,
            flops,
            vec_flops: 0,
            steps: 1,
            vec_width: 1,
            threads: 1,
        }
    }
}

/// A compiled transform.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Transform size.
    pub n: usize,
    /// Thread count the parallel schedule targets (1 = sequential).
    pub threads: usize,
    /// Cache-line length in elements (µ) the plan was generated for.
    pub mu: usize,
    /// Lane width ν of the short-vector backend the plan's kernel stages
    /// were marked for (1 = scalar; set from the formula's `vec(ν)` tag
    /// when at least one stage passed the alignment preconditions).
    pub vec_width: usize,
    /// The synchronization-delimited steps, in execution order.
    pub steps: Vec<Step>,
}

impl Plan {
    /// Compile a formula. The formula must be fully expanded (codelet-size
    /// `DFT` leaves only). `threads` is the worker count the parallel
    /// schedule assumes; pass 1 for sequential formulas.
    pub fn from_formula(f: &Spl, threads: usize, mu: usize) -> Result<Plan, LowerError> {
        let f = f.normalized();
        let mut plan = Plan::lower_normalized(&f, threads, mu)?;
        // Put the loops of each strided scalar stage in stride order; the
        // tables follow through the per-loop twiddle strides.
        for k in kernels_mut(&mut plan.steps) {
            k.order_loops();
        }
        // Honor the widest vec(ν) tag after fusion settled the final loop
        // nests: qualifying stages switch to the ν-lane path, the rest
        // stay scalar (partial vectorization is the normal case).
        let nu = f.vec_width();
        if nu > 1 {
            let _ = crate::vectorize::vectorize_plan(&mut plan, nu);
        }
        Ok(plan)
    }

    /// The plan [`from_formula`](Self::from_formula) builds before its
    /// loop-order and vectorize passes: lowered, fused, with compact
    /// twiddle tables, every loop nest in lowering order and no stage
    /// vector-marked. Tests and the simulator compare the chosen loop
    /// order against this one.
    pub fn lowered(f: &Spl, threads: usize, mu: usize) -> Result<Plan, LowerError> {
        Plan::lower_normalized(&f.normalized(), threads, mu)
    }

    fn lower_normalized(f: &Spl, threads: usize, mu: usize) -> Result<Plan, LowerError> {
        let mut steps = Vec::new();
        if has_parallel_construct(f) {
            push_steps(f, &mut steps)?;
        } else {
            // Purely sequential formula: lower the whole thing into one
            // fused program so every permutation and diagonal merges into
            // a compute loop (no standalone data passes).
            let prog = fuse(lower_seq(f)?);
            if !prog.stages.is_empty() {
                steps.push(Step::Seq(prog));
            }
        }
        let mut steps = merge_par_steps(steps);
        // Tables are final once fusion is done: store one twiddle row per
        // value of the loops they vary with, before the vectorize pass
        // lane-groups them.
        for k in kernels_mut(&mut steps) {
            k.compact_twiddles();
        }
        Ok(Plan {
            n: f.dim(),
            threads: threads.max(1),
            mu: mu.max(1),
            vec_width: 1,
            steps,
        })
    }

    /// Total real flops of one execution.
    pub fn flops(&self) -> u64 {
        self.steps.iter().map(|s| s.flops(self.n)).sum()
    }

    /// Flops executed inside vector-marked kernel stages (a subset of
    /// [`flops`](Self::flops)). Cost models use this to credit ν-lane
    /// throughput to exactly the stages the vectorize pass proved
    /// aligned, rather than to the whole plan.
    pub fn vec_flops(&self) -> u64 {
        fn prog(p: &LocalProgram) -> u64 {
            p.stages
                .iter()
                .filter(|k| k.vec_width > 1)
                .map(KernelStage::flops)
                .sum()
        }
        self.steps
            .iter()
            .map(|s| match s {
                Step::Seq(p) => prog(p),
                Step::Par { programs, .. } => programs.iter().map(prog).sum(),
                Step::Exchange { .. } | Step::ScaleAll(_) => 0,
            })
            .sum()
    }

    /// The structural summary a cost model reads ([`PlanShape`]).
    pub fn shape(&self) -> PlanShape {
        PlanShape {
            n: self.n,
            flops: self.flops(),
            vec_flops: self.vec_flops(),
            steps: self.steps.len(),
            vec_width: self.vec_width,
            threads: self.threads,
        }
    }

    /// Merge every `Exchange` step into the immediately following `Par`
    /// step as a direct global gather — the cross-boundary half of the
    /// paper's loop merging: `P ⊗̄ I_µ` permutations are "not performed
    /// explicitly, but folded with adjacent computation" (§3.1). Removes
    /// one barrier and one full data pass per fused exchange.
    pub fn fuse_exchanges(mut self) -> Plan {
        let mut out: Vec<Step> = Vec::with_capacity(self.steps.len());
        // An exchange not yet placed, with its own block granularity.
        let mut pending: Option<(Arc<Vec<u32>>, usize)> = None;
        for step in self.steps.drain(..) {
            match (pending.take(), step) {
                (None, Step::Exchange { table, mu }) => pending = Some((table, mu)),
                (
                    Some((table, _)),
                    Step::Par {
                        chunk,
                        programs,
                        gather: None,
                    },
                ) => out.push(Step::Par {
                    chunk,
                    programs,
                    gather: Some(table),
                }),
                (Some((prev, prev_mu)), Step::Exchange { table, mu }) => {
                    // Two exchanges in a row: compose, keep pending. The
                    // composition moves whole blocks of the smaller µ
                    // (block sizes are powers of two, so it divides the
                    // larger).
                    let composed: Vec<u32> = table.iter().map(|&i| prev[i as usize]).collect();
                    pending = Some((Arc::new(composed), prev_mu.min(mu)));
                }
                (Some((table, mu)), other) => {
                    // Cannot fuse into this step: emit the exchange as is.
                    out.push(Step::Exchange { table, mu });
                    out.push(other);
                }
                (None, other) => out.push(other),
            }
        }
        if let Some((table, mu)) = pending {
            out.push(Step::Exchange { table, mu });
        }
        Plan { steps: out, ..self }
    }

    /// Number of synchronization points (barriers) per execution.
    pub fn barriers(&self) -> usize {
        self.steps.len()
    }

    /// [`Step::label`] of every step, in plan order (the stage names of
    /// per-stage profiles and exported timelines).
    pub fn stage_labels(&self) -> Vec<String> {
        self.steps.iter().map(Step::label).collect()
    }

    /// Elements of private scratch a thread needs: the largest dimension
    /// of a chunk program with a pass that reads or writes `Tmp`
    /// ([`LocalProgram::uses_tmp`]), or 0 when no pass does.
    pub fn tmp_dim(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| match s {
                Step::Seq(p) => std::slice::from_ref(p),
                Step::Par { programs, .. } => programs.as_slice(),
                Step::Exchange { .. } | Step::ScaleAll(_) => &[],
            })
            .filter(|p| p.uses_tmp())
            .map(|p| p.dim)
            .max()
            .unwrap_or(0)
    }

    /// Reference sequential execution (single thread, same schedule).
    /// Runs [`execute_into`](Self::execute_into) in the calling thread's
    /// own workspace, so a warm call allocates only the returned vector.
    pub fn execute(&self, x: &[Cplx]) -> Vec<Cplx> {
        let mut out = vec![Cplx::ZERO; self.n];
        PlanWorkspace::with_thread_local(|ws| self.execute_into(x, &mut out, ws));
        out
    }

    /// Reference sequential execution into a caller-owned output slice,
    /// reusing `ws` across calls. This is the allocation-free core of
    /// [`execute`](Self::execute) and the one-thread case of the
    /// executor's step loop ([`crate::Executor::try_run`] runs every row
    /// of a 1-thread plan through it): re-running the same plan over many
    /// inputs touches only `x`, `out` and one workspace buffer, so
    /// repeated transforms pay no per-call allocation and no copy in or
    /// out. Step 0 reads `x`, and the steps alternate between the
    /// workspace and `out` so that the last one writes `out`.
    pub fn execute_into(&self, x: &[Cplx], out: &mut [Cplx], ws: &mut PlanWorkspace) {
        crate::executor::run_into(self, x, out, ws, &());
    }

    /// Replay the parallel execution schedule into a [`MemHook`]: which
    /// thread touches which element of which buffer, in step order, with
    /// a barrier after every step. No values are computed — all access
    /// patterns are static. Each step replays the threads' portions
    /// ([`Step::portion`]): chunk programs in chunk order, the way the
    /// threads interleave them, and element ranges thread by thread.
    pub fn run_traced(&self, hook: &mut dyn MemHook) {
        let (mut src, mut dst) = (Region::BufA, Region::BufB);
        for step in &self.steps {
            let mut chunks = Vec::new();
            for tid in 0..self.threads {
                let portion = step.portion(self.n, self.mu, tid, self.threads);
                match &portion {
                    Portion::Chunks { chunk, gather, .. } => chunks.extend(
                        portion
                            .chunks()
                            .map(|(c, prog)| (c, tid, prog, c * chunk, *gather)),
                    ),
                    Portion::Elements { range, op, .. } => {
                        for e in range.clone() {
                            let from = match op {
                                ElementOp::Gather(table) => table[e] as usize,
                                ElementOp::Scale(_) => e,
                            };
                            hook.read(tid, src, from);
                            hook.write(tid, dst, e);
                        }
                        hook.flops(tid, op.flops(range.len()));
                    }
                }
            }
            chunks.sort_by_key(|&(c, ..)| c);
            for (_, tid, prog, off, gather) in chunks {
                trace_chunk(prog, tid, src, dst, off, gather, hook);
            }
            hook.barrier();
            std::mem::swap(&mut src, &mut dst);
        }
    }
}

/// Reusable buffers of one thread's plan runs: the step buffer that
/// alternates with the output in plans of two or more steps, cache-line
/// aligned because the threads of a `p`-thread run write it in
/// line-sized portions, and the scratch of programs whose passes use
/// `Tmp` ([`Plan::tmp_dim`]). Sized lazily to the largest need seen, so
/// one workspace serves any mix of plans; a plan that needs neither
/// leaves it empty.
pub struct PlanWorkspace {
    pub(crate) a: AlignedVec<Cplx>,
    pub(crate) tmp: Vec<Cplx>,
}

impl Default for PlanWorkspace {
    fn default() -> PlanWorkspace {
        PlanWorkspace {
            a: AlignedVec::new(0),
            tmp: Vec::new(),
        }
    }
}

impl PlanWorkspace {
    /// Run `f` with the calling thread's own workspace. It lives as long
    /// as the thread and never shrinks: it keeps the buffers of the
    /// largest plan that thread has run.
    pub(crate) fn with_thread_local<R>(f: impl FnOnce(&mut PlanWorkspace) -> R) -> R {
        thread_local! {
            static WS: RefCell<PlanWorkspace> = RefCell::new(PlanWorkspace::default());
        }
        WS.with_borrow_mut(f)
    }

    /// Grow the step buffer to fit `plan` (never shrinks); `Err(Alloc)`
    /// when the allocation fails.
    pub(crate) fn fit_a(&mut self, plan: &Plan) -> Result<(), SpiralError> {
        if plan.steps.len() > 1 && self.a.len() < plan.n {
            self.a = AlignedVec::try_with_alignment(plan.n, spiral_smp::CACHE_LINE_BYTES)?;
        }
        Ok(())
    }

    /// Grow the scratch to `len` elements, a plan's
    /// [`tmp_dim`](Plan::tmp_dim) (never shrinks).
    pub(crate) fn fit_tmp(&mut self, len: usize) {
        if self.tmp.len() < len {
            self.tmp.resize(len, Cplx::ZERO);
        }
    }

    /// Elements the workspace holds: the step buffer plus the scratch.
    pub fn held(&self) -> usize {
        self.a.len() + self.tmp.len()
    }
}

/// A plan validator: `Err(description)` when `plan` violates the
/// executor's soundness contract (races, out-of-bounds accesses, or a
/// dataflow-certification failure).
pub type PlanValidator = fn(&Plan) -> Result<(), String>;

static VALIDATOR: OnceLock<PlanValidator> = OnceLock::new();

/// Install the process-wide plan validator. The executor's `unsafe`
/// shared-buffer access is sound only for plans whose steps write
/// thread-disjoint, in-bounds index sets. That property is checked
/// statically by the `spiral-verify` crate, which sits *above* this one
/// in the dependency graph — so the check is wired in through this
/// registry instead of a direct call: a downstream crate installs a
/// validator once (e.g. `spiral_verify::install_executor_guard()`), and
/// debug builds of [`crate::Executor::try_run`] then run it on every
/// plan, on every path, before touching any buffer. The first installation wins;
/// later calls are ignored (the registry is write-once).
pub fn install_validator(v: PlanValidator) {
    let _ = VALIDATOR.set(v);
}

/// The installed validator, if any.
pub fn validator() -> Option<PlanValidator> {
    VALIDATOR.get().copied()
}

/// Contiguous share `[lo, hi)` of `total` items for thread `tid` of `p`.
pub(crate) fn share(total: usize, p: usize, tid: usize) -> (usize, usize) {
    let base = total / p;
    let rem = total % p;
    let lo = tid * base + tid.min(rem);
    let hi = lo + base + usize::from(tid < rem);
    (lo, hi)
}

/// Replay one chunk program of thread `tid`: it reads `src` at `off + i`,
/// or at `gather[off + i]` when the step has a fused gather, and writes
/// `dst` at `off + i`, its passes reading and writing `Dst` and the
/// thread's `Tmp` region by the [`LocalProgram::passes`] rule.
fn trace_chunk(
    prog: &LocalProgram,
    tid: usize,
    src: Region,
    dst: Region,
    off: usize,
    gather: Option<&[u32]>,
    hook: &mut dyn MemHook,
) {
    let at = |buf: Buf, idx: usize| match buf {
        Buf::Src => (src, gather.map_or(off + idx, |g| g[off + idx] as usize)),
        Buf::Tmp => (Region::Tmp(tid), idx),
        Buf::Dst => (dst, off + idx),
    };
    if prog.stages.is_empty() {
        for i in 0..prog.dim {
            let (r, e) = at(Buf::Src, i);
            hook.read(tid, r, e);
            let (r, e) = at(Buf::Dst, i);
            hook.write(tid, r, e);
        }
        return;
    }
    for (stage, input, output) in prog.passes() {
        stage.trace(|is_write, idx| {
            if is_write {
                let (r, e) = at(output, idx);
                hook.write(tid, r, e);
            } else {
                let (r, e) = at(input, idx);
                hook.read(tid, r, e);
            }
        });
        hook.flops(tid, stage.flops());
    }
}

/// Merge adjacent `Par` steps with identical chunking: their chunk
/// programs concatenate and re-fuse, removing a barrier and (after
/// fusion) whole data passes. This is the step-level face of the paper's
/// loop merging — e.g. in formula (14) the local stride permutation
/// `I_p ⊗∥ L` and the twiddle `⊕∥ D_i` merge into the adjacent compute
/// stages.
fn merge_par_steps(steps: Vec<Step>) -> Vec<Step> {
    let mut out: Vec<Step> = Vec::new();
    for s in steps {
        let merged = match (out.last_mut(), &s) {
            (
                Some(Step::Par {
                    chunk: c1,
                    programs: p1,
                    gather: _,
                }),
                Step::Par {
                    chunk: c2,
                    programs: p2,
                    gather: None,
                },
            ) if *c1 == *c2 && p1.len() == p2.len() => {
                for (a, b) in p1.iter_mut().zip(p2) {
                    let mut combined = a.clone();
                    combined.stages.extend(b.stages.iter().cloned());
                    *a = fuse(combined);
                }
                true
            }
            _ => false,
        };
        if !merged {
            out.push(s);
        }
    }
    out
}

/// Every kernel stage of every step.
pub(crate) fn kernels_mut(steps: &mut [Step]) -> impl Iterator<Item = &mut KernelStage> {
    steps
        .iter_mut()
        .flat_map(|step| match step {
            Step::Seq(p) => std::slice::from_mut(p),
            Step::Par { programs, .. } => programs.as_mut_slice(),
            Step::Exchange { .. } | Step::ScaleAll(_) => &mut [],
        })
        .flat_map(|p| &mut p.stages)
}

fn has_parallel_construct(f: &Spl) -> bool {
    matches!(
        f,
        Spl::TensorPar { .. } | Spl::DirectSumPar(_) | Spl::PermBar { .. }
    ) || f.children().iter().any(|c| has_parallel_construct(c))
}

fn push_steps(f: &Spl, steps: &mut Vec<Step>) -> Result<(), LowerError> {
    match f {
        Spl::Compose(fs) => {
            for factor in fs.iter().rev() {
                push_steps(factor, steps)?;
            }
            Ok(())
        }
        Spl::I(_) => Ok(()),
        Spl::TensorPar { p, a } => {
            let prog = fuse(lower_seq(a)?);
            steps.push(Step::Par {
                chunk: a.dim(),
                programs: vec![prog; *p],
                gather: None,
            });
            Ok(())
        }
        Spl::DirectSumPar(blocks) => {
            let d0 = blocks[0].dim();
            if blocks.iter().any(|b| b.dim() != d0) {
                return Err(LowerError(
                    "parallel direct sum with unequal blocks".to_string(),
                ));
            }
            let programs: Result<Vec<_>, _> =
                blocks.iter().map(|b| lower_seq(b).map(fuse)).collect();
            steps.push(Step::Par {
                chunk: d0,
                programs: programs?,
                gather: None,
            });
            Ok(())
        }
        Spl::PermBar { perm, mu } => {
            let full = Perm::TensorId(Box::new(perm.clone()), *mu);
            let table: Vec<u32> = full.table().iter().map(|&v| crate::u32_idx(v)).collect();
            steps.push(Step::Exchange {
                table: Arc::new(table),
                mu: *mu,
            });
            Ok(())
        }
        Spl::Perm(p) => {
            let table: Vec<u32> = p.table().iter().map(|&v| crate::u32_idx(v)).collect();
            steps.push(Step::Exchange {
                table: Arc::new(table),
                mu: 1,
            });
            Ok(())
        }
        Spl::Diag(d) => {
            steps.push(Step::ScaleAll(Arc::new(d.entries())));
            Ok(())
        }
        Spl::Vec { a, .. } => push_steps(a, steps),
        other => {
            let prog = fuse(lower_seq(other)?);
            if !prog.stages.is_empty() {
                steps.push(Step::Seq(prog));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::CountingHook;
    use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(1.0 + j as f64, -0.5 * j as f64))
            .collect()
    }

    #[test]
    fn sequential_plan_computes_dft() {
        for n in [8usize, 16, 32, 64, 128, 24, 48] {
            let f = sequential_dft(n, 8);
            let plan = Plan::from_formula(&f, 1, 4).unwrap();
            let x = ramp(n);
            assert_slices_close(&plan.execute(&x), &dft(n).eval(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn parallel_plan_computes_dft() {
        for (n, p) in [(64usize, 2usize), (1024, 4), (256, 2), (256, 4), (1024, 2)] {
            let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, p, 4).unwrap();
            let x = ramp(n);
            assert_slices_close(&plan.execute(&x), &dft(n).eval(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn parallel_plan_structure_matches_formula_14() {
        // 7 factors of (14): 3 `P ⊗̄ I_µ` exchanges stay explicit; the
        // 4 parallel factors (2 compute, twiddle, local stride perm)
        // merge into 2 fused parallel compute steps.
        let f = multicore_dft_expanded(64, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        let pars = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Par { .. }))
            .count();
        let exch = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Exchange { .. }))
            .count();
        assert_eq!(exch, 3, "three P ⊗̄ I_µ exchanges");
        assert_eq!(pars, 2, "parallel factors merged into two compute steps");
        assert_eq!(plan.steps.len(), 5);
        assert!(
            plan.steps.iter().all(|s| !matches!(s, Step::Seq(_))),
            "no sequential step in a fully optimized plan"
        );
    }

    #[test]
    fn exchanges_are_line_granular() {
        let mu = 4;
        let f = multicore_dft_expanded(256, 2, mu, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, mu).unwrap();
        for step in &plan.steps {
            if let Step::Exchange { table, mu: m } = step {
                assert_eq!(*m, mu);
                // Whole lines move together.
                for blk in 0..table.len() / mu {
                    let base = table[blk * mu];
                    assert_eq!(base as usize % mu, 0);
                    for t in 1..mu {
                        assert_eq!(table[blk * mu + t], base + crate::u32_idx(t));
                    }
                }
            }
        }
    }

    #[test]
    fn flops_match_formula_accounting() {
        let f = sequential_dft(64, 8);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        assert!(plan.flops() > 0);
        // 5 n log n is the nominal FFT cost; generated code with fused
        // twiddles stays within a small factor.
        let nominal = 5.0 * 64.0 * 6.0;
        let actual = plan.flops() as f64;
        assert!(
            actual < 4.0 * nominal,
            "flops {actual} vs nominal {nominal}"
        );
    }

    #[test]
    fn traced_execution_covers_all_data_and_barriers() {
        let p = 2;
        let n = 64;
        let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, p, 4).unwrap();
        let mut hook = CountingHook::default();
        plan.run_traced(&mut hook);
        assert_eq!(usize::try_from(hook.barriers).unwrap(), plan.steps.len());
        assert!(hook.reads >= n as u64 * plan.steps.len() as u64 / 2);
        assert_eq!(hook.flops, plan.flops());
        // Work split evenly between both threads.
        let w0 = hook.per_tid_flops.get(&0).copied().unwrap_or(0);
        let w1 = hook.per_tid_flops.get(&1).copied().unwrap_or(0);
        assert_eq!(w0, w1, "unbalanced trace: {w0} vs {w1}");
    }

    #[test]
    fn fuse_exchanges_preserves_semantics() {
        for (n, p) in [(64usize, 2usize), (256, 2), (256, 4), (1024, 2)] {
            let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
            let plan = Plan::from_formula(&f, p, 4).unwrap();
            let fused = plan.clone().fuse_exchanges();
            let x = ramp(n);
            assert_slices_close(&fused.execute(&x), &plan.execute(&x), 1e-12);
        }
    }

    #[test]
    fn fuse_exchanges_removes_barriers() {
        // Formula (14): [Exch, Par, Exch, Par, Exch] → [Par+g, Par+g, Exch]
        let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        assert_eq!(plan.steps.len(), 5);
        let fused = plan.fuse_exchanges();
        assert_eq!(
            fused.steps.len(),
            3,
            "expected 2 fused Par + trailing Exchange"
        );
        let gathered = fused
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Step::Par {
                        gather: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(gathered, 2);
        assert!(matches!(fused.steps.last(), Some(Step::Exchange { .. })));
    }

    #[test]
    fn fuse_exchanges_keeps_each_exchange_granularity() {
        // A µ = 1 permutation with nothing to fuse into stays µ = 1: at
        // the plan's µ = 4 it would move only ⌊6/4⌋·4 of the 6 elements.
        let f = spiral_spl::builder::compose(vec![
            spiral_spl::builder::stride(6, 2),
            spiral_spl::builder::tensor_par(2, dft(3)),
        ]);
        let fused = Plan::from_formula(&f, 2, 4).unwrap().fuse_exchanges();
        assert!(matches!(
            fused.steps.last(),
            Some(Step::Exchange { mu: 1, .. })
        ));
        let x = ramp(6);
        let want = f.eval(&x);
        assert_slices_close(&fused.execute(&x), &want, 1e-12);
        let mut got = vec![Cplx::ZERO; 6];
        let exec = crate::Executor::new(2);
        exec.try_run(&fused, &[&x], &mut [&mut got], &()).unwrap();
        assert_slices_close(&got, &want, 1e-12);
    }

    #[test]
    fn execute_into_reads_input_in_place_for_any_step_count() {
        // Step 0 reads `x`, targets alternate between `out` and the
        // workspace so the last step lands in `out`: check 0..=4 steps.
        let n = 8;
        let perm = spiral_spl::builder::stride(n, 2);
        let x = ramp(n);
        let mut ws = PlanWorkspace::default();
        for steps in 0..=4 {
            let f = spiral_spl::builder::compose(
                std::iter::repeat_n(perm.clone(), steps)
                    .chain([spiral_spl::builder::i(n)])
                    .collect(),
            );
            // Unmerged steps: one µ = 1 exchange per permutation.
            let mut plan_steps = Vec::new();
            push_steps(&f, &mut plan_steps).unwrap();
            let plan = Plan {
                n,
                threads: 1,
                mu: 1,
                vec_width: 1,
                steps: plan_steps,
            };
            assert_eq!(plan.steps.len(), steps);
            let mut out = vec![Cplx::ZERO; n];
            plan.execute_into(&x, &mut out, &mut ws);
            assert_slices_close(&out, &f.eval(&x), 0.0);
        }
    }

    #[test]
    fn fused_trace_covers_everything() {
        let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&f, 2, 4).unwrap().fuse_exchanges();
        let mut hook = CountingHook::default();
        plan.run_traced(&mut hook);
        assert_eq!(usize::try_from(hook.barriers).unwrap(), plan.steps.len());
        assert_eq!(hook.flops, plan.flops());
        let w0 = hook.per_tid_flops.get(&0).copied().unwrap_or(0);
        let w1 = hook.per_tid_flops.get(&1).copied().unwrap_or(0);
        assert_eq!(w0, w1);
    }

    #[test]
    fn share_splits_exactly() {
        for total in [0usize, 1, 7, 64, 100] {
            for p in [1usize, 2, 3, 4] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for tid in 0..p {
                    let (lo, hi) = share(total, p, tid);
                    assert_eq!(lo, prev_hi);
                    prev_hi = hi;
                    covered += hi - lo;
                }
                assert_eq!(covered, total);
                assert_eq!(prev_hi, total);
            }
        }
    }

    /// Every step kind over n ∈ 1..=40, µ ∈ {1, 2, 4, 8} and 1..=4
    /// threads: the threads' output ranges partition `0..n`, and each
    /// element range starts on a line boundary.
    #[test]
    fn portions_partition_every_step() {
        for n in 1..=40usize {
            for mu in [1usize, 2, 4, 8] {
                let mut steps = vec![
                    Step::Seq(LocalProgram::identity(n)),
                    Step::Exchange {
                        table: Arc::new((0..crate::u32_idx(n)).collect()),
                        mu,
                    },
                    Step::ScaleAll(Arc::new(vec![Cplx::ONE; n])),
                ];
                steps.extend((1..=n).filter(|d| n % d == 0).map(|d| Step::Par {
                    chunk: d,
                    programs: vec![LocalProgram::identity(d); n / d],
                    gather: None,
                }));
                for step in &steps {
                    for threads in 1..=4usize {
                        let mut ranges = Vec::new();
                        for tid in 0..threads {
                            let portion = step.portion(n, mu, tid, threads);
                            if let Portion::Elements { range, line, .. } = &portion {
                                assert_eq!(range.start % line, 0, "n={n} mu={mu} tid={tid}");
                            }
                            let (_, elements) = portion.stats();
                            let writes: Vec<_> = portion.writes().collect();
                            let len: usize = writes.iter().map(|r| r.len()).sum();
                            assert_eq!(elements, len as u64);
                            ranges.extend(writes);
                        }
                        ranges.sort_by_key(|r| r.start);
                        let mut next = 0;
                        for r in ranges.iter().filter(|r| !r.is_empty()) {
                            assert_eq!(r.start, next, "{} n={n} mu={mu} p={threads}", step.label());
                            next = r.end;
                        }
                        assert_eq!(next, n, "{} n={n} mu={mu} p={threads}", step.label());
                    }
                }
            }
        }
    }

    #[test]
    fn last_thread_runs_the_scale_tail() {
        // diag(6 entries) ∘ (I_2 ⊗∥ DFT_3) with µ = 4: thread 1 scales
        // the sub-line tail 4..6, and both paths compute the formula.
        let w: Vec<Cplx> = (0..6).map(|k| Cplx::new(1.0 + k as f64, -0.5)).collect();
        let f = spiral_spl::builder::compose(vec![
            spiral_spl::builder::diag(w),
            spiral_spl::builder::tensor_par(2, dft(3)),
        ]);
        let plan = Plan::from_formula(&f, 2, 4).unwrap();
        assert_eq!(plan.steps[1].label(), "scale");
        let tail: Vec<_> = plan.steps[1].portion(6, 4, 1, 2).writes().collect();
        assert_eq!(tail, vec![4..6]);
        let x = ramp(6);
        let want = f.eval(&x);
        assert_slices_close(&plan.execute(&x), &want, 1e-12);
        let mut got = vec![Cplx::ZERO; 6];
        let exec = crate::Executor::new(2);
        exec.try_run(&plan, &[&x], &mut [&mut got], &()).unwrap();
        assert_slices_close(&got, &want, 1e-12);
    }

    #[test]
    fn empty_and_identity_formulas() {
        let plan = Plan::from_formula(&spiral_spl::builder::i(8), 1, 4).unwrap();
        let x = ramp(8);
        assert_slices_close(&plan.execute(&x), &x, 0.0);
        assert_eq!(plan.barriers(), 0);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn execute_checks_input_length() {
        let f = sequential_dft(16, 4);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        plan.execute(&ramp(8));
    }
}
