//! Exact symbolic equivalence: prove a lowered plan computes `DFT_n`,
//! entrywise, with zero tolerance.
//!
//! The plan IR is executed on every basis vector `e_j` over the exact
//! cyclotomic field fragment [`spiral_spl::exact`]: each floating-point
//! constant in the IR (twiddle tables, scale diagonals, codelet DAG
//! constants) is *snapped* to the root of unity `ω_N^k` it denotes
//! (`N = lcm(4, n)`, so every constant a size-`n` plan can contain is an
//! `N`-th root), and all subsequent algebra is exact rational arithmetic
//! on sparse root combinations. The run mirrors
//! [`Plan::execute_into`](spiral_codegen::plan::Plan::execute_into)
//! operation-for-operation — the same step-to-step buffer alternation
//! (two buffers here; the executor's first step reads its input in
//! place, which holds the same values), the same four-case stage
//! targeting, the same fused gather views — so a certificate speaks
//! about the code that actually runs, not a model of it.
//!
//! Codelets are evaluated through their DAG — the straight-line program
//! the build script prints as the compiled kernel (bit-for-bit, a codelet
//! test checks) and the `cemit` C backend prints as C. There is one
//! codelet semantics, and it is the code that runs: a plan is accepted
//! only if it equals `DFT_n` exactly: `plan(e_j)[k] = ω_n^{k·j}` for all
//! `j, k`.
//!
//! Vector-marked stages (`vec_width = ν > 1`) are replayed the way the
//! ν-lane runtime path reads them: constants come from the lane-grouped
//! `twiddle_lanes` tables at `(w/ν)·c·ν + t·ν + w mod ν` for twiddle
//! iteration `w = Σ i_d·tw_stride_d` (the stride-indexed compact
//! tables), so a swapped or mis-derived lane shuffle yields the wrong
//! matrix and is rejected entrywise (every lane runs the same generated
//! kernel, so no separate codelet semantics is needed).

use super::{CertFinding, CertPass};
use spiral_codegen::codelet::dag::{Dag, Node};
use spiral_codegen::plan::{Plan, Step};
use spiral_codegen::stage::{Buf, KernelStage, LocalProgram};
use spiral_spl::cplx::Cplx;
use spiral_spl::exact::{lcm, Cyclo};

/// Certify the plan against `DFT_n` over exact arithmetic. Empty result
/// = proven equal entrywise; otherwise the first discrepancy or
/// non-certifiable construct found.
pub fn certify_symbolic(plan: &Plan) -> Vec<CertFinding> {
    match run(plan) {
        Ok(()) => Vec::new(),
        Err(f) => vec![f],
    }
}

fn fail(
    step: Option<usize>,
    stage: Option<usize>,
    index: Option<usize>,
    detail: String,
) -> CertFinding {
    CertFinding {
        pass: CertPass::Symbolic,
        step,
        stage,
        index,
        detail,
    }
}

fn run(plan: &Plan) -> Result<(), CertFinding> {
    let n = plan.n;
    if n == 0 {
        return Ok(());
    }
    let order = lcm(4, n);
    for j in 0..n {
        let x: Vec<Cyclo> = (0..n)
            .map(|i| {
                if i == j {
                    Cyclo::one(order)
                } else {
                    Cyclo::zero(order)
                }
            })
            .collect();
        let y = exec_plan(plan, x, order)?;
        for (k, got) in y.iter().enumerate() {
            // DFT_n column j, entry k: ω_n^{kj}, lifted to ω_N.
            let expected = Cyclo::root(order, (k * j % n) * (order / n));
            if !got.eq_exact(&expected) {
                return Err(fail(
                    None,
                    None,
                    Some(k),
                    format!(
                        "plan(e_{j})[{k}] = {:?} ≈ {:?}, but \
                         DFT_{n}[{k},{j}] = ω_{n}^{} — plan is not DFT_{n}",
                        got,
                        got.to_cplx(),
                        k * j % n,
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Mirror of `Plan::execute_into` over exact values.
fn exec_plan(plan: &Plan, x: Vec<Cyclo>, order: usize) -> Result<Vec<Cyclo>, CertFinding> {
    let n = plan.n;
    let mut a = x;
    let mut b = vec![Cyclo::zero(order); n];
    for (si, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Seq(p) => {
                if p.dim != n {
                    return Err(fail(
                        Some(si),
                        None,
                        None,
                        format!("sequential program dimension {} != plan size {n}", p.dim),
                    ));
                }
                run_program(p, &SymSrc::Local(&a, 0), &mut b, order, si)?;
            }
            Step::Par {
                chunk,
                programs,
                gather,
            } => {
                for (c, prog) in programs.iter().enumerate() {
                    let s = c * chunk;
                    let src = match gather {
                        Some(g) => SymSrc::Gathered {
                            buf: &a,
                            gather: g,
                            off: s,
                        },
                        None => SymSrc::Local(&a, s),
                    };
                    let dst = b.get_mut(s..s + chunk).ok_or_else(|| {
                        fail(
                            Some(si),
                            None,
                            Some(c),
                            format!(
                                "chunk {c} at [{s}, {}) exceeds the {n}-point buffer",
                                s + chunk
                            ),
                        )
                    })?;
                    run_program(prog, &src, dst, order, si)?;
                }
            }
            Step::Exchange { table, .. } => {
                for (i, &s) in table.iter().enumerate() {
                    let v = a.get(s as usize).cloned().ok_or_else(|| {
                        fail(
                            Some(si),
                            None,
                            Some(i),
                            format!("exchange reads index {s} outside the {n}-point buffer"),
                        )
                    })?;
                    *b.get_mut(i).ok_or_else(|| {
                        fail(
                            Some(si),
                            None,
                            Some(i),
                            format!("exchange writes index {i} outside the {n}-point buffer"),
                        )
                    })? = v;
                }
            }
            Step::ScaleAll(w) => {
                if w.len() != n {
                    return Err(fail(
                        Some(si),
                        None,
                        None,
                        format!("scale table has {} entries, expected {n}", w.len()),
                    ));
                }
                for i in 0..n {
                    b[i] = a[i].mul(&snap(w[i], order, si, None, Some(i))?);
                }
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    Ok(a)
}

/// Input view of a symbolic stage — the exact analogue of
/// [`spiral_codegen::stage::SrcView`].
enum SymSrc<'a> {
    /// Chunk slice of the global source at the given offset.
    Local(&'a [Cyclo], usize),
    /// Fused exchange: logical `i` reads `buf[gather[off + i]]`.
    Gathered {
        buf: &'a [Cyclo],
        gather: &'a [u32],
        off: usize,
    },
}

impl SymSrc<'_> {
    fn get(&self, i: usize) -> Option<Cyclo> {
        match self {
            SymSrc::Local(s, off) => s.get(off + i).cloned(),
            SymSrc::Gathered { buf, gather, off } => gather
                .get(off + i)
                .and_then(|&g| buf.get(g as usize))
                .cloned(),
        }
    }
}

/// Mirror of `LocalProgram::run_view`: the buffers of each stage by
/// [`LocalProgram::passes`]. Every stage after the first reads a copy of
/// its input buffer, so an in-place stage computes its out-of-place
/// value; the dataflow pass proves that no iteration of it reads an
/// element an earlier iteration wrote, which makes the two the same.
fn run_program(
    prog: &LocalProgram,
    src: &SymSrc<'_>,
    dst: &mut [Cyclo],
    order: usize,
    si: usize,
) -> Result<(), CertFinding> {
    let dim = prog.dim;
    if dst.len() != dim {
        return Err(fail(
            Some(si),
            None,
            None,
            format!("program dimension {dim} != destination size {}", dst.len()),
        ));
    }
    if prog.stages.is_empty() {
        for (i, d) in dst.iter_mut().enumerate() {
            *d = src.get(i).ok_or_else(|| {
                fail(
                    Some(si),
                    None,
                    Some(i),
                    format!("identity copy reads logical index {i} out of bounds"),
                )
            })?;
        }
        return Ok(());
    }
    let mut tmp = vec![Cyclo::zero(order); dim];
    for (k, (stage, input, output)) in prog.passes().enumerate() {
        let (from, to): (Option<Vec<Cyclo>>, &mut [Cyclo]) = match (input, output) {
            (Buf::Src, Buf::Dst) => (None, dst),
            (Buf::Src, Buf::Tmp) => (None, &mut tmp),
            (Buf::Tmp, Buf::Dst) => (Some(tmp.clone()), dst),
            (Buf::Dst, Buf::Tmp) => (Some(dst.to_vec()), &mut tmp),
            (Buf::Tmp, Buf::Tmp) => (Some(tmp.clone()), &mut tmp),
            (Buf::Dst, Buf::Dst) => (Some(dst.to_vec()), dst),
            (_, Buf::Src) => unreachable!("no pass writes the input"),
        };
        match &from {
            None => apply_kernel(stage, src, to, order, si, k)?,
            Some(v) => apply_kernel(stage, &SymSrc::Local(v, 0), to, order, si, k)?,
        }
    }
    Ok(())
}

/// Mirror of the `KernelStage` loop nest: gather (fused permutation +
/// twiddle-on-load), codelet, scatter (fused permutation +
/// twiddle-on-store), over the exact iteration space.
#[allow(clippy::too_many_arguments)]
fn apply_kernel(
    ks: &KernelStage,
    src: &SymSrc<'_>,
    out: &mut [Cyclo],
    order: usize,
    si: usize,
    k: usize,
) -> Result<(), CertFinding> {
    let c = ks.codelet.size();
    // Vector-marked stages read their constants through the lane-grouped
    // tables on contiguous (`Local`) views — exactly what the ν-lane
    // runtime path does — so a wrong lane shuffle produces a wrong
    // matrix here, at value level. Gathered views run the scalar path at
    // runtime and are mirrored with the scalar tables.
    let nu = ks.vec_width;
    let vec_exec = nu > 1 && matches!(src, SymSrc::Local(..));
    let lanes_in = vec_exec && ks.twiddle_lanes.is_some();
    let lanes_out = vec_exec && ks.twiddle_out_lanes.is_some();
    let lane_entry = |tw: usize, t: usize, grouped: bool| {
        if grouped {
            (tw / nu) * c * nu + t * nu + tw % nu
        } else {
            tw * c + t
        }
    };
    let mut input = vec![Cyclo::zero(order); c];
    let mut err: Option<CertFinding> = None;
    ks.for_each_iteration(|tw, in_base, out_base| {
        if err.is_some() {
            return;
        }
        let mut go = || -> Result<(), CertFinding> {
            for (t, slot) in input.iter_mut().enumerate() {
                let aff = in_base + t * ks.in_t_stride;
                let idx = match &ks.in_map {
                    Some(m) => *m.get(aff).ok_or_else(|| {
                        fail(
                            Some(si),
                            Some(k),
                            Some(aff),
                            format!("gather index {aff} outside the {}-entry in_map", m.len()),
                        )
                    })? as usize,
                    None => aff,
                };
                let mut v = src.get(idx).ok_or_else(|| {
                    fail(
                        Some(si),
                        Some(k),
                        Some(idx),
                        format!("kernel reads index {idx} out of bounds"),
                    )
                })?;
                let (w, name) = if lanes_in {
                    (&ks.twiddle_lanes, "twiddle_lanes")
                } else {
                    (&ks.twiddle, "twiddle")
                };
                if let Some(w) = w {
                    let e = lane_entry(tw, t, lanes_in);
                    let cst = *w.get(e).ok_or_else(|| {
                        fail(
                            Some(si),
                            Some(k),
                            Some(e),
                            format!("{name} index {e} outside the {}-entry table", w.len()),
                        )
                    })?;
                    v = v.mul(&snap(cst, order, si, Some(k), Some(e))?);
                }
                *slot = v;
            }
            let result = dag_symbolic(&ks.codelet.dag(), &input, order, si, k)?;
            for (t, mut v) in result.into_iter().enumerate() {
                let (w, name) = if lanes_out {
                    (&ks.twiddle_out_lanes, "twiddle_out_lanes")
                } else {
                    (&ks.twiddle_out, "twiddle_out")
                };
                if let Some(w) = w {
                    let e = lane_entry(tw, t, lanes_out);
                    let cst = *w.get(e).ok_or_else(|| {
                        fail(
                            Some(si),
                            Some(k),
                            Some(e),
                            format!("{name} index {e} outside the {}-entry table", w.len()),
                        )
                    })?;
                    v = v.mul(&snap(cst, order, si, Some(k), Some(e))?);
                }
                let aff = out_base + t * ks.out_t_stride;
                let idx = match &ks.out_map {
                    Some(m) => *m.get(aff).ok_or_else(|| {
                        fail(
                            Some(si),
                            Some(k),
                            Some(aff),
                            format!("scatter index {aff} outside the {}-entry out_map", m.len()),
                        )
                    })? as usize,
                    None => aff,
                };
                *out.get_mut(idx).ok_or_else(|| {
                    fail(
                        Some(si),
                        Some(k),
                        Some(idx),
                        format!("kernel writes index {idx} out of bounds"),
                    )
                })? = v;
            }
            Ok(())
        };
        if let Err(e) = go() {
            err = Some(e);
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Exact evaluation of a codelet DAG — the straight-line program the
/// compiled kernel and the C emitter are printed from, executed over
/// cyclotomic values.
fn dag_symbolic(
    d: &Dag,
    input: &[Cyclo],
    order: usize,
    si: usize,
    k: usize,
) -> Result<Vec<Cyclo>, CertFinding> {
    let bad_node = |id: usize| {
        fail(
            Some(si),
            Some(k),
            Some(id),
            format!("codelet DAG node {id} references an undefined value"),
        )
    };
    let mut vals: Vec<Cyclo> = Vec::with_capacity(d.nodes.len());
    for (id, node) in d.nodes.iter().enumerate() {
        let at = |i: u32| vals.get(i as usize).cloned().ok_or_else(|| bad_node(id));
        let v = match *node {
            Node::Input(i) => input.get(i as usize).cloned().ok_or_else(|| {
                fail(
                    Some(si),
                    Some(k),
                    Some(i as usize),
                    format!(
                        "codelet DAG input {i} outside the {}-slot vector",
                        input.len()
                    ),
                )
            })?,
            Node::Add(a, b) => at(a)?.add(&at(b)?),
            Node::Sub(a, b) => at(a)?.sub(&at(b)?),
            Node::Mul(a, cst) => at(a)?.mul(&snap(cst, order, si, Some(k), Some(id))?),
            Node::MulI(a) => at(a)?.mul_root(3 * order / 4),
            Node::MulNegI(a) => at(a)?.mul_root(order / 4),
            Node::Neg(a) => at(a)?.neg(),
        };
        vals.push(v);
    }
    d.outputs
        .iter()
        .map(|&o| {
            vals.get(o as usize)
                .cloned()
                .ok_or_else(|| bad_node(o as usize))
        })
        .collect()
}

/// Snap a floating-point IR constant to the exact root of unity it
/// denotes; a constant that is not (within [`spiral_spl::exact::SNAP_EPS`])
/// an `N`-th root of unity cannot be certified.
fn snap(
    c: Cplx,
    order: usize,
    si: usize,
    stage: Option<usize>,
    index: Option<usize>,
) -> Result<Cyclo, CertFinding> {
    Cyclo::from_cplx_unit(c, order).ok_or_else(|| {
        fail(
            Some(si),
            stage,
            index,
            format!("constant {c:?} is not an order-{order} root of unity — not certifiable"),
        )
    })
}
