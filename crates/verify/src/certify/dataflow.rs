//! Dataflow certification: abstract interpretation of a plan's buffer
//! value flow, for all transform sizes.
//!
//! The abstract state is, per ping-pong buffer, the set of elements
//! holding a *current-generation* value. The input buffer starts fully
//! valid, its partner fully stale. Each step is interpreted over that
//! state, proving:
//!
//! * **bounds** — every affine, mapped, or gathered index lands inside
//!   its buffer, permutation table, or twiddle table;
//! * **init-before-read** — no read of a stale (previous-generation or
//!   never-written) element, through the buffers each stage reads and
//!   writes by [`LocalProgram::passes`], the rule the executor runs;
//! * **write-once per stage** — no stage writes an element twice (the
//!   executor's disjointness contract at value granularity);
//! * **in-place legality** — no iteration of a pass that reads the buffer
//!   it writes reads an element an earlier iteration of that pass
//!   already wrote;
//! * **full coverage per stage** — every stage writes its whole target
//!   vector, so the next stage never reads garbage;
//! * **workspace disjointness** — chunk programs stay inside their
//!   `dst` slice and their private `tmp`; cross-chunk overlap is
//!   impossible once per-chunk bounds hold;
//! * **exchange legality** — exchange and fused-gather tables are
//!   bijections of `[0, n)`, and explicit exchanges move whole µ-element
//!   blocks (the paper's `P ⊗̄ I_µ` false-sharing-freedom structure);
//! * **ν-alignment of vector-marked stages** — a stage carrying
//!   `vec_width = ν > 1` must satisfy the vectorizer's alignment
//!   preconditions (contiguous innermost lane loop, ν-granular offsets
//!   and strides, lane-contiguous gather blocks), and its lane-grouped
//!   twiddle tables must correspond bit-for-bit to the scalar tables
//!   under the lane shuffle `lanes[g·c·ν + t·ν + l] = w[(g·ν + l)·c + t]`
//!   over the stage's twiddle rows — a swapped or mis-derived shuffle is
//!   rejected IR, not a fallback;
//! * **output coverage** — after the last step, every element of the
//!   result buffer holds a current value.
//!
//! The pass stops at the first violation: beyond it the abstract state
//! no longer describes the concrete execution.

use super::{CertFinding, CertPass};
use spiral_codegen::plan::{Plan, Step};
use spiral_codegen::stage::{Buf, KernelStage, LocalProgram};

/// Certify the plan's dataflow. Empty result = certified; otherwise the
/// first violation found, localized to step/stage/index.
pub fn certify_dataflow(plan: &Plan) -> Vec<CertFinding> {
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
        pass: CertPass::Dataflow,
        step,
        stage,
        index,
        detail,
    }
}

fn run(plan: &Plan) -> Result<(), CertFinding> {
    let n = plan.n;
    // Validity of the *source* buffer at the top of each step; after the
    // step the freshly written set becomes the next source.
    let mut src_valid = vec![true; n];
    for (si, step) in plan.steps.iter().enumerate() {
        let mut written = vec![false; n];
        match step {
            Step::Seq(prog) => {
                if prog.dim != n {
                    return Err(fail(
                        Some(si),
                        None,
                        None,
                        format!(
                            "sequential program dimension {} does not match plan size {n}",
                            prog.dim
                        ),
                    ));
                }
                analyze_program(prog, si, None, 0, &src_valid, &mut written)?;
            }
            Step::Par {
                chunk,
                programs,
                gather,
            } => {
                if chunk * programs.len() != n {
                    return Err(fail(
                        Some(si),
                        None,
                        None,
                        format!(
                            "{} chunk(s) of {chunk} do not tile the {n}-point vector",
                            programs.len()
                        ),
                    ));
                }
                if let Some(g) = gather {
                    if g.len() != n {
                        return Err(fail(
                            Some(si),
                            None,
                            None,
                            format!("fused gather table has {} entries, expected {n}", g.len()),
                        ));
                    }
                    check_bijection(g, n, si, "fused exchange gather")?;
                }
                for (c, prog) in programs.iter().enumerate() {
                    if prog.dim != *chunk {
                        return Err(fail(
                            Some(si),
                            None,
                            Some(c),
                            format!(
                                "chunk {c} program has dimension {}, expected chunk size {chunk}",
                                prog.dim
                            ),
                        ));
                    }
                    analyze_program(
                        prog,
                        si,
                        gather.as_deref().map(|g| g.as_slice()),
                        c * chunk,
                        &src_valid,
                        &mut written,
                    )?;
                }
            }
            Step::Exchange { table, mu } => {
                if table.len() != n {
                    return Err(fail(
                        Some(si),
                        None,
                        None,
                        format!("exchange table has {} entries, expected {n}", table.len()),
                    ));
                }
                check_bijection(table, n, si, "exchange")?;
                check_block_granularity(table, *mu, si)?;
                for (i, &s) in table.iter().enumerate() {
                    if !src_valid[s as usize] {
                        return Err(fail(
                            Some(si),
                            None,
                            Some(i),
                            format!("exchange reads stale source element {s}"),
                        ));
                    }
                    written[i] = true;
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
                for (i, valid) in src_valid.iter().enumerate() {
                    if !valid {
                        return Err(fail(
                            Some(si),
                            None,
                            Some(i),
                            format!("scale step reads stale source element {i}"),
                        ));
                    }
                    written[i] = true;
                }
            }
        }
        src_valid = written;
    }
    if let Some(i) = src_valid.iter().position(|&v| !v) {
        return Err(fail(
            None,
            None,
            Some(i),
            format!("output element {i} is never written by any step"),
        ));
    }
    Ok(())
}

/// Every source index in `[0, n)` exactly once — the table is a
/// permutation, which is what makes folding it into an adjacent compute
/// loop (exchange fusion) a legal rewrite.
pub(super) fn check_bijection(
    table: &[u32],
    n: usize,
    si: usize,
    what: &str,
) -> Result<(), CertFinding> {
    let mut seen = vec![false; n];
    for (i, &s) in table.iter().enumerate() {
        let s = s as usize;
        if s >= n {
            return Err(fail(
                Some(si),
                None,
                Some(i),
                format!("{what} table entry {i} reads index {s}, outside the {n}-point buffer"),
            ));
        }
        if seen[s] {
            return Err(fail(
                Some(si),
                None,
                Some(i),
                format!("{what} table is not a permutation: source index {s} gathered twice"),
            ));
        }
        seen[s] = true;
    }
    Ok(())
}

/// Explicit exchanges must move whole µ-element blocks (`P ⊗̄ I_µ`):
/// line-aligned bases, consecutive entries within each block.
pub(super) fn check_block_granularity(
    table: &[u32],
    mu: usize,
    si: usize,
) -> Result<(), CertFinding> {
    if mu <= 1 {
        return Ok(());
    }
    if !table.len().is_multiple_of(mu) {
        return Err(fail(
            Some(si),
            None,
            None,
            format!(
                "exchange of {} elements is not a multiple of µ = {mu}",
                table.len()
            ),
        ));
    }
    for blk in 0..table.len() / mu {
        let base = table[blk * mu] as usize;
        if !base.is_multiple_of(mu) {
            return Err(fail(
                Some(si),
                None,
                Some(blk * mu),
                format!("exchange block {blk} starts at unaligned source index {base} (µ = {mu})"),
            ));
        }
        for t in 1..mu {
            let got = table[blk * mu + t] as usize;
            if got != base + t {
                return Err(fail(
                    Some(si),
                    None,
                    Some(blk * mu + t),
                    format!(
                        "exchange breaks µ-block granularity: block {blk} reads {got}, \
                         expected {} (µ = {mu})",
                        base + t
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Interpret one local program: chunk offset `off` into the global
/// buffers, stage-0 reads through `gather` when fused. Marks the chunk's
/// final writes in `written`.
fn analyze_program(
    prog: &LocalProgram,
    si: usize,
    gather: Option<&[u32]>,
    off: usize,
    src_valid: &[bool],
    written: &mut [bool],
) -> Result<(), CertFinding> {
    let dim = prog.dim;
    let n = src_valid.len();
    // Check a stage-0 read of logical chunk index `i` against the global
    // source buffer, through the fused gather when present.
    let view_read = |i: usize, stage: Option<usize>| -> Result<(), CertFinding> {
        let global = match gather {
            Some(g) => g[off + i] as usize, // bounds proven by bijection check
            None => off + i,
        };
        if global >= n {
            return Err(fail(
                Some(si),
                stage,
                Some(i),
                format!("chunk read of logical index {i} lands at {global}, outside {n}"),
            ));
        }
        if !src_valid[global] {
            return Err(fail(
                Some(si),
                stage,
                Some(i),
                format!("read of source element {global} before any step wrote it"),
            ));
        }
        Ok(())
    };
    if prog.stages.is_empty() {
        // Identity program: copy view → dst.
        for i in 0..dim {
            view_read(i, None)?;
            written[off + i] = true;
        }
        return Ok(());
    }
    for (k, (stage, input, output)) in prog.passes().enumerate() {
        // Stages k ≥ 1 read the buffer the previous stage fully wrote
        // (coverage enforced below), so only source reads need the global
        // validity check. A pass that reads the buffer it writes must not
        // read what an earlier iteration of the same pass already wrote.
        let mut counts = vec![0u32; dim];
        let mut read = |idx: usize, counts: &[u32], stage_idx: usize| -> Result<(), CertFinding> {
            if idx >= dim {
                return Err(fail(
                    Some(si),
                    Some(stage_idx),
                    Some(idx),
                    format!("read index {idx} outside the {dim}-point stage vector"),
                ));
            }
            if input == Buf::Src {
                view_read(idx, Some(stage_idx))?;
            }
            if input == output && counts[idx] > 0 {
                return Err(fail(
                    Some(si),
                    Some(stage_idx),
                    Some(idx),
                    format!(
                        "in-place stage reads element {idx} after an earlier iteration of \
                         the same stage wrote it"
                    ),
                ));
            }
            Ok(())
        };
        let mut write =
            |idx: usize, counts: &mut [u32], stage_idx: usize| -> Result<(), CertFinding> {
                if idx >= dim {
                    return Err(fail(
                        Some(si),
                        Some(stage_idx),
                        Some(idx),
                        format!("write index {idx} outside the {dim}-point stage vector"),
                    ));
                }
                counts[idx] += 1;
                if counts[idx] > 1 {
                    return Err(fail(
                        Some(si),
                        Some(stage_idx),
                        Some(idx),
                        format!("element {idx} written twice within one stage"),
                    ));
                }
                Ok(())
            };
        check_vector_marking(stage, si, k)?;
        analyze_kernel(stage, si, k, dim, &mut read, &mut write, &mut counts)?;
        if let Some(i) = counts.iter().position(|&c| c == 0) {
            return Err(fail(
                Some(si),
                Some(k),
                Some(i),
                format!(
                    "stage leaves element {i} of its {} target unwritten",
                    if output == Buf::Tmp { "tmp" } else { "dst" }
                ),
            ));
        }
    }
    // Full per-stage coverage proven, and the last stage targets dst.
    for i in 0..dim {
        written[off + i] = true;
    }
    Ok(())
}

/// Re-prove a vector-marked stage's claims. The ν-alignment rules are
/// re-checked through the vectorizer's own predicate (the marking pass
/// and the certifier share one definition of "aligned"), then the
/// redundant lane-grouped twiddle tables are proven to correspond
/// bit-for-bit to the scalar tables under the lane shuffle — the scalar
/// interpreter and the ν-lane path must read the *same* constants, so a
/// swapped or mis-derived shuffle is rejected here, structurally, before
/// any value-level pass runs.
fn check_vector_marking(ks: &KernelStage, si: usize, k: usize) -> Result<(), CertFinding> {
    let nu = ks.vec_width;
    if nu <= 1 {
        if ks.twiddle_lanes.is_some() || ks.twiddle_out_lanes.is_some() {
            return Err(fail(
                Some(si),
                Some(k),
                None,
                "scalar stage carries lane-grouped twiddle tables".to_string(),
            ));
        }
        return Ok(());
    }
    if let Err(why) = spiral_codegen::stage_alignment(ks, nu) {
        return Err(fail(
            Some(si),
            Some(k),
            None,
            format!("vector-marked stage violates nu={nu} alignment: {why}"),
        ));
    }
    let c = ks.codelet.size();
    for (what, scalar, lanes) in [
        ("twiddle", &ks.twiddle, &ks.twiddle_lanes),
        ("twiddle_out", &ks.twiddle_out, &ks.twiddle_out_lanes),
    ] {
        match (scalar.as_deref(), lanes.as_deref()) {
            (None, None) => {}
            (Some(_), None) => {
                return Err(fail(
                    Some(si),
                    Some(k),
                    None,
                    format!("vector-marked stage is missing its lane-grouped {what} table"),
                ));
            }
            (None, Some(_)) => {
                return Err(fail(
                    Some(si),
                    Some(k),
                    None,
                    format!("lane-grouped {what} table present without a scalar {what} table"),
                ));
            }
            (Some(w), Some(lw)) => {
                if lw.len() != w.len() {
                    return Err(fail(
                        Some(si),
                        Some(k),
                        Some(lw.len()),
                        format!(
                            "lane-grouped {what} table has {} entries, scalar table has {}",
                            lw.len(),
                            w.len()
                        ),
                    ));
                }
                // Alignment proved the twiddle strides ν-granular with a
                // unit innermost stride, and the length check proved the
                // table holds the compact rows exactly, so the rows tile
                // into whole (group, slot, lane) cells.
                let groups = w.len() / (c * nu);
                for g in 0..groups {
                    for t in 0..c {
                        for l in 0..nu {
                            let got = lw[g * c * nu + t * nu + l];
                            let want = w[(g * nu + l) * c + t];
                            if got.re.to_bits() != want.re.to_bits()
                                || got.im.to_bits() != want.im.to_bits()
                            {
                                return Err(fail(
                                    Some(si),
                                    Some(k),
                                    Some(g * c * nu + t * nu + l),
                                    format!(
                                        "lane-grouped {what} table does not correspond to the \
                                         scalar table at group {g}, slot {t}, lane {l} — the \
                                         lane shuffle is wrong"
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Read-side access check: `(element index, per-element write counts of
/// the stage so far, stage index)`.
type ReadCheck<'a> = dyn FnMut(usize, &[u32], usize) -> Result<(), CertFinding> + 'a;

/// Write-side access check: `(element index, per-element write counts,
/// stage index)`.
type WriteCheck<'a> = dyn FnMut(usize, &mut [u32], usize) -> Result<(), CertFinding> + 'a;

/// Replay one kernel stage's exact access pattern through the bounds /
/// validity / write-once callbacks.
fn analyze_kernel(
    ks: &KernelStage,
    si: usize,
    k: usize,
    dim: usize,
    read: &mut ReadCheck<'_>,
    write: &mut WriteCheck<'_>,
    counts: &mut [u32],
) -> Result<(), CertFinding> {
    let c = ks.codelet.size();
    let span = ks.span();
    if span != dim {
        return Err(fail(
            Some(si),
            Some(k),
            None,
            format!("kernel stage spans {span} points but the stage vector has {dim}"),
        ));
    }
    // Twiddle iterations are `Σ i_d·tw_stride_d`, so the last row the
    // stage reads is `twiddle_iterations() - 1`: a table must hold
    // exactly that many rows, no fewer (out of range) and no more (a
    // stride too small for the table it indexes).
    let rows = ks.twiddle_iterations();
    for (what, table) in [("twiddle", &ks.twiddle), ("twiddle_out", &ks.twiddle_out)] {
        if let Some(w) = table {
            if w.len() != rows * c {
                return Err(fail(
                    Some(si),
                    Some(k),
                    Some(w.len()),
                    format!(
                        "{what} table has {} entries but the stage's twiddle strides index \
                         {rows} rows of {c} (out of range or unreachable entries)",
                        w.len()
                    ),
                ));
            }
        }
    }
    let mut err: Option<CertFinding> = None;
    ks.for_each_iteration(|_tw, in_base, out_base| {
        if err.is_some() {
            return;
        }
        let mut go = || -> Result<(), CertFinding> {
            for t in 0..c {
                let aff = in_base + t * ks.in_t_stride;
                let idx = match &ks.in_map {
                    Some(m) => match m.get(aff) {
                        Some(&v) => v as usize,
                        None => {
                            return Err(fail(
                                Some(si),
                                Some(k),
                                Some(aff),
                                format!("gather index {aff} outside the {}-entry in_map", m.len()),
                            ))
                        }
                    },
                    None => aff,
                };
                read(idx, counts, k)?;
            }
            for t in 0..c {
                let aff = out_base + t * ks.out_t_stride;
                let idx = match &ks.out_map {
                    Some(m) => match m.get(aff) {
                        Some(&v) => v as usize,
                        None => {
                            return Err(fail(
                                Some(si),
                                Some(k),
                                Some(aff),
                                format!(
                                    "scatter index {aff} outside the {}-entry out_map",
                                    m.len()
                                ),
                            ))
                        }
                    },
                    None => aff,
                };
                write(idx, counts, k)?;
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
