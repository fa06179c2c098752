//! Loop merging (the formula-level optimization of ref. \[11\]).
//!
//! After lowering, permutations and diagonals are data stages: `DFT_1`
//! over every point, with a gather map (`dst[i] = src[map[i]]`), an
//! on-load table (`dst[i] = src[i]·w[i]`) or both (`is_data`). This pass
//! folds each into an adjacent stage by two rules, applied left to right:
//!
//! * a data stage folds into the stage after it, on its gather side: the
//!   maps compose into `in_map`, and the table becomes a twiddle-on-load
//!   keyed by the stage's own gather order;
//! * otherwise a data stage after a compute stage folds into that stage's
//!   scatter side: the inverse map composes into `out_map`, and the table
//!   becomes a twiddle-on-store keyed by the scatter order.
//!
//! One pass leaves a data stage only in a program with nothing else, and
//! drops it if it does nothing. The result is the memory
//! behaviour the paper reasons about: a Cooley–Tukey formula becomes
//! `log` kernel passes with strided gathers, no standalone reorder
//! passes.

use crate::lower::{twiddle_for_kernel, twiddle_for_kernel_out};
use crate::stage::{KernelStage, LocalProgram};
use spiral_spl::cplx::Cplx;
use std::sync::Arc;

/// Fuse a program. Semantics-preserving (tested by matrix equality
/// against the unfused program).
pub fn fuse(prog: LocalProgram) -> LocalProgram {
    recover_affine(drop_trivial(fold_data(prog)))
}

/// True for a data stage: `DFT_1` whose affine index is the identity
/// on both sides (offsets 0, each loop's strides the product of the
/// counts inside it), with no scatter map and no on-store table. It
/// computes `dst[i] = src[in_map[i]] · twiddle[i]`, either part absent
/// meaning none.
fn is_data(k: &KernelStage) -> bool {
    let dense = k.loops.iter().rev().try_fold(1usize, |span, l| {
        (l.in_stride == span && l.out_stride == span && l.tw_stride == span).then(|| span * l.count)
    });
    k.codelet.size() == 1
        && (k.in_off, k.out_off) == (0, 0)
        && k.out_map.is_none()
        && k.twiddle_out.is_none()
        && dense.is_some()
}

/// Stride permutations fused as gather/scatter *tables* are usually
/// affine in the kernel's own loop indices (e.g. the Cooley–Tukey
/// `L^{mn}_m` is a plain stride-m read). Detect that and convert the
/// table back into loop strides — the form the paper's index
/// simplification \[11\] produces, and the form compilers vectorize.
/// Data stages keep their maps, so a later fusion (of merged parallel
/// steps) still sees them as data stages.
fn recover_affine(prog: LocalProgram) -> LocalProgram {
    let dim = prog.dim;
    let stages = prog
        .stages
        .into_iter()
        .map(|k| if is_data(&k) { k } else { try_affine(k) })
        .collect();
    LocalProgram { dim, stages }
}

fn try_affine(mut k: KernelStage) -> KernelStage {
    if k.in_map.is_some() {
        if let Some((off, strides, t_stride)) = affine_of(&k, false) {
            k.in_map = None;
            k.in_off = off;
            for (l, s) in k.loops.iter_mut().zip(&strides) {
                l.in_stride = *s;
            }
            k.in_t_stride = t_stride;
        }
    }
    if k.out_map.is_some() {
        if let Some((off, strides, t_stride)) = affine_of(&k, true) {
            k.out_map = None;
            k.out_off = off;
            for (l, s) in k.loops.iter_mut().zip(&strides) {
                l.out_stride = *s;
            }
            k.out_t_stride = t_stride;
        }
    }
    k
}

/// If the (mapped) access function of `k` is affine in the loop indices
/// and the codelet slot, return `(offset, per-loop strides, t-stride)`.
fn affine_of(k: &KernelStage, output: bool) -> Option<(usize, Vec<usize>, usize)> {
    let c = k.codelet.size();
    // Collect the access stream in flat iteration order.
    let mut idxs: Vec<usize> = Vec::with_capacity(k.iterations() * c);
    k.trace(|is_write, idx| {
        if is_write == output {
            idxs.push(idx);
        }
    });
    let counts: Vec<usize> = k.loops.iter().map(|l| l.count).collect();
    let base = *idxs.first()?;
    // Candidate t-stride from the first iteration.
    let t_stride = if c > 1 {
        idxs.get(1)?.checked_sub(base)?
    } else {
        0
    };
    // Candidate per-loop strides from the unit steps of each dimension.
    let mut strides = vec![0usize; counts.len()];
    let mut step = 1usize; // flat-iteration step of dimension d (innermost last)
    for d in (0..counts.len()).rev() {
        if counts[d] > 1 {
            strides[d] = idxs.get(step * c)?.checked_sub(base)?;
        }
        step *= counts[d];
    }
    // Verify every access.
    let total: usize = counts.iter().product();
    for flat in 0..total {
        // Decompose flat into the mixed-radix loop indices.
        let mut rem = flat;
        let mut predicted = base;
        for d in (0..counts.len()).rev() {
            let i_d = rem % counts[d];
            rem /= counts[d];
            predicted += i_d * strides[d];
        }
        for t in 0..c {
            if idxs[flat * c + t] != predicted + t * t_stride {
                return None;
            }
        }
    }
    Some((base, strides, t_stride))
}

/// Fold every data stage into a neighbour. A stage is pushed only onto
/// an empty program or, if neither it nor the last stage is a data
/// stage, after a compute stage; so a data stage is left only as the
/// single stage of a program that holds nothing else.
fn fold_data(prog: LocalProgram) -> LocalProgram {
    let dim = prog.dim;
    let mut out: Vec<KernelStage> = Vec::with_capacity(prog.stages.len());
    for mut stage in prog.stages {
        match out.last_mut() {
            Some(last) if is_data(last) => {
                gather_into(last, &mut stage);
                *last = stage;
            }
            Some(last) if is_data(&stage) => scatter_into(&stage, last),
            _ => out.push(stage),
        }
    }
    LocalProgram { dim, stages: out }
}

/// Fold data stage `d` into the stage `k` after it: `k` reads
/// `src[d.in_map[i]] · d.twiddle[i]` where it read element `i`. The
/// table is keyed by `k`'s gather order before the maps compose, so it
/// composes with any `in_map` already fused.
fn gather_into(d: &KernelStage, k: &mut KernelStage) {
    let per_slot = d.twiddle.as_ref().map(|w| twiddle_for_kernel(k, w));
    if let Some(t) = &d.in_map {
        k.in_map = Some(match k.in_map.take() {
            None => Arc::clone(t),
            Some(old) => Arc::new(old.iter().map(|&i| t[i as usize]).collect()),
        });
    }
    if let Some(per_slot) = per_slot {
        k.twiddle = Some(product(k.twiddle.take(), per_slot));
    }
}

/// Fold data stage `d` into the stage `k` before it: the value `k`
/// stored at `o` lands at `i` with `d.in_map[i] = o`, i.e. through the
/// inverse map, scaled by `d.twiddle[i]`, keyed by `k`'s scatter order
/// after the maps compose.
fn scatter_into(d: &KernelStage, k: &mut KernelStage) {
    if let Some(t) = &d.in_map {
        let mut inv = vec![0u32; t.len()];
        for (i, &s) in t.iter().enumerate() {
            inv[s as usize] = crate::u32_idx(i);
        }
        k.out_map = Some(match k.out_map.take() {
            None => Arc::new(inv),
            Some(old) => Arc::new(old.iter().map(|&o| inv[o as usize]).collect()),
        });
    }
    if let Some(w) = &d.twiddle {
        let per_slot = twiddle_for_kernel_out(k, w);
        k.twiddle_out = Some(product(k.twiddle_out.take(), per_slot));
    }
}

/// `per_slot`, multiplied entrywise into a table already fused, if any.
fn product(old: Option<Arc<Vec<Cplx>>>, per_slot: Vec<Cplx>) -> Arc<Vec<Cplx>> {
    Arc::new(match old {
        None => per_slot,
        Some(old) => old.iter().zip(&per_slot).map(|(a, b)| *a * *b).collect(),
    })
}

/// Drop a data stage whose map and table do nothing: an identity map
/// (or none) and an all-ones table (or none), at least one present. A
/// bare `DFT_1`, the whole of a one-point transform, stays.
fn drop_trivial(prog: LocalProgram) -> LocalProgram {
    let dim = prog.dim;
    let stages = prog
        .stages
        .into_iter()
        .filter(|k| {
            let identity = k
                .in_map
                .as_ref()
                .is_none_or(|t| t.iter().enumerate().all(|(i, &v)| v as usize == i));
            let ones = k
                .twiddle
                .as_ref()
                .is_none_or(|w| w.iter().all(|z| z.approx_eq(Cplx::ONE, 0.0)));
            let bare = k.in_map.is_none() && k.twiddle.is_none();
            !(is_data(k) && identity && ones && !bare)
        })
        .collect();
    LocalProgram { dim, stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_seq;
    use spiral_spl::builder::*;
    use spiral_spl::cplx::assert_slices_close;
    use spiral_spl::Spl;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(0.25 * j as f64, 2.0 - j as f64))
            .collect()
    }

    fn check_fused(f: &Spl) -> LocalProgram {
        let prog = lower_seq(f).unwrap();
        let fused = fuse(prog.clone());
        let x = ramp(f.dim());
        assert_slices_close(&fused.eval(&x), &prog.eval(&x), 1e-9 * f.dim() as f64);
        assert_slices_close(&fused.eval(&x), &f.eval(&x), 1e-9 * f.dim() as f64);
        fused
    }

    #[test]
    fn cooley_tukey_fuses_to_two_kernel_passes() {
        // (DFT_2 ⊗ I_4) T (I_2 ⊗ DFT_4) L: the L fuses into the first
        // kernel's gather and T into the second's load — exactly the "two
        // loops" the paper says formula optimization reduces (1) to.
        let fused = check_fused(&cooley_tukey(2, 4));
        assert_eq!(fused.stages.len(), 2, "{:?}", fused.stages.len());
        assert!(fused.stages.iter().all(|k| !is_data(k)));
    }

    #[test]
    fn recursive_expansion_fuses_to_log_passes() {
        use spiral_rewrite::RuleTree;
        let f = RuleTree::right_radix(16, 2).expand().normalized();
        let fused = check_fused(&f);
        // Radix-2 on 16 points: 4 butterfly passes, nothing else.
        assert_eq!(fused.stages.len(), 4);
        assert!(fused.stages.iter().all(|k| k.codelet.size() == 2));
    }

    #[test]
    fn six_step_keeps_unfusable_structure_correct() {
        // Scale-after-kernel stays explicit; correctness must hold anyway.
        check_fused(&six_step(4, 4));
    }

    #[test]
    fn adjacent_permutes_combine() {
        let f = compose(vec![stride(8, 2), stride(8, 4)]);
        let fused = check_fused(&f);
        // L^8_2 · L^8_4 = I, so everything disappears... (inverse pair)
        assert!(fused.stages.is_empty(), "{} stages", fused.stages.len());
    }

    #[test]
    fn adjacent_scales_combine() {
        let f = compose(vec![twiddle(2, 4), twiddle(2, 4)]);
        let fused = check_fused(&f);
        assert_eq!(fused.stages.len(), 1);
        let k = &fused.stages[0];
        assert!(is_data(k) && k.in_map.is_none() && k.twiddle.is_some());
    }

    /// A permutation and a diagonal before any kernel fold into one data
    /// stage, in either order, and that stage folds into the kernel.
    #[test]
    fn leading_data_stages_fold_into_one() {
        for f in [
            compose(vec![stride(8, 2), twiddle(2, 4)]),
            compose(vec![twiddle(2, 4), stride(8, 2)]),
        ] {
            let fused = check_fused(&f);
            assert_eq!(fused.stages.len(), 1);
            let k = &fused.stages[0];
            assert!(is_data(k) && k.in_map.is_some() && k.twiddle.is_some());
            let fused = check_fused(&compose(vec![tensor(i(4), f2()), f]));
            assert_eq!(fused.stages.len(), 1);
            assert!(!is_data(&fused.stages[0]));
        }
    }

    #[test]
    fn kernel_then_permute_becomes_scatter() {
        let f = compose(vec![stride(8, 2), tensor(i(4), f2())]);
        let fused = check_fused(&f);
        assert_eq!(fused.stages.len(), 1);
        // The scatter through L^8_2 is affine, so recovery turns the
        // fused table back into strides: no out_map, but the output
        // strides must no longer be the plain contiguous ones.
        let k = &fused.stages[0];
        assert!(k.out_map.is_none(), "affine scatter should have no table");
        assert!(
            k.out_t_stride != 1 || k.loops.iter().any(|l| l.out_stride != l.in_stride),
            "scatter strides unchanged: {k:?}"
        );
    }

    #[test]
    fn identity_permute_dropped() {
        let f = compose(vec![stride(6, 2), stride(6, 3)]); // inverse pair = I
        let fused = check_fused(&f);
        assert!(fused.stages.is_empty());
    }

    #[test]
    fn scale_fuses_through_existing_gather() {
        // Kernel with fused perm, then a scale before it in application
        // order: [Scale, Permute, Kernel] ⇒ single kernel with twiddle
        // that respects the permuted gather order.
        let f = compose(vec![
            tensor(i(2), f2()), // kernel
            stride(4, 2),       // permute (fuses as gather)
            twiddle(2, 2),      // scale (fuses as twiddle through gather)
        ]);
        let fused = check_fused(&f);
        assert_eq!(fused.stages.len(), 1);
        // The L^4_2 gather is affine (stride 2), so it becomes strides
        // rather than a table; the twiddle stays fused.
        let k = &fused.stages[0];
        assert!(k.in_map.is_none());
        assert_eq!(k.in_t_stride, 2);
        assert!(k.twiddle.is_some());
    }

    #[test]
    fn large_expansion_fuses_and_stays_correct() {
        use spiral_rewrite::sequential_dft;
        for n in [32usize, 64, 128] {
            let f = sequential_dft(n, 8);
            let fused = check_fused(&f);
            // Everything should be kernel passes after fusion.
            assert!(
                fused.stages.iter().all(|k| k.codelet.size() > 1),
                "n={n}: standalone data passes remain"
            );
        }
    }
}
