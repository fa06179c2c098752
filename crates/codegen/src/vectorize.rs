//! The `vec(ν)` marking pass: prove per-stage ν-alignment, then switch
//! qualifying kernel stages to the short-vector execution path.
//!
//! Runs after lowering and fusion (so it sees the final loop nests, maps
//! and twiddle tables) and is strictly opt-in per stage: a stage that
//! fails any precondition simply stays scalar — the plan remains correct,
//! only less vectorized. The preconditions are exactly the invariants the
//! dataflow certification pass (`spiral-verify`) re-checks on vector-marked
//! IR, so a marked stage that violates them is *rejected* IR, not a
//! fallback case.

use crate::plan::{kernels_mut, Plan, PlanShape, Step};
use crate::simd::{self, lane_shuffle_twiddle};
use crate::stage::{KernelStage, LocalStage};
use std::sync::Arc;

/// Check the ν-alignment preconditions for marking `k` as a ν-lane
/// vector stage. `Err` explains the violated rule (the same granularity
/// rules the dataflow certifier enforces on already-marked stages):
///
/// 1. ν is a supported power-of-two lane count (2 ≤ ν ≤ `MAX_LANES`);
/// 2. the innermost loop is a contiguous lane loop — unit input and
///    output stride, trip count divisible by ν;
/// 3. every other address component (base offsets, slot strides for
///    multi-slot codelets, outer loop strides) is ν-granular, so lane
///    groups start ν-aligned;
/// 4. the innermost loop has twiddle stride 1 and every outer twiddle
///    stride is ν-granular, so a lane group's ν twiddle rows are
///    consecutive and start at a lane-table group boundary;
/// 5. fused gather/scatter tables map aligned ν-blocks to contiguous
///    runs (`m[g + l] = m[g] + l`), so an indirected group is still ν
///    consecutive elements.
pub fn stage_alignment(k: &KernelStage, nu: usize) -> Result<(), String> {
    if nu < 2 || !nu.is_power_of_two() || nu > simd::MAX_LANES {
        return Err(format!("unsupported lane width nu={nu}"));
    }
    let Some(lane) = k.loops.last() else {
        return Err("no innermost lane loop".to_string());
    };
    if lane.in_stride != 1 || lane.out_stride != 1 {
        return Err(format!(
            "innermost loop not contiguous: in_stride={}, out_stride={}",
            lane.in_stride, lane.out_stride
        ));
    }
    if !lane.count.is_multiple_of(nu) {
        return Err(format!(
            "lane loop count {} not divisible by nu={nu}",
            lane.count
        ));
    }
    let c = k.codelet.size();
    let granular = |what: &str, v: usize| -> Result<(), String> {
        if v.is_multiple_of(nu) {
            Ok(())
        } else {
            Err(format!(
                "misaligned nu-block: {what}={v} not nu={nu}-granular"
            ))
        }
    };
    granular("in_off", k.in_off)?;
    granular("out_off", k.out_off)?;
    if c > 1 {
        granular("in_t_stride", k.in_t_stride)?;
        granular("out_t_stride", k.out_t_stride)?;
    }
    if lane.tw_stride != 1 {
        return Err(format!(
            "innermost loop twiddle stride {} is not 1",
            lane.tw_stride
        ));
    }
    for (d, l) in k.loops[..k.loops.len() - 1].iter().enumerate() {
        granular(&format!("loop[{d}].in_stride"), l.in_stride)?;
        granular(&format!("loop[{d}].out_stride"), l.out_stride)?;
        granular(&format!("loop[{d}].tw_stride"), l.tw_stride)?;
    }
    for (name, map) in [("in_map", &k.in_map), ("out_map", &k.out_map)] {
        if let Some(m) = map.as_deref() {
            if !m.len().is_multiple_of(nu) {
                return Err(format!("{name} length {} not nu={nu}-granular", m.len()));
            }
            for g in (0..m.len()).step_by(nu) {
                for l in 1..nu {
                    if m[g + l] != m[g] + crate::u32_idx(l) {
                        return Err(format!(
                            "{name} breaks lane contiguity at block {g}: \
                             [{g}+{l}] = {} != {} + {l}",
                            m[g + l],
                            m[g]
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Try to mark one kernel stage for ν-lane execution. Returns whether it
/// qualified; on success also builds the lane-grouped twiddle tables.
pub fn vectorize_stage(k: &mut KernelStage, nu: usize) -> bool {
    if stage_alignment(k, nu).is_err() {
        return false;
    }
    let c = k.codelet.size();
    k.vec_width = nu;
    k.twiddle_lanes = k
        .twiddle
        .as_ref()
        .map(|w| Arc::new(lane_shuffle_twiddle(w, c, nu)));
    k.twiddle_out_lanes = k
        .twiddle_out
        .as_ref()
        .map(|w| Arc::new(lane_shuffle_twiddle(w, c, nu)));
    true
}

/// The [`PlanShape`] `plan` would report after
/// [`vectorize_plan`]`(plan, nu)`, read without marking anything: the
/// flops of every scalar kernel stage that passes [`stage_alignment`]
/// move to the vector share. `None` when no stage qualifies (the plan
/// would stay scalar). A search costs each vec(ν) variant of a lowered
/// plan this way and builds only the variant it returns.
pub fn vectorized_shape(plan: &Plan, nu: usize) -> Option<PlanShape> {
    let mut shape = plan.shape();
    let mut marked = 0;
    for prog in plan.steps.iter().flat_map(|step| match step {
        Step::Seq(p) => std::slice::from_ref(p),
        Step::Par { programs, .. } => programs.as_slice(),
        Step::Exchange { .. } | Step::ScaleAll(_) => &[],
    }) {
        for s in &prog.stages {
            if let LocalStage::Kernel(k) = s {
                if k.vec_width == 1 && stage_alignment(k, nu).is_ok() {
                    shape.vec_flops += k.flops();
                    marked += 1;
                }
            }
        }
    }
    shape.vec_width = nu;
    (marked > 0).then_some(shape)
}

/// Mark every qualifying kernel stage across all steps of a plan and
/// record the lane width on the plan. Returns the number of vector-marked
/// stages (0 means the plan is effectively scalar and `vec_width` stays 1).
pub fn vectorize_plan(plan: &mut Plan, nu: usize) -> usize {
    let marked = kernels_mut(&mut plan.steps)
        .map(|k| vectorize_stage(k, nu))
        .filter(|&m| m)
        .count();
    if marked > 0 {
        plan.vec_width = nu;
    }
    marked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::Codelet;
    use crate::stage::LoopDim;
    use spiral_spl::cplx::Cplx;

    fn lane_stage(count: usize) -> KernelStage {
        let mut k = KernelStage::unit(Codelet::for_size(2));
        k.in_t_stride = count;
        k.out_t_stride = count;
        k.loops.push(LoopDim {
            count,
            in_stride: 1,
            out_stride: 1,
            tw_stride: 1,
        });
        k
    }

    #[test]
    fn contiguous_lane_loop_qualifies() {
        let k = lane_stage(4);
        assert!(stage_alignment(&k, 2).is_ok());
        assert!(stage_alignment(&k, 4).is_ok());
    }

    #[test]
    fn misalignment_rejected_with_reason() {
        // Odd lane count.
        let k = lane_stage(3);
        let e = stage_alignment(&k, 2).unwrap_err();
        assert!(e.contains("not divisible"), "{e}");
        // Non-unit innermost stride.
        let mut k = lane_stage(4);
        k.loops.last_mut().unwrap().in_stride = 2;
        let e = stage_alignment(&k, 2).unwrap_err();
        assert!(e.contains("not contiguous"), "{e}");
        // Misaligned base offset.
        let mut k = lane_stage(4);
        k.in_off = 1;
        let e = stage_alignment(&k, 2).unwrap_err();
        assert!(e.contains("misaligned nu-block"), "{e}");
        // No loops at all.
        let k = KernelStage::unit(Codelet::for_size(2));
        assert!(stage_alignment(&k, 2).is_err());
    }

    #[test]
    fn lane_breaking_map_rejected() {
        let mut k = lane_stage(4);
        // Identity map is lane-contiguous...
        k.in_map = Some(Arc::new((0..8u32).collect()));
        assert!(stage_alignment(&k, 2).is_ok());
        // ...a swapped pair inside a block is not.
        k.in_map = Some(Arc::new(vec![1, 0, 2, 3, 4, 5, 6, 7]));
        let e = stage_alignment(&k, 2).unwrap_err();
        assert!(e.contains("lane contiguity"), "{e}");
    }

    #[test]
    fn vec_tagged_plan_matches_scalar_bitwise() {
        use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
        use spiral_spl::builder::vec_tag;
        for n in [16usize, 64, 256] {
            let f = sequential_dft(n, 8);
            let scalar = crate::plan::Plan::from_formula(&f, 1, 4).unwrap();
            for nu in [2usize, 4] {
                let tagged = vec_tag(nu, f.clone());
                let vector = crate::plan::Plan::from_formula(&tagged, 1, 4).unwrap();
                let x: Vec<Cplx> = (0..n)
                    .map(|j| Cplx::new(0.5 + j as f64, -0.25 * j as f64))
                    .collect();
                let (a, b) = (scalar.execute(&x), vector.execute(&x));
                // Per-lane vector arithmetic runs the identical operation
                // sequence, so results are bit-equal, not just close.
                for (u, v) in a.iter().zip(&b) {
                    assert!(u.approx_eq(*v, 0.0), "n={n} nu={nu}");
                }
                if !cfg!(feature = "force-scalar") && n >= 16 {
                    assert_eq!(vector.vec_width, nu, "n={n}: no stage vectorized");
                }
            }
        }
        // Parallel formula: vector marking must survive the Par-step path
        // and exchange fusion.
        let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
        let tagged = vec_tag(2, f.clone());
        let scalar = crate::plan::Plan::from_formula(&f, 2, 4)
            .unwrap()
            .fuse_exchanges();
        let vector = crate::plan::Plan::from_formula(&tagged, 2, 4)
            .unwrap()
            .fuse_exchanges();
        assert_eq!(vector.vec_width, 2);
        let x: Vec<Cplx> = (0..256)
            .map(|j| Cplx::new(1.0 - j as f64 * 0.01, 0.3 * j as f64))
            .collect();
        for (u, v) in scalar.execute(&x).iter().zip(&vector.execute(&x)) {
            assert!(u.approx_eq(*v, 0.0));
        }
    }

    #[test]
    fn vectorize_builds_lane_twiddles() {
        let mut k = lane_stage(2);
        let w: Vec<Cplx> = (0..4).map(|i| Cplx::real(i as f64)).collect();
        k.twiddle = Some(Arc::new(w.clone()));
        assert!(vectorize_stage(&mut k, 2));
        assert_eq!(k.vec_width, 2);
        let lanes = k.twiddle_lanes.as_deref().unwrap();
        // twiddle_lanes[t*nu + l] = twiddle[l*c + t] for the single group.
        for t in 0..2 {
            for l in 0..2 {
                assert!(lanes[t * 2 + l].approx_eq(w[l * 2 + t], 0.0));
            }
        }
    }
}
