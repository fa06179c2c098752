//! Lowering SPL formulas to stage programs.
//!
//! `lower_seq` compiles a (sequential) formula to a [`LocalProgram`]:
//! composition becomes stage sequencing (right factor first), tensor
//! products with identities become loop lifting — `I_m ⊗ ·` replicates a
//! stage across `m` blocks, `· ⊗ I_k` spreads it across stride-`k` lanes —
//! and a permutation or a diagonal becomes a `DFT_1` stage over every
//! point, with a gather map or an on-load table
//! ([`KernelStage::permutation`], [`KernelStage::diagonal`]), which the
//! fusion pass (`fuse`) then merges into the adjacent compute stages.

use crate::codelet::Codelet;
use crate::stage::{KernelStage, LocalProgram, LoopDim};
use spiral_rewrite::RuleTree;
use spiral_spl::ast::Spl;
use spiral_spl::cplx::Cplx;
use spiral_spl::perm::Perm;
use std::sync::Arc;

/// Lowering failure: the formula contains structure the stage IR cannot
/// express (not produced by this generator's derivations).
#[derive(Clone, Debug)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot lower formula: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

pub use crate::codelet::dag::{factors_have_kernels, has_kernel, MAX_CODELET, MAX_LEAF};

/// Compile a formula to a sequential stage program.
pub fn lower_seq(f: &Spl) -> Result<LocalProgram, LowerError> {
    match f {
        Spl::I(n) => Ok(LocalProgram::identity(*n)),
        Spl::F2 => Ok(kernel_program(Codelet::for_size(2))),
        Spl::Dft(k) if has_kernel(*k) => Ok(kernel_program(Codelet::for_size(*k))),
        Spl::Dft(0) => Err(LowerError("DFT_0 has no points".to_string())),
        // A leaf outside the kernel set (from SPL text or wisdom),
        // whatever its size: a composite one lowers through the balanced
        // rule tree, whose leaves are kernels or primes without one.
        Spl::Dft(k) => match RuleTree::balanced(*k, MAX_LEAF) {
            RuleTree::Leaf(_) => Err(LowerError(format!(
                "DFT_{k} is a prime leaf above MAX_CODELET={MAX_CODELET} with no kernel"
            ))),
            tree => lower_seq(&tree.expand().normalized()),
        },
        Spl::Diag(d) => Ok(LocalProgram {
            dim: d.len(),
            stages: vec![KernelStage::diagonal(Arc::new(d.entries()))],
        }),
        Spl::Perm(p) => Ok(perm_program(p)),
        Spl::PermBar { perm, mu } => {
            let full = Perm::TensorId(Box::new(perm.clone()), *mu);
            Ok(perm_program(&full))
        }
        Spl::Compose(fs) => {
            let dim = f.dim();
            let mut stages = Vec::new();
            for factor in fs.iter().rev() {
                let prog = lower_seq(factor)?;
                if prog.dim != dim {
                    return Err(LowerError(format!(
                        "composition dimension mismatch: {} vs {}",
                        prog.dim, dim
                    )));
                }
                stages.extend(prog.stages);
            }
            Ok(LocalProgram { dim, stages })
        }
        Spl::Tensor(a, b) => match (&**a, &**b) {
            (Spl::I(m), x) => Ok(lift_block(lower_seq(x)?, *m)),
            (x, Spl::I(k)) => Ok(lift_stride(lower_seq(x)?, *k)),
            (x, y) => {
                // A ⊗ B = (A ⊗ I_nb) (I_na ⊗ B)
                let (na, nb) = (x.dim(), y.dim());
                let mut prog = lift_block(lower_seq(y)?, na);
                let left = lift_stride(lower_seq(x)?, nb);
                prog.stages.extend(left.stages);
                Ok(prog)
            }
        },
        Spl::TensorPar { p, a } => Ok(lift_block(lower_seq(a)?, *p)),
        Spl::DirectSum(fs) | Spl::DirectSumPar(fs) => lower_direct_sum(fs),
        // Tags are semantically transparent to sequential lowering; the
        // vec(ν) hint is honored later by the post-fusion `vectorize` pass.
        Spl::Smp { a, .. } | Spl::Vec { a, .. } => lower_seq(a),
    }
}

fn kernel_program(c: Codelet) -> LocalProgram {
    let dim = c.size();
    LocalProgram {
        dim,
        stages: vec![KernelStage::unit(c)],
    }
}

fn perm_program(p: &Perm) -> LocalProgram {
    let table: Vec<u32> = p.table().iter().map(|&v| crate::u32_idx(v)).collect();
    LocalProgram {
        dim: p.dim(),
        stages: vec![KernelStage::permutation(Arc::new(table))],
    }
}

/// Direct sums are supported when all blocks are diagonals (twiddle
/// segments from rule (11)) or all permutations — the forms the generator
/// produces. A block-diagonal of general programs would need per-block
/// stage alignment, which the IR deliberately does not model.
fn lower_direct_sum(fs: &[Spl]) -> Result<LocalProgram, LowerError> {
    let dim: usize = fs.iter().map(|b| b.dim()).sum();
    if fs.iter().all(|b| matches!(b, Spl::Diag(_))) {
        let mut table = Vec::with_capacity(dim);
        for b in fs {
            if let Spl::Diag(d) = b {
                table.extend(d.entries());
            }
        }
        return Ok(LocalProgram {
            dim,
            stages: vec![KernelStage::diagonal(Arc::new(table))],
        });
    }
    if fs.iter().all(|b| b.as_perm().is_some()) {
        let mut table = Vec::with_capacity(dim);
        let mut off = 0u32;
        for b in fs {
            let p = b.as_perm().unwrap();
            table.extend(p.table().iter().map(|&v| off + crate::u32_idx(v)));
            off += crate::u32_idx(p.dim());
        }
        return Ok(LocalProgram {
            dim,
            stages: vec![KernelStage::permutation(Arc::new(table))],
        });
    }
    Err(LowerError(
        "direct sum of non-diagonal, non-permutation blocks".to_string(),
    ))
}

/// Lift a program under `I_m ⊗ ·`: every stage repeats over `m`
/// consecutive blocks of the original dimension.
pub fn lift_block(prog: LocalProgram, m: usize) -> LocalProgram {
    if m == 1 {
        return prog;
    }
    let d = prog.dim;
    let stages = prog
        .stages
        .into_iter()
        .map(|mut k| {
            let rows = k.iterations();
            k.loops.insert(
                0,
                LoopDim {
                    count: m,
                    in_stride: d,
                    out_stride: d,
                    tw_stride: rows,
                },
            );
            k.in_map = k.in_map.map(|t| Arc::new(block_lift_table(&t, m, d)));
            k.out_map = k.out_map.map(|t| Arc::new(block_lift_table(&t, m, d)));
            let block_rep = |w: Arc<Vec<Cplx>>| Arc::new(w.repeat(m));
            k.twiddle = k.twiddle.map(block_rep);
            k.twiddle_out = k.twiddle_out.map(block_rep);
            k
        })
        .collect();
    LocalProgram { dim: d * m, stages }
}

fn block_lift_table(t: &[u32], m: usize, d: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(t.len() * m);
    for q in 0..crate::u32_idx(m) {
        out.extend(t.iter().map(|&v| q * crate::u32_idx(d) + v));
    }
    out
}

/// Lift a program under `· ⊗ I_k`: every point becomes `k` interleaved
/// lanes; strides and offsets scale by `k` and an innermost lane loop is
/// appended.
pub fn lift_stride(prog: LocalProgram, k: usize) -> LocalProgram {
    if k == 1 {
        return prog;
    }
    let d = prog.dim;
    let stages = prog
        .stages
        .into_iter()
        .map(|mut ks| {
            for l in &mut ks.loops {
                l.in_stride *= k;
                l.out_stride *= k;
                l.tw_stride *= k;
            }
            ks.in_off *= k;
            ks.out_off *= k;
            ks.in_t_stride *= k;
            ks.out_t_stride *= k;
            ks.loops.push(LoopDim {
                count: k,
                in_stride: 1,
                out_stride: 1,
                tw_stride: 1,
            });
            ks.in_map = ks.in_map.map(|t| Arc::new(stride_lift_table(&t, k)));
            ks.out_map = ks.out_map.map(|t| Arc::new(stride_lift_table(&t, k)));
            // New flat order interleaves the lane loop innermost:
            // flat' = flat·k + lane, same twiddle for every lane.
            let c = ks.codelet.size();
            let lane_rep = |w: Arc<Vec<Cplx>>| {
                let iters = w.len() / c;
                let mut big = Vec::with_capacity(w.len() * k);
                for f in 0..iters {
                    for _ in 0..k {
                        big.extend_from_slice(&w[f * c..(f + 1) * c]);
                    }
                }
                Arc::new(big)
            };
            ks.twiddle = ks.twiddle.map(lane_rep);
            ks.twiddle_out = ks.twiddle_out.map(lane_rep);
            ks
        })
        .collect();
    LocalProgram { dim: d * k, stages }
}

fn stride_lift_table(t: &[u32], k: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(t.len() * k);
    for i in 0..t.len() * k {
        out.push(t[i / k] * crate::u32_idx(k) + crate::u32_idx(i % k));
    }
    out
}

/// Twiddle table for a scale value vector indexed by the *gathered*
/// positions of a kernel stage: `w_slot[flat·c + t] = w[input index of
/// (flat, t)]`. Used by the fusion pass.
pub fn twiddle_for_kernel(k: &KernelStage, w: &[Cplx]) -> Vec<Cplx> {
    let c = k.codelet.size();
    let mut out = Vec::with_capacity(k.iterations() * c);
    k.trace(|is_write, idx| {
        if !is_write {
            out.push(w[idx]);
        }
    });
    out
}

/// Scale table for a diagonal *following* a kernel, keyed by the
/// kernel's scatter positions: `w_slot[flat·c + t] = w[output index of
/// (flat, t)]`. Used by the fusion pass for scale-on-store.
pub fn twiddle_for_kernel_out(k: &KernelStage, w: &[Cplx]) -> Vec<Cplx> {
    let c = k.codelet.size();
    let mut out = Vec::with_capacity(k.iterations() * c);
    k.trace(|is_write, idx| {
        if is_write {
            out.push(w[idx]);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::builder::*;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|j| Cplx::new(j as f64 + 0.5, 1.0 - j as f64 * 0.3))
            .collect()
    }

    /// Lowering must preserve semantics exactly.
    fn check_lower(f: &Spl) {
        let prog = lower_seq(f).unwrap_or_else(|e| panic!("lowering {f} failed: {e}"));
        assert_eq!(prog.dim, f.dim(), "{f}");
        let x = ramp(f.dim());
        let want = f.eval(&x);
        let got = prog.eval(&x);
        assert_slices_close(&got, &want, 1e-9 * f.dim() as f64);
    }

    #[test]
    fn primitives_lower() {
        check_lower(&f2());
        check_lower(&dft(4));
        check_lower(&dft(7));
        check_lower(&twiddle(2, 4));
        check_lower(&stride(12, 3));
        check_lower(&i(6));
    }

    #[test]
    fn tensor_forms_lower() {
        check_lower(&tensor(i(3), f2()));
        check_lower(&tensor(f2(), i(3)));
        check_lower(&tensor(i(2), tensor(f2(), i(2))));
        check_lower(&tensor(tensor(f2(), i(2)), i(3)));
        check_lower(&tensor(dft(3), dft(4))); // general A ⊗ B
    }

    #[test]
    fn compose_lowers_right_to_left() {
        check_lower(&cooley_tukey(2, 4));
        check_lower(&cooley_tukey(4, 4));
        check_lower(&six_step(4, 4));
    }

    #[test]
    fn recursive_expansion_lowers() {
        for n in [8usize, 16, 32, 24] {
            let f = RuleTree::balanced(n, 4).expand().normalized();
            check_lower(&f);
        }
    }

    #[test]
    fn parallel_constructs_lower_sequentially() {
        check_lower(&tensor_par(2, tensor(i(2), f2())));
        check_lower(&perm_bar(spiral_spl::perm::Perm::stride(4, 2), 2));
        check_lower(&dsum_par(vec![twiddle(2, 2), twiddle(2, 2)]));
    }

    #[test]
    fn full_multicore_formula_lowers() {
        use spiral_rewrite::multicore_dft_expanded;
        let f = multicore_dft_expanded(64, 2, 4, None, 8).unwrap();
        check_lower(&f);
    }

    #[test]
    fn direct_sum_of_perms_lowers() {
        check_lower(&dsum(vec![stride(4, 2), stride(4, 2)]));
    }

    #[test]
    fn direct_sum_of_general_blocks_rejected() {
        let f = dsum(vec![dft(2), dft(2)]);
        assert!(lower_seq(&f).is_err());
    }

    /// A composite `DFT_k` leaf with no kernel lowers through a rule tree
    /// to kernels of the set, whatever its size: every one up to 64.
    #[test]
    fn dft_leaf_outside_the_kernel_set_lowers_to_kernels() {
        let composite = |k: usize| spiral_spl::num::factorize(k) != [(k, 1)];
        let sizes: Vec<usize> = (9..=64)
            .filter(|&k| !has_kernel(k) && composite(k))
            .collect();
        assert_eq!(sizes.len(), 40);
        for k in sizes {
            check_lower(&dft(k));
            let prog = lower_seq(&dft(k)).unwrap();
            assert!(prog.stages.len() > 1, "DFT_{k}");
            for st in &prog.stages {
                assert!(has_kernel(st.codelet.size()), "DFT_{k}");
            }
        }
        assert!(lower_seq(&dft(0)).is_err());
    }

    /// A prime leaf above the kernel set has no kernel and is a typed
    /// error, alone or as a factor of a composite leaf; a composite leaf
    /// of any size lowers.
    #[test]
    fn prime_leaf_without_a_kernel_rejected() {
        for k in [47, 67, 2 * 47] {
            let err = lower_seq(&dft(k)).unwrap_err();
            assert!(err.0.contains("no kernel"), "DFT_{k}: {err}");
        }
        check_lower(&dft(128));
    }

    #[test]
    fn lift_block_and_stride_compose() {
        // (I_2 ⊗ F_2) ⊗ I_3 nested lift.
        let f = tensor(tensor(i(2), f2()), i(3));
        check_lower(&f);
        // I_3 ⊗ (F_2 ⊗ I_2)
        let g = tensor(i(3), tensor(f2(), i(2)));
        check_lower(&g);
    }

    #[test]
    fn twiddle_for_kernel_matches_gather_order() {
        // Kernel (I_2 ⊗ F_2) with w = position index; gathered order is
        // identity here, so the twiddle table equals w.
        let mut k = KernelStage::unit(Codelet::for_size(2));
        k.loops.push(LoopDim {
            count: 2,
            in_stride: 2,
            out_stride: 2,
            tw_stride: 1,
        });
        let w: Vec<Cplx> = (0..4).map(|i| Cplx::real(i as f64)).collect();
        let tw = twiddle_for_kernel(&k, &w);
        assert_eq!(tw.len(), 4);
        for (i, v) in tw.iter().enumerate() {
            assert!(v.approx_eq(w[i], 0.0));
        }
    }
}
