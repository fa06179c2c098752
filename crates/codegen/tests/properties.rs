//! Property tests for the compiler: lowering, lifting, fusion, and plan
//! transformations preserve semantics for arbitrary formula shapes.

use proptest::prelude::*;
use spiral_codegen::fuse::fuse;
use spiral_codegen::lower::{lift_block, lift_stride, lower_seq};
use spiral_codegen::plan::Plan;
use spiral_spl::builder::*;
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;

fn cplx_vec(n: usize) -> impl Strategy<Value = Vec<Cplx>> {
    prop::collection::vec(
        (-4.0f64..4.0, -4.0f64..4.0).prop_map(|(re, im)| Cplx::new(re, im)),
        n,
    )
}

/// Random lowerable formulas of dimension 12 (mixed radix, so both
/// power-of-two and odd codelets appear).
fn lowerable(dim: usize) -> BoxedStrategy<Spl> {
    let leaves = prop::sample::select(vec![
        i(dim),
        dft(dim),
        stride(dim, 2),
        stride(dim, dim / 2),
        twiddle(2, dim / 2),
        tensor(dft(2), i(dim / 2)),
        tensor(i(2), dft(dim / 2)),
        tensor(i(dim / 4), dft(4)),
        tensor(dft(dim / 3), i(3)),
    ]);
    leaves
        .prop_recursive(3, 12, 3, move |inner| {
            prop::collection::vec(inner, 1..4).prop_map(compose).boxed()
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// lower → fuse → plan all agree with the interpreter.
    #[test]
    fn compile_chain_preserves_semantics(f in lowerable(12), x in cplx_vec(12)) {
        let want = f.eval(&x);
        let prog = lower_seq(&f).unwrap();
        let lo = prog.eval(&x);
        let fu = fuse(prog).eval(&x);
        let pl = Plan::from_formula(&f, 1, 4).unwrap().execute(&x);
        for out in [&lo, &fu, &pl] {
            for (a, b) in out.iter().zip(&want) {
                prop_assert!(a.approx_eq(*b, 1e-8), "{a:?} vs {b:?}");
            }
        }
    }

    /// Lifting laws: lift_block(P, m) ≡ I_m ⊗ P and lift_stride(P, k) ≡ P ⊗ I_k.
    #[test]
    fn lifting_matches_tensor_semantics(
        f in lowerable(12),
        m in 1usize..4,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let prog = lower_seq(&f).unwrap();
        let n = 12 * m;
        let mut s = seed | 1;
        let mut rand = || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            Cplx::new((s as f64 / u64::MAX as f64) - 0.5, 0.25)
        };
        // Block lift.
        let xb: Vec<Cplx> = (0..n).map(|_| rand()).collect();
        let lifted = lift_block(prog.clone(), m);
        let want = tensor(i(m), f.clone()).eval(&xb);
        let got = lifted.eval(&xb);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, 1e-8));
        }
        // Stride lift.
        let nk = 12 * k;
        let xs: Vec<Cplx> = (0..nk).map(|_| rand()).collect();
        let lifted = lift_stride(prog, k);
        let want = tensor(f.clone(), i(k)).eval(&xs);
        let got = lifted.eval(&xs);
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, 1e-8));
        }
    }

    /// Fusion never increases the stage count and always drops
    /// standalone data passes between kernels: a fused program that
    /// holds a kernel of size > 1 holds no size-1 (data) stage.
    #[test]
    fn fusion_monotone(f in lowerable(12)) {
        let prog = lower_seq(&f).unwrap();
        let before = prog.stages.len();
        let fused = fuse(prog);
        prop_assert!(fused.stages.len() <= before);
        let sizes: Vec<usize> = fused.stages.iter().map(|k| k.codelet.size()).collect();
        if sizes.iter().any(|&c| c > 1) {
            prop_assert!(!sizes.contains(&1), "{f}: stage sizes {sizes:?}");
        }
    }

    /// fuse_exchanges preserves semantics on arbitrary parallel plans.
    #[test]
    fn exchange_fusion_preserves_semantics(
        ke in 0usize..3,
        seed in any::<u64>(),
    ) {
        let n = 64usize << ke;
        let formula =
            spiral_rewrite::multicore_dft_expanded(n, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&formula, 2, 4).unwrap();
        let fused = plan.clone().fuse_exchanges();
        let mut s = seed | 1;
        let x: Vec<Cplx> = (0..n)
            .map(|_| {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                Cplx::new((s as f64 / u64::MAX as f64) - 0.5, 0.1)
            })
            .collect();
        let a = plan.execute(&x);
        let b = fused.execute(&x);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!(u.approx_eq(*v, 1e-12));
        }
        prop_assert!(fused.steps.len() <= plan.steps.len());
    }

    /// The C emitter always produces a translation unit with the entry
    /// point and balanced braces (cheap structural sanity).
    #[test]
    fn c_emission_structurally_sound(f in lowerable(12)) {
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        for flavor in [spiral_codegen::CFlavor::OpenMp, spiral_codegen::CFlavor::Pthreads] {
            let c = spiral_codegen::emit_c(&plan, flavor);
            prop_assert!(c.contains("void spiral_dft_12"));
            let opens = c.matches('{').count();
            let closes = c.matches('}').count();
            prop_assert_eq!(opens, closes, "unbalanced braces");
        }
    }
}
