//! Cross-crate property tests: the compiler agrees with the formula
//! interpreter for arbitrary recursion strategies, and parallel
//! derivations are always fully optimized.

use proptest::prelude::*;
use spiral_fft::codegen::fuse::fuse;
use spiral_fft::codegen::lower::lower_seq;
use spiral_fft::codegen::plan::Plan;
use spiral_fft::rewrite::{check_fully_optimized, multicore_dft, RuleTree};
use spiral_fft::spl::builder::dft;
use spiral_fft::spl::cplx::Cplx;

/// A random rule tree for a random smooth size.
fn arb_tree() -> impl Strategy<Value = RuleTree> {
    // Sizes with varied factor structure.
    let sizes = prop::sample::select(vec![8usize, 12, 16, 24, 32, 48, 64, 96, 128]);
    (sizes, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        spiral_fft::search::random_tree(n, 8, &mut rng)
    })
}

fn cplx_input(n: usize, seed: u64) -> Vec<Cplx> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let re = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
            s = s.wrapping_mul(0x2545F4914F6CDD1D);
            let im = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
            Cplx::new(re, im)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any rule tree expands to a formula that computes the DFT, lowers,
    /// fuses, and compiles into a plan that agrees with the interpreter.
    #[test]
    fn compiler_agrees_with_interpreter(tree in arb_tree(), seed in any::<u64>()) {
        let n = tree.size();
        let formula = tree.expand().normalized();
        let x = cplx_input(n, seed);
        let want = dft(n).eval(&x);
        // Interpreter.
        let via_interp = formula.eval(&x);
        // Lowered program.
        let prog = lower_seq(&formula).unwrap();
        let via_lowered = prog.eval(&x);
        // Fused program.
        let via_fused = fuse(prog).eval(&x);
        // Compiled plan.
        let plan = Plan::from_formula(&formula, 1, 4).unwrap();
        let via_plan = plan.execute(&x);
        let tol = 1e-8 * n as f64;
        for (a, b) in via_interp.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, tol));
        }
        for (a, b) in via_lowered.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, tol));
        }
        for (a, b) in via_fused.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, tol));
        }
        for (a, b) in via_plan.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, tol));
        }
    }

    /// Every valid (n, p, µ) derivation passes Definition 1, computes the
    /// DFT, and simulates with zero false sharing.
    #[test]
    fn derivations_always_fully_optimized(
        pe in 1usize..=2,       // p = 2 or 4
        me in 0usize..=2,       // µ = 1, 2, or 4
        extra in 0usize..=4,    // n = (pµ)² · 2^extra
        seed in any::<u64>(),
    ) {
        let p = 1usize << pe;
        let mu = 1usize << me;
        let n = (p * mu) * (p * mu) * (1usize << extra);
        if n > 4096 {
            return Ok(());
        }
        let r = multicore_dft(n, p, mu, None).unwrap();
        check_fully_optimized(&r.formula, p, mu).unwrap();
        let x = cplx_input(n, seed);
        let got = r.formula.eval(&x);
        let want = dft(n).eval(&x);
        let tol = 1e-8 * n as f64;
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, tol));
        }
        // Dynamic false-sharing check on the expanded plan. The paper's
        // guarantee is for the µ the formula was derived for: a µ=1 plan
        // on a µ=4 machine may (correctly) false-share, so only assert
        // when derivation µ matches the machine's line length.
        let expanded = spiral_fft::rewrite::multicore_dft_expanded(n, p, mu, None, 8).unwrap();
        let plan = Plan::from_formula(&expanded, p, mu).unwrap();
        let machine = spiral_fft::sim::core_duo();
        if p <= machine.p && mu == machine.mu() {
            let rep = spiral_fft::sim::simulate_plan(&plan, &machine, true);
            prop_assert_eq!(rep.stats.false_sharing, 0);
        }
    }

    /// The executor's 2-thread path agrees with the reference execution
    /// for any valid configuration (real threads, park barrier).
    #[test]
    fn threaded_execution_deterministic(extra in 0usize..=3, seed in any::<u64>()) {
        let n = 64 << extra;
        let expanded = spiral_fft::rewrite::multicore_dft_expanded(n, 2, 4, None, 8).unwrap();
        let plan = Plan::from_formula(&expanded, 2, 4).unwrap();
        let exec = spiral_fft::codegen::Executor::with_barrier(
            2,
            spiral_fft::smp::barrier::BarrierKind::Park,
            spiral_fft::codegen::executor::DEFAULT_WATCHDOG,
        );
        let x = cplx_input(n, seed);
        let want = plan.execute(&x);
        let mut got = vec![Cplx::ZERO; n];
        exec.try_run(&plan, &[&x], &mut [&mut got], &()).unwrap();
        for (a, b) in got.iter().zip(&want) {
            prop_assert!(a.approx_eq(*b, 1e-12));
        }
    }
}
