//! Property: batched execution is exactly sequential execution. For
//! any batch size B ∈ [1, 64] and transform size n ∈ {2^4 … 2^10},
//! `Executor::try_run` output is elementwise equal to running the same plan
//! sequentially over the inputs — the batch path may not perturb a
//! single bit of the arithmetic.

use proptest::prelude::*;
use spiral_codegen::plan::Plan;
use spiral_codegen::Executor;
use spiral_rewrite::sequential_dft;
use spiral_spl::cplx::Cplx;

fn inputs(b: usize, n: usize, seed: u64) -> Vec<Vec<Cplx>> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 4096) as f64 / 2048.0 - 1.0
    };
    (0..b)
        .map(|_| (0..n).map(|_| Cplx::new(next(), next())).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_equals_sequential_elementwise(
        b in 1usize..=64,
        log2n in 4u32..=10,
        threads in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log2n;
        let plan = Plan::from_formula(&sequential_dft(n, 8), 1, 4).unwrap();
        let xs = inputs(b, n, seed);
        let exec = Executor::new(threads);
        let mut got = vec![vec![Cplx::ZERO; n]; b];
        exec.try_run(&plan, &xs, &mut got, &()).unwrap();
        for (y, x) in got.iter().zip(&xs) {
            // Bitwise: both paths run the same interpreter.
            prop_assert_eq!(y, &plan.execute(x));
        }
    }
}
