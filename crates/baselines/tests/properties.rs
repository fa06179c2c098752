//! Property tests: all baseline FFTs agree with each other and the
//! definition on random inputs; trace invariants hold.

use proptest::prelude::*;
use spiral_baselines::{
    FftwLikeConfig, FftwLikeFft, IterativeFft, NaiveDft, SixStepFft, StockhamFft,
};
use spiral_codegen::hook::CountingHook;
use spiral_spl::cplx::Cplx;

fn cplx_vec(n: usize) -> impl Strategy<Value = Vec<Cplx>> {
    prop::collection::vec(
        (-5.0f64..5.0, -5.0f64..5.0).prop_map(|(re, im)| Cplx::new(re, im)),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All power-of-two implementations produce identical transforms.
    #[test]
    fn all_pow2_ffts_agree(ke in 2u32..=8, x in cplx_vec(256)) {
        let n = 1usize << ke;
        let x = &x[..n];
        let want = NaiveDft::new(n).run(x);
        let tol = 1e-8 * n as f64;
        let close = |got: &[Cplx]| {
            got.iter().zip(&want).all(|(a, b)| a.approx_eq(*b, tol))
        };
        prop_assert!(close(&IterativeFft::new(n).run(x)));
        prop_assert!(close(&StockhamFft::new(n).run(x)));
        prop_assert!(close(&FftwLikeFft::new(n, FftwLikeConfig::default()).run(x)));
        if n >= 4 {
            prop_assert!(close(&SixStepFft::for_size(n, None).run(x)));
            prop_assert!(close(&SixStepFft::for_size(n, Some(4)).run(x)));
        }
    }

    /// The FFTW-like trace always performs exactly the nominal flops and
    /// one barrier per pass (+1 for bit reversal), independent of grain
    /// and thread count.
    #[test]
    fn fftwlike_trace_invariants(
        ke in 3u32..=9,
        threads in 1usize..=4,
        grain in 0usize..=8,
    ) {
        let n = 1usize << ke;
        let cfg = FftwLikeConfig { grain, thread_pool: true, ..Default::default() };
        let f = FftwLikeFft::new(n, cfg);
        let mut h = CountingHook::default();
        f.trace(threads, &mut h);
        prop_assert_eq!(h.flops, f.flops());
        prop_assert_eq!(h.barriers, ke as u64 + 1);
        // Bit-reversal writes n, each pass writes n: total n·(log n + 1).
        prop_assert_eq!(h.writes, (n as u64) * (ke as u64 + 1));
    }

    /// Six-step traces touch every element of every stage and always
    /// issue exactly six barriers.
    #[test]
    fn sixstep_trace_invariants(ke in 2u32..=8, threads in 1usize..=4) {
        let n = 1usize << ke;
        let f = SixStepFft::for_size(n, None);
        let mut h = CountingHook::default();
        f.trace(threads, &mut h);
        prop_assert_eq!(h.barriers, 6);
        prop_assert!(h.writes >= 4 * n as u64);
        prop_assert!(h.flops > 0);
    }

    /// Parseval holds for every baseline (energy times n).
    #[test]
    fn parseval_for_baselines(x in cplx_vec(64)) {
        let n = 64;
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        for y in [
            IterativeFft::new(n).run(&x),
            StockhamFft::new(n).run(&x),
            SixStepFft::for_size(n, None).run(&x),
        ] {
            let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum();
            prop_assert!((ey - n as f64 * ex).abs() <= 1e-6 * ey.max(1.0));
        }
    }
}
