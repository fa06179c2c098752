//! End-to-end integration: formula generation → rewriting → verification
//! → compilation → (threaded) execution, checked against the defining
//! DFT at every stage.

use spiral_fft::codegen::executor::DEFAULT_WATCHDOG;
use spiral_fft::codegen::plan::Plan;
use spiral_fft::codegen::Executor;
use spiral_fft::rewrite::{
    check_fully_optimized, multicore_dft, multicore_dft_expanded, sequential_dft,
};
use spiral_fft::smp::barrier::BarrierKind;
use spiral_fft::spl::builder::dft;
use spiral_fft::spl::cplx::{assert_slices_close, Cplx};
use spiral_fft::SpiralFft;

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|k| Cplx::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos()))
        .collect()
}

#[test]
fn full_pipeline_for_all_valid_configs() {
    // Every (n, p, µ) with (pµ)² | n in a broad sweep.
    for p in [2usize, 4] {
        for mu in [1usize, 2, 4] {
            let pmu2 = (p * mu) * (p * mu);
            for logn in 6..=12 {
                let n = 1usize << logn;
                if !n.is_multiple_of(pmu2) {
                    continue;
                }
                // 1. derive
                let derived = multicore_dft(n, p, mu, None)
                    .unwrap_or_else(|e| panic!("derive n={n} p={p} µ={mu}: {e}"));
                // 2. verify Definition 1
                check_fully_optimized(&derived.formula, p, mu)
                    .unwrap_or_else(|v| panic!("n={n} p={p} µ={mu}: {v}"));
                // 3. expand + compile
                let expanded = multicore_dft_expanded(n, p, mu, None, 8).unwrap();
                let plan = Plan::from_formula(&expanded, p, mu).unwrap();
                // 4. execute (sequential reference path)
                let x = ramp(n);
                let got = plan.execute(&x);
                assert_slices_close(&got, &dft(n).eval(&x), 1e-8 * n as f64);
            }
        }
    }
}

#[test]
fn threaded_execution_agrees_with_reference_for_both_barriers() {
    let n = 1024;
    let p = 2;
    let f = multicore_dft_expanded(n, p, 4, None, 8).unwrap();
    let plan = Plan::from_formula(&f, p, 4).unwrap();
    let x = ramp(n);
    let want = plan.execute(&x);
    for kind in [BarrierKind::Park, BarrierKind::Spin] {
        let exec = Executor::with_barrier(p, kind, DEFAULT_WATCHDOG);
        for _ in 0..3 {
            let mut got = vec![Cplx::ZERO; n];
            exec.try_run(&plan, &[&x], &mut [&mut got], &()).unwrap();
            assert_slices_close(&got, &want, 1e-12);
        }
    }
}

#[test]
fn front_door_matches_low_level_pipeline() {
    let n = 256;
    let fft = SpiralFft::parallel(n, 2, 4).unwrap();
    let x = ramp(n);
    let hi = fft.forward(&x);
    let lo = {
        let f = multicore_dft_expanded(n, 2, 4, None, 8).unwrap();
        Plan::from_formula(&f, 2, 4).unwrap().execute(&x)
    };
    assert_slices_close(&hi, &dft(n).eval(&x), 1e-7);
    assert_slices_close(&lo, &dft(n).eval(&x), 1e-7);
}

#[test]
fn sequential_generation_covers_mixed_radix() {
    for n in [8usize, 12, 24, 36, 60, 128, 120, 480] {
        let f = sequential_dft(n, 8);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        let x = ramp(n);
        assert_slices_close(&plan.execute(&x), &dft(n).eval(&x), 1e-7 * n as f64);
    }
}

#[test]
fn linearity_and_parseval_of_generated_transforms() {
    let n = 512;
    let fft = SpiralFft::sequential(n);
    let x = ramp(n);
    let y = fft.forward(&x);
    // Parseval: ||y||² = n ||x||².
    let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
    let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum();
    assert!(
        (ey - n as f64 * ex).abs() < 1e-6 * ey.max(1.0),
        "{ey} vs {}",
        n as f64 * ex
    );
    // Impulse response is flat.
    let mut imp = vec![Cplx::ZERO; n];
    imp[0] = Cplx::ONE;
    let yi = fft.forward(&imp);
    for (k, z) in yi.iter().enumerate() {
        assert!(z.approx_eq(Cplx::ONE, 1e-9), "bin {k}: {z:?}");
    }
}

#[test]
fn emitted_c_structure_for_tuned_plans() {
    // The forced 2-thread tuner: the facade may run 256 points on one
    // thread, whose C has no parallel loops or barriers.
    use spiral_fft::codegen::{emit_c, CFlavor};
    use spiral_fft::search::{CostModel, Tuner};
    let tuned = Tuner::new(2, 4, CostModel::Analytic)
        .tune_parallel(256)
        .unwrap()
        .expect("256 admits p=2 µ=4 splits");
    let omp = emit_c(&tuned.plan, CFlavor::OpenMp);
    assert!(omp.contains("#pragma omp parallel for"));
    assert!(omp.contains("void spiral_dft_256"));
    let pth = emit_c(&tuned.plan, CFlavor::Pthreads);
    assert!(pth.contains("pthread_barrier_wait"));
}

#[test]
fn generated_formulas_roundtrip_through_parser() {
    let derived = multicore_dft(256, 2, 4, None).unwrap();
    let text = derived.formula.to_string();
    let reparsed = spiral_fft::spl::parse(&text)
        .unwrap_or_else(|e| panic!("cannot reparse generated formula: {e}\n{text}"));
    let x = ramp(256);
    assert_slices_close(&reparsed.eval(&x), &derived.formula.eval(&x), 1e-9);
}
