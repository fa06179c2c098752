//! Differential accuracy suite gating the short-vector backend: every
//! vector plan is property-tested against the scalar kernel path
//! (≤ 4 ulps per element — in practice bit-equal) and the naive `O(n²)`
//! reference DFT (scaled tolerance), over random rule trees, random and
//! adversarial inputs (denormals, mixed-sign, zero blocks), at
//! `n ∈ 2²..2¹²`, `p ∈ {1, 2, 4}`, `ν ∈ {1, 2, 4}`. A deliberately
//! mis-rotated twiddle table is the negative control: the harness must
//! fail it, on both legs, proving the gate actually gates.

use proptest::prelude::*;
use proptest::sample::select;
use spiral_codegen::plan::{Plan, Step};
use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
use spiral_spl::builder::vec_tag;
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;
use spiral_verify::differential::{
    compare_plans, differential_check, max_ulps, reference_dft, reference_tolerance, MAX_ULPS,
};
use std::sync::Arc;

/// Deterministic pseudo-random input (splitmix64-driven), so failures
/// replay exactly from the proptest seed.
fn random_input(n: usize, mut seed: u64) -> Vec<Cplx> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
    (0..n).map(|_| Cplx::new(unit(), unit())).collect()
}

/// Adversarial input families the ulp policy must survive.
fn adversarial_input(n: usize, family: usize, seed: u64) -> Vec<Cplx> {
    let mut x = random_input(n, seed);
    match family {
        // Denormal-scale magnitudes: exercises gradual underflow.
        0 => {
            for v in &mut x {
                *v = *v * 1e-310;
            }
        }
        // Mixed-sign alternation with large dynamic range.
        1 => {
            for (j, v) in x.iter_mut().enumerate() {
                let s = if j % 2 == 0 { 1.0 } else { -1.0 };
                let m = if j % 3 == 0 { 1e9 } else { 1e-9 };
                *v = *v * (s * m);
            }
        }
        // Zero blocks: half the vector exactly zero (cancellation paths).
        _ => {
            for v in x.iter_mut().skip(n / 2) {
                *v = Cplx::ZERO;
            }
        }
    }
    x
}

/// A sequential or multicore formula for the drawn size, or `None` when
/// the parameters don't admit one.
fn formula_for(n: usize, p: usize, leaf: usize, mu: usize) -> Option<Spl> {
    if p == 1 {
        Some(sequential_dft(n, leaf))
    } else {
        multicore_dft_expanded(n, p, mu, None, leaf).ok()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: for random (n, p, ν, tree-leaf, input)
    /// draws, the vector execution stays within 4 ulps of the scalar
    /// one and within the scaled tolerance of the naive reference.
    fn vector_plans_match_scalar_and_reference(
        k in 2u32..=12,
        p in select(vec![1usize, 2, 4]),
        nu in select(vec![1usize, 2, 4]),
        leaf in select(vec![2usize, 4, 8]),
        seed in any::<u64>(),
    ) {
        let n = 1usize << k;
        let mu = 4;
        if p > 1 && !n.is_multiple_of((p * mu) * (p * mu)) {
            return Ok(());
        }
        let Some(f) = formula_for(n, p, leaf, mu) else { return Ok(()) };
        let x = random_input(n, seed);
        let rep = differential_check(&f, p, mu, nu, &x).unwrap();
        prop_assert!(
            rep.passes(),
            "n={n} p={p} nu={nu} leaf={leaf}: {} ulps vs scalar, {:.3e} vs reference (tol {:.3e})",
            rep.ulps_vs_scalar, rep.err_vs_reference, rep.reference_tol
        );
    }

    /// Same bound on the adversarial families: denormals, mixed-sign
    /// with large dynamic range, and zero blocks.
    fn adversarial_inputs_stay_within_ulp_policy(
        k in 2u32..=10,
        nu in select(vec![2usize, 4]),
        family in 0usize..3,
        seed in any::<u64>(),
    ) {
        let n = 1usize << k;
        let f = sequential_dft(n, 8);
        let x = adversarial_input(n, family, seed);
        let rep = differential_check(&f, 1, 4, nu, &x).unwrap();
        // The scalar leg must hold even when magnitudes underflow; the
        // reference leg inherits whatever tolerance the input's norm
        // grants (an all-denormal vector grants an absolute floor).
        prop_assert!(
            rep.ulps_vs_scalar <= MAX_ULPS,
            "n={n} nu={nu} family={family}: {} ulps vs scalar",
            rep.ulps_vs_scalar
        );
        prop_assert!(
            rep.err_vs_reference <= rep.reference_tol,
            "n={n} nu={nu} family={family}: {:.3e} vs tol {:.3e}",
            rep.err_vs_reference, rep.reference_tol
        );
    }
}

/// Mis-rotate one entry of every lane-grouped twiddle table in the plan
/// (and, when `both` is set, the corresponding scalar entries too, so
/// the corruption is internally consistent and invisible to the
/// structural lane-shuffle check). Returns whether anything was hit.
fn mis_rotate(plan: &mut Plan, both: bool) -> bool {
    let spin = Cplx::cis(1e-3);
    let mut hit = false;
    let corrupt = |w: &mut Option<Arc<Vec<Cplx>>>| -> bool {
        let Some(arc) = w.as_mut() else { return false };
        let t = Arc::make_mut(arc);
        let Some(v) = t.last_mut() else { return false };
        *v *= spin;
        true
    };
    for step in &mut plan.steps {
        let progs: Vec<_> = match step {
            Step::Seq(p) => vec![p],
            Step::Par { programs, .. } => programs.iter_mut().collect(),
            _ => continue,
        };
        for prog in progs {
            for ks in &mut prog.stages {
                if ks.vec_width <= 1 {
                    continue;
                }
                let did = corrupt(&mut ks.twiddle_lanes) | corrupt(&mut ks.twiddle_out_lanes);
                if did && both {
                    // Keep the scalar tables consistent with the
                    // corrupted lane tables: re-derive them by inverting
                    // the lane shuffle, so the structural check passes
                    // and only value-level comparison can object.
                    let nu = ks.vec_width;
                    let c = ks.codelet.size();
                    for (lanes, scalar) in [
                        (&ks.twiddle_lanes, &mut ks.twiddle),
                        (&ks.twiddle_out_lanes, &mut ks.twiddle_out),
                    ] {
                        let (Some(lw), Some(sw)) = (lanes.as_deref(), scalar.as_mut()) else {
                            continue;
                        };
                        let s = Arc::make_mut(sw);
                        for g in 0..s.len() / (c * nu) {
                            for t in 0..c {
                                for l in 0..nu {
                                    s[(g * nu + l) * c + t] = lw[g * c * nu + t * nu + l];
                                }
                            }
                        }
                    }
                }
                hit |= did;
            }
        }
    }
    hit
}

/// Negative control A: corrupting only the lane-grouped table makes the
/// vector execution diverge from the scalar one — the vector-vs-scalar
/// leg must fail, and the structural lane-shuffle certification must
/// reject the IR independently.
/// Every composite `DFT_k` leaf with no compiled kernel up to 64
/// (composite, `k > 8`, not 16 or 32), as SPL text alone and inside the
/// Cooley–Tukey step `(DFT_2 ⊗ I_k) T^{2k}_k (I_2 ⊗ DFT_k) L^{2k}_2`,
/// lowers and passes the harness at every lane width.
#[test]
fn leaves_outside_the_kernel_set_pass_the_harness() {
    use spiral_codegen::lower::has_kernel;
    let composite = |k: usize| spiral_spl::num::factorize(k) != [(k, 1)];
    for k in (9..=64).filter(|&k| !has_kernel(k) && composite(k)) {
        let n = 2 * k;
        for text in [
            format!("DFT_{k}"),
            format!("(DFT_2 @ I_{k}) * T^{n}_{k} * (I_2 @ DFT_{k}) * L^{n}_2"),
        ] {
            let f = spiral_spl::parse::parse(&text).unwrap();
            let x = random_input(f.dim(), k as u64);
            for nu in [1, 2, 4] {
                let rep = differential_check(&f, 1, 4, nu, &x).unwrap();
                assert!(
                    rep.passes(),
                    "{text} ν={nu}: {} ulps vs scalar, {:.3e} vs reference (tol {:.3e})",
                    rep.ulps_vs_scalar,
                    rep.err_vs_reference,
                    rep.reference_tol
                );
            }
        }
    }
}

#[test]
fn mis_rotated_lane_twiddle_fails_scalar_leg() {
    let n = 256;
    let f = vec_tag(4, sequential_dft(n, 8));
    let scalar = Plan::from_formula(&sequential_dft(n, 8), 1, 4).unwrap();
    let mut vector = Plan::from_formula(&f, 1, 4).unwrap();
    assert_eq!(vector.vec_width, 4, "control needs a vectorized plan");
    assert!(mis_rotate(&mut vector, false), "no lane table to corrupt");
    if cfg!(feature = "force-scalar") {
        // Forced-scalar builds never read the lane tables; the control
        // collapses to the structural rejection below.
    } else {
        let rep = compare_plans(&vector, &scalar, &random_input(n, 7));
        assert!(
            rep.ulps_vs_scalar > MAX_ULPS,
            "harness failed to catch a mis-rotated lane twiddle ({} ulps)",
            rep.ulps_vs_scalar
        );
        assert!(!rep.passes());
    }
    let findings = spiral_verify::certify::dataflow::certify_dataflow(&vector);
    assert!(
        findings
            .iter()
            .any(|f| f.detail.contains("lane shuffle is wrong")),
        "structural check missed the inconsistent lane table: {findings:?}"
    );
}

/// Negative control B: corrupting the lane table *and* the scalar table
/// consistently slips past the structural lane-shuffle check — only a
/// value-level comparison against the independent reference can catch
/// it. The harness must fail the reference leg.
#[test]
fn consistently_mis_rotated_twiddle_fails_reference_leg() {
    let n = 256;
    let f = vec_tag(4, sequential_dft(n, 8));
    let mut vector = Plan::from_formula(&f, 1, 4).unwrap();
    assert_eq!(vector.vec_width, 4);
    assert!(mis_rotate(&mut vector, true), "no lane table to corrupt");
    // Internally consistent: the structural pass accepts it.
    let findings = spiral_verify::certify::dataflow::certify_dataflow(&vector);
    assert!(
        findings.is_empty(),
        "consistent corruption should pass structure: {findings:?}"
    );
    let x = random_input(n, 11);
    let y = vector.execute(&x);
    let r = reference_dft(&x);
    let err = spiral_spl::cplx::max_dist(&y, &r);
    assert!(
        err > reference_tolerance(&x),
        "harness failed to catch a consistently mis-rotated twiddle (err {err:.3e})"
    );
}

/// The vector path is exercised for real: a vec-tagged plan at every
/// supported ν marks at least one stage at n ≥ 16, and its output is
/// bit-identical to the scalar plan (the per-lane operation sequence is
/// the same), which is what makes the 4-ulp budget conservative.
#[test]
fn vector_marking_and_bit_equality_sweep() {
    for k in [4u32, 6, 8, 10] {
        let n = 1usize << k;
        for nu in [2usize, 4] {
            let base = sequential_dft(n, 8);
            let scalar = Plan::from_formula(&base, 1, 4).unwrap();
            let vector = Plan::from_formula(&vec_tag(nu, base), 1, 4).unwrap();
            assert_eq!(vector.vec_width, nu, "n={n} nu={nu}: nothing vectorized");
            let x = random_input(n, 1000 + n as u64);
            assert_eq!(
                max_ulps(&vector.execute(&x), &scalar.execute(&x)),
                0,
                "n={n} nu={nu}: vector path not bit-identical to scalar"
            );
        }
    }
}
