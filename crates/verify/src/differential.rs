//! Differential accuracy harness for the short-vector backend.
//!
//! Every vector plan must agree with two independent oracles:
//!
//! 1. **the scalar kernel path** — the ν-lane path runs the *identical*
//!    operation sequence per lane, so the bound is tight: ≤ [`MAX_ULPS`]
//!    ulps per element (in practice 0 — bit equality — which this
//!    harness deliberately does not assume, so a future fused-multiply
//!    lowering stays within policy rather than breaking the suite);
//! 2. **the naive `O(n²)` reference DFT** — direct summation of
//!    `Σ_j x_j · ω_n^{−kj}`, sharing no code with the plan pipeline.
//!    Floating-point error of an FFT grows like `O(log n)`, so the
//!    tolerance scales with the transform size and input magnitude
//!    (see [`reference_tolerance`]).
//!
//! The harness is what *gates* the vector backend: certification proves
//! the IR's structure and exact value semantics for small `n`, while
//! this module compares concrete executions at any size, over random and
//! adversarial inputs. A deliberately mis-rotated twiddle table (the
//! negative control in `tests/differential.rs`) must — and does — fail
//! here even when its corruption is internally consistent enough to slip
//! past the structural checks.

use spiral_codegen::plan::Plan;
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;

/// Per-element ulp budget for vector-vs-scalar agreement.
pub const MAX_ULPS: u64 = 4;

/// Distance in units-in-the-last-place between two finite doubles:
/// the number of representable values strictly between them. `0` means
/// bit-equal (with `-0.0 == +0.0`); any NaN or infinity on either side
/// is an automatic `u64::MAX` — a vector lane that produced a non-finite
/// value never "agrees" with a finite scalar one.
pub fn ulps_f64(a: f64, b: f64) -> u64 {
    if !a.is_finite() || !b.is_finite() {
        // Non-finite values only agree when bit-identical (same NaN
        // payload or same signed infinity).
        return if a.to_bits() == b.to_bits() {
            0
        } else {
            u64::MAX
        };
    }
    // Map the double line onto a monotone integer line: negatives are
    // reflected so ordering matches numeric ordering, then the ulp
    // distance is an integer difference.
    fn key(x: f64) -> i64 {
        let b = x.to_bits().cast_signed();
        // b ∈ [i64::MIN, -1] here, so the subtraction cannot overflow.
        if b < 0 {
            i64::MIN.wrapping_sub(b)
        } else {
            b
        }
    }
    key(a).abs_diff(key(b))
}

/// Ulp distance between complex values: the worse of the two components.
pub fn ulps_cplx(a: Cplx, b: Cplx) -> u64 {
    ulps_f64(a.re, b.re).max(ulps_f64(a.im, b.im))
}

/// Largest per-element ulp distance across two equal-length slices.
///
/// # Panics
/// When the slices differ in length — that is a harness bug, not a
/// numeric disagreement.
pub fn max_ulps(a: &[Cplx], b: &[Cplx]) -> u64 {
    assert_eq!(a.len(), b.len(), "differential slices differ in length");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ulps_cplx(x, y))
        .max()
        .unwrap_or(0)
}

/// Naive `O(n²)` reference DFT by direct summation — the independent
/// oracle: no codelets, no twiddle tables, no stage IR.
pub fn reference_dft(x: &[Cplx]) -> Vec<Cplx> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut acc = Cplx::ZERO;
            for (j, &v) in x.iter().enumerate() {
                let w = Cplx::cis(-2.0 * std::f64::consts::PI * ((k * j) % n) as f64 / n as f64);
                acc += v * w;
            }
            acc
        })
        .collect()
}

/// Absolute l∞ tolerance for comparing an `n`-point FFT output against
/// the naive reference on input `x`. Both sides accumulate rounding —
/// the FFT over `log₂ n` levels, the summation over `n` terms — so the
/// bound scales with `‖x‖₁` (the worst-case output magnitude) times a
/// generous `O(log n)` factor.
pub fn reference_tolerance(x: &[Cplx]) -> f64 {
    let norm1: f64 = x.iter().map(|c| c.abs()).sum();
    let levels = (x.len().max(2) as f64).log2();
    // ~30 ulps of headroom per level on the accumulated magnitude, plus
    // an absolute floor so all-denormal inputs don't demand exactness
    // finer than a rounding step.
    1e-14 * norm1 * levels + 1e-300
}

/// Verdict of one differential comparison.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Transform size.
    pub n: usize,
    /// Lane width of the vector plan under test.
    pub vec_width: usize,
    /// Worst per-element ulp distance between the vector and scalar
    /// executions.
    pub ulps_vs_scalar: u64,
    /// Worst per-element absolute error of the *vector* execution
    /// against the naive reference DFT.
    pub err_vs_reference: f64,
    /// The tolerance [`reference_tolerance`] granted for this input.
    pub reference_tol: f64,
}

impl DiffReport {
    /// Both legs within policy: vector ≈ scalar within [`MAX_ULPS`] and
    /// vector ≈ reference within the scaled tolerance.
    pub fn passes(&self) -> bool {
        self.ulps_vs_scalar <= MAX_ULPS && self.err_vs_reference <= self.reference_tol
    }
}

/// Compare a vector plan against the scalar execution of `scalar_plan`
/// and the naive reference, on one input.
pub fn compare_plans(vector: &Plan, scalar: &Plan, x: &[Cplx]) -> DiffReport {
    let yv = vector.execute(x);
    let ys = scalar.execute(x);
    let yr = reference_dft(x);
    DiffReport {
        n: vector.n,
        vec_width: vector.vec_width,
        ulps_vs_scalar: max_ulps(&yv, &ys),
        err_vs_reference: spiral_spl::cplx::max_dist(&yv, &yr),
        reference_tol: reference_tolerance(x),
    }
}

/// Compile `formula` twice — untagged (scalar) and wrapped in `vec(ν)` —
/// and differentially compare the two executions plus the reference, on
/// one input. `Err` carries the lowering failure, which in this harness
/// is a test bug, not a numeric finding.
pub fn differential_check(
    formula: &Spl,
    threads: usize,
    mu: usize,
    nu: usize,
    x: &[Cplx],
) -> Result<DiffReport, String> {
    let scalar = Plan::from_formula(formula, threads, mu)
        .map_err(|e| format!("scalar lowering failed: {e}"))?;
    let tagged = spiral_spl::builder::vec_tag(nu.max(1), formula.clone());
    let vector = Plan::from_formula(&tagged, threads, mu)
        .map_err(|e| format!("vector lowering failed: {e}"))?;
    let (scalar, vector) = if threads > 1 {
        (scalar.fuse_exchanges(), vector.fuse_exchanges())
    } else {
        (scalar, vector)
    };
    Ok(compare_plans(&vector, &scalar, x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulps_f64(1.0, 1.0), 0);
        assert_eq!(ulps_f64(0.0, -0.0), 0);
        assert_eq!(ulps_f64(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulps_f64(-1.0, f64::from_bits((-1.0f64).to_bits() + 1)), 1);
        // Straddling zero: distance counts representable values across
        // the sign boundary, monotonically.
        let tiny = f64::from_bits(1);
        assert_eq!(ulps_f64(tiny, -tiny), 2);
        assert_eq!(ulps_f64(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulps_f64(f64::INFINITY, f64::MAX), u64::MAX);
        assert!(ulps_f64(1.0, 1.0 + f64::EPSILON) <= 1);
    }

    #[test]
    fn reference_dft_matches_closed_forms() {
        // DFT of a delta is all ones; DFT of all-ones is n·delta.
        let n = 8;
        let mut delta = vec![Cplx::ZERO; n];
        delta[0] = Cplx::ONE;
        for v in reference_dft(&delta) {
            assert!(v.approx_eq(Cplx::ONE, 1e-12));
        }
        let ones = vec![Cplx::ONE; n];
        let y = reference_dft(&ones);
        assert!(y[0].approx_eq(Cplx::real(n as f64), 1e-12));
        for v in &y[1..] {
            assert!(v.approx_eq(Cplx::ZERO, 1e-12));
        }
    }

    #[test]
    fn differential_check_passes_on_healthy_formula() {
        let f = spiral_rewrite::sequential_dft(64, 8);
        let x: Vec<Cplx> = (0..64)
            .map(|j| Cplx::new((j as f64).sin(), (j as f64).cos()))
            .collect();
        for nu in [1usize, 2, 4] {
            let rep = differential_check(&f, 1, 4, nu, &x).unwrap();
            assert!(
                rep.passes(),
                "nu={nu}: {} ulps, {:.3e} vs tol {:.3e}",
                rep.ulps_vs_scalar,
                rep.err_vs_reference,
                rep.reference_tol
            );
        }
    }
}
