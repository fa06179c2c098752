//! Complex arithmetic for interleaved double-precision FFT data.
//!
//! The paper measures the cache-line parameter `µ` in complex numbers
//! (§3.1: 64-byte line, `double` data ⇒ µ = 4). `Cplx` is a plain
//! `#[repr(C)]` pair of `f64`, i.e. exactly 16 bytes, so that layout
//! reasoning (cache lines, false sharing) matches the paper's.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number in rectangular form, 16 bytes, interleaved layout.
#[derive(Copy, Clone, Default, PartialEq)]
#[repr(C)]
pub struct Cplx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cplx {
    /// The additive identity `0`.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1`.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
    /// The imaginary unit `i`.
    pub const I: Cplx = Cplx { re: 0.0, im: 1.0 };

    /// Construct from rectangular parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Cplx { re, im }
    }

    /// Real number embedded in the complex plane.
    #[inline(always)]
    pub const fn real(re: f64) -> Self {
        Cplx { re, im: 0.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Cplx { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Cplx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiply by `i` (one rotation, no multiplications).
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        Cplx {
            re: -self.im,
            im: self.re,
        }
    }

    /// Multiply by `-i`.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        Cplx {
            re: self.im,
            im: -self.re,
        }
    }

    /// Reciprocal `1/z`. Not hardened against overflow; inputs in FFT
    /// twiddle usage are unit-modulus.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Cplx {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Fused `self * w + acc` convenience used by naive DFT kernels.
    #[inline(always)]
    pub fn mul_add(self, w: Cplx, acc: Cplx) -> Cplx {
        Cplx {
            re: acc.re + self.re * w.re - self.im * w.im,
            im: acc.im + self.re * w.im + self.im * w.re,
        }
    }

    /// Max of |Δre|, |Δim| against `other` — used by tests for tolerances.
    #[inline]
    pub fn dist_inf(self, other: Cplx) -> f64 {
        (self.re - other.re).abs().max((self.im - other.im).abs())
    }

    /// True if within `tol` of `other` in the infinity norm.
    #[inline]
    pub fn approx_eq(self, other: Cplx, tol: f64) -> bool {
        self.dist_inf(other) <= tol
    }
}

impl Add for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for Cplx {
    type Output = Cplx;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w computed as z·w⁻¹
    fn div(self, rhs: Cplx) -> Cplx {
        self * rhs.recip()
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn neg(self) -> Cplx {
        Cplx {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Cplx {
        Cplx {
            re: self.re * rhs,
            im: self.im * rhs,
        }
    }
}

impl AddAssign for Cplx {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Cplx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Cplx {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Cplx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Cplx {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Cplx) {
        *self = *self * rhs;
    }
}

impl fmt::Debug for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}{:+.6}i)", self.re, self.im)
    }
}

impl fmt::Display for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl From<f64> for Cplx {
    fn from(re: f64) -> Self {
        Cplx::real(re)
    }
}

/// Index of the first non-finite (NaN/∞) value in a complex slice, or
/// `None` when every element is finite. The execution layer scans
/// results with this before they leave the executor, and the tuner uses
/// it to quarantine candidates producing corrupted output.
///
/// A block fold the compiler vectorises: `x · 0` is ±0 for a finite `x`
/// and NaN otherwise, so a block's sum of them is 0 exactly when the
/// block is finite. Only the first block that flags is searched element
/// by element.
pub fn first_non_finite(xs: &[Cplx]) -> Option<usize> {
    const BLOCK: usize = 64;
    xs.chunks(BLOCK)
        .position(|block| !all_finite(block))
        .and_then(|b| {
            let block = &xs[b * BLOCK..];
            let bad = |z: &Cplx| !z.re.is_finite() || !z.im.is_finite();
            block.iter().position(bad).map(|i| b * BLOCK + i)
        })
}

/// True when every part of every element of `block` is finite: the fold
/// of [`first_non_finite`], over 8 independent accumulators (4 elements
/// of 2 parts) so that no add waits on the one before it.
#[inline(always)]
fn all_finite(block: &[Cplx]) -> bool {
    let mut acc = [0.0f64; 8];
    let mut lanes = block.chunks_exact(4);
    for quad in &mut lanes {
        for (k, z) in quad.iter().enumerate() {
            acc[2 * k] += z.re * 0.0;
            acc[2 * k + 1] += z.im * 0.0;
        }
    }
    for (k, z) in lanes.remainder().iter().enumerate() {
        acc[2 * k] += z.re * 0.0;
        acc[2 * k + 1] += z.im * 0.0;
    }
    acc.iter().sum::<f64>() == 0.0
}

/// Maximum infinity-norm distance between two complex slices.
pub fn max_dist(a: &[Cplx], b: &[Cplx]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_dist: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| x.dist_inf(*y))
        .fold(0.0, f64::max)
}

/// Assert two complex slices are equal within `tol`, with a useful message.
pub fn assert_slices_close(a: &[Cplx], b: &[Cplx], tol: f64) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.approx_eq(*y, tol),
            "slices differ at index {i}: {x:?} vs {y:?} (tol={tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_interleaved_16_bytes() {
        assert_eq!(std::mem::size_of::<Cplx>(), 16);
        assert_eq!(std::mem::align_of::<Cplx>(), 8);
    }

    #[test]
    fn basic_field_ops() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -1.0);
        assert_eq!(a + b, Cplx::new(4.0, 1.0));
        assert_eq!(a - b, Cplx::new(-2.0, 3.0));
        assert_eq!(a * b, Cplx::new(5.0, 5.0));
        assert_eq!(-a, Cplx::new(-1.0, -2.0));
        assert!((a / b * b).approx_eq(a, 1e-12));
    }

    #[test]
    fn mul_by_i_matches_full_multiply() {
        let z = Cplx::new(0.3, -0.7);
        assert!(z.mul_i().approx_eq(z * Cplx::I, 0.0));
        assert!(z.mul_neg_i().approx_eq(z * -Cplx::I, 0.0));
    }

    #[test]
    fn cis_unit_circle() {
        for k in 0..16 {
            let t = 2.0 * std::f64::consts::PI * k as f64 / 16.0;
            let z = Cplx::cis(t);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
        assert!(Cplx::cis(0.0).approx_eq(Cplx::ONE, 1e-15));
        assert!(Cplx::cis(std::f64::consts::PI / 2.0).approx_eq(Cplx::I, 1e-15));
    }

    #[test]
    fn conj_and_norm() {
        let z = Cplx::new(3.0, 4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert_eq!(z.conj(), Cplx::new(3.0, -4.0));
        assert!((z * z.conj()).approx_eq(Cplx::real(25.0), 1e-12));
    }

    #[test]
    fn mul_add_matches_expanded() {
        let a = Cplx::new(1.5, -2.5);
        let w = Cplx::new(0.25, 0.75);
        let acc = Cplx::new(-1.0, 1.0);
        assert!(a.mul_add(w, acc).approx_eq(a * w + acc, 1e-15));
    }

    #[test]
    fn slice_helpers() {
        let a = [Cplx::ONE, Cplx::I];
        let b = [Cplx::ONE, Cplx::new(0.0, 1.0 + 1e-13)];
        assert!(max_dist(&a, &b) < 1e-12);
        assert_slices_close(&a, &b, 1e-12);
    }

    #[test]
    #[should_panic(expected = "slices differ")]
    fn slice_assert_panics_on_mismatch() {
        assert_slices_close(&[Cplx::ONE], &[Cplx::I], 1e-12);
    }
}
