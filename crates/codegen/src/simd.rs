//! Portable short-vector lane arithmetic for the `vec(ν)` backend.
//!
//! `std::simd` is nightly-only, so the lane types here are fixed-size
//! `Cplx` arrays with `#[inline(always)]` elementwise operations: under
//! the x86_64 SSE2 baseline (and AVX when the host has it) LLVM lowers
//! these loops to packed vector instructions, which is exactly the
//! interleaved-complex short-vector code the paper's §3.2 composition
//! with the short-vector FFT calls for. ν complex lanes occupy 2ν
//! doubles; a lane group is ν *consecutive* complex elements, matching
//! the contiguous innermost lane loop that `· ⊗ I_ν` lowering produces.
//!
//! The backend degrades gracefully: hosts without a useful vector unit
//! (or builds with the `force-scalar` feature) report width 1 and every
//! `vec(ν)`-tagged stage executes through the scalar kernel path,
//! bit-identical to an untagged plan.

use spiral_spl::cplx::Cplx;

/// Widest lane count any codelet kernel supports (f64x4-style: four
/// complex lanes = 8 doubles = one AVX-512 register pair / two AVX
/// registers per component).
pub const MAX_LANES: usize = 4;

/// Lane widths worth offering as tuner candidates, narrowest first.
pub const CANDIDATE_WIDTHS: [usize; 2] = [2, 4];

/// The SIMD lane width (in complex elements) the running host supports,
/// detected at runtime. Returns 1 when the `force-scalar` feature is on
/// or the host has no vector unit the backend targets — every caller
/// must treat 1 as "scalar only". The raw hardware fact comes from
/// [`spiral_smp::topology::simd_width`] (the same detector every host
/// fingerprint records), capped at [`MAX_LANES`], the widest kernel this
/// backend implements.
pub fn detected_simd_width() -> usize {
    if cfg!(feature = "force-scalar") {
        return 1;
    }
    spiral_smp::topology::simd_width().min(MAX_LANES)
}

/// The value type a generated codelet computes on: one complex number
/// (`Cplx`, ν = 1) or ν of them side by side ([`Lanes<ν>`](Lanes)). Every
/// operation acts lane-wise with exactly the scalar `Cplx` arithmetic, so
/// lane `l` of a kernel run on `Lanes<ν>` is bit-identical to the same
/// kernel run on lane `l` alone.
pub trait Lane:
    Copy + std::ops::Add<Output = Self> + std::ops::Sub<Output = Self> + std::ops::Neg<Output = Self>
{
    /// Complex elements per value.
    const NU: usize;
    /// All lanes zero.
    const ZERO: Self;
    /// Load the value starting at `src[at]` (ν consecutive elements).
    fn load(src: &[Cplx], at: usize) -> Self;
    /// Store the value to `dst[at..at + ν]`.
    fn store(self, dst: &mut [Cplx], at: usize);
    /// [`load`](Self::load) through a raw pointer, unchecked.
    ///
    /// # Safety
    /// `src.add(at)` is valid for reads of ν elements.
    unsafe fn read(src: *const Cplx, at: usize) -> Self;
    /// [`store`](Self::store) through a raw pointer, unchecked.
    ///
    /// # Safety
    /// `dst.add(at)` is valid for writes of ν elements.
    unsafe fn write(self, dst: *mut Cplx, at: usize);
    /// Every lane times the same constant (a codelet twiddle).
    fn mul_const(self, c: Cplx) -> Self;
    /// Lane-wise product (per-lane twiddle application).
    fn mul_lanes(self, w: Self) -> Self;
    /// Lane-wise rotation by `i`.
    fn mul_i(self) -> Self;
    /// Lane-wise rotation by `-i`.
    fn mul_neg_i(self) -> Self;
    /// Apply the scalar kernel `f` to each lane on its own.
    fn per_lane<const C: usize>(x: [Self; C], f: fn([Cplx; C]) -> [Cplx; C]) -> [Self; C];
}

impl Lane for Cplx {
    const NU: usize = 1;
    const ZERO: Cplx = Cplx::ZERO;
    #[inline(always)]
    fn load(src: &[Cplx], at: usize) -> Cplx {
        src[at]
    }
    #[inline(always)]
    fn store(self, dst: &mut [Cplx], at: usize) {
        dst[at] = self;
    }
    #[inline(always)]
    unsafe fn read(src: *const Cplx, at: usize) -> Cplx {
        // SAFETY: the caller guarantees `src.add(at)` is readable.
        unsafe { src.add(at).read() }
    }
    #[inline(always)]
    unsafe fn write(self, dst: *mut Cplx, at: usize) {
        // SAFETY: the caller guarantees `dst.add(at)` is writable.
        unsafe { dst.add(at).write(self) }
    }
    #[inline(always)]
    fn mul_const(self, c: Cplx) -> Cplx {
        self * c
    }
    #[inline(always)]
    fn mul_lanes(self, w: Cplx) -> Cplx {
        self * w
    }
    #[inline(always)]
    fn mul_i(self) -> Cplx {
        Cplx::mul_i(self)
    }
    #[inline(always)]
    fn mul_neg_i(self) -> Cplx {
        Cplx::mul_neg_i(self)
    }
    #[inline(always)]
    fn per_lane<const C: usize>(x: [Cplx; C], f: fn([Cplx; C]) -> [Cplx; C]) -> [Cplx; C] {
        f(x)
    }
}

/// ν complex lanes processed as one unit — the "vector register" of the
/// portable backend.
#[derive(Copy, Clone, Debug)]
#[repr(C)]
pub struct Lanes<const NU: usize>(pub [Cplx; NU]);

impl<const NU: usize> Lanes<NU> {
    #[inline(always)]
    fn map(self, f: impl Fn(Cplx) -> Cplx) -> Lanes<NU> {
        Lanes(self.0.map(f))
    }

    #[inline(always)]
    fn zip(self, rhs: Lanes<NU>, f: impl Fn(Cplx, Cplx) -> Cplx) -> Lanes<NU> {
        let mut v = self.0;
        for (x, y) in v.iter_mut().zip(rhs.0) {
            *x = f(*x, y);
        }
        Lanes(v)
    }
}

impl<const NU: usize> Lane for Lanes<NU> {
    const NU: usize = NU;
    const ZERO: Lanes<NU> = Lanes([Cplx::ZERO; NU]);
    #[inline(always)]
    fn load(src: &[Cplx], at: usize) -> Lanes<NU> {
        let mut v = [Cplx::ZERO; NU];
        v.copy_from_slice(&src[at..at + NU]);
        Lanes(v)
    }
    #[inline(always)]
    fn store(self, dst: &mut [Cplx], at: usize) {
        dst[at..at + NU].copy_from_slice(&self.0);
    }
    #[inline(always)]
    unsafe fn read(src: *const Cplx, at: usize) -> Lanes<NU> {
        // SAFETY: the caller guarantees ν readable elements at
        // `src.add(at)`; `[Cplx; NU]` has `Cplx`'s alignment.
        Lanes(unsafe { src.add(at).cast::<[Cplx; NU]>().read() })
    }
    #[inline(always)]
    unsafe fn write(self, dst: *mut Cplx, at: usize) {
        // SAFETY: the caller guarantees ν writable elements at
        // `dst.add(at)`; `[Cplx; NU]` has `Cplx`'s alignment.
        unsafe { dst.add(at).cast::<[Cplx; NU]>().write(self.0) }
    }
    #[inline(always)]
    fn mul_const(self, c: Cplx) -> Lanes<NU> {
        self.map(|x| x * c)
    }
    #[inline(always)]
    fn mul_lanes(self, w: Lanes<NU>) -> Lanes<NU> {
        self.zip(w, |x, y| x * y)
    }
    #[inline(always)]
    fn mul_i(self) -> Lanes<NU> {
        self.map(Cplx::mul_i)
    }
    #[inline(always)]
    fn mul_neg_i(self) -> Lanes<NU> {
        self.map(Cplx::mul_neg_i)
    }
    fn per_lane<const C: usize>(
        mut x: [Lanes<NU>; C],
        f: fn([Cplx; C]) -> [Cplx; C],
    ) -> [Lanes<NU>; C] {
        for l in 0..NU {
            let y = f(x.map(|v| v.0[l]));
            for (v, y) in x.iter_mut().zip(y) {
                v.0[l] = y;
            }
        }
        x
    }
}

/// Lane-wise addition.
impl<const NU: usize> std::ops::Add for Lanes<NU> {
    type Output = Lanes<NU>;
    #[inline(always)]
    fn add(self, rhs: Lanes<NU>) -> Lanes<NU> {
        self.zip(rhs, |x, y| x + y)
    }
}

/// Lane-wise subtraction.
impl<const NU: usize> std::ops::Sub for Lanes<NU> {
    type Output = Lanes<NU>;
    #[inline(always)]
    fn sub(self, rhs: Lanes<NU>) -> Lanes<NU> {
        self.zip(rhs, |x, y| x - y)
    }
}

/// Lane-wise negation.
impl<const NU: usize> std::ops::Neg for Lanes<NU> {
    type Output = Lanes<NU>;
    #[inline(always)]
    fn neg(self) -> Lanes<NU> {
        self.map(|x| -x)
    }
}

/// Re-key a scalar per-slot twiddle table (`[flat·c + t]`) into the
/// lane-grouped layout the vector path reads contiguously:
/// `out[g·c·ν + t·ν + l] = w[(g·ν + l)·c + t]` — the lane shuffle that
/// turns ν strided scalar lookups into one contiguous vector load.
/// `w.len()` must be a multiple of `c·ν`.
pub fn lane_shuffle_twiddle(w: &[Cplx], c: usize, nu: usize) -> Vec<Cplx> {
    debug_assert!(w.len().is_multiple_of(c * nu));
    let groups = w.len() / (c * nu);
    let mut out = Vec::with_capacity(w.len());
    for g in 0..groups {
        for t in 0..c {
            for l in 0..nu {
                out.push(w[(g * nu + l) * c + t]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_width_is_sane() {
        let w = detected_simd_width();
        assert!(w == 1 || w == 2 || w == 4, "width {w}");
        assert!(w <= MAX_LANES);
        if cfg!(feature = "force-scalar") {
            assert_eq!(w, 1, "force-scalar must report scalar width");
        }
    }

    #[test]
    fn lane_ops_match_scalar() {
        let a = Lanes::<4>([
            Cplx::new(1.0, 2.0),
            Cplx::new(-0.5, 0.25),
            Cplx::new(3.0, -1.0),
            Cplx::new(0.0, 1.0),
        ]);
        let b = Lanes::<4>([
            Cplx::new(2.0, -1.0),
            Cplx::new(1.5, 1.5),
            Cplx::new(-1.0, -1.0),
            Cplx::new(4.0, 0.5),
        ]);
        for l in 0..4 {
            assert!((a + b).0[l].approx_eq(a.0[l] + b.0[l], 0.0));
            assert!((a - b).0[l].approx_eq(a.0[l] - b.0[l], 0.0));
            assert!((-a).0[l].approx_eq(-a.0[l], 0.0));
            assert!(a.mul_lanes(b).0[l].approx_eq(a.0[l] * b.0[l], 0.0));
            assert!(a.mul_i().0[l].approx_eq(a.0[l].mul_i(), 0.0));
            assert!(a.mul_neg_i().0[l].approx_eq(a.0[l].mul_neg_i(), 0.0));
            let c = Cplx::new(0.7, -0.3);
            assert!(a.mul_const(c).0[l].approx_eq(a.0[l] * c, 0.0));
        }
    }

    #[test]
    fn lane_shuffle_roundtrips() {
        let c = 3;
        let nu = 2;
        let w: Vec<Cplx> = (0..c * nu * 4).map(|k| Cplx::real(k as f64)).collect();
        let s = lane_shuffle_twiddle(&w, c, nu);
        assert_eq!(s.len(), w.len());
        for g in 0..4 {
            for t in 0..c {
                for l in 0..nu {
                    assert!(s[g * c * nu + t * nu + l].approx_eq(w[(g * nu + l) * c + t], 0.0));
                }
            }
        }
    }
}
