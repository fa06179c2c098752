//! Bluestein's chirp-z algorithm: `DFT_n` for arbitrary `n` (including
//! large primes) via a circular convolution of size `m = 2^k ≥ 2n-1`,
//! computed with the generator's own power-of-two plans.
//!
//! This extends the generated library beyond the paper's power-of-two
//! evaluation sizes — the inner transforms are still Spiral-tuned plans,
//! so all the paper's machinery (rule trees, loop merging, codelets) is
//! exercised underneath, on the same executor as every other backend.

use spiral_codegen::plan::Plan;
use spiral_codegen::Executor;
use spiral_smp::SpiralError;
use spiral_spl::cplx::{first_non_finite, Cplx};
use std::f64::consts::PI;

/// The precomputed data of a Bluestein `DFT_n`; the inner `DFT_m` plan
/// and its executor are the facade's.
pub(crate) struct Bluestein {
    /// Chirp `w_k = e^{-iπ k²/n}` for `k < n`.
    chirp: Vec<Cplx>,
    /// Forward `DFT_m` of the padded conjugate-chirp kernel.
    kernel_hat: Vec<Cplx>,
}

impl Bluestein {
    /// The chirp of `DFT_n` and the kernel spectrum, computed by `inner`
    /// (a `DFT_m`, `m ≥ 2n − 1`) on `executor`.
    pub(crate) fn new(n: usize, inner: &Plan, executor: &Executor) -> Bluestein {
        let m = inner.n;
        // w_k = e^{-iπ k²/n}; the exponent is periodic with 2n, so reduce
        // k² mod 2n to keep the angle accurate for large k.
        let chirp: Vec<Cplx> = (0..n)
            .map(|k| {
                let e = ((k as u128 * k as u128) % (2 * n) as u128) as f64;
                Cplx::cis(-PI * e / n as f64)
            })
            .collect();
        // Kernel b: b_0 = w̄_0, b_j = b_{m-j} = w̄_j (wrap-around), 0 else.
        let mut b = vec![Cplx::ZERO; m];
        b[0] = chirp[0].conj();
        for j in 1..n {
            let c = chirp[j].conj();
            b[j] = c;
            b[m - j] = c;
        }
        let mut kernel_hat = vec![Cplx::ZERO; m];
        executor
            .try_run(inner, &[b], &mut [&mut kernel_hat[..]], &())
            .unwrap_or_else(|e| panic!("Bluestein kernel DFT_{m} failed: {e}"));
        Bluestein { chirp, kernel_hat }
    }

    /// Write `DFT_n(x)` into `y` through two runs of `inner` on
    /// `executor`, in one allocation of two `m`-element work buffers.
    pub(crate) fn forward_into(
        &self,
        inner: &Plan,
        executor: &Executor,
        x: &[Cplx],
        y: &mut [Cplx],
    ) -> Result<(), SpiralError> {
        let n = self.chirp.len();
        if x.len() != n || y.len() != n {
            return Err(SpiralError::Plan(format!(
                "input length {}, output length {}, transform size {n}",
                x.len(),
                y.len()
            )));
        }
        let m = inner.n;
        let mut work = vec![Cplx::ZERO; 2 * m];
        let (a, a_hat) = work.split_at_mut(m);
        // a = chirp ⊙ x, zero-padded to m.
        for ((ak, &xk), &wk) in a.iter_mut().zip(x).zip(&self.chirp) {
            *ak = xk * wk;
        }
        executor
            .try_run(inner, &[&*a], &mut [&mut *a_hat], &())
            .or_else(flagged)?;
        // Pointwise product with the kernel spectrum, conjugated: the
        // inverse DFT_m runs on the same plan by the conjugation identity.
        for (p, &q) in a_hat.iter_mut().zip(&self.kernel_hat) {
            *p = (*p * q).conj();
        }
        executor
            .try_run(inner, &[&*a_hat], &mut [&mut *a], &())
            .or_else(flagged)?;
        // y_k = w_k · conv_k
        let scale = 1.0 / m as f64;
        for ((yk, ak), &wk) in y.iter_mut().zip(&*a).zip(&self.chirp) {
            *yk = ak.conj() * scale * wk;
        }
        match first_non_finite(y) {
            Some(index) => Err(SpiralError::NonFinite {
                index,
                context: format!("Bluestein DFT_{n} output"),
            }),
            None => Ok(()),
        }
    }
}

/// `Ok` for an inner run's `NonFinite`: that run wrote its whole
/// output, and the scan of `y` reports the value where the caller sees it.
fn flagged(e: SpiralError) -> Result<(), SpiralError> {
    match e {
        SpiralError::NonFinite { .. } => Ok(()),
        e => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use crate::SpiralFft;
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::{assert_slices_close, Cplx};

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|k| Cplx::new((k as f64 * 0.71).sin(), (k as f64 * 0.31).cos()))
            .collect()
    }

    #[test]
    fn primes_match_definition() {
        for n in [3usize, 5, 7, 11, 13, 97, 101, 127, 251] {
            let fft = SpiralFft::bluestein(n);
            let m = fft.plan().n;
            assert!(m.is_power_of_two() && m >= 2 * n - 1);
            let x = ramp(n);
            assert_slices_close(&fft.forward(&x), &dft(n).eval(&x), 1e-7 * n as f64);
        }
    }

    #[test]
    fn composite_and_power_of_two_sizes_also_work() {
        for n in [1usize, 2, 6, 16, 194, 300] {
            let fft = SpiralFft::bluestein(n);
            let x = ramp(n);
            let want = dft(n).eval(&x);
            assert_slices_close(&fft.forward(&x), &want, 1e-7 * n.max(4) as f64);
        }
    }
}
