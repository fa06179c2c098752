//! The six-step FFT (paper eq. (3)) with *explicit* transposition passes,
//! optionally cache-blocked (ref. \[1\]) — the traditional shared-memory
//! FFT the multicore Cooley–Tukey (14) is contrasted with.

use crate::iterative::IterativeFft;
use crate::transpose::{trace_transpose, trace_transpose_blocked, transpose, transpose_blocked};
use spiral_codegen::hook::{MemHook, Region};
use spiral_spl::cplx::Cplx;
use spiral_spl::diag::DiagSpec;
use spiral_spl::num::is_pow2;

/// Six-step FFT for `N = m·n` (both powers of two).
pub struct SixStepFft {
    /// Row factor of the `N = m·n` split.
    pub m: usize,
    /// Column factor of the `N = m·n` split.
    pub n: usize,
    row_m: IterativeFft,
    row_n: IterativeFft,
    /// Tile size for blocked transposes; `None` = plain transposes.
    pub block: Option<usize>,
    twiddle: Vec<Cplx>,
}

impl SixStepFft {
    /// Six-step transform for `N = m·n`.
    pub fn new(m: usize, n: usize, block: Option<usize>) -> SixStepFft {
        assert!(
            is_pow2(m) && is_pow2(n),
            "six-step needs power-of-two factors"
        );
        SixStepFft {
            m,
            n,
            row_m: IterativeFft::new(m),
            row_n: IterativeFft::new(n),
            block,
            twiddle: DiagSpec::twiddle(m, n).entries(),
        }
    }

    /// Balanced splitting `N = m·n` with `m` the divisor nearest `√N`.
    pub fn for_size(nn: usize, block: Option<usize>) -> SixStepFft {
        assert!(is_pow2(nn) && nn >= 4);
        let lg = nn.trailing_zeros();
        let m = 1usize << (lg / 2);
        SixStepFft::new(m, nn / m, block)
    }

    /// Total transform size `m·n`.
    pub fn size(&self) -> usize {
        self.m * self.n
    }

    fn xpose(&self, src: &[Cplx], dst: &mut [Cplx], rows: usize, cols: usize) {
        match self.block {
            Some(b) => transpose_blocked(src, dst, rows, cols, b),
            None => transpose(src, dst, rows, cols),
        }
    }

    /// Sequential execution (steps exactly as in eq. (3), right to left).
    pub fn run(&self, x: &[Cplx]) -> Vec<Cplx> {
        let (m, n) = (self.m, self.n);
        let nn = m * n;
        assert_eq!(x.len(), nn);
        let mut a = vec![Cplx::ZERO; nn];
        let mut b = vec![Cplx::ZERO; nn];
        // 1. a = L^{mn}_m x  (transpose x viewed as n×m)
        self.xpose(x, &mut a, n, m);
        // 2. I_m ⊗ DFT_n: m contiguous rows of n.
        for r in 0..m {
            let y = self.row_n.run(&a[r * n..(r + 1) * n]);
            b[r * n..(r + 1) * n].copy_from_slice(&y);
        }
        // 3. twiddle: b[i·n + j] *= ω_N^{i·j}
        for (i, v) in b.iter_mut().enumerate() {
            *v *= self.twiddle[i];
        }
        // 4. a = L^{mn}_n b (transpose b viewed as m×n)
        self.xpose(&b, &mut a, m, n);
        // 5. I_n ⊗ DFT_m: n contiguous rows of m.
        for r in 0..n {
            let y = self.row_m.run(&a[r * m..(r + 1) * m]);
            b[r * m..(r + 1) * m].copy_from_slice(&y);
        }
        // 6. result = L^{mn}_m b
        self.xpose(&b, &mut a, n, m);
        a
    }

    /// Emit the access stream of the natural `threads`-way parallel
    /// six-step schedule: rows split contiguously per thread in the
    /// compute stages, transposes split by source rows, a barrier after
    /// every stage.
    pub fn trace(&self, threads: usize, hook: &mut dyn MemHook) {
        let (m, n) = (self.m, self.n);
        let (src, dst) = (Region::BufA, Region::BufB);
        let tx = |rows: usize, cols: usize, s: Region, d: Region, hook: &mut dyn MemHook| match self
            .block
        {
            Some(b) => trace_transpose_blocked(rows, cols, b, threads, s, d, hook),
            None => trace_transpose(rows, cols, threads, s, d, hook),
        };
        // 1. transpose x (n×m) : BufA → BufB
        tx(n, m, src, dst, hook);
        hook.barrier();
        // 2. row DFT_n on m rows: BufB → BufB (in place per row)
        self.trace_rows(m, n, self.row_n.flops(), threads, dst, hook);
        hook.barrier();
        // 3. twiddle pass: BufB in place
        for tid in 0..threads {
            let lo = (m * n) * tid / threads;
            let hi = (m * n) * (tid + 1) / threads;
            for i in lo..hi {
                hook.read(tid, dst, i);
                hook.write(tid, dst, i);
            }
            hook.flops(tid, 6 * (hi - lo) as u64);
        }
        hook.barrier();
        // 4. transpose (m×n): BufB → BufA
        tx(m, n, dst, src, hook);
        hook.barrier();
        // 5. row DFT_m on n rows: BufA in place
        self.trace_rows(n, m, self.row_m.flops(), threads, src, hook);
        hook.barrier();
        // 6. transpose (n×m): BufA → BufB
        tx(n, m, src, dst, hook);
        hook.barrier();
    }

    fn trace_rows(
        &self,
        rows: usize,
        cols: usize,
        flops_per_row: u64,
        threads: usize,
        buf: Region,
        hook: &mut dyn MemHook,
    ) {
        // An iterative radix-2 FFT over each row makes log2(cols) passes
        // over the row (in cache, but the accesses are real).
        let passes = cols.trailing_zeros().max(1) as u64;
        for tid in 0..threads {
            let lo = rows * tid / threads;
            let hi = rows * (tid + 1) / threads;
            for r in lo..hi {
                for _pass in 0..passes {
                    for c in 0..cols {
                        hook.read(tid, buf, r * cols + c);
                    }
                    hook.flops(tid, flops_per_row / passes);
                    for c in 0..cols {
                        hook.write(tid, buf, r * cols + c);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_codegen::hook::CountingHook;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|k| Cplx::new(k as f64 * 0.3, 1.0 - k as f64 * 0.1))
            .collect()
    }

    #[test]
    fn matches_dft() {
        for (m, n) in [(4usize, 4usize), (4, 8), (8, 8), (16, 8)] {
            let f = SixStepFft::new(m, n, None);
            let x = ramp(m * n);
            let y = f.run(&x);
            let want = spiral_spl::builder::dft(m * n).eval(&x);
            assert_slices_close(&y, &want, 1e-8 * (m * n) as f64);
        }
    }

    #[test]
    fn blocked_matches_plain() {
        let x = ramp(256);
        let plain = SixStepFft::new(16, 16, None).run(&x);
        for b in [2usize, 4, 8, 32] {
            let blocked = SixStepFft::new(16, 16, Some(b)).run(&x);
            assert_slices_close(&plain, &blocked, 1e-10);
        }
    }

    #[test]
    fn for_size_splits_near_sqrt() {
        let f = SixStepFft::for_size(1024, None);
        assert_eq!(f.m * f.n, 1024);
        assert!(f.m == 32 && f.n == 32);
        let g = SixStepFft::for_size(2048, None);
        assert_eq!(g.m * g.n, 2048);
    }

    #[test]
    fn trace_has_six_barriers_and_covers_data() {
        let f = SixStepFft::new(8, 8, None);
        let mut h = CountingHook::default();
        f.trace(2, &mut h);
        assert_eq!(h.barriers, 6);
        // 3 transposes + 1 twiddle + 2 compute stages all touch 64 elems.
        assert!(h.reads >= 6 * 64);
        assert!(h.flops > 0);
    }
}
