//! Explicit matrix transposition — the data-reorganization passes of the
//! six-step FFT (paper eq. (3)), plain and cache-blocked (ref. \[1\]).

use spiral_codegen::hook::{MemHook, Region};
use spiral_spl::cplx::Cplx;

/// `dst` (an `n × m` row-major matrix) = transpose of `src` (`m × n`).
pub fn transpose(src: &[Cplx], dst: &mut [Cplx], m: usize, n: usize) {
    assert_eq!(src.len(), m * n);
    assert_eq!(dst.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            dst[j * m + i] = src[i * n + j];
        }
    }
}

/// Cache-blocked transpose with `b × b` tiles.
pub fn transpose_blocked(src: &[Cplx], dst: &mut [Cplx], m: usize, n: usize, b: usize) {
    assert_eq!(src.len(), m * n);
    assert_eq!(dst.len(), m * n);
    let b = b.max(1);
    let mut ib = 0;
    while ib < m {
        let mut jb = 0;
        let i_hi = (ib + b).min(m);
        while jb < n {
            let j_hi = (jb + b).min(n);
            for i in ib..i_hi {
                for j in jb..j_hi {
                    dst[j * m + i] = src[i * n + j];
                }
            }
            jb += b;
        }
        ib += b;
    }
}

/// Emit the access stream of a `threads`-way parallel transpose that
/// splits the *source rows* contiguously per thread (the natural
/// schedule). Writes go at stride `m` — consecutive `j` from the same
/// thread hit different lines, but different threads' writes interleave
/// in the destination, which is where false sharing appears when `m` is
/// not a multiple of the line size.
pub fn trace_transpose(
    m: usize,
    n: usize,
    threads: usize,
    src: Region,
    dst: Region,
    hook: &mut dyn MemHook,
) {
    for tid in 0..threads {
        let lo = m * tid / threads;
        let hi = m * (tid + 1) / threads;
        for i in lo..hi {
            for j in 0..n {
                hook.read(tid, src, i * n + j);
                hook.write(tid, dst, j * m + i);
            }
        }
    }
}

/// Blocked variant of [`trace_transpose`] (tiles of `b × b`, rows of
/// tiles split across threads).
pub fn trace_transpose_blocked(
    m: usize,
    n: usize,
    b: usize,
    threads: usize,
    src: Region,
    dst: Region,
    hook: &mut dyn MemHook,
) {
    let b = b.max(1);
    let tile_rows = m.div_ceil(b);
    for tid in 0..threads {
        let lo = tile_rows * tid / threads;
        let hi = tile_rows * (tid + 1) / threads;
        for tr in lo..hi {
            let (i0, i1) = (tr * b, ((tr + 1) * b).min(m));
            let mut jb = 0;
            while jb < n {
                let j1 = (jb + b).min(n);
                for i in i0..i1 {
                    for j in jb..j1 {
                        hook.read(tid, src, i * n + j);
                        hook.write(tid, dst, j * m + i);
                    }
                }
                jb += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_codegen::hook::CountingHook;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n).map(|k| Cplx::real(k as f64)).collect()
    }

    #[test]
    fn plain_transpose_correct() {
        let (m, n) = (3usize, 5usize);
        let src = ramp(m * n);
        let mut dst = vec![Cplx::ZERO; m * n];
        transpose(&src, &mut dst, m, n);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(dst[j * m + i], src[i * n + j]);
            }
        }
    }

    #[test]
    fn blocked_matches_plain() {
        let (m, n) = (16usize, 12usize);
        let src = ramp(m * n);
        let mut a = vec![Cplx::ZERO; m * n];
        let mut b = vec![Cplx::ZERO; m * n];
        transpose(&src, &mut a, m, n);
        for blk in [1usize, 2, 4, 5, 16, 100] {
            transpose_blocked(&src, &mut b, m, n, blk);
            assert_eq!(a, b, "block size {blk}");
        }
    }

    #[test]
    fn traces_cover_every_element_once() {
        let (m, n) = (8usize, 8usize);
        for threads in [1usize, 2, 4] {
            let mut h = CountingHook::default();
            trace_transpose(m, n, threads, Region::BufA, Region::BufB, &mut h);
            assert_eq!(h.reads, (m * n) as u64);
            assert_eq!(h.writes, (m * n) as u64);
            let mut hb = CountingHook::default();
            trace_transpose_blocked(m, n, 4, threads, Region::BufA, Region::BufB, &mut hb);
            assert_eq!(hb.reads, (m * n) as u64);
            assert_eq!(hb.writes, (m * n) as u64);
        }
    }
}
