//! DFT codelets: the straight-line base-case kernels of the generator.
//!
//! Every size in the kernel set ([`dag::has_kernel`]: the leaves a search
//! can pick) has one kernel, printed by the build script from the
//! partial-evaluation DAG of [`dag`] (Cooley–Tukey recursion, naive DFT
//! for primes) and compiled as monomorphic, fully unrolled code. The
//! kernel is generic over the [`Lane`] type, so the same source serves
//! the scalar path and every ν-lane path (a DAG over
//! [`dag::STRAIGHT_LINE_NODES`] is one scalar function that lane types
//! run one lane at a time); its output is bit-for-bit [`Dag::eval`] of
//! the DAG it was printed from.

pub mod dag;

use crate::simd::{Lane, Lanes};
use dag::{generate_dft_dag, has_kernel, Dag, MAX_CODELET};
use spiral_spl::cplx::Cplx;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// The generated kernels: `Kernels: Dft<n>` for every `n` with
/// [`has_kernel`]`(n)`.
pub struct Kernels;

/// A straight-line `DFT_C` over `C` values of any lane type.
pub trait Dft<const C: usize> {
    /// `DFT_C(x)`, lane-wise.
    fn dft<T: Lane>(x: [T; C]) -> [T; C];
}

/// A computation to run once monomorphised for a codelet size (see
/// [`with_size`]).
pub(crate) trait SizeFn {
    type Out;
    fn call<const C: usize>(self) -> Self::Out
    where
        Kernels: Dft<C>;
}

#[allow(clippy::all, clippy::pedantic)]
mod generated {
    use super::{Dft, Kernels, SizeFn};
    use crate::simd::Lane;
    use spiral_spl::cplx::Cplx;
    include!(concat!(env!("OUT_DIR"), "/kernels.rs"));
}

pub(crate) use generated::with_size;

/// An executable DFT kernel of a fixed (small) size: the generated
/// straight-line code, plus the DAG it was printed from (for the C
/// emitter, flop accounting, and certification).
#[derive(Clone, Debug)]
pub struct Codelet {
    dag: Arc<Dag>,
}

impl Codelet {
    /// The codelet for `DFT_n`. Panics unless [`has_kernel`]`(n)`.
    pub fn for_size(n: usize) -> Codelet {
        Codelet { dag: cached_dag(n) }
    }

    /// The DAG the kernel was generated from — what the C emitter prints
    /// and the certifier evaluates exactly.
    pub fn dag(&self) -> Arc<Dag> {
        Arc::clone(&self.dag)
    }

    /// Transform size.
    pub fn size(&self) -> usize {
        self.dag.n_inputs
    }

    /// Real-flop count per application (for the cost model and the
    /// pseudo-Mflop/s accounting).
    pub fn flops(&self) -> u64 {
        self.dag.flops()
    }

    /// Apply: `out = DFT_n(input)`. The scratch argument is unused (the
    /// kernel keeps its values in registers and on the stack).
    #[inline]
    pub fn apply(&self, input: &[Cplx], out: &mut [Cplx], _scratch: &mut Vec<Cplx>) {
        with_size(self.size(), Apply::<Cplx>(input, out, PhantomData));
    }

    /// Vector apply: `NU` independent transforms in lane-grouped layout —
    /// slot `t` of the `c`-point transform occupies `input[t·NU..(t+1)·NU]`
    /// (lane `l` of slot `t` at `t·NU + l`), and likewise for `out`. Each
    /// lane runs the kernel of [`apply`](Self::apply) op for op, so
    /// per-lane results are bit-identical to `NU` scalar applications.
    #[inline]
    pub fn apply_lanes<const NU: usize>(
        &self,
        input: &[Cplx],
        out: &mut [Cplx],
        _scratch: &mut Vec<Cplx>,
    ) {
        with_size(self.size(), Apply::<Lanes<NU>>(input, out, PhantomData));
    }
}

/// One kernel application over lane-grouped slots: input, output.
struct Apply<'a, T>(&'a [Cplx], &'a mut [Cplx], PhantomData<T>);

impl<T: Lane> SizeFn for Apply<'_, T> {
    type Out = ();
    #[inline(never)]
    fn call<const C: usize>(self)
    where
        Kernels: Dft<C>,
    {
        let x: [T; C] = std::array::from_fn(|t| T::load(self.0, t * T::NU));
        for (t, v) in Kernels::dft(x).into_iter().enumerate() {
            v.store(self.1, t * T::NU);
        }
    }
}

/// Global cache of generated DAGs (generation is pure, so sharing is safe).
fn cached_dag(n: usize) -> Arc<Dag> {
    static CACHE: [OnceLock<Arc<Dag>>; MAX_CODELET] = [const { OnceLock::new() }; MAX_CODELET];
    assert!(has_kernel(n), "no generated kernel for DFT_{n}");
    Arc::clone(CACHE[n - 1].get_or_init(|| Arc::new(generate_dft_dag(n))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::apply::naive_dft;
    use spiral_spl::cplx::assert_slices_close;

    fn rand_input(n: usize, seed: u64) -> Vec<Cplx> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let re = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let im = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
                Cplx::new(re, im)
            })
            .collect()
    }

    fn bits(v: &[Cplx]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// The compiled kernel of every size in the kernel set, on every lane
    /// of every lane width, is bit-for-bit `Dag::eval` of the DAG it was
    /// printed from. The sizes cover both printed forms: lane-generic
    /// (DFT_32) and scalar run lane by lane (DFT_13 and every prime from
    /// 17 to 43).
    #[test]
    fn compiled_kernels_are_bit_exact_dag_eval() {
        fn check<const NU: usize>(c: &Codelet, n: usize) {
            let x = rand_input(n * NU, (n * 31 + NU) as u64);
            let mut got = vec![Cplx::ZERO; n * NU];
            if NU == 1 {
                c.apply(&x, &mut got, &mut Vec::new());
            } else {
                c.apply_lanes::<NU>(&x, &mut got, &mut Vec::new());
            }
            for l in 0..NU {
                let lane: Vec<Cplx> = (0..n).map(|t| x[t * NU + l]).collect();
                let mut want = vec![Cplx::ZERO; n];
                c.dag().eval(&lane, &mut want, &mut Vec::new());
                let got_lane: Vec<Cplx> = (0..n).map(|t| got[t * NU + l]).collect();
                assert_eq!(bits(&got_lane), bits(&want), "DFT_{n}, ν={NU}, lane {l}");
            }
        }
        for n in dag::kernel_sizes() {
            let c = Codelet::for_size(n);
            assert_eq!(c.size(), n);
            check::<1>(&c, n);
            check::<2>(&c, n);
            check::<4>(&c, n);
        }
        let nodes = |n| generate_dft_dag(n).nodes.len();
        assert!(nodes(32) <= dag::STRAIGHT_LINE_NODES);
        assert!([13, 17, 43]
            .iter()
            .all(|&n| nodes(n) > dag::STRAIGHT_LINE_NODES));
    }

    /// The build script printed a kernel and a `with_size` arm for
    /// exactly the 20 sizes of the kernel set, in at most 35,000 lines.
    #[test]
    fn printed_kernels_are_the_kernel_set() {
        let src = include_str!(concat!(env!("OUT_DIR"), "/kernels.rs"));
        let sizes = |prefix: &str, suffix: &str| -> Vec<usize> {
            src.lines()
                .filter_map(|l| l.trim().strip_prefix(prefix)?.split_once(suffix))
                .map(|(n, _)| n.parse().unwrap())
                .collect()
        };
        let want = vec![
            1, 2, 3, 4, 5, 6, 7, 8, 11, 13, 16, 17, 19, 23, 29, 31, 32, 37, 41, 43,
        ];
        assert_eq!(dag::kernel_sizes().collect::<Vec<_>>(), want);
        assert_eq!(sizes("impl Dft<", "> for Kernels"), want);
        assert_eq!(sizes("", " => f.call::<"), want);
        let lines = src.lines().count();
        assert!(lines <= 35_000, "{lines} generated lines");
    }

    #[test]
    #[should_panic(expected = "no generated kernel for DFT_12")]
    fn codelet_outside_the_kernel_set_panics() {
        let _ = Codelet::for_size(12);
    }

    #[test]
    fn generated_dags_match_definition_all_sizes() {
        for n in 1..=MAX_CODELET {
            let dag = generate_dft_dag(n);
            assert_eq!(dag.n_inputs, n);
            assert_eq!(dag.outputs.len(), n);
            let x = rand_input(n, n as u64);
            let mut got = vec![Cplx::ZERO; n];
            let mut scratch = Vec::new();
            dag.eval(&x, &mut got, &mut scratch);
            let mut want = vec![Cplx::ZERO; n];
            naive_dft(n, &x, &mut want);
            assert_slices_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn generated_op_counts_are_fft_like() {
        // Power-of-two DAGs must be O(n log n), far below naive O(n²):
        // radix-2 DFT_16 needs well under 16² = 256 complex ops.
        let d16 = generate_dft_dag(16);
        assert!(d16.ops() < 150, "{} ops", d16.ops());
        let d32 = generate_dft_dag(32);
        assert!((d32.ops() as f64) < 2.6 * d16.ops() as f64);
        // And strictly more than the information-theoretic floor.
        assert!(d16.ops() >= 16);
    }

    #[test]
    fn dag_cache_shares() {
        let a = cached_dag(13);
        let b = cached_dag(13);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn flops_positive_and_consistent() {
        for n in [2usize, 4, 8, 3, 5, 6, 16] {
            let c = Codelet::for_size(n);
            assert!(c.flops() > 0, "n={n}");
        }
        assert_eq!(Codelet::for_size(2).flops(), 4);
    }

    #[test]
    fn size_one_is_identity() {
        let c = Codelet::for_size(1);
        let x = [Cplx::new(2.5, -1.0)];
        let mut y = [Cplx::ZERO];
        let mut scratch = Vec::new();
        c.apply(&x, &mut y, &mut scratch);
        assert!(y[0].approx_eq(x[0], 0.0));
    }
}
