//! Property-based tests for the SPL language invariants.

use proptest::prelude::*;
use spiral_spl::builder::*;
use spiral_spl::cplx::{assert_slices_close, first_non_finite, Cplx};
use spiral_spl::perm::Perm;
use spiral_spl::Spl;

fn cplx_vec(n: usize) -> impl Strategy<Value = Vec<Cplx>> {
    prop::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Cplx::new(re, im)),
        n,
    )
}

/// Random small SPL formula of the given dimension built from the
/// constructs the rewriting system manipulates.
fn formula(dim: usize) -> BoxedStrategy<Spl> {
    let leaves: Vec<Spl> = {
        let mut v = vec![i(dim), dft(dim)];
        for d in spiral_spl::num::divisors(dim) {
            if d > 1 && d < dim {
                v.push(stride(dim, d));
                v.push(twiddle(d, dim / d));
                v.push(tensor(dft(d), i(dim / d)));
                v.push(tensor(i(d), dft(dim / d)));
            }
        }
        if dim == 2 {
            v.push(f2());
        }
        v
    };
    let leaf = prop::sample::select(leaves);
    leaf.prop_recursive(3, 16, 4, move |inner| {
        prop::collection::vec(inner, 1..4).prop_map(compose).boxed()
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated formula validates and has the requested dimension.
    #[test]
    fn formulas_validate(f in formula(8)) {
        prop_assert_eq!(f.validate().unwrap(), 8);
    }

    /// eval is linear: A(αx + y) = αAx + Ay.
    #[test]
    fn eval_is_linear(
        f in formula(8),
        x in cplx_vec(8),
        y in cplx_vec(8),
        are in -3.0f64..3.0,
        aim in -3.0f64..3.0,
    ) {
        let alpha = Cplx::new(are, aim);
        let mixed: Vec<Cplx> =
            x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        let lhs = f.eval(&mixed);
        let fx = f.eval(&x);
        let fy = f.eval(&y);
        let rhs: Vec<Cplx> =
            fx.iter().zip(&fy).map(|(a, b)| *a * alpha + *b).collect();
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!(l.approx_eq(*r, 1e-6), "{l:?} vs {r:?}");
        }
    }

    /// Display → parse round-trips semantically.
    #[test]
    fn display_parse_roundtrip(f in formula(8), x in cplx_vec(8)) {
        let s = f.to_string();
        let g = spiral_spl::parse(&s)
            .unwrap_or_else(|e| panic!("reparse of `{s}` failed: {e}"));
        let ya = f.eval(&x);
        let yb = g.eval(&x);
        for (a, b) in ya.iter().zip(&yb) {
            prop_assert!(a.approx_eq(*b, 1e-9));
        }
    }

    /// Normalization preserves semantics.
    #[test]
    fn normalization_preserves_semantics(f in formula(8), x in cplx_vec(8)) {
        let n = f.normalized();
        assert_slices_close(&f.eval(&x), &n.eval(&x), 1e-9);
    }

    /// Cooley–Tukey rule (1) equals the DFT for arbitrary factorizations.
    #[test]
    fn cooley_tukey_equals_dft(
        mi in 1usize..5,
        ni in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (m, n) = (mi + 1, ni + 1);
        let len = m * n;
        let mut rng_state = seed;
        let mut next = || {
            // xorshift — deterministic pseudo-random input from the seed
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let x: Vec<Cplx> = (0..len).map(|_| Cplx::new(next(), next())).collect();
        let lhs = dft(len).eval(&x);
        let rhs = cooley_tukey(m, n).eval(&x);
        for (a, b) in lhs.iter().zip(&rhs) {
            prop_assert!(a.approx_eq(*b, 1e-8), "m={m} n={n}");
        }
    }

    /// Stride permutations are bijections and invert correctly.
    #[test]
    fn stride_perm_bijection(mi in 1usize..6, ni in 1usize..6) {
        let (m, n) = (mi + 1, ni + 1);
        let p = Perm::stride(m * n, m);
        let mut seen = vec![false; m * n];
        for r in 0..m * n {
            let s = p.src(r);
            prop_assert!(!seen[s]);
            seen[s] = true;
            prop_assert_eq!(p.dest(s), r);
        }
        let pi = p.inverse();
        for r in 0..m * n {
            prop_assert_eq!(pi.src(p.src(r)), r);
        }
    }

    /// L^{mn}_m · L^{mn}_n = I (the classical inverse pair).
    #[test]
    fn stride_inverse_pair(mi in 1usize..6, ni in 1usize..6) {
        let (m, n) = (mi + 1, ni + 1);
        let comp = Perm::Compose(vec![
            Perm::stride(m * n, m),
            Perm::stride(m * n, n),
        ]);
        prop_assert!(comp.is_identity());
    }

    /// (A ⊗ B) matches the dense Kronecker product for random operands.
    #[test]
    fn tensor_matches_kron(a in formula(2), b in formula(4)) {
        let t = tensor(a.clone(), b.clone());
        let dense = a.to_matrix().kron(&b.to_matrix());
        let via = t.to_matrix();
        prop_assert!(dense.approx_eq(&via, 1e-8));
    }

    /// Twiddle diagonal split (rule 11 substrate) is a partition.
    #[test]
    fn twiddle_split_partition(mi in 1usize..5, pexp in 0usize..3) {
        let m = (mi + 1) * 2;
        let n = 4usize;
        let p = 1usize << pexp;
        let d = spiral_spl::DiagSpec::twiddle(m, n);
        if d.len().is_multiple_of(p) {
            let parts = d.split(p);
            let mut recon = Vec::new();
            for part in &parts {
                recon.extend(part.entries());
            }
            let full = d.entries();
            for (a, b) in full.iter().zip(&recon) {
                prop_assert!(a.approx_eq(*b, 0.0));
            }
        }
    }
}

/// Finite values the finiteness scan must never flag, extremes included
/// (the last is the smallest subnormal).
const FINITE: [f64; 8] = [
    0.0,
    -0.0,
    1.5,
    -3.25,
    f64::MAX,
    -f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,
];
const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// The reference: the element-by-element search.
fn naive_first_non_finite(xs: &[Cplx]) -> Option<usize> {
    xs.iter()
        .position(|z| !z.re.is_finite() || !z.im.is_finite())
}

/// Set part `part` (0: `re`, 1: `im`) of `z` to `v`.
fn set_part(z: &mut Cplx, part: usize, v: f64) {
    if part == 0 {
        z.re = v;
    } else {
        z.im = v;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The block fold finds the same first index as the naive scan, with
    /// up to four NaN or infinities at random places in `re` or `im`.
    #[test]
    fn first_non_finite_equals_naive_scan(
        base in prop::collection::vec(
            (prop::sample::select(FINITE.to_vec()), prop::sample::select(FINITE.to_vec()))
                .prop_map(|(re, im)| Cplx::new(re, im)),
            0..=300,
        ),
        bad in prop::collection::vec(
            (0usize..300, prop::sample::select(NON_FINITE.to_vec()), 0usize..2),
            0..=4,
        ),
    ) {
        let mut xs = base;
        prop_assert_eq!(first_non_finite(&xs), None);
        if !xs.is_empty() {
            let len = xs.len();
            for (at, v, part) in bad {
                set_part(&mut xs[at % len], part, v);
            }
        }
        prop_assert_eq!(first_non_finite(&xs), naive_first_non_finite(&xs));
    }
}

/// Every length 0..=300, with one or two non-finite values at the block
/// and lane edges of the fold: the index is exact, and the finite
/// extremes alone never flag.
#[test]
fn first_non_finite_is_exact_at_block_edges() {
    let edges = [
        0usize, 1, 3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 129, 191, 192, 255, 256,
    ];
    for len in 0..=300usize {
        let finite: Vec<Cplx> = (0..len)
            .map(|j| Cplx::new(FINITE[j % 8], FINITE[(j + 3) % 8]))
            .collect();
        assert_eq!(first_non_finite(&finite), None, "len {len}");
        let places = edges.iter().copied().chain(len.checked_sub(1));
        for at in places.filter(|&at| at < len) {
            for v in NON_FINITE {
                for part in 0..2 {
                    let mut xs = finite.clone();
                    set_part(&mut xs[at], part, v);
                    assert_eq!(first_non_finite(&xs), Some(at), "len {len}, at {at}");
                    let later = (at + 64).min(len - 1);
                    set_part(&mut xs[later], 1 - part, v);
                    assert_eq!(first_non_finite(&xs), Some(at), "len {len}, at {at}");
                }
            }
        }
    }
}
