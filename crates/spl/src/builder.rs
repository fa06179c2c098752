//! Convenience constructors for SPL formulas.
//!
//! These keep rule implementations close to the paper's notation:
//! `compose(vec![tensor(dft(m), i(n)), twiddle(m, n), …])` reads like
//! eq. (1).

use crate::ast::Spl;
use crate::cplx::Cplx;
use crate::diag::DiagSpec;
use crate::perm::Perm;
use std::sync::Arc;

/// Identity `I_n`.
pub fn i(n: usize) -> Spl {
    Spl::I(n)
}

/// Unexpanded transform `DFT_n`.
pub fn dft(n: usize) -> Spl {
    Spl::Dft(n)
}

/// The butterfly base case `F_2`.
pub fn f2() -> Spl {
    Spl::F2
}

/// Twiddle diagonal `T^{mn}_n` of the Cooley–Tukey rule (paper's `D_{m,n}`).
pub fn twiddle(m: usize, n: usize) -> Spl {
    Spl::Diag(DiagSpec::twiddle(m, n))
}

/// Explicit diagonal.
pub fn diag(entries: Vec<Cplx>) -> Spl {
    Spl::Diag(DiagSpec::Explicit(Arc::new(entries)))
}

/// Stride permutation `L^{mn}_m`.
pub fn stride(mn: usize, m: usize) -> Spl {
    Spl::Perm(Perm::stride(mn, m))
}

/// Arbitrary permutation node.
pub fn perm(p: Perm) -> Spl {
    Spl::Perm(p)
}

/// Matrix product; single-element products collapse.
pub fn compose(mut fs: Vec<Spl>) -> Spl {
    assert!(!fs.is_empty(), "compose of nothing");
    if fs.len() == 1 {
        fs.pop().unwrap()
    } else {
        Spl::Compose(fs)
    }
}

/// Tensor product `A ⊗ B`.
pub fn tensor(a: Spl, b: Spl) -> Spl {
    Spl::Tensor(Box::new(a), Box::new(b))
}

/// Direct sum `⊕ A_i`.
pub fn dsum(fs: Vec<Spl>) -> Spl {
    assert!(!fs.is_empty(), "direct sum of nothing");
    Spl::DirectSum(fs)
}

/// Tagged parallel tensor `I_p ⊗∥ A` (paper eq. (4)).
pub fn tensor_par(p: usize, a: Spl) -> Spl {
    Spl::TensorPar { p, a: Box::new(a) }
}

/// Tagged parallel direct sum `⊕∥ A_i`.
pub fn dsum_par(fs: Vec<Spl>) -> Spl {
    assert!(!fs.is_empty(), "parallel direct sum of nothing");
    Spl::DirectSumPar(fs)
}

/// Tagged cache-line permutation `P ⊗̄ I_µ`.
pub fn perm_bar(p: Perm, mu: usize) -> Spl {
    Spl::PermBar { perm: p, mu }
}

/// Rewriting tag `smp(p, µ)`.
pub fn smp(p: usize, mu: usize, a: Spl) -> Spl {
    Spl::Smp {
        p,
        mu,
        a: Box::new(a),
    }
}

/// Short-vector tag `vec(ν)`.
pub fn vec_tag(nu: usize, a: Spl) -> Spl {
    Spl::Vec { nu, a: Box::new(a) }
}

/// The Cooley–Tukey right-hand side of rule (1):
/// `(DFT_m ⊗ I_n) · T^{mn}_n · (I_m ⊗ DFT_n) · L^{mn}_m`.
pub fn cooley_tukey(m: usize, n: usize) -> Spl {
    compose(vec![
        tensor(dft(m), i(n)),
        twiddle(m, n),
        tensor(i(m), dft(n)),
        stride(m * n, m),
    ])
}

/// The six-step FFT right-hand side of rule (3):
/// `L^{mn}_m (I_n ⊗ DFT_m) L^{mn}_n T (I_m ⊗ DFT_n) L^{mn}_m`.
pub fn six_step(m: usize, n: usize) -> Spl {
    compose(vec![
        stride(m * n, m),
        tensor(i(n), dft(m)),
        stride(m * n, n),
        twiddle(m, n),
        tensor(i(m), dft(n)),
        stride(m * n, m),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_dims() {
        assert_eq!(cooley_tukey(2, 4).dim(), 8);
        assert_eq!(cooley_tukey(2, 4).validate().unwrap(), 8);
        assert_eq!(six_step(4, 4).validate().unwrap(), 16);
    }

    #[test]
    fn compose_collapses_singleton() {
        assert_eq!(compose(vec![dft(4)]), dft(4));
    }

    #[test]
    #[should_panic(expected = "compose of nothing")]
    fn compose_rejects_empty() {
        compose(vec![]);
    }
}
