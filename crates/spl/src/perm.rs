//! Permutations as index functions.
//!
//! The stride permutation `L^{mn}_m` is the only primitive permutation the
//! Cooley–Tukey framework needs; tensoring with identities and composition
//! generate everything that appears in the rules. Permutations are kept
//! symbolic so they can be folded into adjacent loops as gather/scatter
//! index mappings (the paper's loop-merging, ref. \[11\]).

use std::fmt;

/// A symbolic permutation on `{0, …, n-1}`.
#[derive(Clone, Debug, PartialEq)]
pub enum Perm {
    /// Identity on `n` points.
    Id(usize),
    /// Stride permutation `L^{mn}_m`: output index `i·n + j` takes input
    /// index `j·m + i` for `0 ≤ i < m`, `0 ≤ j < n` (paper §2.2, reading
    /// `in+j ↦ jm+i` as the gather map). Viewing `x` as an `n×m` matrix
    /// stored row-major, `L^{mn}_m x` is its `m×n` transpose.
    Stride {
        /// Total number of points `mn`.
        mn: usize,
        /// The stride parameter `m` (must divide `mn`).
        m: usize,
    },
    /// `P ⊗ I_r` — permutes `dim(P)` blocks of `r` consecutive points.
    TensorId(Box<Perm>, usize),
    /// `I_l ⊗ P` — applies `P` independently within `l` consecutive blocks.
    IdTensor(usize, Box<Perm>),
    /// Composition `P_0 · P_1 · … · P_{k-1}` (applied right to left, like
    /// matrix products).
    Compose(Vec<Perm>),
}

impl Perm {
    /// Stride permutation `L^{mn}_m`; `m` must divide `mn`.
    pub fn stride(mn: usize, m: usize) -> Perm {
        assert!(
            m > 0 && mn.is_multiple_of(m),
            "L^{{{mn}}}_{{{m}}}: {m} must divide {mn}"
        );
        if m == 1 || m == mn {
            Perm::Id(mn)
        } else {
            Perm::Stride { mn, m }
        }
    }

    /// Number of points permuted.
    pub fn dim(&self) -> usize {
        match self {
            Perm::Id(n) => *n,
            Perm::Stride { mn, .. } => *mn,
            Perm::TensorId(p, r) => p.dim() * r,
            Perm::IdTensor(l, p) => l * p.dim(),
            Perm::Compose(ps) => ps.first().map_or(0, |p| p.dim()),
        }
    }

    /// Gather form: for `y = P x`, `y[r] = x[self.src(r)]`.
    pub fn src(&self, r: usize) -> usize {
        debug_assert!(r < self.dim(), "index {r} out of range {}", self.dim());
        match self {
            Perm::Id(_) => r,
            // y[i·n + j] = x[j·m + i]  ⇒  for output r = i·n + j:
            // i = r div n, j = r mod n, src = j·m + i with n = mn/m.
            Perm::Stride { mn, m } => {
                let n = mn / m;
                (r % n) * m + r / n
            }
            Perm::TensorId(p, rr) => p.src(r / rr) * rr + r % rr,
            Perm::IdTensor(_, p) => {
                let np = p.dim();
                (r / np) * np + p.src(r % np)
            }
            // y = P0 (P1 x): y[r] = (P1 x)[P0.src(r)] = x[P1.src(P0.src(r))]
            Perm::Compose(ps) => ps.iter().fold(r, |acc, p| p.src(acc)),
        }
    }

    /// Scatter form: for `y = P x`, `y[self.dest(s)] = x[s]`.
    pub fn dest(&self, s: usize) -> usize {
        debug_assert!(s < self.dim());
        match self {
            Perm::Id(_) => s,
            // input j·m + i goes to i·n + j: j = s div m, i = s mod m.
            Perm::Stride { mn, m } => {
                let n = mn / m;
                (s % m) * n + s / m
            }
            Perm::TensorId(p, rr) => p.dest(s / rr) * rr + s % rr,
            Perm::IdTensor(_, p) => {
                let np = p.dim();
                (s / np) * np + p.dest(s % np)
            }
            Perm::Compose(ps) => ps.iter().rev().fold(s, |acc, p| p.dest(acc)),
        }
    }

    /// Inverse permutation. `L^{mn}_m` inverts to `L^{mn}_{mn/m}`.
    pub fn inverse(&self) -> Perm {
        match self {
            Perm::Id(n) => Perm::Id(*n),
            Perm::Stride { mn, m } => Perm::stride(*mn, mn / m),
            Perm::TensorId(p, r) => Perm::TensorId(Box::new(p.inverse()), *r),
            Perm::IdTensor(l, p) => Perm::IdTensor(*l, Box::new(p.inverse())),
            Perm::Compose(ps) => Perm::Compose(ps.iter().rev().map(|p| p.inverse()).collect()),
        }
    }

    /// True if this permutation is (structurally reducible to) the identity.
    pub fn is_identity(&self) -> bool {
        let n = self.dim();
        (0..n).all(|r| self.src(r) == r)
    }

    /// Apply to a slice out of place.
    pub fn apply<T: Copy>(&self, x: &[T], y: &mut [T]) {
        let n = self.dim();
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        for r in 0..n {
            y[r] = x[self.src(r)];
        }
    }

    /// The permutation as an index table `tbl[r] = src(r)`.
    pub fn table(&self) -> Vec<usize> {
        (0..self.dim()).map(|r| self.src(r)).collect()
    }

    /// True if the permutation moves whole blocks of `µ` consecutive points
    /// (i.e. it can be written `Q ⊗ I_µ` for some permutation `Q`).
    /// This is the paper's cache-line-safety condition for `P ⊗̄ I_µ`.
    pub fn is_block_perm(&self, mu: usize) -> bool {
        let n = self.dim();
        if mu == 0 || !n.is_multiple_of(mu) {
            return false;
        }
        (0..n / mu).all(|b| {
            let base = self.src(b * mu);
            base.is_multiple_of(mu) && (1..mu).all(|k| self.src(b * mu + k) == base + k)
        })
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Perm::Id(n) => write!(f, "I_{n}"),
            Perm::Stride { mn, m } => write!(f, "L^{mn}_{m}"),
            Perm::TensorId(p, r) => write!(f, "({p} @ I_{r})"),
            Perm::IdTensor(l, p) => write!(f, "(I_{l} @ {p})"),
            Perm::Compose(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
                write!(f, "({})", parts.join(" * "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(p: &Perm) {
        let n = p.dim();
        let mut seen = vec![false; n];
        for r in 0..n {
            let s = p.src(r);
            assert!(s < n && !seen[s], "{p}: not a bijection at {r}");
            seen[s] = true;
            // src and dest are mutually inverse index maps
            assert_eq!(p.dest(s), r, "{p}: dest(src({r})) != {r}");
        }
    }

    #[test]
    fn stride_matches_paper_definition() {
        // L^{mn}_m : output i·n + j gathers input j·m + i
        let (m, n) = (2usize, 3usize);
        let p = Perm::stride(m * n, m);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(p.src(i * n + j), j * m + i);
                assert_eq!(p.dest(j * m + i), i * n + j);
            }
        }
    }

    #[test]
    fn stride_transposes_matrix() {
        // x viewed as n×m row-major; L^{mn}_m x is the m×n transpose.
        let (m, n) = (3usize, 4usize);
        let p = Perm::stride(m * n, m);
        let x: Vec<usize> = (0..m * n).collect();
        let mut y = vec![0usize; m * n];
        p.apply(&x, &mut y);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(y[i * n + j], x[j * m + i]);
            }
        }
    }

    #[test]
    fn degenerate_strides_are_identity() {
        assert_eq!(Perm::stride(8, 1), Perm::Id(8));
        assert_eq!(Perm::stride(8, 8), Perm::Id(8));
    }

    #[test]
    fn all_constructors_are_bijections() {
        let l62 = Perm::stride(6, 2);
        check_bijection(&l62);
        check_bijection(&Perm::TensorId(Box::new(l62.clone()), 4));
        check_bijection(&Perm::IdTensor(3, Box::new(l62.clone())));
        check_bijection(&Perm::Compose(vec![Perm::stride(6, 3), Perm::stride(6, 2)]));
    }

    #[test]
    fn inverse_composes_to_identity() {
        let cases = vec![
            Perm::stride(12, 3),
            Perm::TensorId(Box::new(Perm::stride(6, 2)), 2),
            Perm::IdTensor(2, Box::new(Perm::stride(6, 3))),
            Perm::Compose(vec![Perm::stride(8, 2), Perm::stride(8, 4)]),
        ];
        for p in cases {
            let pi = p.inverse();
            let comp = Perm::Compose(vec![p.clone(), pi]);
            assert!(comp.is_identity(), "{p} * inverse != id");
        }
    }

    #[test]
    fn stride_inverse_identity_l_mn_m() {
        // (L^{mn}_m)^{-1} = L^{mn}_{n}
        let p = Perm::stride(12, 4);
        assert_eq!(p.inverse(), Perm::stride(12, 3));
    }

    #[test]
    fn compose_order_is_matrix_order() {
        // y = (P0 · P1) x must equal P0 applied to (P1 x).
        let p0 = Perm::stride(6, 2);
        let p1 = Perm::stride(6, 3);
        let comp = Perm::Compose(vec![p0.clone(), p1.clone()]);
        let x: Vec<usize> = (0..6).collect();
        let mut t = vec![0; 6];
        let mut y1 = vec![0; 6];
        p1.apply(&x, &mut t);
        p0.apply(&t, &mut y1);
        let mut y2 = vec![0; 6];
        comp.apply(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn block_perm_detection() {
        // L^{pn}_p ⊗ I_µ moves whole µ-blocks.
        let mu = 4;
        let p = Perm::TensorId(Box::new(Perm::stride(8, 2)), mu);
        assert!(p.is_block_perm(mu));
        assert!(p.is_block_perm(2)); // coarser blocks still contiguous
                                     // A raw stride permutation with stride not multiple of µ is not.
        let q = Perm::stride(8, 2);
        assert!(!q.is_block_perm(4));
        assert!(q.is_block_perm(1)); // every permutation is 1-block
    }

    #[test]
    fn table_matches_src() {
        let p = Perm::stride(6, 2);
        assert_eq!(p.table(), (0..6).map(|r| p.src(r)).collect::<Vec<_>>());
    }
}
