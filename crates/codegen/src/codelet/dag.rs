//! Arithmetic-expression DAGs for DFT codelets, and their generator.
//!
//! Small-size DFT kernels ("codelets", after FFTW's `genfft`) are produced
//! by *partial evaluation*: the Cooley–Tukey recursion is executed on
//! symbolic values ([`generate_dft_dag`]), yielding a straight-line
//! program as a hash-consed DAG of complex additions, subtractions, and
//! multiplications by constants.
//!
//! This module is shared with the crate's build script, which prints
//! the DAG of every size in the kernel set ([`has_kernel`]) as a
//! monomorphic Rust function (the kernels the executor runs); the C
//! emitter prints the same DAGs, and [`Dag::eval`] is the reference
//! semantics both are tested against. It therefore depends on nothing in
//! this crate, only on `spiral-spl`.

use spiral_spl::cplx::Cplx;
use spiral_spl::num::{factorize, omega_pow, omega_pow2};
use spiral_spl::perm::Perm;
use std::collections::HashMap;

/// Largest kernel: the kernel set stops at the powers of two and the
/// primes up to here. A `DFT_p` leaf with a prime `p` above it has no
/// kernel and does not lower, so a size with such a prime factor has no
/// plan of its own ([`factors_have_kernels`]); the facade runs it by
/// Bluestein's algorithm over a power-of-two plan, which beats or ties
/// the naive O(p²) DAG of every prime from 47 up. Plans of the primes 37,
/// 41 and 43 still beat Bluestein on two threads at `p·2^8` and `p·2^10`
/// (EXPERIMENTS.md PRIME-KERNELS).
pub const MAX_CODELET: usize = 43;

/// Largest leaf the search may pick for a composite size: the DP and
/// the tuner split every `DFT_n` with `n > MAX_LEAF` unless `n` is prime.
pub const MAX_LEAF: usize = 8;

/// The kernel set: the sizes the build script prints a kernel for, which
/// are exactly the leaves a search can pick. `n ≤ MAX_LEAF`, the powers
/// of two up to [`MAX_CODELET`] (16 and 32 serve hand-written and timed
/// plans), and the primes up to `MAX_CODELET` (a prime has no split).
/// 20 sizes; any other composite `DFT_n` leaf is lowered through a rule
/// tree whose leaves are all in the set.
pub fn has_kernel(n: usize) -> bool {
    (1..=MAX_CODELET).contains(&n)
        && (n <= MAX_LEAF || n.is_power_of_two() || factorize(n) == [(n, 1)])
}

/// Whether every prime factor of `n` has a kernel: the sizes the search
/// can tune and lower to a plan of their own. Every other `n ≥ 1` has a
/// prime factor above [`MAX_CODELET`].
pub fn factors_have_kernels(n: usize) -> bool {
    n > 0 && factorize(n).iter().all(|&(p, _)| has_kernel(p))
}

/// The kernel set in ascending order.
pub fn kernel_sizes() -> impl Iterator<Item = usize> {
    (1..=MAX_CODELET).filter(|&n| has_kernel(n))
}

/// Largest DAG (in nodes) whose kernel the build script prints as one
/// lane-generic straight-line function. Larger kernels (DFT_13, DFT_17
/// and every kernel above 17 except DFT_32) are scalar functions that
/// `Lanes<ν>` runs one lane at a time.
pub const STRAIGHT_LINE_NODES: usize = 256;

/// Node index within a [`Dag`].
pub type Id = u32;

/// One DAG operation. `Mul` is multiplication by a compile-time constant
/// (twiddle factors are constants after partial evaluation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Node {
    /// The `i`-th input element.
    Input(u32),
    /// Complex addition.
    Add(Id, Id),
    /// Complex subtraction.
    Sub(Id, Id),
    /// `operand * constant`.
    Mul(Id, Cplx),
    /// `operand * i` — strength-reduced rotation (no multiplies).
    MulI(Id),
    /// `operand * (-i)`.
    MulNegI(Id),
    /// Negation.
    Neg(Id),
}

/// A straight-line complex arithmetic program with `n_inputs` inputs and
/// `outputs.len()` outputs.
#[derive(Clone, Debug)]
pub struct Dag {
    /// Operations in topological order (inputs first).
    pub nodes: Vec<Node>,
    /// Node ids of the outputs, in output order.
    pub outputs: Vec<Id>,
    /// Number of input slots.
    pub n_inputs: usize,
}

impl Dag {
    /// Real-flop count of one evaluation (complex add/sub = 2, complex
    /// multiply = 6, rotations and negations are free-ish = 2).
    pub fn flops(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Input(_) => 0,
                Node::Add(..) | Node::Sub(..) => 2,
                Node::Mul(..) => 6,
                Node::MulI(_) | Node::MulNegI(_) | Node::Neg(_) => 2,
            })
            .sum()
    }

    /// Number of arithmetic (non-input) nodes.
    pub fn ops(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n, Node::Input(_)))
            .count()
    }

    /// Evaluate on concrete inputs. `scratch` is resized as needed and
    /// reused across calls to avoid per-call allocation.
    pub fn eval(&self, input: &[Cplx], out: &mut [Cplx], scratch: &mut Vec<Cplx>) {
        debug_assert_eq!(input.len(), self.n_inputs);
        debug_assert_eq!(out.len(), self.outputs.len());
        scratch.clear();
        scratch.reserve(self.nodes.len());
        for node in &self.nodes {
            let v = match *node {
                Node::Input(i) => input[i as usize],
                Node::Add(a, b) => scratch[a as usize] + scratch[b as usize],
                Node::Sub(a, b) => scratch[a as usize] - scratch[b as usize],
                Node::Mul(a, c) => scratch[a as usize] * c,
                Node::MulI(a) => scratch[a as usize].mul_i(),
                Node::MulNegI(a) => scratch[a as usize].mul_neg_i(),
                Node::Neg(a) => -scratch[a as usize],
            };
            scratch.push(v);
        }
        for (k, &o) in self.outputs.iter().enumerate() {
            out[k] = scratch[o as usize];
        }
    }
}

/// Hash-consing DAG builder.
pub struct DagBuilder {
    nodes: Vec<Node>,
    /// structural dedup: key is the node with constants bit-cast.
    memo: HashMap<NodeKey, Id>,
}

#[derive(PartialEq, Eq, Hash)]
enum NodeKey {
    Input(u32),
    Add(Id, Id),
    Sub(Id, Id),
    Mul(Id, u64, u64),
    MulI(Id),
    MulNegI(Id),
    Neg(Id),
}

fn key_of(n: &Node) -> NodeKey {
    match *n {
        Node::Input(i) => NodeKey::Input(i),
        // Addition commutes: canonicalize operand order for better dedup.
        Node::Add(a, b) => NodeKey::Add(a.min(b), a.max(b)),
        Node::Sub(a, b) => NodeKey::Sub(a, b),
        Node::Mul(a, c) => NodeKey::Mul(a, c.re.to_bits(), c.im.to_bits()),
        Node::MulI(a) => NodeKey::MulI(a),
        Node::MulNegI(a) => NodeKey::MulNegI(a),
        Node::Neg(a) => NodeKey::Neg(a),
    }
}

impl DagBuilder {
    /// New builder with `n_inputs` input nodes; returns their ids.
    pub fn new(n_inputs: usize) -> (DagBuilder, Vec<Id>) {
        let mut b = DagBuilder {
            nodes: Vec::new(),
            memo: HashMap::new(),
        };
        let inputs = (0..node_id(n_inputs))
            .map(|i| b.push(Node::Input(i)))
            .collect();
        (b, inputs)
    }

    fn push(&mut self, n: Node) -> Id {
        let key = key_of(&n);
        if let Some(&id) = self.memo.get(&key) {
            return id;
        }
        let id = node_id(self.nodes.len());
        self.nodes.push(n);
        self.memo.insert(key, id);
        id
    }

    /// Emit `a + b`.
    pub fn add(&mut self, a: Id, b: Id) -> Id {
        self.push(Node::Add(a, b))
    }

    /// Emit `a - b`.
    pub fn sub(&mut self, a: Id, b: Id) -> Id {
        self.push(Node::Sub(a, b))
    }

    /// Multiply by constant, with algebraic simplification of the unit
    /// constants the twiddle diagonals are full of.
    pub fn mul(&mut self, a: Id, c: Cplx) -> Id {
        const TOL: f64 = 1e-14;
        if c.approx_eq(Cplx::ONE, TOL) {
            a
        } else if c.approx_eq(Cplx::real(-1.0), TOL) {
            self.push(Node::Neg(a))
        } else if c.approx_eq(Cplx::I, TOL) {
            self.push(Node::MulI(a))
        } else if c.approx_eq(-Cplx::I, TOL) {
            self.push(Node::MulNegI(a))
        } else {
            self.push(Node::Mul(a, c))
        }
    }

    /// Seal the DAG with the given output nodes.
    pub fn finish(self, outputs: Vec<Id>, n_inputs: usize) -> Dag {
        Dag {
            nodes: self.nodes,
            outputs,
            n_inputs,
        }
    }
}

fn node_id(v: usize) -> Id {
    Id::try_from(v).expect("DAG exceeds u32 node ids")
}

/// Generate the straight-line DAG for `DFT_n` by symbolically executing
/// the Cooley–Tukey recursion (naive definition for primes).
pub fn generate_dft_dag(n: usize) -> Dag {
    assert!(n >= 1, "DFT size must be positive");
    let (mut b, inputs) = DagBuilder::new(n);
    let outputs = dft_symbolic(&mut b, &inputs);
    b.finish(outputs, n)
}

/// Symbolic `DFT_n` on a vector of DAG node ids.
fn dft_symbolic(b: &mut DagBuilder, xs: &[Id]) -> Vec<Id> {
    let n = xs.len();
    if n == 1 {
        return xs.to_vec();
    }
    if n == 2 {
        return vec![b.add(xs[0], xs[1]), b.sub(xs[0], xs[1])];
    }
    // Split at the smallest prime factor (radix-2 for powers of two).
    let m = factorize(n)[0].0;
    if m == n {
        // Prime: naive definition y_k = Σ_l ω^{kl} x_l.
        return (0..n)
            .map(|k| {
                let mut acc: Option<Id> = None;
                for (l, &x) in xs.iter().enumerate() {
                    let term = b.mul(x, omega_pow2(n, k, l));
                    acc = Some(match acc {
                        None => term,
                        Some(a) => b.add(a, term),
                    });
                }
                acc.unwrap()
            })
            .collect();
    }
    let k = n / m;
    // u = L^n_m x
    let l = Perm::stride(n, m);
    let u: Vec<Id> = (0..n).map(|r| xs[l.src(r)]).collect();
    // v = (I_m ⊗ DFT_k) u, then twiddles T^n_k: v[a·k + j] *= ω_n^{a·j}
    let mut v = Vec::with_capacity(n);
    for a in 0..m {
        let block = dft_symbolic(b, &u[a * k..(a + 1) * k]);
        for (j, id) in block.into_iter().enumerate() {
            v.push(b.mul(id, omega_pow(n, a * j)));
        }
    }
    // y = (DFT_m ⊗ I_k) v: column-wise DFT_m at stride k.
    let mut y = vec![0 as Id; n];
    let mut col = Vec::with_capacity(m);
    for j in 0..k {
        col.clear();
        for a in 0..m {
            col.push(v[a * k + j]);
        }
        let res = dft_symbolic(b, &col.clone());
        for (a, id) in res.into_iter().enumerate() {
            y[a * k + j] = id;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_simple_butterfly() {
        let (mut b, ins) = DagBuilder::new(2);
        let s = b.add(ins[0], ins[1]);
        let d = b.sub(ins[0], ins[1]);
        let dag = b.finish(vec![s, d], 2);
        let mut out = [Cplx::ZERO; 2];
        let mut scratch = Vec::new();
        dag.eval(&[Cplx::real(3.0), Cplx::real(1.0)], &mut out, &mut scratch);
        assert!(out[0].approx_eq(Cplx::real(4.0), 0.0));
        assert!(out[1].approx_eq(Cplx::real(2.0), 0.0));
        assert_eq!(dag.flops(), 4);
    }

    #[test]
    fn hash_consing_dedups() {
        let (mut b, ins) = DagBuilder::new(2);
        let s1 = b.add(ins[0], ins[1]);
        let s2 = b.add(ins[1], ins[0]); // commuted — must dedup
        assert_eq!(s1, s2);
        let d1 = b.sub(ins[0], ins[1]);
        let d2 = b.sub(ins[0], ins[1]);
        assert_eq!(d1, d2);
        // Sub does not commute.
        let d3 = b.sub(ins[1], ins[0]);
        assert_ne!(d1, d3);
    }

    #[test]
    fn unit_constant_multiplies_fold() {
        let (mut b, ins) = DagBuilder::new(1);
        assert_eq!(b.mul(ins[0], Cplx::ONE), ins[0]);
        let neg = b.mul(ins[0], Cplx::real(-1.0));
        let dag_len = b.nodes.len();
        // -1 twice dedups
        assert_eq!(b.mul(ins[0], Cplx::real(-1.0)), neg);
        assert_eq!(b.nodes.len(), dag_len);
        // i and -i become rotations
        let r = b.mul(ins[0], Cplx::I);
        let dag = b.finish(vec![r], 1);
        assert!(matches!(dag.nodes.last(), Some(Node::MulI(_))));
    }

    #[test]
    fn rotations_evaluate_correctly() {
        let (mut b, ins) = DagBuilder::new(1);
        let ri = b.mul(ins[0], Cplx::I);
        let rni = b.mul(ins[0], -Cplx::I);
        let n = b.mul(ins[0], Cplx::real(-1.0));
        let general = b.mul(ins[0], Cplx::new(0.5, 0.25));
        let dag = b.finish(vec![ri, rni, n, general], 1);
        let z = Cplx::new(2.0, -3.0);
        let mut out = [Cplx::ZERO; 4];
        let mut scratch = Vec::new();
        dag.eval(&[z], &mut out, &mut scratch);
        assert!(out[0].approx_eq(z * Cplx::I, 1e-15));
        assert!(out[1].approx_eq(z * -Cplx::I, 1e-15));
        assert!(out[2].approx_eq(-z, 1e-15));
        assert!(out[3].approx_eq(z * Cplx::new(0.5, 0.25), 1e-15));
    }
}
