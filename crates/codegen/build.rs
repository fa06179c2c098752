//! Prints the DFT codelet DAG of every size in the kernel set
//! (`dag::has_kernel`) as a straight-line Rust function into
//! `$OUT_DIR/kernels.rs`.
//!
//! The DAGs come from the partial-evaluation generator in
//! `src/codelet/dag.rs`, which this script compiles as a module of its
//! own, so the kernels the crate runs are printed from exactly the DAGs
//! `Codelet::dag` hands to the C emitter and the certifier. Each kernel
//! is `impl Dft<n> for Kernels`, generic over the lane type (`Cplx` or
//! `Lanes<ν>`), and evaluates the nodes in DAG order with the same
//! operations as `Dag::eval`; constants are printed as exact bit
//! patterns, so the compiled kernel is bit-for-bit `Dag::eval`. DAGs
//! over `STRAIGHT_LINE_NODES` nodes are printed as scalar functions in
//! segments (see [`print_kernel`]).

#[allow(dead_code)]
#[path = "src/codelet/dag.rs"]
mod dag;

use dag::{generate_dft_dag, kernel_sizes, Dag, Node, STRAIGHT_LINE_NODES};
use std::fmt::Write;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=src/codelet/dag.rs");
    let mut out = String::new();
    for n in kernel_sizes() {
        print_kernel(&mut out, &generate_dft_dag(n));
    }
    print_dispatch(&mut out);
    let dir = std::env::var("OUT_DIR").expect("cargo sets OUT_DIR for build scripts");
    let path = std::path::Path::new(&dir).join("kernels.rs");
    std::fs::write(path, out).expect("write the generated kernels");
}

/// `let v{id} = …;` for node `id`.
fn print_node(s: &mut String, id: usize, node: Node) {
    let expr = match node {
        Node::Input(i) => format!("x[{i}]"),
        Node::Add(a, b) => format!("v{a} + v{b}"),
        Node::Sub(a, b) => format!("v{a} - v{b}"),
        Node::Mul(a, c) => format!(
            "v{a}.mul_const(Cplx::new(f64::from_bits({:#018x}), f64::from_bits({:#018x})))",
            c.re.to_bits(),
            c.im.to_bits()
        ),
        Node::MulI(a) => format!("v{a}.mul_i()"),
        Node::MulNegI(a) => format!("v{a}.mul_neg_i()"),
        Node::Neg(a) => format!("-v{a}"),
    };
    let _ = writeln!(s, "    let v{id} = {expr};");
}

/// The kernel for `d`. A DAG of at most [`STRAIGHT_LINE_NODES`] nodes is
/// one function generic over the lane type, inlined into every loop nest
/// that calls it. A larger one is a scalar function that lane types run
/// one lane at a time, split into out-of-line segments of at most
/// `STRAIGHT_LINE_NODES` nodes that hand values on through an array
/// holding every node. Printed as one function, DFT_61 (when the set
/// went up to 64) took 37 s to compile as array assignments and
/// overflowed the compiler's stack as `let` bindings (one nested
/// debug-info scope per binding).
fn print_kernel(s: &mut String, d: &Dag) {
    let (n, len) = (d.n_inputs, d.nodes.len());
    let outs = |f: &dyn Fn(u32) -> String| -> String {
        let v: Vec<String> = d.outputs.iter().map(|&o| f(o)).collect();
        v.join(", ")
    };
    let _ = writeln!(s, "impl Dft<{n}> for Kernels {{");
    let _ = writeln!(s, "#[inline(always)]");
    let _ = writeln!(s, "fn dft<T: Lane>(x: [T; {n}]) -> [T; {n}] {{");
    if len <= STRAIGHT_LINE_NODES {
        for (id, &node) in d.nodes.iter().enumerate() {
            print_node(s, id, node);
        }
        let _ = writeln!(s, "    [{}]\n}}\n}}\n", outs(&|o| format!("v{o}")));
        return;
    }
    let _ = writeln!(s, "    T::per_lane(x, dft{n})\n}}\n}}\n");
    // The inputs are nodes 0..n, so every segment starts past them.
    let segments: Vec<(usize, usize)> = (n..len)
        .step_by(STRAIGHT_LINE_NODES)
        .map(|lo| (lo, (lo + STRAIGHT_LINE_NODES).min(len)))
        .collect();
    for (j, &(lo, hi)) in segments.iter().enumerate() {
        let _ = writeln!(
            s,
            "#[inline(never)]\nfn dft{n}_{j}(s: &mut [Cplx; {len}]) {{"
        );
        let mut loaded = vec![false; lo];
        for id in lo..hi {
            for a in operands(d.nodes[id]).filter(|&a| a < lo) {
                if !std::mem::replace(&mut loaded[a], true) {
                    let _ = writeln!(s, "    let v{a} = s[{a}];");
                }
            }
            print_node(s, id, d.nodes[id]);
            let _ = writeln!(s, "    s[{id}] = v{id};");
        }
        s.push_str("}\n\n");
    }
    let _ = writeln!(
        s,
        "#[inline(never)]\nfn dft{n}(x: [Cplx; {n}]) -> [Cplx; {n}] {{"
    );
    let _ = writeln!(s, "    let mut s = [Cplx::ZERO; {len}];");
    let _ = writeln!(s, "    s[..{n}].copy_from_slice(&x);");
    for j in 0..segments.len() {
        let _ = writeln!(s, "    dft{n}_{j}(&mut s);");
    }
    let _ = writeln!(s, "    [{}]\n}}\n", outs(&|o| format!("s[{o}]")));
}

/// The node ids `node` reads.
fn operands(node: Node) -> impl Iterator<Item = usize> {
    let (a, b) = match node {
        Node::Input(_) => (None, None),
        Node::Add(a, b) | Node::Sub(a, b) => (Some(a), Some(b)),
        Node::Mul(a, _) | Node::MulI(a) | Node::MulNegI(a) | Node::Neg(a) => (Some(a), None),
    };
    a.into_iter().chain(b).map(|a| a as usize)
}

fn print_dispatch(s: &mut String) {
    s.push_str(
        "/// Run `f` monomorphised for codelet size `n`.\n\
         #[inline(always)]\n\
         pub(crate) fn with_size<F: SizeFn>(n: usize, f: F) -> F::Out {\n    match n {\n",
    );
    for n in kernel_sizes() {
        let _ = writeln!(s, "        {n} => f.call::<{n}>(),");
    }
    s.push_str("        _ => panic!(\"no generated kernel for DFT_{n}\"),\n    }\n}\n");
}
