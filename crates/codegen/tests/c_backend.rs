//! End-to-end validation of the C backend: emit C, compile it with the
//! system compiler, run it, and compare against the Rust executor.
//! Skipped when no C compiler is installed.

use spiral_codegen::cemit::{emit_c, CFlavor};
use spiral_codegen::plan::Plan;
use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
use spiral_spl::cplx::Cplx;
use std::io::Write;
use std::process::Command;

fn have_cc() -> bool {
    Command::new("cc").arg("--version").output().is_ok()
}

fn ramp(n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|k| Cplx::new(0.25 * k as f64 + 1.0, 0.5 - 0.125 * k as f64))
        .collect()
}

/// Compile and run an emitted plan; return the transform of `ramp(n)`.
fn run_emitted(plan: &Plan, flavor: CFlavor, tag: &str) -> Vec<Cplx> {
    let n = plan.n;
    let code = emit_c(plan, flavor);
    let main = format!(
        r#"
#include <stdio.h>
void spiral_dft_{n}(const double *x, double *y);
int main(void) {{
    static double x[2*{n}], y[2*{n}];
    for (int k = 0; k < {n}; k++) {{
        x[2*k]   = 0.25 * k + 1.0;
        x[2*k+1] = 0.5 - 0.125 * k;
    }}
    spiral_dft_{n}(x, y);
    for (int k = 0; k < {n}; k++)
        printf("%.17e %.17e\n", y[2*k], y[2*k+1]);
    return 0;
}}
"#
    );
    let dir = std::env::temp_dir().join(format!("spiral_c_test_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("dft.c");
    let main_c = dir.join("main.c");
    let exe = dir.join("dft");
    std::fs::File::create(&src)
        .unwrap()
        .write_all(code.as_bytes())
        .unwrap();
    std::fs::File::create(&main_c)
        .unwrap()
        .write_all(main.as_bytes())
        .unwrap();
    let mut cmd = Command::new("cc");
    cmd.arg("-O2")
        .arg("-o")
        .arg(&exe)
        .arg(&src)
        .arg(&main_c)
        .arg("-lm");
    match flavor {
        CFlavor::OpenMp => {
            cmd.arg("-fopenmp");
        }
        CFlavor::Pthreads => {
            cmd.arg("-pthread");
        }
    }
    let out = cmd.output().expect("compiler invocation failed");
    assert!(
        out.status.success(),
        "C compilation failed:\n{}\n--- source ---\n{}",
        String::from_utf8_lossy(&out.stderr),
        &code[..code.len().min(4000)]
    );
    let run = Command::new(&exe)
        .output()
        .expect("running emitted binary failed");
    assert!(run.status.success(), "emitted binary crashed");
    let text = String::from_utf8_lossy(&run.stdout);
    let vals: Vec<Cplx> = text
        .lines()
        .map(|l| {
            let mut it = l.split_whitespace();
            let re: f64 = it.next().unwrap().parse().unwrap();
            let im: f64 = it.next().unwrap().parse().unwrap();
            Cplx::new(re, im)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(vals.len(), n);
    vals
}

fn check(plan: &Plan, flavor: CFlavor, tag: &str) {
    let n = plan.n;
    let want = plan.execute(&ramp(n));
    let got = run_emitted(plan, flavor, tag);
    for (k, (a, b)) in got.iter().zip(&want).enumerate() {
        assert!(
            a.approx_eq(*b, 1e-8 * n as f64),
            "{tag}: element {k} differs: C={a:?} Rust={b:?}"
        );
    }
}

#[test]
fn sequential_openmp_c_matches_rust() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let f = sequential_dft(64, 8);
    let plan = Plan::from_formula(&f, 1, 4).unwrap();
    check(&plan, CFlavor::OpenMp, "seq64");
}

#[test]
fn parallel_openmp_c_matches_rust() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
    let plan = Plan::from_formula(&f, 2, 4).unwrap();
    check(&plan, CFlavor::OpenMp, "par256");
}

#[test]
fn parallel_pthreads_c_matches_rust() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
    let plan = Plan::from_formula(&f, 2, 4).unwrap();
    check(&plan, CFlavor::Pthreads, "pthr256");
}

#[test]
fn four_thread_pthreads_c_matches_rust() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let f = multicore_dft_expanded(1024, 4, 4, None, 8).unwrap();
    let plan = Plan::from_formula(&f, 4, 4).unwrap();
    check(&plan, CFlavor::Pthreads, "pthr1024");
}

#[test]
fn fused_exchange_c_matches_rust_both_flavors() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let f = multicore_dft_expanded(256, 2, 4, None, 8).unwrap();
    let plan = Plan::from_formula(&f, 2, 4).unwrap().fuse_exchanges();
    check(&plan, CFlavor::OpenMp, "fused_omp");
    check(&plan, CFlavor::Pthreads, "fused_pthr");
}

#[test]
fn scale_tail_c_matches_rust_in_both_flavors() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    // diag(6 entries) ∘ (I_2 ⊗∥ DFT_3) on 2 threads with µ = 4: the
    // scaling is one whole line and a 2-element tail, which the emitted
    // per-thread ranges give to the last thread.
    use spiral_spl::builder::{compose, dft, diag, tensor_par};
    let w = (0..6).map(|k| Cplx::new(1.0 + k as f64, -0.5)).collect();
    let plan = Plan::from_formula(&compose(vec![diag(w), tensor_par(2, dft(3))]), 2, 4).unwrap();
    let c = emit_c(&plan, CFlavor::Pthreads);
    assert!(
        c.contains("range1[2*tid]"),
        "per-thread ranges missing:\n{c}"
    );
    assert!(!c.contains("i += NTHREADS"), "element-wise split:\n{c}");
    check(&plan, CFlavor::OpenMp, "tail_omp");
    check(&plan, CFlavor::Pthreads, "tail_pthr");
}
