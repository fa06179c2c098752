//! End-to-end validation of the C backend: emit C, compile it with the
//! system compiler, run it, and compare against the Rust executor.
//! Skipped when no C compiler is installed.

use spiral_codegen::cemit::{emit_c, CFlavor};
use spiral_codegen::plan::{Plan, Step};
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

/// Tuned plans run their later stages in place, so the emitted C names
/// one array as a stage's input and output. The tuned 2^14 sequential
/// plan and the tuned 2-thread 2^12 plan, in both flavors, compute what
/// the Rust executor computes; the only `restrict` pointers are the
/// codelet functions' parameters, which point at the local `gin[]` and
/// `gout[]` and never at the in-place array.
#[test]
fn tuned_in_place_plans_c_matches_rust_in_both_flavors() {
    use spiral_search::{CostModel, Tuner};
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let seq = Tuner::new(1, 4, CostModel::Analytic)
        .tune_sequential(1 << 14)
        .unwrap()
        .plan;
    let par = Tuner::new(2, 4, CostModel::Analytic)
        .tune_parallel(1 << 12)
        .unwrap()
        .unwrap()
        .plan;
    assert_eq!(par.threads, 2);
    for (plan, tag) in [(&seq, "tuned_seq"), (&par, "tuned_par")] {
        let in_place = plan
            .steps
            .iter()
            .flat_map(|s| match s {
                Step::Seq(p) => std::slice::from_ref(p),
                Step::Par { programs, .. } => programs.as_slice(),
                Step::Exchange { .. } | Step::ScaleAll(_) => &[],
            })
            .flat_map(|p| p.passes())
            .filter(|(_, input, output)| input == output)
            .count();
        assert!(in_place > 0, "{tag}: no stage runs in place");
        for flavor in [CFlavor::OpenMp, CFlavor::Pthreads] {
            let c = emit_c(plan, flavor);
            for line in c.lines().filter(|l| l.contains("restrict")) {
                assert!(
                    line.starts_with("static void dft_codelet_")
                        && line.ends_with("(const double *restrict x, double *restrict y) {"),
                    "{tag}: restrict outside a codelet signature: {line}"
                );
            }
            for line in c
                .lines()
                .filter(|l| l.contains("dft_codelet_") && !l.contains("static"))
            {
                assert!(line.trim_start().ends_with("(gin, gout);"), "{tag}: {line}");
            }
            check(plan, flavor, &format!("{tag}_{flavor:?}"));
        }
    }
}
