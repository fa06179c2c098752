//! C source emission — the paper's implementation-level backend.
//!
//! Spiral emits C with OpenMP pragmas or explicit pthreads calls
//! (paper §3.1, "Generating multithreaded code"). This module renders a
//! compiled [`Plan`] as a self-contained C translation unit in either
//! flavor. Complex data is interleaved `double` (re, im), matching the
//! runtime layout, so µ in elements equals the paper's convention.
//!
//! The emitted code follows the same schedule as the Rust executor: one
//! statically partitioned portion per thread per step, one barrier per
//! step, and each stage's buffers by [`LocalProgram::passes`]. An
//! in-place stage names one array as input and output; each kernel call
//! loads its slots into a local `gin[]` before it stores any, and the
//! `restrict` pointers of the codelet functions point only at the local
//! `gin[]` and `gout[]`.

use crate::codelet::dag::{Dag, Node};
use crate::plan::{ElementOp, Plan, Portion, Step};
use crate::stage::{Buf, KernelStage, LocalProgram};
use spiral_spl::cplx::Cplx;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Threading interface of the emitted code.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CFlavor {
    /// `#pragma omp parallel for` on every parallel step.
    OpenMp,
    /// Explicit persistent pthreads with a barrier per step.
    Pthreads,
}

/// Render `plan` as a C translation unit exposing
/// `void spiral_dft_N(const double *x, double *y)`.
pub fn emit_c(plan: &Plan, flavor: CFlavor) -> String {
    let mut e = Emitter::new(plan, flavor);
    e.emit();
    e.out
}

struct Emitter<'a> {
    plan: &'a Plan,
    flavor: CFlavor,
    out: String,
    codelets: BTreeMap<String, String>, // name -> definition
    tables: String,
}

impl<'a> Emitter<'a> {
    fn new(plan: &'a Plan, flavor: CFlavor) -> Self {
        Emitter {
            plan,
            flavor,
            out: String::new(),
            codelets: BTreeMap::new(),
            tables: String::new(),
        }
    }

    fn emit(&mut self) {
        let n = self.plan.n;
        let p = self.plan.threads;
        let mut body = String::new();
        for (si, step) in self.plan.steps.iter().enumerate() {
            let _ = write!(body, "\n    /* step {si}: {} */\n", step.label());
            body.push_str(&self.emit_step(si, step));
        }

        let vec_note = if self.plan.vec_width > 1 {
            format!(
                ", vec({}) stages carry explicit vectorization pragmas",
                self.plan.vec_width
            )
        } else {
            String::new()
        };
        let header = format!(
            "/* Generated DFT_{n} for p = {p}, mu = {mu} — spiral-fft-rs C backend.\n\
             * Schedule: {steps} steps, one barrier per step{vec_note}.\n */\n\
             #include <string.h>\n{inc}\n\
             #define N {n}\n#define NTHREADS {p}\n\n",
            mu = self.plan.mu,
            steps = self.plan.steps.len(),
            inc = match self.flavor {
                CFlavor::OpenMp => "#include <omp.h>",
                CFlavor::Pthreads => "#include <pthread.h>",
            },
        );
        self.out.push_str(&header);

        // Buffers.
        let tmp_dim = self.plan.tmp_dim().max(1);
        let _ = write!(
            self.out,
            "static double bufA[2*N] __attribute__((aligned(64)));\n\
             static double bufB[2*N] __attribute__((aligned(64)));\n\
             static double tmp_buf[NTHREADS][2*{tmp_dim}] __attribute__((aligned(64)));\n\n"
        );

        // Tables and codelets were accumulated while emitting steps; emit
        // the steps first into a scratch string, then splice declarations.
        let mut decls = String::new();
        decls.push_str(&self.tables);
        for def in self.codelets.values() {
            decls.push_str(def);
        }
        self.out.push_str(&decls);

        match self.flavor {
            CFlavor::OpenMp => {
                let _ = write!(
                    self.out,
                    "\nvoid spiral_dft_{n}(const double *x, double *y) {{\n\
                     \x20   memcpy(bufA, x, sizeof(bufA));\n\
                     {body}\
                     \x20   memcpy(y, {final_buf}, sizeof(bufA));\n\
                     }}\n",
                    final_buf = if self.plan.steps.len().is_multiple_of(2) {
                        "bufA"
                    } else {
                        "bufB"
                    },
                );
            }
            CFlavor::Pthreads => {
                let _ = write!(
                    self.out,
                    "\nstatic pthread_barrier_t bar;\n\n\
                     static void run_steps(int tid) {{\n\
                     {body}\
                     }}\n\n\
                     static void *worker(void *arg) {{\n\
                     \x20   run_steps((int)(long)arg);\n\
                     \x20   return 0;\n\
                     }}\n\n\
                     void spiral_dft_{n}(const double *x, double *y) {{\n\
                     \x20   pthread_t th[NTHREADS];\n\
                     \x20   memcpy(bufA, x, sizeof(bufA));\n\
                     \x20   pthread_barrier_init(&bar, 0, NTHREADS);\n\
                     \x20   for (long t = 1; t < NTHREADS; t++)\n\
                     \x20       pthread_create(&th[t], 0, worker, (void *)t);\n\
                     \x20   run_steps(0);\n\
                     \x20   for (long t = 1; t < NTHREADS; t++)\n\
                     \x20       pthread_join(th[t], 0);\n\
                     \x20   pthread_barrier_destroy(&bar);\n\
                     \x20   memcpy(y, {final_buf}, sizeof(bufA));\n\
                     }}\n",
                    final_buf = if self.plan.steps.len().is_multiple_of(2) {
                        "bufA"
                    } else {
                        "bufB"
                    },
                );
            }
        }
    }

    /// Emit the code of one step (into the step body string). Each
    /// thread runs its portion of the static schedule ([`Step::portion`]):
    /// chunk `c` on thread `c mod NTHREADS`, or a range of output
    /// elements read from a per-step table of `(lo, hi)` pairs.
    fn emit_step(&mut self, si: usize, step: &Step) -> String {
        let (src, dst) = if si.is_multiple_of(2) {
            ("bufA", "bufB")
        } else {
            ("bufB", "bufA")
        };
        let (n, mu, p) = (self.plan.n, self.plan.mu, self.plan.threads);
        let mut s = String::new();
        match step.portion(n, mu, 0, p) {
            Portion::Chunks {
                chunk,
                programs,
                gather,
                ..
            } => {
                // Chunks are identical in the homogeneous case; emit one
                // body indexed by the chunk variable. Heterogeneous
                // (⊕∥ D_i) chunks differ only in tables, which we emit
                // as one concatenated table indexed globally.
                let gname = gather.map(|g| {
                    let name = format!("pgather{si}");
                    self.emit_u32_table(&name, g);
                    name
                });
                let np = programs.len();
                match self.flavor {
                    CFlavor::OpenMp => {
                        let _ = write!(
                            s,
                            "    #pragma omp parallel for num_threads(NTHREADS) schedule(static)\n\
                             \x20   for (int c = 0; c < {np}; c++) {{\n"
                        );
                    }
                    CFlavor::Pthreads => {
                        let _ = writeln!(s, "    for (int c = tid; c < {np}; c += NTHREADS) {{");
                    }
                }
                let _ = writeln!(s, "        const int off = c * {chunk};");
                if homogeneous(programs) {
                    let body =
                        self.emit_local(si, 0, &programs[0], src, dst, "off", gname.as_deref());
                    s.push_str(&indent(&body, 1));
                } else {
                    for (c, prog) in programs.iter().enumerate() {
                        let body = self.emit_local(si, c, prog, src, dst, "off", gname.as_deref());
                        let _ = write!(
                            s,
                            "        if (c == {c}) {{\n{}        }}\n",
                            indent(&body, 2)
                        );
                    }
                }
                s.push_str("    }\n");
            }
            Portion::Elements { op, .. } => {
                let bounds: Vec<u32> = (0..p)
                    .flat_map(|t| {
                        let r = step
                            .portion(n, mu, t, p)
                            .writes()
                            .next()
                            .unwrap_or_default();
                        [crate::u32_idx(r.start), crate::u32_idx(r.end)]
                    })
                    .collect();
                let range = format!("range{si}");
                self.emit_u32_table(&range, &bounds);
                let t = match self.flavor {
                    CFlavor::OpenMp => {
                        s.push_str(
                            "    #pragma omp parallel for num_threads(NTHREADS) schedule(static)\n\
                             \x20   for (int t = 0; t < NTHREADS; t++)\n",
                        );
                        "t"
                    }
                    CFlavor::Pthreads => "tid",
                };
                let _ = writeln!(
                    s,
                    "    for (int i = {range}[2*{t}]; i < {range}[2*{t}+1]; i++) {{"
                );
                match op {
                    ElementOp::Gather(table) => {
                        let tname = format!("exch{si}_tbl");
                        self.emit_u32_table(&tname, table);
                        let _ = write!(
                            s,
                            "        {dst}[2*i]   = {src}[2*{tname}[i]];\n\
                             \x20       {dst}[2*i+1] = {src}[2*{tname}[i]+1];\n"
                        );
                    }
                    ElementOp::Scale(w) => {
                        let tname = format!("scale{si}_tbl");
                        self.emit_cplx_table(&tname, w);
                        let _ = write!(
                            s,
                            "        double re = {src}[2*i], im = {src}[2*i+1];\n\
                             \x20       {dst}[2*i]   = re * {tname}[2*i]   - im * {tname}[2*i+1];\n\
                             \x20       {dst}[2*i+1] = re * {tname}[2*i+1] + im * {tname}[2*i];\n"
                        );
                    }
                }
                s.push_str("    }\n");
            }
        }
        if self.flavor == CFlavor::Pthreads {
            s.push_str("    pthread_barrier_wait(&bar);\n");
        }
        s
    }

    /// Emit a local program applied at offset `off_expr` within the
    /// global src/dst buffers, using the per-thread tmp for intermediates.
    #[allow(clippy::too_many_arguments)]
    fn emit_local(
        &mut self,
        si: usize,
        ci: usize,
        prog: &LocalProgram,
        src: &str,
        dst: &str,
        off_expr: &str,
        gather: Option<&str>,
    ) -> String {
        let mut s = String::new();
        let tmp = match self.flavor {
            CFlavor::OpenMp => "tmp_buf[omp_get_thread_num()]",
            CFlavor::Pthreads => "tmp_buf[tid]",
        };
        if prog.stages.is_empty() {
            match gather {
                None => {
                    let _ = writeln!(
                        s,
                        "    memcpy({dst} + 2*({off_expr}), {src} + 2*({off_expr}), 2*{d}*sizeof(double));",
                        d = prog.dim
                    );
                }
                Some(g) => {
                    let _ = write!(
                        s,
                        "    for (int i = 0; i < {d}; i++) {{\n\
                         \x20       {dst}[2*(({off_expr})+i)]   = {src}[2*{g}[({off_expr})+i]];\n\
                         \x20       {dst}[2*(({off_expr})+i)+1] = {src}[2*{g}[({off_expr})+i]+1];\n\
                         \x20   }}\n",
                        d = prog.dim
                    );
                }
            }
            return s;
        }
        let at = |buf: Buf| match buf {
            Buf::Src => (src, off_expr),
            Buf::Tmp => (tmp, "0"),
            Buf::Dst => (dst, off_expr),
        };
        for (k, (stage, input, output)) in prog.passes().enumerate() {
            let ((in_buf, in_off), (out_buf, out_off)) = (at(input), at(output));
            let g = if input == Buf::Src { gather } else { None };
            let tag = format!("s{si}c{ci}k{k}");
            s.push_str(&self.emit_kernel(&tag, stage, in_buf, in_off, out_buf, out_off, g));
        }
        s
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_kernel(
        &mut self,
        tag: &str,
        ks: &KernelStage,
        in_buf: &str,
        in_off: &str,
        out_buf: &str,
        out_off: &str,
        gather: Option<&str>,
    ) -> String {
        let c = ks.codelet.size();
        let fname = self.codelet_fn(&ks.codelet.dag());
        let mut s = String::new();
        // ν-lane stages proved aligned by the vectorize pass: annotate
        // the per-butterfly gather/scatter loops so the C compiler keeps
        // the short-vector schedule the plan was tuned with.
        let simd_pragma = if ks.vec_width > 1 {
            let _ = writeln!(
                s,
                "    /* vec({nu}) kernel stage: {nu}-lane interleaved-complex butterflies */",
                nu = ks.vec_width
            );
            match self.flavor {
                CFlavor::OpenMp => format!("#pragma omp simd simdlen({})\n", ks.vec_width),
                CFlavor::Pthreads => "#pragma GCC ivdep\n".to_string(),
            }
        } else {
            String::new()
        };
        if let Some(m) = &ks.in_map {
            self.emit_u32_table(&format!("gmap_{tag}"), m);
        }
        if let Some(m) = &ks.out_map {
            self.emit_u32_table(&format!("smap_{tag}"), m);
        }
        if let Some(w) = &ks.twiddle {
            self.emit_cplx_table(&format!("tw_{tag}"), w);
        }
        if let Some(w) = &ks.twiddle_out {
            self.emit_cplx_table(&format!("two_{tag}"), w);
        }
        // Loop nest.
        s.push_str("    {\n        int ib, ob;\n");
        let mut open = 0;
        let _ = writeln!(s, "        ib = {}; ob = {};", ks.in_off, ks.out_off);
        let mut vars = Vec::new();
        for (d, l) in ks.loops.iter().enumerate() {
            let v = format!("i{d}");
            let pad = "    ".repeat(2 + open);
            let _ = writeln!(
                s,
                "{pad}for (int {v} = 0; {v} < {c}; {v}++) {{",
                c = l.count
            );
            vars.push((v, l));
            open += 1;
        }
        let pad = "    ".repeat(2 + open);
        // Compute bases.
        let ib_expr: String = {
            let mut e = format!("{}", ks.in_off);
            for (v, l) in &vars {
                let _ = write!(e, " + {v}*{}", l.in_stride);
            }
            e
        };
        let ob_expr: String = {
            let mut e = format!("{}", ks.out_off);
            for (v, l) in &vars {
                let _ = write!(e, " + {v}*{}", l.out_stride);
            }
            e
        };
        let _ = write!(s, "{pad}{{\n{pad}    double gin[2*{c}], gout[2*{c}];\n");
        let _ = writeln!(s, "{pad}    int ibase = {ib_expr}, obase = {ob_expr};");
        // Twiddle iteration: the loop variables times their twiddle
        // strides (loops the tables do not vary along have stride 0).
        if ks.twiddle.is_some() || ks.twiddle_out.is_some() {
            let mut expr = String::from("0");
            for (v, l) in vars.iter().filter(|(_, l)| l.tw_stride > 0) {
                let _ = write!(expr, " + {v}*{}", l.tw_stride);
            }
            let _ = writeln!(s, "{pad}    int twi = {expr};");
        }
        if !simd_pragma.is_empty() {
            let _ = write!(s, "{pad}    {simd_pragma}");
        }
        let _ = writeln!(s, "{pad}    for (int t = 0; t < {c}; t++) {{");
        let idx_in = if ks.in_map.is_some() {
            format!("gmap_{tag}[ibase + t*{}]", ks.in_t_stride)
        } else {
            format!("ibase + t*{}", ks.in_t_stride)
        };
        let _ = writeln!(s, "{pad}        int ii = {idx_in};");
        let in_expr = match gather {
            Some(g) => format!("{g}[({in_off})+ii]"),
            None => format!("(({in_off})+ii)"),
        };
        if ks.twiddle.is_some() {
            let _ = write!(
                s,
                "{pad}        double re = {in_buf}[2*{in_expr}], im = {in_buf}[2*{in_expr}+1];\n\
                 {pad}        double wre = tw_{tag}[2*(twi*{c}+t)], wim = tw_{tag}[2*(twi*{c}+t)+1];\n\
                 {pad}        gin[2*t] = re*wre - im*wim; gin[2*t+1] = re*wim + im*wre;\n"
            );
        } else {
            let _ = writeln!(
                s,
                "{pad}        gin[2*t] = {in_buf}[2*{in_expr}]; gin[2*t+1] = {in_buf}[2*{in_expr}+1];"
            );
        }
        let _ = write!(s, "{pad}    }}\n{pad}    {fname}(gin, gout);\n");
        let idx_out = if ks.out_map.is_some() {
            format!("smap_{tag}[obase + t*{}]", ks.out_t_stride)
        } else {
            format!("obase + t*{}", ks.out_t_stride)
        };
        let out_pragma = if simd_pragma.is_empty() {
            String::new()
        } else {
            format!("{pad}    {simd_pragma}")
        };
        if ks.twiddle_out.is_some() {
            let _ = write!(
                s,
                "{out_pragma}{pad}    for (int t = 0; t < {c}; t++) {{\n\
                 {pad}        int oi = {idx_out};\n\
                 {pad}        double wre = two_{tag}[2*(twi*{c}+t)], wim = two_{tag}[2*(twi*{c}+t)+1];\n\
                 {pad}        {out_buf}[2*(({out_off})+oi)]   = gout[2*t]*wre - gout[2*t+1]*wim;\n\
                 {pad}        {out_buf}[2*(({out_off})+oi)+1] = gout[2*t]*wim + gout[2*t+1]*wre;\n\
                 {pad}    }}\n{pad}}}\n"
            );
        } else {
            let _ = write!(
                s,
                "{out_pragma}{pad}    for (int t = 0; t < {c}; t++) {{\n\
                 {pad}        int oi = {idx_out};\n\
                 {pad}        {out_buf}[2*(({out_off})+oi)] = gout[2*t]; {out_buf}[2*(({out_off})+oi)+1] = gout[2*t+1];\n\
                 {pad}    }}\n{pad}}}\n"
            );
        }
        for d in (0..open).rev() {
            let pad = "    ".repeat(2 + d);
            let _ = writeln!(s, "{pad}}}");
        }
        s.push_str("    }\n");
        s
    }

    /// Emit (once) the straight-line codelet function for a DAG; returns
    /// its name.
    fn codelet_fn(&mut self, dag: &Dag) -> String {
        let name = format!("dft_codelet_{}", dag.n_inputs);
        if self.codelets.contains_key(&name) {
            return name;
        }
        let mut body = String::new();
        let _ = writeln!(
            body,
            "static void {name}(const double *restrict x, double *restrict y) {{"
        );
        for (id, node) in dag.nodes.iter().enumerate() {
            let (re, im) = (format!("t{id}_re"), format!("t{id}_im"));
            match *node {
                Node::Input(i) => {
                    let _ = writeln!(
                        body,
                        "    double {re} = x[{}], {im} = x[{}];",
                        2 * i,
                        2 * i + 1
                    );
                }
                Node::Add(a, b) => {
                    let _ = writeln!(
                        body,
                        "    double {re} = t{a}_re + t{b}_re, {im} = t{a}_im + t{b}_im;"
                    );
                }
                Node::Sub(a, b) => {
                    let _ = writeln!(
                        body,
                        "    double {re} = t{a}_re - t{b}_re, {im} = t{a}_im - t{b}_im;"
                    );
                }
                Node::Mul(a, w) => {
                    let _ = writeln!(
                        body,
                        "    double {re} = t{a}_re * {wr:.17} - t{a}_im * {wi:.17}, {im} = t{a}_re * {wi:.17} + t{a}_im * {wr:.17};",
                        wr = w.re,
                        wi = w.im
                    );
                }
                Node::MulI(a) => {
                    let _ = writeln!(body, "    double {re} = -t{a}_im, {im} = t{a}_re;");
                }
                Node::MulNegI(a) => {
                    let _ = writeln!(body, "    double {re} = t{a}_im, {im} = -t{a}_re;");
                }
                Node::Neg(a) => {
                    let _ = writeln!(body, "    double {re} = -t{a}_re, {im} = -t{a}_im;");
                }
            }
        }
        for (k, o) in dag.outputs.iter().enumerate() {
            let _ = writeln!(
                body,
                "    y[{}] = t{o}_re; y[{}] = t{o}_im;",
                2 * k,
                2 * k + 1
            );
        }
        body.push_str("}\n\n");
        self.codelets.insert(name.clone(), body);
        name
    }

    fn emit_u32_table(&mut self, name: &str, t: &[u32]) {
        if self.tables.contains(&format!(" {name}[")) {
            return;
        }
        let _ = write!(
            self.tables,
            "static const unsigned {name}[{}] = {{",
            t.len()
        );
        for (i, v) in t.iter().enumerate() {
            if i % 16 == 0 {
                self.tables.push_str("\n    ");
            }
            let _ = write!(self.tables, "{v},");
        }
        self.tables.push_str("\n};\n");
    }

    fn emit_cplx_table(&mut self, name: &str, w: &[Cplx]) {
        if self.tables.contains(&format!(" {name}[")) {
            return;
        }
        let _ = write!(
            self.tables,
            "static const double {name}[{}] = {{",
            2 * w.len()
        );
        for (i, z) in w.iter().enumerate() {
            if i % 4 == 0 {
                self.tables.push_str("\n    ");
            }
            let _ = write!(self.tables, "{:.17},{:.17},", z.re, z.im);
        }
        self.tables.push_str("\n};\n");
    }
}

fn homogeneous(programs: &[LocalProgram]) -> bool {
    programs.windows(2).all(|w| same_structure(&w[0], &w[1]))
}

fn same_structure(a: &LocalProgram, b: &LocalProgram) -> bool {
    a.stages.len() == b.stages.len()
        && a.stages.iter().zip(&b.stages).all(|(k1, k2)| {
            k1.loops == k2.loops
                && k1.codelet.size() == k2.codelet.size()
                && k1.in_map == k2.in_map
                && k1.out_map == k2.out_map
                && k1.twiddle == k2.twiddle
                && k1.twiddle_out == k2.twiddle_out
        })
}

fn indent(s: &str, levels: usize) -> String {
    let pad = "    ".repeat(levels);
    s.lines()
        .map(|l| {
            if l.is_empty() {
                l.to_string()
            } else {
                format!("{pad}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use spiral_rewrite::{multicore_dft_expanded, sequential_dft};

    fn parallel_plan() -> Plan {
        let f = multicore_dft_expanded(64, 2, 4, None, 8).unwrap();
        Plan::from_formula(&f, 2, 4).unwrap()
    }

    #[test]
    fn openmp_emission_has_expected_structure() {
        let c = emit_c(&parallel_plan(), CFlavor::OpenMp);
        assert!(c.contains("#include <omp.h>"), "missing OMP include");
        assert!(c.contains("#pragma omp parallel for"), "missing pragma");
        assert!(c.contains("void spiral_dft_64"), "missing entry point");
        assert!(c.contains("aligned(64)"), "buffers must be line-aligned");
        assert!(c.contains("dft_codelet_8"), "codelet function missing");
    }

    #[test]
    fn pthreads_emission_has_expected_structure() {
        let c = emit_c(&parallel_plan(), CFlavor::Pthreads);
        assert!(c.contains("#include <pthread.h>"));
        assert!(c.contains("pthread_barrier_wait(&bar)"));
        assert!(c.contains("pthread_create"));
        assert!(
            c.contains("for (int c = tid;"),
            "static block-cyclic split missing"
        );
    }

    #[test]
    fn one_barrier_per_step_in_pthreads() {
        let plan = parallel_plan();
        let c = emit_c(&plan, CFlavor::Pthreads);
        let barriers = c.matches("pthread_barrier_wait(&bar);").count();
        assert_eq!(barriers, plan.steps.len());
    }

    #[test]
    fn sequential_plan_emits_without_parallel_steps() {
        let f = sequential_dft(32, 8);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        let c = emit_c(&plan, CFlavor::OpenMp);
        assert!(c.contains("void spiral_dft_32"));
    }

    #[test]
    fn codelet_bodies_are_straight_line() {
        let c = emit_c(&parallel_plan(), CFlavor::OpenMp);
        // The size-8 codelet body must contain no loops.
        let start = c.find("static void dft_codelet_8").unwrap();
        let end = c[start..].find("\n}\n").unwrap() + start;
        let body = &c[start..end];
        assert!(!body.contains("for ("), "codelet must be unrolled:\n{body}");
        assert!(body.matches("double t").count() > 8);
    }

    fn vec_plan(nu: usize) -> Plan {
        let f = spiral_spl::builder::vec_tag(nu, sequential_dft(64, 8));
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        assert!(plan.vec_width > 1, "tag must take at n=64");
        plan
    }

    #[test]
    fn vector_stages_carry_simd_pragmas_in_openmp() {
        let c = emit_c(&vec_plan(4), CFlavor::OpenMp);
        assert!(
            c.contains("#pragma omp simd simdlen(4)"),
            "ν-lane loops must be annotated:\n{c}"
        );
        assert!(c.contains("/* vec(4) kernel stage"));
        assert!(c.contains("vec(4) stages carry explicit vectorization pragmas"));
    }

    #[test]
    fn vector_stages_carry_ivdep_in_pthreads() {
        let c = emit_c(&vec_plan(2), CFlavor::Pthreads);
        assert!(c.contains("#pragma GCC ivdep"), "missing ivdep:\n{c}");
        assert!(c.contains("/* vec(2) kernel stage"));
    }

    #[test]
    fn scalar_plans_emit_no_simd_pragmas() {
        let f = sequential_dft(64, 8);
        let plan = Plan::from_formula(&f, 1, 4).unwrap();
        let c = emit_c(&plan, CFlavor::OpenMp);
        assert!(!c.contains("omp simd"));
        assert!(!c.contains("vec("));
    }

    #[test]
    fn tables_are_emitted_once() {
        let c = emit_c(&parallel_plan(), CFlavor::OpenMp);
        // Each named table defined exactly once.
        for cap in ["exch0_tbl", "dft_codelet_8"] {
            let defs = c
                .matches(&format!("{cap}["))
                .count()
                .max(c.matches(&format!("{cap}(")).count());
            assert!(defs >= 1, "{cap} missing");
        }
    }
}
