//! Certification acceptance: every tuner-reachable plan shape at
//! `n ≤ 64` is *proven* equal to `DFT_n` over exact arithmetic and
//! passes the dataflow certification, while deliberately corrupted IR is
//! rejected by the matching pass with a localized verdict.

use proptest::prelude::*;
use proptest::sample::select;
use spiral_codegen::fuse::fuse;
use spiral_codegen::lower_seq;
use spiral_codegen::plan::{Plan, Step};
use spiral_codegen::stage::KernelStage;
use spiral_rewrite::{multicore_dft_expanded, sequential_dft};
use spiral_spl::builder::{compose, diag, dsum, perm, stride, twiddle, vec_tag};
use spiral_spl::cplx::Cplx;
use spiral_spl::perm::Perm;
use spiral_spl::Spl;
use spiral_verify::certify::{certify_plan, CertOptions, CertPass};
use std::sync::Arc;

fn certified(plan: &Plan) {
    let rep = certify_plan(plan, &CertOptions::default());
    assert!(
        rep.is_certified(),
        "n={} p={} µ={} rejected: {}",
        plan.n,
        plan.threads,
        plan.mu,
        rep.findings[0]
    );
    assert!(rep.dataflow_certified);
    assert_eq!(rep.symbolic_certified, Some(true));
}

/// `d`, a formula with no kernel, as a step of its own before a step
/// computing `DFT_16 · undo` (`undo = d⁻¹`): the plan computes `DFT_16`,
/// and its first step runs data stages (`DFT_1` with a map or a table)
/// and nothing else, which tuned plans never do.
fn after_data_step(d: &Spl, undo: Spl) -> Plan {
    let step = |f: &Spl| Step::Seq(fuse(lower_seq(f).unwrap()));
    let first = step(d);
    let Step::Seq(p) = &first else { unreachable!() };
    assert!(
        !p.stages.is_empty() && p.stages.iter().all(|k| k.codelet.size() == 1),
        "{d}: not a data-only program"
    );
    let rest = step(&compose(vec![sequential_dft(16, 4), undo]));
    Plan {
        n: 16,
        threads: 1,
        mu: 1,
        vec_width: 1,
        steps: vec![first, rest],
    }
}

/// `L^{16}_4`, `T^{16}_4`, `L^{16}_4·T^{16}_4` and `L^8_2 ⊕ L^8_4`, each
/// with its inverse.
fn data_formulas() -> Vec<(Spl, Spl)> {
    let l = stride(16, 4);
    let l_inv = perm(Perm::stride(16, 4).inverse());
    let t = twiddle(4, 4);
    let Spl::Diag(entries) = &t else {
        unreachable!()
    };
    let t_inv = diag(entries.entries().iter().map(|w| w.conj()).collect());
    vec![
        (l.clone(), l_inv.clone()),
        (t.clone(), t_inv.clone()),
        (compose(vec![l, t]), compose(vec![t_inv, l_inv])),
        (
            dsum(vec![stride(8, 2), stride(8, 4)]),
            dsum(vec![stride(8, 4), stride(8, 2)]),
        ),
    ]
}

#[test]
fn sequential_plans_certify_exactly() {
    for k in 2..=6 {
        let n = 1usize << k;
        for leaf in [2, 4, 8] {
            let f = sequential_dft(n, leaf);
            let plan = Plan::from_formula(&f, 1, 1).unwrap();
            certified(&plan);
        }
    }
    for (d, undo) in data_formulas() {
        certified(&after_data_step(&d, undo));
    }
}

#[test]
fn multicore_plans_certify_exactly_fused_and_unfused() {
    for k in 4..=6 {
        let n = 1usize << k;
        for p in [2usize, 4] {
            for mu in [1usize, 2] {
                let Ok(f) = multicore_dft_expanded(n, p, mu, None, 8) else {
                    continue;
                };
                let plan = Plan::from_formula(&f, p, mu).unwrap();
                certified(&plan);
                certified(&plan.clone().fuse_exchanges());
            }
        }
    }
}

/// Every composite `DFT_k` leaf with no compiled kernel up to 64
/// (composite, `k > 8`, not 16 or 32), as SPL text alone and inside the
/// Cooley–Tukey step `(DFT_2 ⊗ I_k) T^{2k}_k (I_2 ⊗ DFT_k) L^{2k}_2`,
/// lowers through a rule tree and is proven equal to the DFT by the
/// symbolic pass.
#[test]
fn leaves_outside_the_kernel_set_certify_exactly() {
    use spiral_codegen::lower::has_kernel;
    let composite = |k: usize| spiral_spl::num::factorize(k) != [(k, 1)];
    let sizes: Vec<usize> = (9..=64)
        .filter(|&k| !has_kernel(k) && composite(k))
        .collect();
    assert_eq!(sizes.len(), 40);
    let opts = CertOptions {
        symbolic_limit: 128,
    };
    for k in sizes {
        let n = 2 * k;
        for text in [
            format!("DFT_{k}"),
            format!("(DFT_2 @ I_{k}) * T^{n}_{k} * (I_2 @ DFT_{k}) * L^{n}_2"),
        ] {
            let f = spiral_spl::parse::parse(&text).unwrap();
            let plan = Plan::from_formula(&f, 1, 4).unwrap();
            let rep = certify_plan(&plan, &opts);
            assert_eq!(
                rep.symbolic_certified,
                Some(true),
                "{text}: {:?}",
                rep.findings
            );
            assert!(rep.is_certified(), "{text}");
        }
    }
}

#[test]
fn large_n_gets_dataflow_only() {
    let f = sequential_dft(256, 8);
    let plan = Plan::from_formula(&f, 1, 1).unwrap();
    let rep = certify_plan(&plan, &CertOptions::default());
    assert!(rep.is_certified());
    assert!(rep.dataflow_certified);
    assert_eq!(rep.symbolic_certified, None);
}

/// A corrupted twiddle entry changes the computed matrix but breaks no
/// dataflow property — only the exact symbolic pass can see it.
#[test]
fn off_by_one_twiddle_rejected_by_symbolic_pass() {
    let f = sequential_dft(16, 4);
    let mut plan = Plan::from_formula(&f, 1, 1).unwrap();
    let mut hit = false;
    // Rotate one twiddle entry off its true angle, wherever the
    // lowering put the table (load-fused, store-fused, or diagonal).
    let spin = Cplx::cis(-2.0 * std::f64::consts::PI / 16.0);
    let corrupt = |w: &Arc<Vec<Cplx>>| {
        let mut w = w.as_ref().clone();
        let i = w
            .iter()
            .position(|c| (c.im.abs() > 1e-3) && (c.re.abs() > 1e-3))
            .unwrap_or(w.len() - 1);
        w[i] *= spin;
        Arc::new(w)
    };
    for ks in seq_kernels(&mut plan) {
        if let Some(w) = &ks.twiddle {
            ks.twiddle = Some(corrupt(w));
        } else if let Some(w) = &ks.twiddle_out {
            ks.twiddle_out = Some(corrupt(w));
        } else {
            continue;
        }
        hit = true;
        break;
    }
    assert!(hit, "expected a twiddle table to corrupt");
    // The same for a diagonal-only stage: the table of `T^{16}_4` run as
    // a step of its own.
    let (t, undo) = data_formulas().swap_remove(1);
    let mut diagonal = after_data_step(&t, undo);
    let data = seq_kernels(&mut diagonal).swap_remove(0);
    data.twiddle = Some(corrupt(data.twiddle.as_ref().unwrap()));
    for plan in [plan, diagonal] {
        let rep = certify_plan(&plan, &CertOptions::default());
        assert!(rep.dataflow_certified, "dataflow cannot see value errors");
        assert_eq!(rep.symbolic_certified, Some(false));
        let f = &rep.findings[0];
        assert_eq!(f.pass, CertPass::Symbolic);
        assert!(
            f.index.is_some() && f.detail.contains("is not DFT_16"),
            "{f}"
        );
    }
}

/// Swapping a loop's input stride redirects reads: either the dataflow
/// pass sees a coverage/bounds violation, or the symbolic pass sees the
/// wrong matrix. One of them must fire.
#[test]
fn swapped_stride_rejected() {
    let f = sequential_dft(16, 4);
    let mut plan = Plan::from_formula(&f, 1, 1).unwrap();
    let mut hit = false;
    'outer: for step in &mut plan.steps {
        let Step::Seq(p) = step else { continue };
        for ks in &mut p.stages {
            for d in &mut ks.loops {
                if d.in_stride != d.out_stride {
                    std::mem::swap(&mut d.in_stride, &mut d.out_stride);
                    hit = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(hit, "expected a kernel loop with distinct strides");
    let rep = certify_plan(&plan, &CertOptions::default());
    assert!(!rep.is_certified(), "stride swap must be caught");
}

/// Dropping a stage leaves the plan computing the wrong transform; the
/// remaining stages are still well-formed dataflow, so the symbolic pass
/// is the one that must catch it.
#[test]
fn dropped_stage_rejected() {
    let f = sequential_dft(16, 4);
    let mut plan = Plan::from_formula(&f, 1, 1).unwrap();
    let mut hit = false;
    for step in &mut plan.steps {
        let Step::Seq(p) = step else { continue };
        if p.stages.len() > 1 {
            p.stages.pop();
            hit = true;
            break;
        }
    }
    assert!(hit, "expected a multi-stage local program");
    let rep = certify_plan(&plan, &CertOptions::default());
    assert!(!rep.is_certified(), "dropped stage must be caught");
}

/// An exchange table that repeats an index is not a permutation; the
/// dataflow pass rejects it before any symbolic work.
#[test]
fn non_bijective_exchange_rejected_by_dataflow() {
    let f = multicore_dft_expanded(32, 2, 1, None, 8).unwrap();
    let mut plan = Plan::from_formula(&f, 2, 1).unwrap();
    let mut hit = false;
    for step in &mut plan.steps {
        if let Step::Exchange { table, .. } = step {
            let mut t = table.as_ref().clone();
            t[0] = t[1];
            *table = Arc::new(t);
            hit = true;
            break;
        }
    }
    assert!(hit, "expected an exchange step");
    let rep = certify_plan(&plan, &CertOptions::default());
    assert!(!rep.dataflow_certified);
    assert_eq!(rep.findings[0].pass, CertPass::Dataflow);
    assert_eq!(
        rep.symbolic_certified, None,
        "symbolic skipped after dataflow failure"
    );
}

/// An in-place stage whose iterations overlap: iteration 0 covers slots
/// 0 and 1, iteration 1 slots 1 and 2. Each iteration reads the slots it
/// writes, so `passes()` runs the stage in place on the output, and its
/// second iteration would read slot 1 after the first iteration wrote
/// it. The dataflow pass rejects that read, naming the step, the stage
/// and the slot.
#[test]
fn overlapping_in_place_stage_rejected_by_dataflow() {
    use spiral_codegen::stage::{Buf, LocalProgram, LoopDim};
    use spiral_codegen::Codelet;
    let f2_loop = |count, stride| {
        let mut k = KernelStage::unit(Codelet::for_size(2));
        k.loops.push(LoopDim {
            count,
            in_stride: stride,
            out_stride: stride,
            tw_stride: 1,
        });
        k
    };
    // I_2 ⊗ F_2, then F_2 at bases 0 and 1.
    let prog = LocalProgram {
        dim: 4,
        stages: vec![f2_loop(2, 2), f2_loop(2, 1)],
    };
    let passes: Vec<(Buf, Buf)> = prog.passes().map(|(_, i, o)| (i, o)).collect();
    assert_eq!(passes, [(Buf::Src, Buf::Dst), (Buf::Dst, Buf::Dst)]);
    let plan = Plan {
        n: 4,
        threads: 1,
        mu: 1,
        vec_width: 1,
        steps: vec![Step::Seq(prog)],
    };
    let rep = certify_plan(&plan, &CertOptions::default());
    assert!(!rep.dataflow_certified);
    let f = &rep.findings[0];
    assert_eq!(f.pass, CertPass::Dataflow);
    assert_eq!(
        (f.step, f.stage, f.index),
        (Some(0), Some(1), Some(1)),
        "{f}"
    );
    assert!(f.detail.contains("in-place"), "{f}");
}

/// Run `f` on the first vector-marked kernel stage (ν > 1) that carries
/// a lane-grouped twiddle table; returns whether one was found.
fn with_vec_stage(plan: &mut Plan, mut f: impl FnMut(&mut KernelStage)) -> bool {
    for step in &mut plan.steps {
        let progs: Vec<_> = match step {
            Step::Seq(p) => vec![p],
            Step::Par { programs, .. } => programs.iter_mut().collect(),
            _ => continue,
        };
        for prog in progs {
            for ks in &mut prog.stages {
                if ks.vec_width > 1
                    && (ks.twiddle_lanes.is_some() || ks.twiddle_out_lanes.is_some())
                {
                    f(ks);
                    return true;
                }
            }
        }
    }
    false
}

/// Whichever lane-grouped table the stage carries (load- or store-fused
/// twiddles, depending on where the lowering put the diagonal).
fn lane_table(ks: &mut KernelStage) -> &mut Arc<Vec<Cplx>> {
    if let Some(t) = ks.twiddle_lanes.as_mut() {
        t
    } else {
        ks.twiddle_out_lanes.as_mut().unwrap()
    }
}

fn vec_plan(n: usize, nu: usize, leaf: usize) -> Plan {
    let plan = Plan::from_formula(&vec_tag(nu, sequential_dft(n, leaf)), 1, 1).unwrap();
    assert_eq!(plan.vec_width, nu, "n={n} nu={nu}: nothing vectorized");
    plan
}

#[test]
fn vector_plans_certify_exactly() {
    for n in [16usize, 32, 64] {
        for nu in [2usize, 4] {
            for leaf in [4usize, 8] {
                let plan = vec_plan(n, nu, leaf);
                certified(&plan);
            }
        }
    }
    // Multicore with fused exchange: the gathered first stage runs the
    // scalar path; later vector-marked stages certify over lane tables.
    let f = vec_tag(2, multicore_dft_expanded(64, 2, 2, None, 8).unwrap());
    let plan = Plan::from_formula(&f, 2, 2).unwrap();
    certified(&plan);
    certified(&plan.clone().fuse_exchanges());
}

/// Swapping two lanes inside one (group, slot) cell of the lane-grouped
/// twiddle table is exactly the "swapped lane shuffle" corruption: the
/// dataflow pass must reject it structurally (the table no longer
/// corresponds to the scalar one), before any symbolic work.
#[test]
fn swapped_lane_shuffle_rejected_by_dataflow() {
    let mut plan = vec_plan(64, 2, 4);
    let hit = with_vec_stage(&mut plan, |ks| {
        let nu = ks.vec_width;
        let lanes = Arc::make_mut(lane_table(ks));
        // Find a cell whose lanes actually differ, then swap them.
        let cell = (0..lanes.len() / nu)
            .find(|&c| {
                let (a, b) = (lanes[c * nu], lanes[c * nu + 1]);
                a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits()
            })
            .expect("a lane-varying twiddle cell");
        lanes.swap(cell * nu, cell * nu + 1);
    });
    assert!(hit, "expected a vector-marked stage with lane twiddles");
    let rep = certify_plan(&plan, &CertOptions::default());
    assert!(!rep.dataflow_certified);
    assert_eq!(rep.findings[0].pass, CertPass::Dataflow);
    assert!(
        rep.findings[0].detail.contains("lane shuffle is wrong"),
        "{}",
        rep.findings[0]
    );
    assert_eq!(rep.symbolic_certified, None);
}

/// The stages of the sequential steps of a plan, in order.
fn seq_kernels(plan: &mut Plan) -> Vec<&mut KernelStage> {
    plan.steps
        .iter_mut()
        .filter_map(|s| match s {
            Step::Seq(p) => Some(p),
            _ => None,
        })
        .flat_map(|p| &mut p.stages)
        .collect()
}

/// `DFT_64` by the rule tree 2 × (2 × (4 × 4)). Its first two twiddled
/// stages carry compact tables (twiddle stride 0 along the block loops
/// the tables repeat over); at ν = 2 the second is vector-marked.
fn compact_plan(nu: usize) -> Plan {
    use spiral_rewrite::RuleTree::{self, Ct, Leaf};
    let ct = |a: RuleTree, b: RuleTree| Ct(Box::new(a), Box::new(b));
    let f = ct(Leaf(2), ct(Leaf(2), ct(Leaf(4), Leaf(4))))
        .expand()
        .normalized();
    let f = if nu > 1 { vec_tag(nu, f) } else { f };
    Plan::from_formula(&f, 1, 1).unwrap()
}

/// A wrong per-loop twiddle stride reads the wrong table rows. A stride
/// one too large reaches past the table, and the dataflow pass rejects
/// it as out of range; two strides swapped between loops of equal count
/// reach the same number of rows, so only the symbolic pass, seeing the
/// wrong matrix, can reject it (or the dataflow pass, when the swap
/// breaks a vector stage's unit innermost stride).
#[test]
fn wrong_twiddle_stride_rejected() {
    let (mut dataflow, mut symbolic) = (0, 0);
    for base in [compact_plan(1), compact_plan(2)] {
        certified(&base);
        let mut probe = base.clone();
        let stages: Vec<(usize, Vec<(usize, usize)>)> = seq_kernels(&mut probe)
            .iter()
            .enumerate()
            .filter(|(_, k)| k.twiddle.is_some() || k.twiddle_out.is_some())
            .map(|(i, k)| (i, k.loops.iter().map(|l| (l.count, l.tw_stride)).collect()))
            .collect();
        assert!(
            stages.iter().any(|(_, l)| l.iter().any(|&(_, s)| s == 0)),
            "expected a compacted loop"
        );
        for (i, loops) in stages {
            let strides: Vec<usize> = loops.iter().map(|&(_, s)| s).collect();
            let mut wrong = Vec::new();
            for d in 0..loops.len() {
                let mut m = strides.clone();
                m[d] += 1;
                wrong.push((m, CertPass::Dataflow));
                for e in d + 1..loops.len() {
                    if loops[d].0 == loops[e].0 && strides[d] != strides[e] {
                        let mut m = strides.clone();
                        m.swap(d, e);
                        wrong.push((m, CertPass::Symbolic));
                    }
                }
            }
            for (m, expect) in wrong {
                let mut plan = base.clone();
                for (l, &s) in seq_kernels(&mut plan)[i].loops.iter_mut().zip(&m) {
                    l.tw_stride = s;
                }
                let rep = certify_plan(&plan, &CertOptions::default());
                assert!(
                    !rep.is_certified(),
                    "stage {i}: twiddle strides {m:?} accepted"
                );
                let f = &rep.findings[0];
                match f.pass {
                    CertPass::Dataflow => {
                        dataflow += 1;
                        if expect == CertPass::Dataflow {
                            assert!(
                                f.detail.contains("out of range") || f.detail.contains("alignment"),
                                "{f}"
                            );
                        }
                    }
                    _ => {
                        assert_eq!(expect, CertPass::Symbolic, "{f}");
                        symbolic += 1;
                    }
                }
            }
        }
    }
    assert!(
        dataflow > 0 && symbolic > 0,
        "dataflow {dataflow}, symbolic {symbolic}"
    );
}

/// A compact lane table must be the lane shuffle of the compact scalar
/// table. Lanes shuffled from the flat rows (one per iteration), or from
/// the compact rows shifted by one lane group, no longer correspond to
/// the scalar table, and the dataflow pass rejects them.
#[test]
fn compact_lane_table_must_match_its_scalar_table() {
    let check = |why: &str, corrupt: &dyn Fn(&mut KernelStage)| {
        let mut plan = compact_plan(2);
        certified(&plan);
        let mut stages = seq_kernels(&mut plan);
        let ks = stages
            .iter_mut()
            .find(|k| {
                k.vec_width > 1
                    && k.twiddle_out_lanes.is_some()
                    && k.twiddle_iterations() < k.iterations()
            })
            .expect("a compact vector-marked stage with lane twiddles");
        corrupt(ks);
        let rep = certify_plan(&plan, &CertOptions::default());
        assert!(!rep.dataflow_certified, "{why}: accepted");
        assert_eq!(rep.findings[0].pass, CertPass::Dataflow);
        assert!(rep.findings[0].detail.contains(why), "{}", rep.findings[0]);
    };
    check("entries, scalar table has", &|ks| {
        let c = ks.codelet.size();
        let w = ks.twiddle_out.clone().unwrap();
        let mut flat = Vec::new();
        ks.for_each_iteration(|tw, _, _| flat.extend_from_slice(&w[tw * c..(tw + 1) * c]));
        let lanes = spiral_codegen::simd::lane_shuffle_twiddle(&flat, c, ks.vec_width);
        ks.twiddle_out_lanes = Some(Arc::new(lanes));
    });
    check("lane shuffle is wrong", &|ks| {
        let group = ks.codelet.size() * ks.vec_width;
        let lanes = Arc::make_mut(ks.twiddle_out_lanes.as_mut().unwrap());
        lanes.rotate_left(group);
    });
}

/// Knocking a vector-marked stage's base offset off ν-granularity is the
/// "misaligned ν-block" corruption: the marking's alignment claim is
/// false, and the dataflow pass must say which rule broke.
#[test]
fn misaligned_nu_block_rejected_by_dataflow() {
    let mut plan = vec_plan(64, 2, 4);
    let hit = with_vec_stage(&mut plan, |ks| {
        ks.in_off += 1;
    });
    assert!(hit, "expected a vector-marked stage");
    let rep = certify_plan(&plan, &CertOptions::default());
    assert!(!rep.dataflow_certified);
    assert_eq!(rep.findings[0].pass, CertPass::Dataflow);
    assert!(
        rep.findings[0].detail.contains("misaligned nu-block"),
        "{}",
        rep.findings[0]
    );
}

/// The golden pin for the two vector rejection reasons: the exact
/// verdict strings are an interchange surface (tooling greps them), so
/// they live in the shared line-keyed `results/certify_reasons.golden`.
/// This test owns the `vec-*` lines; regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p spiral-verify --test certify`.
#[test]
fn vector_rejection_reasons_match_golden_snapshot() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/certify_reasons.golden");
    let reason = |corrupt: &dyn Fn(&mut KernelStage)| -> String {
        let mut plan = vec_plan(64, 2, 4);
        assert!(with_vec_stage(&mut plan, |ks| corrupt(ks)));
        certify_plan(&plan, &CertOptions::default()).findings[0].to_string()
    };
    let got = [
        (
            "vec-swapped-lane-shuffle",
            reason(&|ks| {
                let nu = ks.vec_width;
                let lanes = Arc::make_mut(lane_table(ks));
                let cell = (0..lanes.len() / nu)
                    .find(|&c| {
                        let (a, b) = (lanes[c * nu], lanes[c * nu + 1]);
                        a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits()
                    })
                    .unwrap();
                lanes.swap(cell * nu, cell * nu + 1);
            }),
        ),
        ("vec-misaligned-block", reason(&|ks| ks.in_off += 1)),
    ];
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let existing = std::fs::read_to_string(&path).unwrap_or_default();
        let mut lines: Vec<String> = existing
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with("vec-"))
            .map(str::to_string)
            .collect();
        for (key, r) in &got {
            lines.push(format!("{key}: {r}"));
        }
        lines.sort();
        std::fs::write(&path, lines.join("\n") + "\n").expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (key, r) in &got {
        let line = want
            .lines()
            .find(|l| l.starts_with(&format!("{key}: ")))
            .unwrap_or_else(|| panic!("no `{key}:` line in {}", path.display()));
        assert_eq!(
            line,
            &format!("{key}: {r}"),
            "vector rejection reason drifted; regenerate with UPDATE_GOLDEN=1"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random vec-tagged plans at certifiable sizes are proven equal to
    /// `DFT_n` — lane tables and all — and a random lane swap inside any
    /// lane-varying cell is always rejected by the dataflow pass.
    fn random_vector_plans_certify_and_corruptions_reject(
        k in 4u32..=6,
        nu in select(vec![2usize, 4]),
        leaf in select(vec![4usize, 8]),
        cell_sel in any::<u32>(),
    ) {
        let n = 1usize << k;
        let plan = vec_plan(n, nu, leaf);
        let rep = certify_plan(&plan, &CertOptions::default());
        prop_assert!(rep.is_certified(), "n={n} nu={nu} leaf={leaf}: {}", rep.findings[0]);
        prop_assert_eq!(rep.symbolic_certified, Some(true));

        let mut corrupted = plan;
        let hit = with_vec_stage(&mut corrupted, |ks| {
            let nu = ks.vec_width;
            let lanes = Arc::make_mut(lane_table(ks));
            let varying: Vec<usize> = (0..lanes.len() / nu)
                .filter(|&c| {
                    let (a, b) = (lanes[c * nu], lanes[c * nu + 1]);
                    a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits()
                })
                .collect();
            if varying.is_empty() {
                return;
            }
            let cell = varying[cell_sel as usize % varying.len()];
            lanes.swap(cell * nu, cell * nu + 1);
        });
        if hit {
            let rep = certify_plan(&corrupted, &CertOptions::default());
            // Either the swap hit a varying cell (dataflow rejects) or
            // every cell was lane-constant (plan unchanged, certifies).
            if !rep.dataflow_certified {
                prop_assert_eq!(rep.findings[0].pass, CertPass::Dataflow);
                prop_assert!(rep.findings[0].detail.contains("lane shuffle is wrong"));
            }
        }
    }
}

#[test]
fn finding_display_is_localized() {
    let f = sequential_dft(8, 4);
    let mut plan = Plan::from_formula(&f, 1, 1).unwrap();
    if let Step::Seq(p) = &mut plan.steps[0] {
        p.stages.clear();
    }
    let rep = certify_plan(&plan, &CertOptions::default());
    // Either pass may fire depending on what clearing produced; the
    // finding must name its pass and carry a human-readable detail.
    if !rep.is_certified() {
        let s = rep.findings[0].to_string();
        assert!(s.contains("pass"), "display names the pass: {s}");
    }
}
