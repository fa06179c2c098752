//! Property tests for static certification: whatever rule tree the
//! search draws and whatever the tuner selects, the lowered plan is
//! *provably* `DFT_n` (exact symbolic pass) with sound dataflow — and
//! deliberately corrupted IR is always rejected by the matching pass.

use proptest::prelude::*;
use proptest::sample::select;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spiral_codegen::plan::{Plan, Step};
use spiral_search::random::random_tree;
use spiral_search::{CostModel, Tuner};
use spiral_verify::certify::{certify_plan, CertOptions, CertPass};

fn assert_certified(plan: &Plan, what: &str) -> Result<(), String> {
    let rep = certify_plan(plan, &CertOptions::default());
    prop_assert!(
        rep.is_certified(),
        "{what} (n={}, p={}, µ={}) rejected: {}",
        plan.n,
        plan.threads,
        plan.mu,
        rep.findings[0]
    );
    prop_assert_eq!(rep.symbolic_certified, Some(true));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any random rule tree at n ∈ {2^2..2^6}, lowered sequentially,
    /// certifies: exact equality with DFT_n under both the interpreter
    /// and the cemit semantics, plus clean dataflow.
    fn random_rule_trees_certify(
        k in 2u32..=6,
        leaf in select(vec![2usize, 4, 8]),
        seed in 0u64..1_000,
    ) {
        let n = 1usize << k;
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(n, leaf, &mut rng);
        let f = tree.expand().normalized();
        let plan = Plan::from_formula(&f, 1, 1).unwrap();
        assert_certified(&plan, "random tree")?;
    }

    /// Tuner winners at n ∈ {2^4..2^6}, p ∈ {1, 2, 4} — including the
    /// fused-exchange post-pass the tuner applies — certify.
    fn tuner_winners_certify(
        k in 4u32..=6,
        p in select(vec![1usize, 2, 4]),
        mu in select(vec![1usize, 2]),
    ) {
        let n = 1usize << k;
        let tuner = Tuner::new(p, mu, CostModel::Analytic);
        let tuned = if p == 1 {
            Some(tuner.tune_sequential(n).unwrap())
        } else {
            tuner.tune_parallel(n).unwrap()
        };
        let Some(t) = tuned else { return Ok(()) }; // no legal split at this (n, p, µ)
        assert_certified(&t.plan, "tuner winner")?;
    }

    /// Each seeded corruption of a certified plan is caught by the
    /// matching pass: value corruptions (off-by-one twiddle) by the
    /// symbolic pass, structural corruptions (swapped stride, dropped
    /// stage) by at least one of the two.
    fn corrupted_ir_is_rejected(
        k in 3u32..=5,
        kind in 0usize..3,
        seed in 0u64..100,
    ) {
        let n = 1usize << k;
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(n, 4, &mut rng);
        let mut plan = Plan::from_formula(&tree.expand().normalized(), 1, 1).unwrap();
        let mut hit = false;
        for step in &mut plan.steps {
            let Step::Seq(p) = step else { continue };
            match kind {
                // Off-by-one twiddle: rotate one table entry.
                0 => {
                    for ks in &mut p.stages {
                        let spin = spiral_spl::cplx::Cplx::cis(-2.0 * std::f64::consts::PI / (n as f64));
                        let corrupt = |w: &std::sync::Arc<Vec<spiral_spl::cplx::Cplx>>| {
                            let mut w = w.as_ref().clone();
                            let i = w.len() - 1;
                            w[i] *= spin;
                            std::sync::Arc::new(w)
                        };
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
                }
                // Swapped loop strides.
                1 => {
                    'stages: for ks in &mut p.stages {
                        for d in &mut ks.loops {
                            if d.in_stride != d.out_stride {
                                std::mem::swap(&mut d.in_stride, &mut d.out_stride);
                                hit = true;
                                break 'stages;
                            }
                        }
                    }
                }
                // Dropped stage.
                _ => {
                    if p.stages.len() > 1 {
                        p.stages.pop();
                        hit = true;
                    }
                }
            }
            if hit {
                break;
            }
        }
        if !hit {
            return Ok(()); // this tree has nothing of the requested kind to corrupt
        }
        let rep = certify_plan(&plan, &CertOptions::default());
        prop_assert!(!rep.is_certified(), "corruption kind {kind} went undetected");
        if kind == 0 {
            // Value corruption is invisible to dataflow; the symbolic
            // pass must be the one that fires.
            prop_assert_eq!(rep.findings[0].pass, CertPass::Symbolic);
        }
    }
}
