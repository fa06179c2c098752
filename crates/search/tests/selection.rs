//! The analytic tuner costs rule trees from their structure alone and
//! gates its candidates in rank order, stopping at the first that
//! passes. These tests hold it to what it replaces:
//!
//! * the structural `PlanShape` of every DP candidate equals the shape
//!   of the lowered plan, so the costs are bit-identical;
//! * the analytic cost read from a lowered parallel plan's shape equals
//!   the flops/vec-flops/barrier formula read off the plan itself, plus
//!   the `p`-thread synchronization terms;
//! * the shape of each vec(ν) variant, read off the lowered untagged
//!   plan, equals the shape of the lowered tagged formula;
//! * the exhaustive selection — lower, gate and cost every candidate,
//!   DP included, then take the first minimum — picks the same formula
//!   as the tuner.

use proptest::prelude::*;
use proptest::sample::select;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spiral_codegen::lower::MAX_LEAF;
use spiral_codegen::plan::Plan;
use spiral_codegen::{vectorize_plan, vectorized_shape};
use spiral_rewrite::{expand_dfts, multicore_dft, RuleTree};
use spiral_search::cost::{
    analytic_cost, tree_shape, SHARED_PER_ELEMENT, SYNC_PER_CALL, SYNC_PER_STEP,
};
use spiral_search::random::random_tree;
use spiral_search::{candidate_vec_widths, CostModel, Tuner};
use spiral_spl::builder::vec_tag;
use spiral_spl::num::{divisors, splittings};
use spiral_spl::Spl;
use std::collections::HashMap;

fn lowered(tree: &RuleTree, mu: usize) -> Plan {
    Plan::from_formula(&tree.expand().normalized(), 1, mu).unwrap()
}

/// Dynamic programming over rule trees, written out with `cost` as the
/// candidate cost (first minimum wins, as in `dp_search`). `visit` sees
/// every candidate of every size the recursion reaches.
fn dp(
    n: usize,
    cost: &dyn Fn(&RuleTree) -> Option<f64>,
    visit: &mut dyn FnMut(&RuleTree),
    memo: &mut HashMap<usize, RuleTree>,
) -> RuleTree {
    if let Some(t) = memo.get(&n) {
        return t.clone();
    }
    let mut cands = Vec::new();
    if n <= MAX_LEAF {
        cands.push(RuleTree::Leaf(n));
    }
    for (m, k) in splittings(n) {
        let mt = dp(m, cost, visit, memo);
        let kt = dp(k, cost, visit, memo);
        cands.push(RuleTree::Ct(Box::new(mt), Box::new(kt)));
    }
    if cands.is_empty() {
        cands.push(RuleTree::Leaf(n));
    }
    let mut best: Option<(RuleTree, f64)> = None;
    for t in cands {
        visit(&t);
        if let Some(c) = cost(&t) {
            if best.as_ref().is_none_or(|b| c < b.1) {
                best = Some((t, c));
            }
        }
    }
    let tree = best.expect("a costable candidate").0;
    memo.insert(n, tree.clone());
    tree
}

/// The pre-structural DP: every candidate compiled and its plan costed.
fn lowering_dp(n: usize, mu: usize, memo: &mut HashMap<usize, RuleTree>) -> RuleTree {
    let cost = |t: &RuleTree| CostModel::Analytic.try_cost(&lowered(t, mu)).ok();
    dp(n, &cost, &mut |_| {}, memo)
}

/// The plan gate every returned plan must pass.
fn gate(plan: &Plan) -> bool {
    !spiral_verify::verify_plan(plan, &spiral_verify::VerifyOptions::default()).has_errors()
        && spiral_verify::certify::dataflow::certify_dataflow(plan).is_empty()
}

/// `formula` scalar, then with every offered vec(ν) tag.
fn variants(formula: &Spl) -> Vec<Spl> {
    candidate_vec_widths()
        .into_iter()
        .map(|nu| match nu {
            1 => formula.clone(),
            _ => vec_tag(nu, formula.clone()),
        })
        .collect()
}

/// Every split candidate formula of the multicore Cooley–Tukey at
/// `(n, p, µ)`, untagged, sub-DFTs expanded with `tree`.
fn parallel_bases(n: usize, p: usize, mu: usize, tree: &dyn Fn(usize) -> RuleTree) -> Vec<Spl> {
    let pmu = p * mu;
    divisors(n)
        .into_iter()
        .filter(|&m| m > 1 && m < n && m % pmu == 0 && (n / m).is_multiple_of(pmu))
        .filter_map(|m| multicore_dft(n, p, mu, Some(m)).ok())
        .map(|d| expand_dfts(&d.formula, tree).normalized())
        .collect()
}

/// Every split × vec(ν) candidate formula of the multicore Cooley–Tukey
/// at `(n, p, µ)`, sub-DFTs expanded with `tree`.
fn parallel_formulas(n: usize, p: usize, mu: usize, tree: &dyn Fn(usize) -> RuleTree) -> Vec<Spl> {
    parallel_bases(n, p, mu, tree)
        .iter()
        .flat_map(variants)
        .collect()
}

/// Lower for `threads` threads as the tuner does; `None` for a failed
/// lowering or a vec(ν) variant identical to its scalar plan.
fn lower(f: &Spl, threads: usize, mu: usize) -> Option<Plan> {
    let plan = Plan::from_formula(f, threads, mu).ok()?.fuse_exchanges();
    (f.vec_width() == 1 || plan.vec_width > 1).then_some(plan)
}

/// The exhaustive selection: lower, gate and cost every candidate, then
/// take the first minimum.
fn exhaustive(cands: &[Spl], threads: usize, mu: usize) -> Option<Spl> {
    let mut best: Option<(&Spl, f64)> = None;
    for f in cands {
        let Some(plan) = lower(f, threads, mu).filter(gate) else {
            continue;
        };
        let c = CostModel::Analytic.try_cost(&plan).unwrap();
        if best.is_none_or(|b| c < b.1) {
            best = Some((f, c));
        }
    }
    best.map(|b| b.0.clone())
}

#[test]
fn structural_shape_matches_the_lowered_plan_for_every_dp_candidate() {
    let mu = 4;
    // Every divisor of 2^14 is reached by the recursion from 2^14, so
    // this covers every DP candidate at n = 2^2..2^14; the mixed radices
    // add radix-3, -5 and -7 leaves and a prime leaf above the DP's
    // leaf bound (13); n = 1 is the one-point codelet.
    let mut memo = HashMap::new();
    let mut seen = 0usize;
    for n in [1usize << 14, 48, 360, 105, 208, 1000, 1] {
        let mut visit = |t: &RuleTree| {
            let shape = tree_shape(t).expect("every DP leaf is a codelet");
            assert_eq!(shape, lowered(t, mu).shape(), "tree {t}");
            let cost = CostModel::Analytic.cost_tree(t, mu).unwrap();
            assert_eq!(cost.to_bits(), analytic_cost(&shape).to_bits(), "tree {t}");
            seen += 1;
        };
        let cost = |t: &RuleTree| CostModel::Analytic.cost_tree(t, mu);
        dp(n, &cost, &mut visit, &mut memo);
    }
    assert!(seen > 100, "{seen} candidates");
}

#[test]
fn trees_past_the_largest_codelet_have_no_shape() {
    let tree = RuleTree::Ct(Box::new(RuleTree::Leaf(67)), Box::new(RuleTree::Leaf(2)));
    assert_eq!(tree_shape(&tree), None);
    assert!(Plan::from_formula(&tree.expand().normalized(), 1, 1).is_err());
    assert_eq!(CostModel::Analytic.cost_tree(&tree, 1), None);
}

#[test]
fn analytic_cost_reads_the_same_integers_off_every_parallel_candidate() {
    for (p, ks) in [(2usize, 6u32..=12), (4, 8..=12)] {
        for k in ks {
            let (n, mu) = (1usize << k, 4usize);
            let tree =
                |s: usize| spiral_search::dp_search(s, MAX_LEAF, mu, &CostModel::Analytic).tree;
            for f in parallel_formulas(n, p, mu, &tree) {
                let Some(plan) = lower(&f, p, mu) else {
                    continue;
                };
                // The cost formula on the plan's own accessors: the work
                // split p ways, plus per-step and per-call synchronization.
                let nu = plan.vec_width.max(1) as f64;
                let steps = plan.steps.len() as f64;
                let work = plan.flops() as f64 - plan.vec_flops() as f64 * (1.0 - 1.0 / nu)
                    + 1.5 * (steps * 2.0 * plan.n as f64);
                let per_step = SYNC_PER_STEP + SHARED_PER_ELEMENT * plan.n as f64;
                let expected =
                    work / plan.threads as f64 + per_step * plan.barriers() as f64 + SYNC_PER_CALL;
                let shape = plan.shape();
                assert_eq!(shape.steps, plan.barriers());
                assert_eq!(analytic_cost(&shape).to_bits(), expected.to_bits(), "{f}");
                let got = CostModel::Analytic.try_cost(&plan).unwrap();
                assert_eq!(got.to_bits(), expected.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random rule trees — what `random_search` and `evolve_search`
    /// cost — have the structural shape of their lowered plan.
    fn random_trees_have_their_lowered_shape(
        k in 1u32..=10,
        leaf in select(vec![2usize, 4, 8, 16, 32]),
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(1usize << k, leaf, &mut rng);
        prop_assert_eq!(tree_shape(&tree), Some(lowered(&tree, 1).shape()));
    }
}

/// Sequential: the exhaustive selection over the lowering DP's winner
/// and its vec(ν) variants.
fn check_sequential(ks: std::ops::RangeInclusive<u32>) {
    let mu = spiral_smp::topology::mu();
    let tuner = Tuner::new(1, mu, CostModel::Analytic);
    let mut memo = HashMap::new();
    for k in ks {
        let n = 1usize << k;
        let tree = lowering_dp(n, mu, &mut memo);
        let expected = exhaustive(&variants(&tree.expand().normalized()), 1, mu);
        let tuned = tuner.tune_sequential(n).unwrap();
        assert_eq!(Some(tuned.formula), expected, "n=2^{k}");
    }
}

/// Two threads: the exhaustive selection over every split × vec(ν)
/// candidate, sub-DFTs expanded by the lowering DP.
fn check_parallel(ks: std::ops::RangeInclusive<u32>) {
    let mu = spiral_smp::topology::mu();
    let tuner = Tuner::new(2, mu, CostModel::Analytic);
    let memo = std::cell::RefCell::new(HashMap::new());
    for k in ks {
        let n = 1usize << k;
        let tree = |s: usize| lowering_dp(s, mu, &mut memo.borrow_mut());
        let expected = exhaustive(&parallel_formulas(n, 2, mu, &tree), 2, mu);
        let tuned = tuner.tune_parallel(n).unwrap().map(|t| t.formula);
        assert_eq!(tuned, expected, "n=2^{k}");
    }
}

#[test]
fn tuner_picks_what_exhaustive_selection_picks() {
    check_sequential(1..=12);
    check_parallel(6..=12);
}

/// The full benchmark range; slow in a debug build, so run it with
/// `cargo test --release -p spiral-search --test selection -- --ignored`.
#[test]
#[ignore]
fn tuner_picks_what_exhaustive_selection_picks_up_to_benchmark_sizes() {
    check_sequential(1..=18);
    check_parallel(6..=16);
}

/// The tuner lowers each candidate formula once, untagged, and reads
/// each vec(ν) variant's shape off that plan (`vectorized_shape`); the
/// variant it returns is that plan marked by `vectorize_plan`. Both must
/// equal what lowering the tagged formula gives: the same shape, and for
/// plans up to `debug_upto` points the same plan.
fn check_derived_variants(f: &Spl, threads: usize, mu: usize, debug_upto: usize) -> usize {
    let base = Plan::from_formula(f, threads, mu).unwrap().fuse_exchanges();
    let mut checked = 0;
    for nu in candidate_vec_widths().into_iter().filter(|&nu| nu > 1) {
        let tagged = Plan::from_formula(&vec_tag(nu, f.clone()), threads, mu)
            .unwrap()
            .fuse_exchanges();
        let derived = vectorized_shape(&base, nu);
        if tagged.vec_width == 1 {
            assert_eq!(derived, None, "ν={nu} vectorized nothing: {f}");
            continue;
        }
        assert_eq!(derived, Some(tagged.shape()), "ν={nu}: {f}");
        if f.dim() <= debug_upto {
            let mut marked = base.clone();
            vectorize_plan(&mut marked, nu);
            assert_eq!(format!("{marked:?}"), format!("{tagged:?}"), "ν={nu}: {f}");
        }
        checked += 1;
    }
    checked
}

/// Sequential DP winners of every size `selection` tunes, plus the mixed
/// radices of the structural test, and every 2-thread split (µ = 4) for
/// n = 2^6..2^`max_k`.
fn check_all_derived_variants(max_k: u32) {
    let mu = 4;
    let tree = |s: usize| spiral_search::dp_search(s, MAX_LEAF, mu, &CostModel::Analytic).tree;
    let mut checked = 0;
    let sizes = (1..=14)
        .map(|k| 1usize << k)
        .chain([48, 360, 105, 208, 1000]);
    for n in sizes {
        checked += check_derived_variants(&tree(n).expand().normalized(), 1, mu, 1 << 12);
    }
    for k in 6..=max_k {
        for f in parallel_bases(1 << k, 2, mu, &tree) {
            checked += check_derived_variants(&f, 2, mu, 1 << 12);
        }
    }
    if spiral_codegen::detected_simd_width() > 1 {
        assert!(checked > 20, "only {checked} vectorized variants");
    }
}

#[test]
fn variant_shapes_read_off_the_untagged_plan_match_tagged_lowering() {
    check_all_derived_variants(12);
}

/// The full benchmark range; slow in a debug build, so run it with
/// `cargo test --release -p spiral-search --test selection -- --ignored`.
#[test]
#[ignore]
fn variant_shapes_match_tagged_lowering_up_to_benchmark_sizes() {
    check_all_derived_variants(16);
}
