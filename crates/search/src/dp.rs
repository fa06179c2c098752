//! Dynamic-programming search over rule trees (the default search
//! strategy in Spiral's search/learning block, paper §2.3).
//!
//! DP assumes the best implementation of a sub-transform is independent
//! of its context: `best(n) = argmin over n = m·k of Ct(best(m),
//! best(k))`, plus the codelet-leaf option for small `n`. The analytic
//! model costs each candidate from its structure alone; the measured
//! models compile and run each ([`CostModel::cost_tree`]).

use crate::cost::CostModel;
use spiral_rewrite::RuleTree;
use spiral_spl::num::splittings;
use std::collections::HashMap;

/// DP search result for one size.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The winning recursion strategy.
    pub tree: RuleTree,
    /// Its cost under the search's model.
    pub cost: f64,
    /// Number of candidates the cost model saw.
    pub evaluated: usize,
}

/// Run DP over all divisors of `n`. Panics unless every prime factor of
/// `n` has a kernel (`spiral_codegen::lower::factors_have_kernels`): a
/// larger prime is a leaf no cost model can cost.
pub fn dp_search(n: usize, max_leaf: usize, mu: usize, model: &CostModel) -> SearchResult {
    let mut memo: HashMap<usize, (RuleTree, f64)> = HashMap::new();
    let mut evaluated = 0usize;
    let (tree, cost) = best(n, max_leaf, mu, model, &mut memo, &mut evaluated);
    SearchResult {
        tree,
        cost,
        evaluated,
    }
}

fn best(
    n: usize,
    max_leaf: usize,
    mu: usize,
    model: &CostModel,
    memo: &mut HashMap<usize, (RuleTree, f64)>,
    evaluated: &mut usize,
) -> (RuleTree, f64) {
    if let Some(hit) = memo.get(&n) {
        return hit.clone();
    }
    let mut cands: Vec<RuleTree> = Vec::new();
    if n <= max_leaf {
        cands.push(RuleTree::Leaf(n));
    }
    for (m, k) in splittings(n) {
        let (mt, _) = best(m, max_leaf, mu, model, memo, evaluated);
        let (kt, _) = best(k, max_leaf, mu, model, memo, evaluated);
        cands.push(RuleTree::Ct(Box::new(mt), Box::new(kt)));
    }
    if cands.is_empty() {
        cands.push(RuleTree::Leaf(n)); // prime above max_leaf
    }
    let mut bt: Option<(RuleTree, f64)> = None;
    for t in cands {
        if let Some(c) = model.cost_tree(&t, mu) {
            *evaluated += 1;
            if bt.as_ref().is_none_or(|(_, bc)| c < *bc) {
                bt = Some((t, c));
            }
        }
    }
    let result = bt.expect("no costable candidate: a prime factor has no kernel");
    memo.insert(n, result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_finds_a_valid_tree() {
        let r = dp_search(64, 8, 4, &CostModel::Analytic);
        assert_eq!(r.tree.size(), 64);
        assert!(r.cost > 0.0);
        assert!(r.evaluated > 5);
    }

    #[test]
    fn dp_beats_or_matches_naive_radix2() {
        let model = CostModel::Analytic;
        let r = dp_search(256, 8, 4, &model);
        let radix2 = RuleTree::right_radix(256, 2);
        let base = model.cost_tree(&radix2, 4).unwrap();
        assert!(r.cost <= base, "DP {} vs radix-2 {}", r.cost, base);
    }

    #[test]
    fn dp_result_is_numerically_correct() {
        use spiral_spl::cplx::assert_slices_close;
        let r = dp_search(48, 8, 4, &CostModel::Analytic);
        let f = r.tree.expand().normalized();
        let x: Vec<spiral_spl::Cplx> = (0..48)
            .map(|k| spiral_spl::Cplx::new(k as f64, 1.0))
            .collect();
        assert_slices_close(&f.eval(&x), &spiral_spl::builder::dft(48).eval(&x), 1e-7);
    }

    #[test]
    fn dp_with_simulator_cost() {
        let model = CostModel::Sim {
            machine: spiral_sim::core_duo(),
            warm: true,
        };
        let r = dp_search(64, 8, 4, &model);
        assert_eq!(r.tree.size(), 64);
    }

    /// Every leaf the DP picks has a compiled kernel, at every size up
    /// to 2^12 whose prime factors have kernels.
    #[test]
    fn every_dp_leaf_has_a_kernel() {
        use spiral_codegen::lower::{factors_have_kernels, has_kernel, MAX_LEAF};
        fn kernel_leaves(t: &RuleTree) -> bool {
            match t {
                RuleTree::Leaf(n) => has_kernel(*n),
                RuleTree::Ct(a, b) => kernel_leaves(a) && kernel_leaves(b),
            }
        }
        for n in (2..=1 << 12).filter(|&n| factors_have_kernels(n)) {
            let t = dp_search(n, MAX_LEAF, 4, &CostModel::Analytic).tree;
            assert!(kernel_leaves(&t), "DFT_{n}: {t}");
        }
    }

    #[test]
    fn prime_sizes_fall_back_to_leaf() {
        let r = dp_search(13, 8, 1, &CostModel::Analytic);
        assert_eq!(r.tree, RuleTree::Leaf(13));
    }
}
