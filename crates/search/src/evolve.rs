//! Evolutionary search over rule trees (the paper cites stochastic
//! search for algorithm optimization, ref. \[24\]).
//!
//! Individuals are rule trees; mutation re-splits a random subtree,
//! crossover swaps equal-size subtrees between parents; tournament
//! selection with elitism.

use crate::cost::CostModel;
use crate::dp::SearchResult;
use crate::random::random_tree;
use rand::seq::SliceRandom;
use rand::Rng;
use spiral_rewrite::RuleTree;

/// GA parameters.
#[derive(Clone, Copy, Debug)]
pub struct EvolveOpts {
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Probability a child is mutated.
    pub mutation_rate: f64,
    /// Probability a child comes from crossover.
    pub crossover_rate: f64,
    /// Top individuals copied unchanged.
    pub elitism: usize,
}

impl Default for EvolveOpts {
    fn default() -> Self {
        EvolveOpts {
            population: 24,
            generations: 12,
            tournament: 3,
            mutation_rate: 0.4,
            crossover_rate: 0.5,
            elitism: 2,
        }
    }
}

/// Run the GA.
pub fn evolve_search<R: Rng>(
    n: usize,
    max_leaf: usize,
    mu: usize,
    opts: EvolveOpts,
    model: &CostModel,
    rng: &mut R,
) -> SearchResult {
    let mut evaluated = 0usize;
    let score = |t: &RuleTree, evaluated: &mut usize| -> f64 {
        *evaluated += 1;
        model.cost_tree(t, mu).unwrap_or(f64::INFINITY)
    };
    let mut pop: Vec<(RuleTree, f64)> = (0..opts.population.max(2))
        .map(|_| {
            let t = random_tree(n, max_leaf, rng);
            let c = score(&t, &mut evaluated);
            (t, c)
        })
        .collect();
    pop.sort_by(|a, b| a.1.total_cmp(&b.1));

    for _gen in 0..opts.generations {
        let mut next: Vec<(RuleTree, f64)> = pop.iter().take(opts.elitism).cloned().collect();
        while next.len() < pop.len() {
            let p1 = tournament(&pop, opts.tournament, rng).clone();
            let mut child = if rng.gen_bool(opts.crossover_rate) {
                let p2 = tournament(&pop, opts.tournament, rng);
                crossover(&p1.0, &p2.0, rng)
            } else {
                p1.0.clone()
            };
            if rng.gen_bool(opts.mutation_rate) {
                child = mutate(&child, max_leaf, rng);
            }
            let c = score(&child, &mut evaluated);
            next.push((child, c));
        }
        next.sort_by(|a, b| a.1.total_cmp(&b.1));
        pop = next;
    }
    let (tree, cost) = pop.into_iter().next().unwrap();
    SearchResult {
        tree,
        cost,
        evaluated,
    }
}

fn tournament<'a, R: Rng>(
    pop: &'a [(RuleTree, f64)],
    k: usize,
    rng: &mut R,
) -> &'a (RuleTree, f64) {
    (0..k.max(1))
        .map(|_| pop.choose(rng).unwrap())
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap()
}

/// Replace a uniformly chosen subtree with a fresh random tree of the
/// same size.
pub fn mutate<R: Rng>(t: &RuleTree, max_leaf: usize, rng: &mut R) -> RuleTree {
    let target = rng.gen_range(0..subtrees(t).len());
    replace_nth(t, target, &mut |size| random_tree(size, max_leaf, rng)).0
}

/// Swap a random subtree of `a` with a same-size subtree of `b` (falls
/// back to `a` clone if no size matches).
pub fn crossover<R: Rng>(a: &RuleTree, b: &RuleTree, rng: &mut R) -> RuleTree {
    let (subs_a, subs_b) = (subtrees(a), subtrees(b));
    // Try a few times to find a donor of matching size.
    for _ in 0..8 {
        let target = rng.gen_range(0..subs_a.len());
        let size = subs_a[target].size();
        let donors: Vec<&RuleTree> = subs_b
            .iter()
            .filter(|s| s.size() == size)
            .copied()
            .collect();
        if let Some(d) = donors.choose(rng) {
            let donor = (*d).clone();
            return replace_nth(a, target, &mut |_| donor.clone()).0;
        }
    }
    a.clone()
}

fn replace_nth(
    t: &RuleTree,
    n: usize,
    make: &mut dyn FnMut(usize) -> RuleTree,
) -> (RuleTree, usize) {
    if n == 0 {
        return (make(t.size()), usize::MAX);
    }
    match t {
        RuleTree::Leaf(s) => (RuleTree::Leaf(*s), n - 1),
        RuleTree::Ct(m, k) => {
            let (nm, rest) = replace_nth(m, n - 1, make);
            if rest == usize::MAX {
                return (RuleTree::Ct(Box::new(nm), k.clone()), usize::MAX);
            }
            let (nk, rest2) = replace_nth(k, rest, make);
            (RuleTree::Ct(Box::new(nm), Box::new(nk)), rest2)
        }
    }
}

/// Every subtree of `t`, in pre-order (the numbering of `replace_nth`).
fn subtrees(t: &RuleTree) -> Vec<&RuleTree> {
    fn go<'a>(t: &'a RuleTree, out: &mut Vec<&'a RuleTree>) {
        out.push(t);
        if let RuleTree::Ct(m, k) = t {
            go(m, out);
            go(k, out);
        }
    }
    let mut out = Vec::new();
    go(t, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mutation_preserves_size() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = RuleTree::balanced(128, 4);
        for _ in 0..30 {
            assert_eq!(mutate(&t, 8, &mut rng).size(), 128);
        }
    }

    #[test]
    fn crossover_preserves_size() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = RuleTree::balanced(64, 2);
        let b = RuleTree::right_radix(64, 2);
        for _ in 0..30 {
            assert_eq!(crossover(&a, &b, &mut rng).size(), 64);
        }
    }

    #[test]
    fn evolution_finds_valid_tree_and_improves_over_first_random() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = CostModel::Analytic;
        let first = random_tree(128, 8, &mut rng);
        let first_cost = model.cost_tree(&first, 4).unwrap();
        let r = evolve_search(128, 8, 4, EvolveOpts::default(), &model, &mut rng);
        assert_eq!(r.tree.size(), 128);
        assert!(
            r.cost <= first_cost,
            "GA {} vs random {}",
            r.cost,
            first_cost
        );
        assert!(r.evaluated >= 24);
    }

    #[test]
    fn evolved_tree_is_numerically_correct() {
        use spiral_spl::cplx::assert_slices_close;
        let mut rng = StdRng::seed_from_u64(8);
        let r = evolve_search(
            64,
            8,
            4,
            EvolveOpts {
                population: 8,
                generations: 4,
                ..Default::default()
            },
            &CostModel::Analytic,
            &mut rng,
        );
        let f = r.tree.expand().normalized();
        let x: Vec<spiral_spl::Cplx> = (0..64)
            .map(|k| spiral_spl::Cplx::new(1.0, k as f64))
            .collect();
        assert_slices_close(&f.eval(&x), &spiral_spl::builder::dft(64).eval(&x), 1e-7);
    }
}
