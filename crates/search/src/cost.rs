//! Cost models for the search engine (the paper's evaluation level:
//! "the actual runtime is measured", plus cheaper surrogates).

use spiral_codegen::lower::has_kernel;
use spiral_codegen::plan::{Plan, PlanShape};
use spiral_codegen::{Codelet, Executor, SpiralError};
use spiral_rewrite::RuleTree;
use spiral_sim::{simulate_plan, MachineSpec};
use spiral_smp::panic_payload;
use spiral_spl::cplx::Cplx;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How candidate implementations are costed.
pub enum CostModel {
    /// Structural estimate from a [`PlanShape`] (a rule tree's:
    /// [`tree_shape`]); runs nothing. The tuner ranks by it, then
    /// verifies and certifies candidates in rank order until one passes.
    Analytic,
    /// Cycle estimate from the machine simulator (deterministic).
    Sim {
        /// The machine model to simulate on.
        machine: MachineSpec,
        /// Measure a warmed-up run (true) or a cold one.
        warm: bool,
    },
    /// Wall-clock measurement on this host (minimum of `reps` runs).
    Host {
        /// Repetitions; the minimum time is kept.
        reps: usize,
        /// Runs each measurement: 1-thread plans on the caller, and
        /// plans of its own thread count on its pool.
        executor: Executor,
    },
}

impl CostModel {
    /// Cost of executing `plan` once (lower is better; units depend on
    /// the model — they are only compared within one model). A
    /// candidate whose measurement panics, trips the executor watchdog,
    /// or yields a non-finite time/result returns `Err` instead of
    /// poisoning the search with a bogus number.
    pub fn try_cost(&self, plan: &Plan) -> Result<f64, SpiralError> {
        let c = match self {
            CostModel::Analytic => analytic_cost(&plan.shape()),
            CostModel::Sim { machine, warm } => catch_unwind(AssertUnwindSafe(|| {
                simulate_plan(plan, machine, *warm).cycles
            }))
            .map_err(|p| SpiralError::WorkerPanic {
                thread: 0,
                payload: panic_payload(p),
            })?,
            CostModel::Host { reps, executor } => try_host_time(plan, *reps, executor)?,
        };
        if !c.is_finite() {
            return Err(SpiralError::Search(format!(
                "cost model produced a non-finite value for a {}-point plan",
                plan.n
            )));
        }
        Ok(c)
    }

    /// Cost a sequential rule tree. The analytic model reads the tree's
    /// [`tree_shape`] and builds nothing; the measured models compile
    /// the expansion and run it.
    pub fn cost_tree(&self, tree: &RuleTree, mu: usize) -> Option<f64> {
        match self {
            CostModel::Analytic => tree_shape(tree).map(|s| analytic_cost(&s)),
            _ => self
                .try_cost(&Plan::from_formula(&tree.expand().normalized(), 1, mu).ok()?)
                .ok(),
        }
    }
}

/// Cost of one pool dispatch and drain (the caller wakes the workers
/// and waits for them), charged once per call of a `p`-thread plan:
/// the perfbench probe `smp.pool.dispatch_us`. Units: see
/// [`analytic_cost`].
pub const SYNC_PER_CALL: f64 = 1000.0;

/// Cost of one barrier round, charged per step of a `p`-thread plan:
/// the probe `smp.barrier.round_us.spin`.
pub const SYNC_PER_STEP: f64 = 250.0;

/// Cost per element per step of a `p`-thread plan for reading data
/// another core wrote in the step before (whole cache lines move
/// between the cores' caches). Fitted at `p = 2`.
pub const SHARED_PER_ELEMENT: f64 = 3.8;

/// Flops plus weighted memory operations; a barrier penalty discourages
/// pass-heavy plans. Flops inside vector-marked stages are credited with
/// ν-lane throughput (one vector op retires ν scalar lanes), so the
/// search sees the vec(ν) dimension even under the structural model.
///
/// A plan on `p > 1` threads is charged its work divided by `p`, plus
/// its synchronization: [`SYNC_PER_CALL`] once, and per step
/// [`SYNC_PER_STEP`] and [`SHARED_PER_ELEMENT`] per element. The same
/// number then ranks one thread against `p`. One unit is about one
/// scalar flop of the sequential plans, 0.4–0.75 ns on the 2-vCPU host
/// the three constants were fitted on (EXPERIMENTS.md, HOST-XOVER); no
/// timing runs during construction.
pub fn analytic_cost(shape: &PlanShape) -> f64 {
    // Each step reads and writes the whole vector once, then syncs.
    let steps = shape.steps as f64;
    let mem_ops = steps * 2.0 * shape.n as f64;
    let nu = shape.vec_width.max(1) as f64;
    let flops = shape.flops as f64 - shape.vec_flops as f64 * (1.0 - 1.0 / nu);
    if shape.threads <= 1 {
        return flops + 1.5 * mem_ops + 200.0 * steps;
    }
    let per_step = SYNC_PER_STEP + SHARED_PER_ELEMENT * shape.n as f64;
    (flops + 1.5 * mem_ops) / shape.threads as f64 + per_step * steps + SYNC_PER_CALL
}

/// The [`PlanShape`] of the tree's lowered expansion, without lowering:
/// one scalar step; leaf flops are its codelet's, `Ct(A, B)` (n = m·k)
/// has `k·F(A) + m·F(B) + 6n` (twiddles). `None` for a leaf outside the
/// kernel set ([`has_kernel`]).
pub fn tree_shape(tree: &RuleTree) -> Option<PlanShape> {
    fn flops(t: &RuleTree) -> Option<u64> {
        match t {
            RuleTree::Leaf(n) if has_kernel(*n) => Some(Codelet::for_size(*n).flops()),
            RuleTree::Leaf(_) => None,
            RuleTree::Ct(a, b) => {
                let (m, k) = (a.size() as u64, b.size() as u64);
                Some(k * flops(a)? + m * flops(b)? + 6 * m * k)
            }
        }
    }
    Some(PlanShape::sequential(tree.size(), flops(tree)?))
}

fn try_host_time(plan: &Plan, reps: usize, executor: &Executor) -> Result<f64, SpiralError> {
    let x: Vec<Cplx> = (0..plan.n)
        .map(|k| Cplx::new(k as f64, -(k as f64)))
        .collect();
    let mut out = vec![Cplx::ZERO; plan.n];
    // The executor isolates panics, bounds barrier waits and scans the
    // output, so a candidate that panics, times out, or corrupts its
    // output fails the warm-up run, before any timing is recorded.
    let mut run = || executor.try_run(plan, &[&x], &mut [&mut out], &());
    run()?;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        run()?;
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_rewrite::sequential_dft;

    #[test]
    fn analytic_cost_orders_obvious_cases() {
        // A radix-2 depth-first tree has more passes than a balanced
        // large-codelet tree; the analytic model must notice the
        // difference in barriers/memory passes.
        let shallow = Plan::from_formula(&sequential_dft(64, 8), 1, 4).unwrap();
        let deep = Plan::from_formula(&sequential_dft(64, 2), 1, 4).unwrap();
        let cm = CostModel::Analytic;
        assert!(cm.try_cost(&shallow).unwrap() < cm.try_cost(&deep).unwrap());
    }

    #[test]
    fn sim_cost_is_deterministic() {
        let plan = Plan::from_formula(&sequential_dft(128, 8), 1, 4).unwrap();
        let cm = CostModel::Sim {
            machine: spiral_sim::core_duo(),
            warm: true,
        };
        let a = cm.try_cost(&plan).unwrap();
        let b = cm.try_cost(&plan).unwrap();
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn host_cost_runs() {
        let plan = Plan::from_formula(&sequential_dft(64, 8), 1, 4).unwrap();
        let cm = CostModel::Host {
            reps: 2,
            executor: Executor::new(1),
        };
        let c = cm.try_cost(&plan).unwrap();
        assert!(c > 0.0 && c.is_finite());
    }

    #[test]
    fn cost_tree_compiles_and_costs() {
        let cm = CostModel::Analytic;
        let t = RuleTree::balanced(64, 8);
        assert!(cm.cost_tree(&t, 4).unwrap() > 0.0);
    }
}
