//! Property tests for the machine simulator: cache model invariants,
//! coherence accounting sanity, and cost monotonicity.

use proptest::prelude::*;
use spiral_codegen::hook::{MemHook, Region};
use spiral_sim::cache::Cache;
use spiral_sim::{core_duo, paper_machines, SmpSim};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cache never reports a hit for a line it has not seen, and always
    /// hits on an immediate re-access.
    #[test]
    fn cache_hit_iff_resident(lines in prop::collection::vec(0u64..512, 1..200)) {
        let mut c = Cache::new(64, 4);
        let mut resident = std::collections::HashSet::new();
        for &l in &lines {
            let hit = c.access(l);
            if hit {
                prop_assert!(resident.contains(&l), "hit on never-seen line {l}");
            }
            // Track what *could* be resident (superset — evictions shrink it).
            resident.insert(l);
            // Immediate re-access always hits.
            prop_assert!(c.access(l));
        }
    }

    /// Cache occupancy never exceeds capacity.
    #[test]
    fn cache_capacity_respected(lines in prop::collection::vec(0u64..10_000, 1..400)) {
        let mut c = Cache::new(32, 2);
        for &l in &lines {
            c.access(l);
        }
        let resident = (0u64..10_000).filter(|&l| c.contains(l)).count();
        prop_assert!(resident <= c.capacity_lines());
    }

    /// Accesses by a single core never produce coherence traffic or false
    /// sharing, whatever the pattern.
    #[test]
    fn single_core_never_shares(
        idxs in prop::collection::vec(0usize..256, 1..300),
        writes in prop::collection::vec(any::<bool>(), 300),
    ) {
        let mut sim = SmpSim::new(core_duo(), 256);
        for (k, &i) in idxs.iter().enumerate() {
            if writes[k % writes.len()] {
                sim.write(0, Region::BufA, i);
            } else {
                sim.read(0, Region::BufA, i);
            }
        }
        prop_assert_eq!(sim.stats.coherence_transfers, 0);
        prop_assert_eq!(sim.stats.false_sharing, 0);
        prop_assert_eq!(sim.stats.invalidations, 0);
    }

    /// Disjoint line-aligned partitions across cores never produce
    /// coherence traffic (the Definition 1 situation).
    #[test]
    fn line_disjoint_partitions_are_silent(
        rounds in 1usize..6,
        machine_idx in 0usize..4,
    ) {
        let spec = paper_machines()[machine_idx].clone();
        let p = spec.p;
        let mu = spec.mu();
        let n = 64 * p * mu;
        let mut sim = SmpSim::new(spec, n);
        let chunk = n / p;
        for _ in 0..rounds {
            for tid in 0..p {
                for i in tid * chunk..(tid + 1) * chunk {
                    sim.read(tid, Region::BufA, i);
                    sim.write(tid, Region::BufB, i);
                }
            }
            sim.barrier();
            for tid in 0..p {
                for i in tid * chunk..(tid + 1) * chunk {
                    sim.read(tid, Region::BufB, i);
                    sim.write(tid, Region::BufA, i);
                }
            }
            sim.barrier();
        }
        prop_assert_eq!(sim.stats.false_sharing, 0, "{:?}", sim.stats);
    }

    /// Interleaved element ownership inside one line always shows false
    /// sharing on every machine model.
    #[test]
    fn interleaved_writes_always_false_share(machine_idx in 0usize..4, reps in 2usize..8) {
        let spec = paper_machines()[machine_idx].clone();
        if spec.p < 2 {
            return Ok(());
        }
        let mut sim = SmpSim::new(spec, 64);
        for r in 0..reps {
            // Two cores alternately write different elements of line 0.
            sim.write(r % 2, Region::BufA, r % 2);
        }
        prop_assert!(sim.stats.false_sharing > 0);
    }

    /// Cycle clocks are monotone: adding work never reduces cycles, and
    /// barrier aligns all cores to the max.
    #[test]
    fn clocks_monotone_and_barrier_aligns(
        ops in prop::collection::vec((0usize..2, 0usize..64, any::<bool>()), 1..100),
    ) {
        let mut sim = SmpSim::new(core_duo(), 64);
        let mut last = 0.0f64;
        for &(tid, idx, w) in &ops {
            if w {
                sim.write(tid, Region::BufA, idx);
            } else {
                sim.read(tid, Region::BufA, idx);
            }
            let now = sim.cycles();
            prop_assert!(now >= last);
            last = now;
        }
        sim.barrier();
        let clocks = sim.per_core_cycles();
        prop_assert!((clocks[0] - clocks[1]).abs() < 1e-9);
    }

    /// More threads on the same trace never increase per-access cost
    /// bookkeeping inconsistently: total reads+writes equals the events fed.
    #[test]
    fn event_accounting_exact(
        ops in prop::collection::vec((0usize..4, 0usize..128, any::<bool>()), 1..200),
    ) {
        let mut sim = SmpSim::new(spiral_sim::opteron(), 128);
        let mut reads = 0u64;
        let mut writes = 0u64;
        for &(tid, idx, w) in &ops {
            if w {
                sim.write(tid, Region::BufA, idx);
                writes += 1;
            } else {
                sim.read(tid, Region::BufA, idx);
                reads += 1;
            }
        }
        prop_assert_eq!(sim.stats.reads, reads);
        prop_assert_eq!(sim.stats.writes, writes);
    }
}

/// The stride loop order of `Plan::from_formula`, simulated: warm runs of
/// the tuned sequential plans on the Core Duo model, with every loop nest
/// in lowering order and in the order the plan was compiled with, each
/// run as compiled (later stages in place) and with every stage
/// ping-ponging ([`ping_pong`]). Misses never rise at either level. L2
/// misses fall at 2^16 and 2^18 with ping-pong, where the first stage's
/// digit-reversed read spills the L1 in lowering order, and at 2^17 and
/// 2^18 in place (at 2^16 the in-place plan has no L2 miss in either
/// order).
#[test]
fn stride_loop_order_never_adds_cache_misses() {
    use spiral_codegen::plan::Plan;
    use spiral_codegen::vectorize_plan;
    use spiral_search::{CostModel, Tuner};
    use spiral_sim::simulate_plan;

    let spec = core_duo();
    let tuner = Tuner::new(1, spec.mu(), CostModel::Analytic);
    for k in 10..=18 {
        let tuned = tuner.tune_sequential(1 << k).unwrap();
        let mut lowering = Plan::lowered(&tuned.formula, 1, spec.mu()).unwrap();
        if tuned.plan.vec_width > 1 {
            vectorize_plan(&mut lowering, tuned.plan.vec_width);
        }
        for (form, lowering, stride, falls) in [
            ("in place", lowering.clone(), tuned.plan.clone(), k >= 17),
            (
                "ping-pong",
                ping_pong(&lowering),
                ping_pong(&tuned.plan),
                k == 16 || k == 18,
            ),
        ] {
            let before = simulate_plan(&lowering, &spec, true).stats;
            let after = simulate_plan(&stride, &spec, true).stats;
            assert!(
                after.l1_misses <= before.l1_misses && after.l2_misses <= before.l2_misses,
                "2^{k} {form}: lowering order {before:?}, stride order {after:?}"
            );
            if falls {
                assert!(
                    after.l2_misses < before.l2_misses,
                    "2^{k} {form}: L2 misses {} in lowering order, {} in stride order",
                    before.l2_misses,
                    after.l2_misses
                );
            }
        }
    }
}

/// `plan` with every in-place kernel stage after the first given an
/// identity gather map: the same addresses, but no longer in place, so
/// its passes alternate between `Tmp` and `Dst`, as before in-place
/// stages.
fn ping_pong(plan: &spiral_codegen::plan::Plan) -> spiral_codegen::plan::Plan {
    use spiral_codegen::plan::Step;
    use spiral_codegen::stage::LocalStage;
    use std::sync::Arc;

    let mut twin = plan.clone();
    for step in &mut twin.steps {
        let Step::Seq(prog) = step else { continue };
        let identity: Arc<Vec<u32>> = Arc::new((0..u32::try_from(prog.dim).unwrap()).collect());
        for stage in prog.stages.iter_mut().skip(1) {
            if let LocalStage::Kernel(k) = stage {
                if k.in_place() {
                    k.in_map = Some(Arc::clone(&identity));
                }
            }
        }
    }
    twin
}

/// In-place stages, simulated: warm runs of the tuned sequential plans on
/// the Core Duo model, as compiled (every later stage in place on the
/// output) and with the ping-pong of every stage through the thread's
/// scratch ([`ping_pong`]). Misses never rise at either level, and L2
/// misses fall at 2^16 and 2^18, where the ping-pong's two buffers spill
/// the L2: at 2^16 from 47,114 to 0 (L1 296,448 → 116,224), at 2^18 from
/// 1,182,720 to 461,824 (L1 1,972,224 → 464,896).
#[test]
fn in_place_stages_never_add_cache_misses() {
    use spiral_codegen::plan::{Plan, Step};
    use spiral_search::{CostModel, Tuner};
    use spiral_sim::simulate_plan;

    let spec = core_duo();
    let tuner = Tuner::new(1, spec.mu(), CostModel::Analytic);
    for k in 10..=18 {
        let plan = tuner.tune_sequential(1 << k).unwrap().plan;
        let in_place = |p: &Plan| {
            p.steps
                .iter()
                .filter_map(|s| {
                    if let Step::Seq(prog) = s {
                        Some(prog)
                    } else {
                        None
                    }
                })
                .flat_map(|prog| prog.passes())
                .filter(|&(_, input, output)| input == output)
                .count()
        };
        let twin = ping_pong(&plan);
        assert!(in_place(&plan) > 0, "2^{k}: no stage runs in place");
        assert_eq!(in_place(&twin), 0, "2^{k}: the twin runs a stage in place");
        let before = simulate_plan(&twin, &spec, true).stats;
        let after = simulate_plan(&plan, &spec, true).stats;
        assert!(
            after.l1_misses <= before.l1_misses && after.l2_misses <= before.l2_misses,
            "2^{k}: ping-pong {before:?}, in place {after:?}"
        );
        if k == 16 || k == 18 {
            assert!(
                after.l2_misses < before.l2_misses,
                "2^{k}: L2 misses {} with ping-pong, {} in place",
                before.l2_misses,
                after.l2_misses
            );
        }
    }
}
