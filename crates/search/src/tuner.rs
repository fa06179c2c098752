//! The full autotuning loop (Figure 1's feedback cycle): generate
//! candidate formulas, compile, cost, pick the best. Every plan the
//! tuner returns has passed static verification and dataflow
//! certification.

use crate::cost::{analytic_cost, CostModel};
use crate::dp::dp_search;
use spiral_codegen::lower::MAX_LEAF;
use spiral_codegen::plan::Plan;
use spiral_codegen::{vectorize_plan, vectorized_shape, SpiralError};
use spiral_rewrite::{expand_dfts, multicore_dft, RuleTree};
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use spiral_spl::builder::vec_tag;
use spiral_spl::num::divisors;
use spiral_spl::Spl;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Lane widths the search proposes as the vec(ν) candidate dimension:
/// scalar (ν = 1) plus every supported width the host actually has.
/// Under the `force-scalar` feature of `spiral-codegen` the detected
/// width is 1, so this collapses to `[1]` and no vector candidate is
/// ever generated. The search offers every candidate formula once per
/// width, in this order.
pub fn candidate_vec_widths() -> Vec<usize> {
    let host = spiral_codegen::detected_simd_width();
    let mut widths = vec![1];
    widths.extend(
        spiral_codegen::simd::CANDIDATE_WIDTHS
            .iter()
            .copied()
            .filter(|&nu| nu <= host),
    );
    widths
}

/// A tuned implementation: the winning formula, its compiled plan, and
/// the cost under the tuner's model.
pub struct Tuned {
    /// The winning formula.
    pub formula: Spl,
    /// Its compiled plan.
    pub plan: Plan,
    /// Its cost under the tuner's model.
    pub cost: f64,
    /// Human-readable description of the choice (split, trees).
    pub choice: String,
}

/// A candidate the search excluded, and why.
#[derive(Debug)]
pub struct QuarantineEntry {
    /// The candidate's description (same format as [`Tuned::choice`]).
    pub choice: String,
    /// Why it was excluded (derivation/lowering failure, failed static
    /// verification or dataflow certification, or a measurement fault:
    /// panic, watchdog expiry, non-finite cost or output).
    pub reason: String,
}

/// What the search saw: how many candidates were costed and which were
/// quarantined.
#[derive(Debug, Default)]
pub struct TuneReport {
    /// Candidates that reached the cost model.
    pub evaluated: usize,
    /// Candidates excluded from the search, with reasons.
    pub quarantined: Vec<QuarantineEntry>,
}

/// Result of [`Tuner::tune_parallel_report`]: the winner (if any
/// candidate survived) plus the search report.
pub struct TuneOutcome {
    /// The best surviving candidate; `None` when `(pµ)² ∤ n` or every
    /// candidate was quarantined.
    pub best: Option<Tuned>,
    /// What the search evaluated and quarantined.
    pub report: TuneReport,
}

impl TuneReport {
    /// Record a quarantined candidate, with a `TunerReject` mark.
    fn quarantine<O: Observer>(&mut self, obs: &O, ci: usize, choice: String, reason: String) {
        self.quarantined.push(QuarantineEntry { choice, reason });
        if obs.active() {
            obs.mark(0, MarkKind::TunerReject, event_index(ci), Instant::now());
        }
    }
}

/// Candidate indices are u32 event stages; saturate past that.
fn event_index(ci: usize) -> u32 {
    u32::try_from(ci).unwrap_or(u32::MAX)
}

/// A candidate formula, offered scalar and at every vec(ν) width.
struct Candidate {
    /// Description of the scalar variant (see [`Tuned::choice`]).
    choice: String,
    /// Threads the formula is lowered for.
    threads: usize,
    /// The untagged formula (`Err`: why it could not be derived).
    formula: Result<Spl, String>,
}

/// The choice string of `choice`'s vec(ν) variant.
fn variant_choice(choice: &str, nu: usize) -> String {
    match nu {
        1 => choice.to_string(),
        _ => format!("{choice} + vec({nu})"),
    }
}

/// The vec(ν) variant of a lowered untagged plan: the marking pass the
/// tagged formula's lowering would run. `None` when no stage qualifies.
fn variant(mut plan: Plan, nu: usize) -> Option<Plan> {
    (nu == 1 || vectorize_plan(&mut plan, nu) > 0).then_some(plan)
}

/// The tuner's gate: the scheduling analyzer (races, false sharing,
/// bounds, tenure — Definition 1), then the independent dataflow
/// certifier (a plan failing it computes garbage however fast it runs).
fn verify_and_certify(plan: &Plan) -> Result<(), String> {
    if spiral_verify::verify_plan(plan, &spiral_verify::VerifyOptions::default()).has_errors() {
        return Err("failed static verification".to_string());
    }
    match spiral_verify::certify::dataflow::certify_dataflow(plan).first() {
        Some(f) => Err(format!("failed dataflow certification: {f}")),
        None => Ok(()),
    }
}

/// Autotuner for a fixed machine configuration.
pub struct Tuner {
    /// Worker/processor count for parallel code.
    pub p: usize,
    /// Cache-line length in complex elements.
    pub mu: usize,
    /// How candidates are costed.
    pub model: CostModel,
}

impl Tuner {
    /// Tuner for `p` processors and cache-line length `µ`.
    pub fn new(p: usize, mu: usize, model: CostModel) -> Tuner {
        // Every plan the tuner measures or returns may be run on the
        // executor; arm its debug-build static verification.
        spiral_verify::install_executor_guard();
        Tuner { p, mu, model }
    }

    /// Best sequential implementation of `DFT_n` (DP over rule trees,
    /// then the scalar-vs-vec(ν) backend dimension on the DP winner),
    /// selected and gated like the parallel candidates. `Err` when no
    /// variant survives, which indicates a broken toolchain rather than
    /// a bad candidate.
    pub fn tune_sequential(&self, n: usize) -> Result<Tuned, SpiralError> {
        let mut report = TuneReport::default();
        let cands = self.sequential_candidates(n);
        let best = self.select(&cands, &verify_and_certify, &mut report, &());
        best.ok_or_else(|| SpiralError::Search(format!("DFT_{n}: {:?}", report.quarantined)))
    }

    /// Best implementation of `DFT_n` on up to `p` threads: the `p`-thread
    /// split candidates of [`tune_parallel`](Self::tune_parallel) and the
    /// sequential DP winner of [`tune_sequential`](Self::tune_sequential),
    /// each at every vec(ν) width, ranked together by the cost model
    /// (which charges a `p`-thread plan its synchronization), so a small
    /// transform gets one thread where `p` do not pay. `Ok(None)` when
    /// `p > 1` and `(pµ)² ∤ n` (no `p`-thread split exists), or when every
    /// candidate was quarantined.
    pub fn tune(&self, n: usize) -> Result<Option<Tuned>, SpiralError> {
        let parallel = match self.p {
            1 => Vec::new(),
            _ => self.parallel_candidates(n),
        };
        if self.p > 1 && parallel.is_empty() {
            return Ok(None);
        }
        let mut cands = self.sequential_candidates(n);
        cands.extend(parallel);
        let mut report = TuneReport::default();
        Ok(self.select(&cands, &verify_and_certify, &mut report, &()))
    }

    /// The DP winner's expansion, for one thread.
    fn sequential_candidates(&self, n: usize) -> Vec<Candidate> {
        let tree = dp_search(n, MAX_LEAF, self.mu, &self.model).tree;
        vec![Candidate {
            choice: format!("sequential tree {tree}"),
            threads: 1,
            formula: Ok(tree.expand().normalized()),
        }]
    }

    /// Best parallel implementation: searches the top-level split `m` of
    /// the multicore Cooley–Tukey (14) and reuses DP-best sequential
    /// trees for the sub-DFTs. `Ok(None)` when `(pµ)² ∤ n` or every
    /// candidate was quarantined; see
    /// [`tune_parallel_report`](Self::tune_parallel_report) for the
    /// search report.
    pub fn tune_parallel(&self, n: usize) -> Result<Option<Tuned>, SpiralError> {
        Ok(self.tune_parallel_report(n)?.best)
    }

    /// Like [`tune_parallel`](Self::tune_parallel), but also reports
    /// what the search saw. A candidate that cannot be derived or
    /// lowered, fails verification or certification (the gate), or
    /// faults in measurement is *quarantined*: recorded with a reason
    /// and excluded, and the search goes on. Measured models gate every
    /// candidate; the analytic model gates in rank order until one
    /// passes, so only candidates ranked above the winner are gated.
    pub fn tune_parallel_report(&self, n: usize) -> Result<TuneOutcome, SpiralError> {
        self.tune_parallel_report_with(n, &())
    }

    /// [`tune_parallel_report`](Self::tune_parallel_report), recording
    /// the search itself to `obs`: one `TunerCandidate` span per
    /// candidate the cost model saw (lowering through costing, indexed
    /// in candidate order) and one `TunerReject` mark per quarantine,
    /// all attributed to tid 0, the coordinating thread. With `&()` no
    /// clock is read.
    pub fn tune_parallel_report_with<O: Observer>(
        &self,
        n: usize,
        obs: &O,
    ) -> Result<TuneOutcome, SpiralError> {
        let cands = match self.p {
            1 => self.sequential_candidates(n),
            _ => self.parallel_candidates(n),
        };
        let mut report = TuneReport::default();
        let best = self.select(&cands, &verify_and_certify, &mut report, obs);
        Ok(TuneOutcome { best, report })
    }

    /// Every split candidate of the multicore Cooley–Tukey (14), splits
    /// ascending.
    fn parallel_candidates(&self, n: usize) -> Vec<Candidate> {
        let pmu = self.p * self.mu;
        // DP-best sequential trees, shared across split candidates.
        let trees: RefCell<HashMap<usize, RuleTree>> = RefCell::new(HashMap::new());
        let splits = divisors(n)
            .into_iter()
            .filter(|&m| m > 1 && m < n && m % pmu == 0 && (n / m).is_multiple_of(pmu));
        let mut cands = Vec::new();
        for m in splits {
            let choice = format!("multicore split {m}x{}", n / m);
            match multicore_dft(n, self.p, self.mu, Some(m)) {
                Ok(derived) => {
                    let expanded = expand_dfts(&derived.formula, &|k| {
                        trees
                            .borrow_mut()
                            .entry(k)
                            .or_insert_with(|| dp_search(k, MAX_LEAF, self.mu, &self.model).tree)
                            .clone()
                    })
                    .normalized();
                    cands.push(Candidate {
                        choice,
                        threads: self.p,
                        formula: Ok(expanded),
                    });
                }
                Err(e) => cands.push(Candidate {
                    choice,
                    threads: self.p,
                    formula: Err(format!("derivation failed: {e:?}")),
                }),
            }
        }
        cands
    }

    /// Lower `f` for `threads` threads, exchanges folded into compute
    /// steps (§3.1).
    fn lower(&self, f: &Spl, threads: usize) -> Result<Plan, String> {
        Plan::from_formula(f, threads, self.mu)
            .map(Plan::fuse_exchanges)
            .map_err(|e| format!("failed to lower: {e}"))
    }

    /// Pick the cheapest variant that passes `gate` (whose `Err` is the
    /// quarantine reason). Each candidate formula is lowered once,
    /// untagged; its vec(ν) variants come from that plan by the marking
    /// pass, and a variant that vectorizes nothing is skipped. The
    /// analytic model reads each variant's shape without building it and
    /// runs nothing, so the gate runs afterwards in rank order until one
    /// passes; measured models build, gate and run every variant. Equal
    /// costs keep candidate order.
    fn select<O: Observer>(
        &self,
        cands: &[Candidate],
        gate: &dyn Fn(&Plan) -> Result<(), String>,
        report: &mut TuneReport,
        obs: &O,
    ) -> Option<Tuned> {
        let analytic = matches!(self.model, CostModel::Analytic);
        let widths = candidate_vec_widths();
        // (cost, event index, candidate, ν) of every costed variant.
        let mut ranked: Vec<(f64, usize, usize, usize)> = Vec::new();
        // Only the cheapest variant's untagged plan is kept; the others
        // are dropped after costing (a plan's tables are O(n) each) and
        // lowered again if the gate reaches them (lowering is
        // deterministic).
        let mut best: Option<(f64, usize)> = None;
        let mut kept: Option<(usize, Plan)> = None;
        for (bi, cand) in cands.iter().enumerate() {
            let mut t0 = obs.active().then(Instant::now);
            let lowered = cand
                .formula
                .clone()
                .and_then(|f| self.lower(&f, cand.threads));
            let base = match lowered {
                Ok(plan) => plan,
                Err(reason) => {
                    let ci = bi * widths.len();
                    report.quarantine(obs, ci, cand.choice.clone(), reason);
                    continue;
                }
            };
            for (wi, &nu) in widths.iter().enumerate() {
                let ci = bi * widths.len() + wi;
                if wi > 0 {
                    t0 = obs.active().then(Instant::now);
                }
                let cost = if analytic {
                    let shape = match nu {
                        1 => Some(base.shape()),
                        _ => vectorized_shape(&base, nu),
                    };
                    let Some(shape) = shape else { continue };
                    Ok(analytic_cost(&shape))
                } else {
                    let Some(plan) = variant(base.clone(), nu) else {
                        continue;
                    };
                    if let Err(reason) = gate(&plan) {
                        report.quarantine(obs, ci, variant_choice(&cand.choice, nu), reason);
                        continue;
                    }
                    self.model.try_cost(&plan).map_err(|e| e.to_string())
                };
                report.evaluated += 1;
                if let Some(t0) = t0 {
                    let idx = event_index(ci);
                    obs.span(0, SpanKind::TunerCandidate, idx, t0, Instant::now());
                }
                match cost {
                    Ok(cost) => {
                        if best.is_none_or(|b| cost < b.0) {
                            best = Some((cost, bi));
                        }
                        ranked.push((cost, ci, bi, nu));
                    }
                    // A faulting measurement disqualifies the variant, not
                    // the search.
                    Err(reason) => {
                        report.quarantine(obs, ci, variant_choice(&cand.choice, nu), reason);
                    }
                }
            }
            if best.is_some_and(|b| b.1 == bi) {
                kept = Some((bi, base));
            }
        }
        // Stable: equal costs keep candidate order.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (cost, ci, bi, nu) in ranked {
            let cand = &cands[bi];
            let choice = variant_choice(&cand.choice, nu);
            let Ok(formula) = &cand.formula else {
                unreachable!("only lowered candidates are ranked")
            };
            let base = match kept.take() {
                Some((k, plan)) if k == bi => Ok(plan),
                _ => self.lower(formula, cand.threads),
            };
            let plan = base.and_then(|base| {
                let plan = variant(base, nu).ok_or("vectorized nothing")?;
                match analytic {
                    true => gate(&plan).map(|()| plan),
                    false => Ok(plan),
                }
            });
            match plan {
                Ok(plan) => {
                    let formula = match nu {
                        1 => formula.clone(),
                        _ => vec_tag(nu, formula.clone()),
                    };
                    return Some(Tuned {
                        formula,
                        plan,
                        cost,
                        choice,
                    });
                }
                Err(reason) => report.quarantine(obs, ci, choice, reason),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::cplx::assert_slices_close;
    use spiral_spl::Cplx;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|k| Cplx::new(k as f64, 0.1 * k as f64))
            .collect()
    }

    #[test]
    fn sequential_tuning_produces_correct_plan() {
        let t = Tuner::new(1, 4, CostModel::Analytic);
        let tuned = t.tune_sequential(128).unwrap();
        let x = ramp(128);
        assert_slices_close(
            &tuned.plan.execute(&x),
            &spiral_spl::builder::dft(128).eval(&x),
            1e-6,
        );
    }

    #[test]
    fn parallel_tuning_produces_correct_balanced_plan() {
        let t = Tuner::new(2, 4, CostModel::Analytic);
        let tuned = t
            .tune_parallel(256)
            .unwrap()
            .expect("256 admits p=2 µ=4 splits");
        assert_eq!(tuned.plan.threads, 2);
        let x = ramp(256);
        assert_slices_close(
            &tuned.plan.execute(&x),
            &spiral_spl::builder::dft(256).eval(&x),
            1e-6,
        );
        spiral_rewrite::check_fully_optimized(&tuned.formula, 2, 4).unwrap();
    }

    /// Every DFT leaf of the tuned formulas at the benchmark sizes has a
    /// compiled kernel, so no leaf goes through lowering's rule-tree
    /// expansion: sequential 2^6..2^10 and 2^14..2^18, two threads
    /// 2^8..2^16.
    #[test]
    fn tuned_formulas_at_the_benchmark_sizes_have_kernel_leaves() {
        fn kernel_leaves(f: &Spl) -> bool {
            match f {
                Spl::Dft(k) => spiral_codegen::lower::has_kernel(*k),
                _ => f.children().into_iter().all(kernel_leaves),
            }
        }
        let seq = Tuner::new(1, 4, CostModel::Analytic);
        for k in (6..=10).chain(14..=18) {
            let tuned = seq.tune_sequential(1 << k).unwrap();
            assert!(kernel_leaves(&tuned.formula), "2^{k}: {}", tuned.choice);
        }
        let par = Tuner::new(2, 4, CostModel::Analytic);
        for k in 8..=16 {
            let tuned = par.tune(1 << k).unwrap().unwrap();
            assert!(kernel_leaves(&tuned.formula), "2^{k}: {}", tuned.choice);
        }
    }

    #[test]
    fn parallel_tuning_rejects_invalid_sizes() {
        let t = Tuner::new(2, 4, CostModel::Analytic);
        assert!(t.tune_parallel(32).unwrap().is_none()); // (pµ)² = 64 > 32
    }

    #[test]
    fn parallel_tuning_with_simulator_picks_among_splits() {
        let model = CostModel::Sim {
            machine: spiral_sim::core_duo(),
            warm: true,
        };
        let t = Tuner::new(2, 4, model);
        let tuned = t.tune_parallel(1024).unwrap().unwrap();
        assert!(tuned.choice.contains("multicore split"));
        let x = ramp(1024);
        assert_slices_close(
            &tuned.plan.execute(&x),
            &spiral_spl::builder::dft(1024).eval(&x),
            1e-5,
        );
    }

    #[test]
    fn tuned_parallel_plans_verify_clean() {
        for (n, p, mu) in [(256usize, 2usize, 4usize), (1024, 4, 4), (4096, 2, 8)] {
            let t = Tuner::new(p, mu, CostModel::Analytic);
            let tuned = t.tune_parallel(n).unwrap().unwrap();
            let report =
                spiral_verify::verify_plan(&tuned.plan, &spiral_verify::VerifyOptions::default());
            assert!(
                report.is_clean(),
                "n={n} p={p} µ={mu}: {:?}",
                report.diagnostics
            );
        }
    }

    #[test]
    fn p1_tuner_falls_back_to_sequential() {
        let t = Tuner::new(1, 4, CostModel::Analytic);
        let tuned = t.tune_parallel(64).unwrap().unwrap();
        assert_eq!(tuned.plan.threads, 1);
    }

    #[test]
    fn observed_search_records_candidate_spans() {
        use std::sync::Mutex;
        /// `(tid, is_candidate_span)` per event, in arrival order.
        #[derive(Default)]
        struct Events(Mutex<Vec<(usize, bool)>>);
        impl Observer for Events {
            fn span(&self, tid: usize, kind: SpanKind, _: u32, start: Instant, end: Instant) {
                assert_eq!(kind, SpanKind::TunerCandidate);
                assert!(start <= end);
                self.0.lock().unwrap().push((tid, true));
            }
            fn mark(&self, tid: usize, kind: MarkKind, _: u32, _: Instant) {
                assert_eq!(kind, MarkKind::TunerReject);
                self.0.lock().unwrap().push((tid, false));
            }
        }
        let obs = Events::default();
        let t = Tuner::new(2, 4, CostModel::Analytic);
        let outcome = t.tune_parallel_report_with(256, &obs).unwrap();
        assert!(outcome.best.is_some());
        let events = obs.0.into_inner().unwrap();
        let spans = events.iter().filter(|e| e.1).count();
        // One span per candidate that passed static verification.
        assert_eq!(spans, outcome.report.evaluated);
        let rejects = events.len() - spans;
        assert_eq!(rejects, outcome.report.quarantined.len());
        // All attributed to the coordinating thread.
        assert!(events.iter().all(|e| e.0 == 0));
    }

    #[test]
    fn tuner_proposes_vec_backend_dimension() {
        if spiral_codegen::detected_simd_width() == 1 {
            // force-scalar build or no-SIMD host: the dimension must
            // collapse to scalar-only.
            let t = Tuner::new(2, 4, CostModel::Analytic);
            let tuned = t.tune_parallel(1024).unwrap().unwrap();
            assert!(!tuned.choice.contains("vec("), "{}", tuned.choice);
            return;
        }
        // The analytic model credits ν-lane throughput, so with SIMD
        // available the vector variant of the best split must win.
        let t = Tuner::new(2, 4, CostModel::Analytic);
        let tuned = t.tune_parallel(1024).unwrap().unwrap();
        assert!(tuned.choice.contains("+ vec("), "{}", tuned.choice);
        assert!(tuned.plan.vec_width > 1);
        assert!(tuned.formula.has_vec_tag());
        let x = ramp(1024);
        assert_slices_close(
            &tuned.plan.execute(&x),
            &spiral_spl::builder::dft(1024).eval(&x),
            1e-5,
        );
        // The winning formula round-trips through the wisdom text form
        // with its tag intact.
        let text = tuned.formula.to_string();
        let parsed = spiral_spl::parse::parse(&text).unwrap();
        assert!(parsed.has_vec_tag());
        assert_eq!(parsed.vec_width(), tuned.plan.vec_width);
    }

    #[test]
    fn sequential_tuner_sees_vec_dimension() {
        let t = Tuner::new(1, 4, CostModel::Analytic);
        let tuned = t.tune_sequential(256).unwrap();
        if spiral_codegen::detected_simd_width() > 1 {
            assert!(tuned.choice.contains("+ vec("), "{}", tuned.choice);
        } else {
            assert_eq!(tuned.plan.vec_width, 1);
        }
        let x = ramp(256);
        assert_slices_close(
            &tuned.plan.execute(&x),
            &spiral_spl::builder::dft(256).eval(&x),
            1e-6,
        );
    }

    /// The analytic ranking `select` gates in: every variant that
    /// vectorizes something, its tagged formula lowered and costed,
    /// stable-sorted by cost.
    fn analytic_ranking(t: &Tuner, cands: &[Candidate]) -> Vec<String> {
        let mut ranked: Vec<(f64, String)> = Vec::new();
        for c in cands {
            let Ok(f) = &c.formula else { continue };
            for nu in candidate_vec_widths() {
                let tagged = match nu {
                    1 => f.clone(),
                    _ => vec_tag(nu, f.clone()),
                };
                let plan = Plan::from_formula(&tagged, c.threads, t.mu)
                    .unwrap()
                    .fuse_exchanges();
                if nu == 1 || plan.vec_width > 1 {
                    let cost = t.model.try_cost(&plan).unwrap();
                    ranked.push((cost, variant_choice(&c.choice, nu)));
                }
            }
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.into_iter().map(|r| r.1).collect()
    }

    #[test]
    fn failing_top_candidate_hands_the_win_to_the_next_in_rank() {
        let t = Tuner::new(2, 4, CostModel::Analytic);
        for (threads, n) in [(2usize, 1024usize), (1, 256)] {
            let cands = || match threads {
                1 => t.sequential_candidates(n),
                _ => t.parallel_candidates(n),
            };
            let ranked = analytic_ranking(&t, &cands());
            if ranked.len() < 2 {
                continue; // a scalar-only host offers one sequential variant
            }
            let calls = std::cell::Cell::new(0usize);
            let gate = |plan: &Plan| {
                calls.set(calls.get() + 1);
                if calls.get() == 1 {
                    Err("forced gate failure".to_string())
                } else {
                    verify_and_certify(plan)
                }
            };
            let mut report = TuneReport::default();
            let best = t
                .select(&cands(), &gate, &mut report, &())
                .expect("the runner-up passes the gate");
            assert_eq!(best.choice, ranked[1], "p={threads} n={n}");
            assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
            assert_eq!(report.quarantined[0].choice, ranked[0]);
            assert_eq!(report.quarantined[0].reason, "forced gate failure");
            // Every candidate was costed; the gate stopped at the winner.
            assert_eq!(report.evaluated, ranked.len());
            assert_eq!(calls.get(), 2);
            verify_and_certify(&best.plan).unwrap();
        }
    }

    #[test]
    fn measured_models_gate_every_candidate() {
        let t = Tuner::new(
            2,
            4,
            CostModel::Sim {
                machine: spiral_sim::core_duo(),
                warm: true,
            },
        );
        let calls = std::cell::Cell::new(0usize);
        let gate = |plan: &Plan| {
            calls.set(calls.get() + 1);
            verify_and_certify(plan)
        };
        let mut report = TuneReport::default();
        let best = t.select(&t.parallel_candidates(256), &gate, &mut report, &());
        assert!(best.is_some());
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert_eq!(calls.get(), report.evaluated);
    }

    #[test]
    fn report_counts_evaluated_candidates() {
        let t = Tuner::new(2, 4, CostModel::Analytic);
        let outcome = t.tune_parallel_report(256).unwrap();
        assert!(outcome.best.is_some());
        assert!(outcome.report.evaluated >= 1);
        assert!(
            outcome.report.quarantined.is_empty(),
            "healthy candidates quarantined: {:?}",
            outcome.report.quarantined
        );
    }
}
