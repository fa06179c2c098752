//! The full autotuning loop (Figure 1's feedback cycle): generate
//! candidate formulas, compile, cost, pick the best. Every plan the
//! tuner returns has passed static verification and dataflow
//! certification.

use crate::cost::CostModel;
use crate::dp::dp_search;
use spiral_codegen::plan::Plan;
use spiral_codegen::SpiralError;
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
/// ever generated. The parallel search offers every split candidate
/// once per width, in this order.
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

/// A candidate's choice string and formula (`Err`: why it could not be
/// derived).
type Candidate = (String, Result<Spl, String>);

/// `formula` scalar, then tagged with every offered vec(ν) width.
fn vec_variants(formula: &Spl, choice: &str) -> Vec<Candidate> {
    candidate_vec_widths()
        .into_iter()
        .map(|nu| match nu {
            1 => (choice.to_string(), Ok(formula.clone())),
            _ => (
                format!("{choice} + vec({nu})"),
                Ok(vec_tag(nu, formula.clone())),
            ),
        })
        .collect()
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
    /// Largest codelet leaf.
    pub max_leaf: usize,
    /// How candidates are costed.
    pub model: CostModel,
}

impl Tuner {
    /// Tuner for `p` processors and cache-line length `µ`.
    pub fn new(p: usize, mu: usize, model: CostModel) -> Tuner {
        // Every plan the tuner measures or returns may be run on the
        // parallel executor; arm its debug-build static verification.
        spiral_verify::install_executor_guard();
        Tuner {
            p,
            mu,
            max_leaf: 8,
            model,
        }
    }

    /// Best sequential implementation of `DFT_n` (DP over rule trees,
    /// then the scalar-vs-vec(ν) backend dimension on the DP winner),
    /// selected and gated like the parallel candidates. `Err` when no
    /// variant survives, which indicates a broken toolchain rather than
    /// a bad candidate.
    pub fn tune_sequential(&self, n: usize) -> Result<Tuned, SpiralError> {
        let mut report = TuneReport::default();
        let cands = self.sequential_candidates(n);
        let best = self.select(1, cands, &verify_and_certify, &mut report, &());
        best.ok_or_else(|| SpiralError::Search(format!("DFT_{n}: {:?}", report.quarantined)))
    }

    /// The DP winner's expansion, scalar and with every vec(ν) tag.
    fn sequential_candidates(&self, n: usize) -> Vec<Candidate> {
        let tree = dp_search(n, self.max_leaf, self.mu, &self.model).tree;
        vec_variants(
            &tree.expand().normalized(),
            &format!("sequential tree {tree}"),
        )
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
        let best = self.select(self.p, cands, &verify_and_certify, &mut report, obs);
        Ok(TuneOutcome { best, report })
    }

    /// Every split × vec(ν) candidate of the multicore Cooley–Tukey
    /// (14), splits ascending, each split scalar first.
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
                            .or_insert_with(|| {
                                dp_search(k, self.max_leaf, self.mu, &self.model).tree
                            })
                            .clone()
                    })
                    .normalized();
                    cands.extend(vec_variants(&expanded, &choice));
                }
                Err(e) => cands.push((choice, Err(format!("derivation failed: {e:?}")))),
            }
        }
        cands
    }

    /// Pick the cheapest candidate that passes `gate` (whose `Err` is
    /// the quarantine reason). Candidates are lowered for `threads`
    /// threads, exchanges folded into compute steps (§3.1), and costed
    /// in order; a vec(ν) variant that vectorized nothing is skipped.
    /// The analytic model runs nothing, so the gate runs afterwards in
    /// rank order until one passes; measured models gate each candidate
    /// before measuring it. Equal costs keep candidate order.
    fn select<O: Observer>(
        &self,
        threads: usize,
        cands: Vec<Candidate>,
        gate: &dyn Fn(&Plan) -> Result<(), String>,
        report: &mut TuneReport,
        obs: &O,
    ) -> Option<Tuned> {
        // Measured models gate a candidate before running it; the
        // analytic model runs nothing and gates after ranking.
        let pass: &dyn Fn(&Plan) -> Result<(), String> = &|_| Ok(());
        let (before_cost, after_rank) = match self.model {
            CostModel::Analytic => (pass, gate),
            _ => (gate, pass),
        };
        let lower = |f: &Spl| {
            Plan::from_formula(f, threads, self.mu)
                .map(Plan::fuse_exchanges)
                .map_err(|e| format!("failed to lower: {e}"))
        };
        // Only the cheapest plan so far is kept; the others are dropped
        // after costing (a plan's tables are O(n) each) and lowered again
        // if the gate reaches them (lowering is deterministic).
        let mut ranked: Vec<(f64, usize, String, Spl)> = Vec::new();
        let mut cheapest: Option<(f64, usize, Plan)> = None;
        for (ci, (choice, formula)) in cands.into_iter().enumerate() {
            let t0 = obs.active().then(Instant::now);
            let (formula, plan) = match formula.and_then(|f| Ok((lower(&f)?, f))) {
                Ok((plan, f)) => (f, plan),
                Err(reason) => {
                    report.quarantine(obs, ci, choice, reason);
                    continue;
                }
            };
            if formula.vec_width() > 1 && plan.vec_width == 1 {
                continue;
            }
            if let Err(reason) = before_cost(&plan) {
                report.quarantine(obs, ci, choice, reason);
                continue;
            }
            report.evaluated += 1;
            let cost = self.model.try_cost(&plan);
            if let Some(t0) = t0 {
                let idx = event_index(ci);
                obs.span(0, SpanKind::TunerCandidate, idx, t0, Instant::now());
            }
            match cost {
                Ok(cost) => {
                    if cheapest.as_ref().is_none_or(|b| cost < b.0) {
                        cheapest = Some((cost, ci, plan));
                    }
                    ranked.push((cost, ci, choice, formula));
                }
                // A faulting measurement disqualifies the candidate, not
                // the search.
                Err(e) => report.quarantine(obs, ci, choice, e.to_string()),
            }
        }
        // Stable: equal costs keep candidate order.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (cost, ci, choice, formula) in ranked {
            let plan = match cheapest.take() {
                Some((_, kept, plan)) if kept == ci => Ok(plan),
                _ => lower(&formula),
            };
            match plan.and_then(|p| after_rank(&p).map(|()| p)) {
                Ok(plan) => {
                    return Some(Tuned {
                        formula,
                        plan,
                        cost,
                        choice,
                    })
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

    /// The analytic ranking `select` gates in: every non-duplicate
    /// candidate lowered and costed, stable-sorted by cost.
    fn analytic_ranking(t: &Tuner, threads: usize, cands: Vec<Candidate>) -> Vec<String> {
        let mut ranked: Vec<(f64, String)> = cands
            .into_iter()
            .filter_map(|(choice, f)| {
                let f = f.ok()?;
                let plan = Plan::from_formula(&f, threads, t.mu).ok()?.fuse_exchanges();
                (f.vec_width() == 1 || plan.vec_width > 1)
                    .then(|| (t.model.try_cost(&plan).unwrap(), choice))
            })
            .collect();
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
            let ranked = analytic_ranking(&t, threads, cands());
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
                .select(threads, cands(), &gate, &mut report, &())
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
        let best = t.select(2, t.parallel_candidates(256), &gate, &mut report, &());
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
