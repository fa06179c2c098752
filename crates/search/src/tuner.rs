//! The full autotuning loop (Figure 1's feedback cycle): generate
//! candidate formulas, compile, measure, pick the best.

use crate::cost::CostModel;
use crate::dp::dp_search;
use spiral_codegen::plan::Plan;
use spiral_codegen::SpiralError;
use spiral_rewrite::{expand_dfts, multicore_dft, RuleTree};
use spiral_smp::trace::{MarkKind, Observer, SpanKind};
use spiral_spl::builder::vec_tag;
use spiral_spl::num::divisors;
use spiral_spl::Spl;
use std::collections::HashMap;
use std::time::Instant;

/// Lane widths the search proposes as the vec(ν) candidate dimension:
/// scalar (ν = 1) plus every supported width the host actually has.
/// Under the `force-scalar` feature of `spiral-codegen` the detected
/// width is 1, so this collapses to `[1]` and no vector candidate is
/// ever generated. The parallel search measures every split candidate
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
    /// verification, or a measurement fault: panic, watchdog expiry,
    /// non-finite cost or output).
    pub reason: String,
}

/// What the parallel search saw: how many candidates were measured and
/// which were quarantined.
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
    /// then the scalar-vs-vec(ν) backend dimension on the DP winner).
    /// `Err` when the DP-chosen expansion fails to lower or its scalar
    /// measurement faults — both indicate a broken toolchain rather than
    /// a bad candidate, so there is nothing to quarantine. A faulting
    /// *vector* variant merely loses to the scalar baseline.
    pub fn tune_sequential(&self, n: usize) -> Result<Tuned, SpiralError> {
        let r = dp_search(n, self.max_leaf, self.mu, &self.model);
        let base = r.tree.expand().normalized();
        let plan = Plan::from_formula(&base, 1, self.mu).map_err(|e| {
            SpiralError::Lower(format!("sequential expansion failed to lower: {e}"))
        })?;
        let mut best = Tuned {
            cost: self.model.try_cost(&plan)?,
            formula: base.clone(),
            plan,
            choice: format!("sequential tree {}", r.tree),
        };
        for nu in candidate_vec_widths() {
            if nu == 1 {
                continue;
            }
            let formula = vec_tag(nu, base.clone());
            let Ok(plan) = Plan::from_formula(&formula, 1, self.mu) else {
                continue;
            };
            if plan.vec_width == 1 {
                // No stage passed ν-alignment: identical to the scalar
                // baseline, nothing new to measure.
                continue;
            }
            let Ok(cost) = self.model.try_cost(&plan) else {
                continue;
            };
            if cost < best.cost {
                best = Tuned {
                    formula,
                    plan,
                    cost,
                    choice: format!("sequential tree {} + vec({nu})", r.tree),
                };
            }
        }
        Ok(best)
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
    /// what the search saw. Candidates whose measurement panics, trips
    /// the executor watchdog, or produces non-finite cost/output are
    /// *quarantined* — recorded with a reason and excluded — and the
    /// search continues with the remaining candidates.
    pub fn tune_parallel_report(&self, n: usize) -> Result<TuneOutcome, SpiralError> {
        self.tune_parallel_report_with(n, &())
    }

    /// [`tune_parallel_report`](Self::tune_parallel_report), recording
    /// the search itself to `obs`: one `TunerCandidate` span per measured
    /// split candidate (derivation through costing, indexed in candidate
    /// order) and one `TunerReject` mark per quarantine, all attributed
    /// to tid 0, the coordinating thread. With `&()` no clock is read.
    pub fn tune_parallel_report_with<O: Observer>(
        &self,
        n: usize,
        obs: &O,
    ) -> Result<TuneOutcome, SpiralError> {
        // Candidate indices are u32 event stages; saturate past that.
        let idx = |ci: usize| u32::try_from(ci).unwrap_or(u32::MAX);
        let reject = |ci: usize| {
            if obs.active() {
                obs.mark(0, MarkKind::TunerReject, idx(ci), Instant::now());
            }
        };
        let candidate = |ci: usize, t0: Option<Instant>| {
            if let Some(t0) = t0 {
                obs.span(0, SpanKind::TunerCandidate, idx(ci), t0, Instant::now());
            }
        };
        let mut report = TuneReport::default();
        if self.p == 1 {
            let tuned = self.tune_sequential(n)?;
            report.evaluated = 1;
            return Ok(TuneOutcome {
                best: Some(tuned),
                report,
            });
        }
        let pmu = self.p * self.mu;
        let splits: Vec<usize> = divisors(n)
            .into_iter()
            .filter(|&m| m > 1 && m < n && m % pmu == 0 && (n / m).is_multiple_of(pmu))
            .collect();
        // DP-best sequential trees, shared across split candidates.
        let tree_cache: std::cell::RefCell<HashMap<usize, RuleTree>> =
            std::cell::RefCell::new(HashMap::new());
        let mut best: Option<Tuned> = None;
        let widths = candidate_vec_widths();
        let mut ci = 0usize;
        for m in splits {
            let base_choice = format!("multicore split {m}x{}", n / m);
            let derived = match multicore_dft(n, self.p, self.mu, Some(m)) {
                Ok(d) => d,
                Err(e) => {
                    report.quarantined.push(QuarantineEntry {
                        choice: base_choice,
                        reason: format!("derivation failed: {e:?}"),
                    });
                    reject(ci);
                    ci += 1;
                    continue;
                }
            };
            let expanded = expand_dfts(&derived.formula, &|k| {
                tree_cache
                    .borrow_mut()
                    .entry(k)
                    .or_insert_with(|| dp_search(k, self.max_leaf, self.mu, &self.model).tree)
                    .clone()
            })
            .normalized();
            // The backend dimension: the same split measured scalar and
            // with every host-supported vec(ν) tag.
            for &nu in &widths {
                let (formula, choice) = if nu == 1 {
                    (expanded.clone(), base_choice.clone())
                } else {
                    (
                        vec_tag(nu, expanded.clone()),
                        format!("{base_choice} + vec({nu})"),
                    )
                };
                let t0 = obs.active().then(Instant::now);
                let plan = match Plan::from_formula(&formula, self.p, self.mu) {
                    // Loop merging across the parallel boundary: fold the
                    // P ⊗̄ I_µ exchanges into the compute steps (§3.1).
                    Ok(p) => p.fuse_exchanges(),
                    Err(e) => {
                        report.quarantined.push(QuarantineEntry {
                            choice,
                            reason: format!("failed to lower: {e}"),
                        });
                        reject(ci);
                        ci += 1;
                        continue;
                    }
                };
                if nu > 1 && plan.vec_width == 1 {
                    // No stage passed ν-alignment: the plan is identical
                    // to the scalar candidate, skip the duplicate.
                    continue;
                }
                // Candidates that fail static verification (races, false
                // sharing, out-of-bounds) never enter the search space:
                // the analyzer enforces Definition 1 before any
                // measurement.
                if spiral_verify::verify_plan(&plan, &spiral_verify::VerifyOptions::default())
                    .has_errors()
                {
                    report.quarantined.push(QuarantineEntry {
                        choice,
                        reason: "failed static verification".to_string(),
                    });
                    reject(ci);
                    ci += 1;
                    continue;
                }
                // Dataflow certification: abstract interpretation of the
                // lowered IR (bounds, write-once coverage, ping-pong
                // discipline, exchange-fusion legality, ν-alignment of
                // vector-marked stages). Independent of the scheduling
                // analyzer above; a plan failing it computes garbage
                // regardless of how fast it runs.
                let cert = spiral_verify::certify::dataflow::certify_dataflow(&plan);
                if let Some(f) = cert.first() {
                    report.quarantined.push(QuarantineEntry {
                        choice,
                        reason: format!("failed dataflow certification: {f}"),
                    });
                    reject(ci);
                    ci += 1;
                    continue;
                }
                report.evaluated += 1;
                let cost = match self.model.try_cost(&plan) {
                    Ok(c) => c,
                    Err(e) => {
                        // A faulting measurement disqualifies the
                        // candidate, not the search: record it and keep
                        // going.
                        report.quarantined.push(QuarantineEntry {
                            choice,
                            reason: e.to_string(),
                        });
                        candidate(ci, t0);
                        reject(ci);
                        ci += 1;
                        continue;
                    }
                };
                candidate(ci, t0);
                ci += 1;
                if best.as_ref().is_none_or(|b| cost < b.cost) {
                    best = Some(Tuned {
                        formula,
                        plan,
                        cost,
                        choice,
                    });
                }
            }
        }
        Ok(TuneOutcome { best, report })
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
