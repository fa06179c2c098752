//! ABL-SIMD — the short-vector backend vs the scalar kernel path.
//!
//! For every size in a sweep, compile the tuner's winning formula
//! *twice* — once with the `vec(ν)` tag at the host's detected lane
//! width and once without — and time both on the host. The two plans
//! differ only in which kernel stages take the ν-lane path, so the
//! ratio is the vectorization speedup and nothing else: same split
//! tree, same twiddles, same exchange fusion. The artifact
//! (`results/simd_ablation.json`) is the recorded evidence that vector
//! plans earn their keep against the scalar kernel path, not against a
//! strawman.

use crate::history::BenchHost;
use serde::{Deserialize, Serialize};
use spiral_codegen::plan::Plan;
use spiral_codegen::ParallelExecutor;
use spiral_search::{CostModel, Tuner};
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;
use std::time::Instant;

/// Schema version of [`SimdAblationFile`]. Bump on any shape change.
pub const SIMD_ABLATION_SCHEMA_VERSION: u32 = 1;

/// One size's scalar-vs-vector pair: the same formula compiled under
/// both backends and timed on the host.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimdAblationRow {
    /// log2 of the transform size.
    pub log2n: u64,
    /// Thread count both plans ran at.
    pub threads: u64,
    /// Lane width ν of the vector plan (≥ 2 by construction).
    pub nu: u64,
    /// The shared split strategy (tuner choice, `vec(ν)` tag stripped).
    pub plan_kind: String,
    /// Scalar-backend µs per transform (min over reps).
    pub scalar_us: f64,
    /// Vector-backend µs per transform (min over reps).
    pub vector_us: f64,
    /// `scalar_us / vector_us` — the short-vector win.
    pub speedup: f64,
}

/// The `simd_ablation.json` artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimdAblationFile {
    /// Schema version ([`SIMD_ABLATION_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Host the sweep ran on.
    pub host: BenchHost,
    /// SIMD width the backend detected (1 on scalar-only hosts and
    /// under `force-scalar` builds — the sweep then records no rows).
    pub detected_nu: u64,
    /// Per-size scalar/vector pairs.
    pub rows: Vec<SimdAblationRow>,
}

/// Internal-consistency check for a sweep artifact (also applied to
/// files re-read from disk by CI).
pub fn validate_file(f: &SimdAblationFile) -> Result<(), String> {
    if f.schema != SIMD_ABLATION_SCHEMA_VERSION {
        return Err(format!(
            "simd ablation schema {} (expected {})",
            f.schema, SIMD_ABLATION_SCHEMA_VERSION
        ));
    }
    if f.detected_nu < 1 {
        return Err("detected_nu must be ≥ 1".into());
    }
    for r in &f.rows {
        if r.nu < 2 {
            return Err(format!("row n=2^{}: vector row with ν={}", r.log2n, r.nu));
        }
        if !(r.scalar_us > 0.0 && r.vector_us > 0.0) {
            return Err(format!("row n=2^{}: non-positive timing", r.log2n));
        }
        let want = r.scalar_us / r.vector_us;
        if !r.speedup.is_finite() || (r.speedup - want).abs() > 1e-9 * want.abs() {
            return Err(format!(
                "row n=2^{}: speedup {} inconsistent with timings",
                r.log2n, r.speedup
            ));
        }
    }
    Ok(())
}

/// Minimum wall-clock µs of `f` over `reps + 1` invocations; the extra
/// first call is the warm-up, and min-of-reps suppresses scheduler
/// noise the same way the paper's timing loops do.
fn min_time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..=reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Sweep `n = 2^min_log2 .. 2^max_log2` at one thread count, pairing
/// each tuner winner with its counterpart on the other backend (the
/// `vec(ν)` tag stripped or added, same derivation as the bench grid).
/// Sizes where the tag does not take (no stage aligns at ν) are
/// skipped; on a scalar-only host the sweep records no rows at all
/// rather than a degenerate 1.0× comparison.
pub fn simd_ablation(
    min_log2: u32,
    max_log2: u32,
    threads: usize,
    reps: usize,
) -> SimdAblationFile {
    let reps = reps.max(2);
    let threads = threads.max(1);
    let mu = spiral_smp::topology::mu();
    let nu = spiral_codegen::detected_simd_width();
    let exec = (threads > 1).then(|| ParallelExecutor::with_auto_barrier(threads));
    let mut rows = Vec::new();
    if nu > 1 {
        for k in min_log2..=max_log2.max(min_log2) {
            let n = 1usize << k;
            let Ok(Some(tuned)) = Tuner::new(threads, mu, CostModel::Analytic).tune_parallel(n)
            else {
                continue;
            };
            let fuse = |plan: Plan| {
                if plan.threads > 1 {
                    plan.fuse_exchanges()
                } else {
                    plan
                }
            };
            // The winner plus its counterpart from the same formula
            // modulo the vec(ν) tag.
            let pair = if tuned.plan.vec_width > 1 {
                let Spl::Vec { a, .. } = &tuned.formula else {
                    continue;
                };
                let Ok(scalar) = Plan::from_formula(a, tuned.plan.threads, mu) else {
                    continue;
                };
                let base = tuned
                    .choice
                    .split(" + vec(")
                    .next()
                    .unwrap_or(&tuned.choice)
                    .to_string();
                Some((fuse(scalar), tuned.plan.clone(), base))
            } else {
                let tagged = spiral_spl::builder::vec_tag(nu, tuned.formula.clone());
                match Plan::from_formula(&tagged, tuned.plan.threads, mu) {
                    Ok(vector) => {
                        let vector = fuse(vector);
                        (vector.vec_width > 1)
                            .then(|| (tuned.plan.clone(), vector, tuned.choice.clone()))
                    }
                    Err(_) => None,
                }
            };
            let Some((scalar_plan, vector_plan, plan_kind)) = pair else {
                continue;
            };
            let x: Vec<Cplx> = (0..n)
                .map(|i| Cplx::new(i as f64 / n as f64, -(i as f64) / n as f64))
                .collect();
            let time = |plan: &Plan| {
                min_time_us(reps, || {
                    let out = match &exec {
                        Some(e) if plan.threads > 1 => e
                            .try_execute(plan, &x)
                            .expect("healthy tuned plan must execute"),
                        _ => plan.execute(&x),
                    };
                    std::hint::black_box(out);
                })
            };
            let scalar_us = time(&scalar_plan);
            let vector_us = time(&vector_plan);
            rows.push(SimdAblationRow {
                log2n: u64::from(k),
                threads: threads as u64,
                nu: vector_plan.vec_width as u64,
                plan_kind,
                scalar_us,
                vector_us,
                speedup: scalar_us / vector_us,
            });
        }
    }
    SimdAblationFile {
        schema: SIMD_ABLATION_SCHEMA_VERSION,
        host: BenchHost::current(),
        detected_nu: nu as u64,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_pairs_both_backends_and_validates() {
        let f = simd_ablation(6, 8, 1, 2);
        assert_eq!(f.schema, SIMD_ABLATION_SCHEMA_VERSION);
        validate_file(&f).expect("sweep artifact is internally consistent");
        if f.detected_nu <= 1 {
            // force-scalar build or scalar-only host: no comparison rows.
            assert!(f.rows.is_empty());
            return;
        }
        assert!(!f.rows.is_empty(), "vector host must produce pairs");
        for r in &f.rows {
            assert_eq!(r.threads, 1);
            assert!(r.nu >= 2);
            // plan_kind is the shared strategy; the tag is the ablated
            // variable, never part of the key.
            assert!(!r.plan_kind.contains("+ vec("));
        }
    }

    #[test]
    fn validation_rejects_inconsistent_rows() {
        let mut f = simd_ablation(6, 6, 1, 2);
        f.rows.push(SimdAblationRow {
            log2n: 6,
            threads: 1,
            nu: 4,
            plan_kind: "test".into(),
            scalar_us: 10.0,
            vector_us: 5.0,
            speedup: 7.0, // not scalar/vector
        });
        assert!(validate_file(&f).unwrap_err().contains("inconsistent"));
        f.rows.last_mut().unwrap().speedup = 2.0;
        f.rows.last_mut().unwrap().nu = 1;
        assert!(validate_file(&f).unwrap_err().contains("ν=1"));
    }

    #[test]
    fn serializes_round_trip() {
        let f = simd_ablation(6, 6, 1, 2);
        let json = serde_json::to_string(&f).unwrap();
        let back: SimdAblationFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema, f.schema);
        assert_eq!(back.rows.len(), f.rows.len());
        assert_eq!(back.detected_nu, f.detected_nu);
    }
}
