//! BATCH — batched small-DFT throughput vs per-transform dispatch.
//!
//! The serving layer's claim: below the parallelization crossover,
//! partitioning the *batch* dimension across the pool (one dispatch per
//! batch of independent transforms, sequential kernel per transform)
//! beats running the tuned per-transform schedule once per request —
//! the per-step barrier cost that dominates small `n` is paid once per
//! batch instead of once per stage per transform. This module measures
//! both paths on the host and reports per-transform medians, so the
//! ≥1.5× acceptance bound is a recorded number, not an assumption.

use crate::history::{mad, median};
use serde::Serialize;
use spiral_codegen::{BatchExecutor, ParallelExecutor};
use spiral_search::{CostModel, Tuner};
use spiral_spl::cplx::Cplx;
use std::time::Instant;

/// One measured (size, threads, batch) point: per-transform medians of
/// the single-dispatch baseline and the batched path.
#[derive(Clone, Debug, Serialize)]
pub struct BatchRow {
    /// log2 of the transform size.
    pub log2n: u64,
    /// Pool thread count.
    pub threads: u64,
    /// Transforms per batch.
    pub batch: u64,
    /// Plan the single-transform baseline ran (tuned for `threads`).
    pub single_choice: String,
    /// Per-transform kernel the batched path ran (tuned sequential).
    pub batch_choice: String,
    /// Baseline µs per transform (median over reps).
    pub single_us: f64,
    /// MAD of the baseline per-transform times.
    pub single_mad_us: f64,
    /// Batched µs per transform (median over reps).
    pub batch_us: f64,
    /// MAD of the batched per-transform times.
    pub batch_mad_us: f64,
    /// `single_us / batch_us` — the serving layer's win.
    pub speedup: f64,
}

/// Measure the (sizes × threads) grid at one batch size. Each rep times
/// `batch` transforms end-to-end on both paths; recorded numbers are
/// per-transform. The baseline runs the tuned plan for `threads`
/// (parallel when the multicore rewrite admits `n`, sequential
/// otherwise) once per transform; the batched path runs the tuned
/// sequential kernel for all `batch` inputs in one pool dispatch.
pub fn measure_batch_rows(
    sizes_log2: &[u32],
    threads: &[usize],
    batch: usize,
    reps: usize,
) -> Vec<BatchRow> {
    let reps = reps.max(2);
    let batch = batch.max(1);
    let mu = spiral_smp::topology::mu();
    let mut rows = Vec::new();
    for &p in threads {
        let p = p.max(1);
        let tuner = Tuner::new(p, mu, CostModel::Analytic);
        let stage_exec = (p > 1).then(|| ParallelExecutor::with_auto_barrier(p));
        let batch_exec = BatchExecutor::new(p);
        for &k in sizes_log2 {
            let n = 1usize << k;
            let Ok(seq) = tuner.tune_sequential(n) else {
                continue;
            };
            // Baseline plan: what a per-request service without batching
            // would run at this thread count.
            let single = match (p > 1).then(|| tuner.tune_parallel(n)) {
                Some(Ok(Some(t))) => Some(t),
                _ => None,
            };
            let (single_plan, single_choice) = match &single {
                Some(t) => (&t.plan, t.choice.as_str()),
                None => (&seq.plan, seq.choice.as_str()),
            };
            let inputs: Vec<Vec<Cplx>> = (0..batch)
                .map(|b| {
                    (0..n)
                        .map(|j| {
                            Cplx::new(
                                (j as f64 + b as f64 * 0.5) / n as f64,
                                -(j as f64) / n as f64,
                            )
                        })
                        .collect()
                })
                .collect();

            let mut single_us = Vec::with_capacity(reps);
            let mut batch_us = Vec::with_capacity(reps);
            // One warm-up rep each (pool spin-up, cold caches).
            for rep in 0..=reps {
                let t0 = Instant::now();
                for x in &inputs {
                    let out = match &stage_exec {
                        Some(e) if single_plan.threads > 1 => e
                            .try_execute(single_plan, x)
                            .expect("healthy tuned plan must execute"),
                        _ => single_plan.execute(x),
                    };
                    std::hint::black_box(out);
                }
                let dt_single = t0.elapsed().as_secs_f64() * 1e6 / batch as f64;

                let t1 = Instant::now();
                let out = batch_exec
                    .try_execute_batch(&seq.plan, &inputs)
                    .expect("healthy sequential plan must batch");
                let dt_batch = t1.elapsed().as_secs_f64() * 1e6 / batch as f64;
                std::hint::black_box(out);

                if rep > 0 {
                    single_us.push(dt_single);
                    batch_us.push(dt_batch);
                }
            }
            let s = median(&single_us);
            let b = median(&batch_us);
            rows.push(BatchRow {
                log2n: k as u64,
                threads: p as u64,
                batch: batch as u64,
                single_choice: single_choice.to_string(),
                batch_choice: seq.choice.clone(),
                single_us: s,
                single_mad_us: mad(&single_us),
                batch_us: b,
                batch_mad_us: mad(&batch_us),
                speedup: s / b.max(1e-9),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_real_rows_with_positive_times() {
        let rows = measure_batch_rows(&[6], &[1, 2], 4, 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.log2n, 6);
            assert_eq!(r.batch, 4);
            assert!(r.single_us > 0.0 && r.batch_us > 0.0);
            assert!(r.speedup.is_finite() && r.speedup > 0.0);
            assert!(!r.batch_choice.is_empty());
        }
    }
}
