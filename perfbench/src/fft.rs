//! The library workloads, `fft-seq` and `fft-par2`: closed loops on one
//! calling thread. Each measured call runs interleaved with the iterative
//! radix-2 baseline on the same input, alternating which goes first, and
//! every output is checked against the baseline's outside the timed
//! region.

use crate::inputs::Rng;
use crate::stats::{median, outputs_match, quantile};
use crate::trace::Tracer;
use crate::Tally;
use spiral_fft::baselines::IterativeFft;
use spiral_fft::codegen::{BatchExecutor, Plan};
use spiral_fft::spl::Cplx;
use spiral_fft::SpiralFft;
use std::time::{Duration, Instant};

/// Which quantile of a cell's paired ratios is its `vs_iterative`.
pub const PAIR_QUANTILE: f64 = 0.75;

/// Distinct seeded inputs per cell; calls cycle through them.
const VARIANTS: usize = 4;

/// The public entry point one cell times.
pub enum Op<'a> {
    /// `SpiralFft::forward` on a sequential or parallel transform.
    Forward(SpiralFft),
    /// `BatchExecutor::try_execute_batch` of one plan over a batch.
    Batch { exec: &'a BatchExecutor, plan: Plan },
}

/// One (entry point, size) pair of a workload and its samples.
pub struct Cell<'a> {
    pub n: usize,
    /// Member of the workload's small class (else its large class).
    pub small: bool,
    /// Transforms per call (1, or the batch size).
    pub batch: usize,
    op: Op<'a>,
    baseline: IterativeFft,
    /// `VARIANTS · batch` input vectors.
    inputs: Vec<Vec<Cplx>>,
    /// Calls per round, so that every cell gets similar time.
    reps: usize,
    /// Per-transform nanoseconds of each measured call.
    pub op_ns: Vec<f64>,
    /// Per-transform nanoseconds of each baseline run.
    pub base_ns: Vec<f64>,
}

impl<'a> Cell<'a> {
    pub fn new(op: Op<'a>, n: usize, small: bool, batch: usize, rng: &mut Rng) -> Cell<'a> {
        Cell {
            n,
            small,
            batch,
            op,
            baseline: IterativeFft::new(n),
            inputs: rng.vectors(VARIANTS * batch, n),
            reps: 1,
            op_ns: Vec::new(),
            base_ns: Vec::new(),
        }
    }

    /// The cell's speed relative to the baseline (×): each call is
    /// paired with the baseline run next to it, which cancels host speed
    /// drift, and the upper quartile of the pairs' ratios (baseline time
    /// over call time, per transform) is taken, which skips the pairs a
    /// neighbour on the host disturbed.
    pub fn vs_iterative(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .base_ns
            .iter()
            .zip(&self.op_ns)
            .map(|(b, o)| b / o)
            .collect();
        quantile(&mut ratios, PAIR_QUANTILE)
    }

    pub fn label(&self) -> &'static str {
        match &self.op {
            Op::Forward(f) if f.plan().threads > 1 => "par2",
            Op::Forward(_) => "seq",
            Op::Batch { .. } => "batch2",
        }
    }

    /// Median per-transform baseline time in µs.
    pub fn iterative_us(&self) -> f64 {
        median(&mut self.base_ns.clone()) / 1e3
    }

    /// Calls per second at the mean call time.
    pub fn calls_per_s(&self) -> f64 {
        let mean_ns = self.op_ns.iter().sum::<f64>() / self.op_ns.len() as f64;
        1e9 / (mean_ns * self.batch as f64)
    }

    /// Quantile `q` of the per-call latency in µs.
    pub fn call_us(&self, q: f64) -> f64 {
        let mut calls: Vec<f64> = self.op_ns.iter().map(|t| t * self.batch as f64).collect();
        quantile(&mut calls, q) / 1e3
    }

    fn run_op<T: Tracer>(
        &self,
        xs: &[Vec<Cplx>],
        tracer: &mut T,
        id: u64,
    ) -> (Vec<Vec<Cplx>>, f64) {
        match &self.op {
            Op::Forward(fft) => {
                let s = tracer.begin("facade.forward", id);
                let t = Instant::now();
                let y = fft.forward(&xs[0]);
                let ns = t.elapsed().as_nanos() as f64;
                tracer.end(s);
                (vec![y], ns)
            }
            Op::Batch { exec, plan } => {
                let s = tracer.begin("codegen.batch", id);
                let t = Instant::now();
                let ys = exec.try_execute_batch(plan, xs);
                let ns = t.elapsed().as_nanos() as f64;
                tracer.end(s);
                (ys.unwrap_or_default(), ns / xs.len() as f64)
            }
        }
    }

    fn run_baseline<T: Tracer>(
        &self,
        xs: &[Vec<Cplx>],
        tracer: &mut T,
        id: u64,
    ) -> (Vec<Vec<Cplx>>, f64) {
        let s = tracer.begin("baselines.iterative", id);
        let t = Instant::now();
        let ys: Vec<Vec<Cplx>> = xs.iter().map(|x| self.baseline.run(x)).collect();
        let ns = t.elapsed().as_nanos() as f64;
        tracer.end(s);
        (ys, ns / xs.len() as f64)
    }

    /// One interleaved (call, baseline) pair on input variant `k`.
    fn step<T: Tracer>(&mut self, k: u64, tracer: &mut T, tally: &mut Tally) {
        let v = (k as usize) % VARIANTS;
        let xs = &self.inputs[v * self.batch..(v + 1) * self.batch];
        let ((got, op_ns), (want, base_ns)) = if k.is_multiple_of(2) {
            let a = self.run_op(xs, tracer, k);
            (a, self.run_baseline(xs, tracer, k))
        } else {
            let b = self.run_baseline(xs, tracer, k);
            (self.run_op(xs, tracer, k), b)
        };
        let s = tracer.begin("bench.check", k);
        tally.record(
            got.len() == want.len() && got.iter().zip(&want).all(|(g, w)| outputs_match(g, w)),
        );
        tracer.end(s);
        self.op_ns.push(op_ns);
        self.base_ns.push(base_ns);
    }
}

/// Run `cells` round-robin for `budget`. A warm-up round sizes each
/// cell's calls per round so that all cells get similar time.
pub fn measure<T: Tracer>(
    cells: &mut [Cell<'_>],
    budget: Duration,
    tracer: &mut T,
    tally: &mut Tally,
) {
    let mut k = 0u64;
    let mut warm = crate::Tally::default();
    let mut cost = Vec::with_capacity(cells.len());
    for cell in cells.iter_mut() {
        let t = Instant::now();
        for _ in 0..4 {
            cell.step(k, &mut crate::trace::Off, &mut warm);
            k += 1;
        }
        cost.push(t.elapsed().as_secs_f64() / 4.0);
        cell.op_ns.clear();
        cell.base_ns.clear();
    }
    tally.absorb(&warm);
    let slowest = cost.iter().copied().fold(0.0, f64::max);
    for (cell, c) in cells.iter_mut().zip(&cost) {
        cell.reps = ((slowest / c).round() as usize).clamp(1, 10_000);
    }
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed() < budget {
        let r = tracer.begin("bench.round", round);
        for cell in cells.iter_mut() {
            for _ in 0..cell.reps {
                cell.step(k, tracer, tally);
                k += 1;
            }
        }
        tracer.end(r);
        round += 1;
    }
}

/// Time `build` (construct every transform and produce its first
/// output) `reps` times; returns the median seconds and the last build.
pub fn timed_setup<B>(reps: usize, mut build: impl FnMut() -> B) -> (f64, B) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let b = build();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(b);
    }
    (
        median(&mut secs),
        last.expect("at least one setup repetition"),
    )
}
