//! The three workloads and the metrics each run reports.
//!
//! * `fft-seq` — `SpiralFft::sequential(n).forward`, n in a small class
//!   {2^6, 2^8, 2^10} (L1-resident) and a large class {2^14, 2^16, 2^18}
//!   (ping-pong buffers spill the per-core L2);
//! * `fft-par2` — the thread pool used two ways on 2 threads:
//!   `SpiralFft::parallel(n, 2, µ).forward` for n in {2^8, …, 2^16}
//!   (barrier-heavy) and `BatchExecutor::try_execute_batch` over 32
//!   inputs for n in {2^6, 2^8, 2^10} (dispatch-heavy). Small class:
//!   n ≤ 2^10; large class: the parallel plans at n ≥ 2^12;
//! * `serve-mix` — an in-process `Server` over a wisdom-backed
//!   `PlanService`, two persistent client connections, requests drawing
//!   n in {2^6, 2^8, 2^10} and batch in {1, 8}. Small class: batch 1;
//!   large class: batch 8.
//!
//! Every workload reports the same end-to-end metrics, each over its own
//! cells (one cell per entry point and size):
//!
//! * `setup_s` — from nothing to the first correct output, median of
//!   repeated constructions;
//! * `small_vs_iterative`, `large_vs_iterative` — geomean over the
//!   class's cells of the cell's speed relative to the iterative radix-2
//!   baseline of `crates/baselines` (`IterativeFft`), run on the same
//!   inputs, interleaved; see [`Cell::vs_iterative`].
//!
//! The traced run adds the absolute figures: `e2e.p50_us` and
//! `e2e.p99_us` (geomean over cells of the per-call, or per-request,
//! latency quantile) and `e2e.ops_per_s` (geomean over cells of the calls
//! one caller completes per second at the mean call time; serve-mix:
//! responses per second of wall time over both connections).

use crate::fft::{self, Cell, Op};
use crate::inputs::Rng;
use crate::stats::{geomean, outputs_match};
use crate::trace::{Off, Recorder, Tracer};
use crate::{metric, Metric, Tally};
use spiral_fft::baselines::IterativeFft;
use spiral_fft::codegen::BatchExecutor;
use spiral_fft::spl::Cplx;
use spiral_fft::SpiralFft;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FftSeq,
    FftPar2,
    ServeMix,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "fft-seq" => Ok(Workload::FftSeq),
            "fft-par2" => Ok(Workload::FftPar2),
            "serve-mix" => Ok(Workload::ServeMix),
            _ => Err(format!("unknown workload {s}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FftSeq => "fft-seq",
            Workload::FftPar2 => "fft-par2",
            Workload::ServeMix => "serve-mix",
        }
    }
}

pub const SEQ_SMALL: [usize; 3] = [1 << 6, 1 << 8, 1 << 10];
pub const SEQ_LARGE: [usize; 3] = [1 << 14, 1 << 16, 1 << 18];
pub const PAR_SIZES: [usize; 5] = [1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16];
pub const BATCH_SIZES: [usize; 3] = [1 << 6, 1 << 8, 1 << 10];
/// Inputs per `try_execute_batch` call in `fft-par2`.
pub const BATCH: usize = 32;
/// Threads and client connections: the host's 2 CPUs.
pub const THREADS: usize = 2;
/// Constructions timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One workload run's results.
pub struct Run {
    pub setup_s: f64,
    pub small_vs_iterative: f64,
    pub large_vs_iterative: f64,
    /// Absolute latency and throughput (geomean over cells). They follow
    /// the host's speed, which drifts by tens of percent between runs
    /// here, so they are reported with the traced run, not bounded.
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops_per_s: f64,
    /// Measured calls (serve-mix: correct responses).
    pub samples: usize,
    pub tally: Tally,
}

impl Run {
    /// The end-to-end metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("small_vs_iterative", self.small_vs_iterative, "x"),
            metric("large_vs_iterative", self.large_vs_iterative, "x"),
        ]
    }
}

pub fn run<T: Tracer>(w: Workload, seed: u64, budget: Duration, tracer: &mut T) -> Run {
    match w {
        Workload::FftSeq => fft_seq(seed, budget, tracer),
        Workload::FftPar2 => fft_par2(seed, budget, tracer),
        Workload::ServeMix => crate::serve::serve_mix(seed, budget, tracer),
    }
}

/// End-to-end metrics, tracing off.
pub fn untraced(w: Workload, seed: u64, budget: Duration) -> (Tally, Vec<Metric>) {
    let run = run(w, seed, budget, &mut Off);
    (run.tally, run.metrics())
}

/// Per-layer metrics: the layer probes, then the workload once untraced
/// and once traced (half the budget each) for self times and overhead.
pub fn traced(w: Workload, seed: u64, budget: Duration) -> (Tally, Vec<Metric>) {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let (mut tally, mut metrics) = crate::layers::probe(seed, &mut rec);
    let plain = run(w, seed, budget / 2, &mut Off);
    let traced = run(w, seed, budget / 2, &mut rec);
    tally.absorb(&plain.tally);
    tally.absorb(&traced.tally);
    metrics.push(metric("e2e.p50_us", plain.p50_us, "us"));
    metrics.push(metric("e2e.p99_us", plain.p99_us, "us"));
    metrics.push(metric("e2e.ops_per_s", plain.ops_per_s, "1/s"));
    metrics.push(metric("e2e.samples", plain.samples as f64, "count"));
    // Tracing overhead: how much worse the traced half looked, in
    // percent of the untraced half.
    let worse = |untraced: f64, traced: f64| 100.0 * (untraced - traced) / untraced;
    metrics.push(metric(
        "trace.overhead_pct.small_vs_iterative",
        worse(plain.small_vs_iterative, traced.small_vs_iterative),
        "%",
    ));
    metrics.push(metric(
        "trace.overhead_pct.large_vs_iterative",
        worse(plain.large_vs_iterative, traced.large_vs_iterative),
        "%",
    ));
    metrics.push(metric(
        "trace.overhead_pct.p50_us",
        -worse(plain.p50_us, traced.p50_us),
        "%",
    ));
    metrics.push(metric("trace.spans", rec.span_count() as f64, "count"));
    for layer in crate::layers::LAYERS {
        let ns = rec
            .layer_self_ns()
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, ns)| *ns);
        metrics.push(metric(format!("self_ms.{layer}"), ns as f64 / 1e6, "ms"));
    }
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("trace-{}-{seed}.json", w.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.chrome_json())) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    eprintln!("perfbench: self time per span name (ms):");
    for t in rec.totals() {
        eprintln!(
            "  {:<28} {:>10} spans {:>12.3} total {:>12.3} self",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    (tally, metrics)
}

/// Record whether each first output matches the baseline.
fn check_first(tally: &mut Tally, outputs: &[(usize, &[Cplx], &[Cplx])]) {
    for &(n, x, y) in outputs {
        tally.record(outputs_match(y, &IterativeFft::new(n).run(x)));
    }
}

fn summarize(setup_s: f64, cells: &[Cell<'_>], tally: Tally) -> Run {
    eprintln!("perfbench: cell          n  samples    p50_us    p99_us  iter_p50_us  vs_iterative");
    for c in cells {
        eprintln!(
            "perfbench: {:<6} {:>8} {:>8} {:>9.2} {:>9.2} {:>12.2} {:>13.3}",
            c.label(),
            c.n,
            c.op_ns.len(),
            c.call_us(0.5),
            c.call_us(0.99),
            c.iterative_us(),
            c.vs_iterative(),
        );
    }
    let class = |small: bool| {
        geomean(
            cells
                .iter()
                .filter(|c| c.small == small)
                .map(Cell::vs_iterative),
        )
    };
    Run {
        setup_s,
        small_vs_iterative: class(true),
        large_vs_iterative: class(false),
        p50_us: geomean(cells.iter().map(|c| c.call_us(0.5))),
        p99_us: geomean(cells.iter().map(|c| c.call_us(0.99))),
        ops_per_s: geomean(cells.iter().map(Cell::calls_per_s)),
        samples: cells.iter().map(|c| c.op_ns.len()).sum(),
        tally,
    }
}

fn fft_seq<T: Tracer>(seed: u64, budget: Duration, tracer: &mut T) -> Run {
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed, 1);
    let sizes: Vec<usize> = SEQ_SMALL.iter().chain(&SEQ_LARGE).copied().collect();
    let firsts: Vec<Vec<Cplx>> = sizes.iter().map(|&n| rng.vector(n)).collect();
    let (setup_s, built) = fft::timed_setup(SETUP_REPS, || {
        let s = tracer.begin("bench.setup", 0);
        let built: Vec<(SpiralFft, Vec<Cplx>)> = sizes
            .iter()
            .zip(&firsts)
            .map(|(&n, x)| {
                let c = tracer.begin("facade.sequential", n as u64);
                let fft = SpiralFft::sequential(n);
                tracer.end(c);
                let f = tracer.begin("facade.forward", n as u64);
                let y = fft.forward(x);
                tracer.end(f);
                (fft, y)
            })
            .collect();
        tracer.end(s);
        built
    });
    let firsts_checked: Vec<(usize, &[Cplx], &[Cplx])> = sizes
        .iter()
        .zip(&firsts)
        .zip(&built)
        .map(|((&n, x), (_, y))| (n, x.as_slice(), y.as_slice()))
        .collect();
    check_first(&mut tally, &firsts_checked);
    let mut cells: Vec<Cell<'_>> = built
        .into_iter()
        .map(|(fft, _)| {
            let n = fft.len();
            Cell::new(Op::Forward(fft), n, SEQ_SMALL.contains(&n), 1, &mut rng)
        })
        .collect();
    fft::measure(&mut cells, budget, tracer, &mut tally);
    summarize(setup_s, &cells, tally)
}

fn fft_par2<T: Tracer>(seed: u64, budget: Duration, tracer: &mut T) -> Run {
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed, 2);
    let mu = spiral_fft::smp::topology::mu();
    let par_firsts: Vec<Vec<Cplx>> = PAR_SIZES.iter().map(|&n| rng.vector(n)).collect();
    let batch_firsts: Vec<Vec<Vec<Cplx>>> =
        BATCH_SIZES.iter().map(|&n| rng.vectors(BATCH, n)).collect();
    type Built = (
        BatchExecutor,
        Vec<(SpiralFft, Vec<Cplx>)>,
        Vec<(SpiralFft, Vec<Vec<Cplx>>)>,
    );
    let (setup_s, (exec, pars, seqs)): (f64, Built) = fft::timed_setup(SETUP_REPS, || {
        let s = tracer.begin("bench.setup", 0);
        let pars = PAR_SIZES
            .iter()
            .zip(&par_firsts)
            .map(|(&n, x)| {
                let c = tracer.begin("facade.parallel", n as u64);
                let fft = SpiralFft::parallel(n, THREADS, mu)
                    .unwrap_or_else(|e| panic!("DFT_{n} has a 2-thread plan: {e}"));
                tracer.end(c);
                let f = tracer.begin("facade.forward", n as u64);
                let y = fft.forward(x);
                tracer.end(f);
                (fft, y)
            })
            .collect();
        let p = tracer.begin("smp.pool_new", 0);
        let exec = BatchExecutor::new(THREADS);
        tracer.end(p);
        let seqs = BATCH_SIZES
            .iter()
            .zip(&batch_firsts)
            .map(|(&n, xs)| {
                let c = tracer.begin("facade.sequential", n as u64);
                let fft = SpiralFft::sequential(n);
                tracer.end(c);
                let b = tracer.begin("codegen.batch", n as u64);
                let ys = exec.try_execute_batch(fft.plan(), xs).unwrap_or_default();
                tracer.end(b);
                (fft, ys)
            })
            .collect();
        tracer.end(s);
        (exec, pars, seqs)
    });
    let mut firsts: Vec<(usize, &[Cplx], &[Cplx])> = Vec::new();
    for ((&n, x), (_, y)) in PAR_SIZES.iter().zip(&par_firsts).zip(&pars) {
        firsts.push((n, x, y));
    }
    for ((&n, xs), (_, ys)) in BATCH_SIZES.iter().zip(&batch_firsts).zip(&seqs) {
        if ys.len() != xs.len() {
            tally.record(false);
        }
        for (x, y) in xs.iter().zip(ys) {
            firsts.push((n, x, y));
        }
    }
    check_first(&mut tally, &firsts);
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for (fft, _) in pars {
        let n = fft.len();
        cells.push(Cell::new(Op::Forward(fft), n, n <= 1 << 10, 1, &mut rng));
    }
    for (fft, _) in seqs {
        let n = fft.len();
        let plan = fft.plan().clone();
        cells.push(Cell::new(
            Op::Batch { exec: &exec, plan },
            n,
            true,
            BATCH,
            &mut rng,
        ));
    }
    fft::measure(&mut cells, budget, tracer, &mut tally);
    summarize(setup_s, &cells, tally)
}
