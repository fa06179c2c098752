//! Layer probes for the traced run: each layer's public entry points
//! timed (or counted) from outside, one span around each probe. Every
//! traced run reports the same list, whatever its workload.
//!
//! Times are medians over blocks of calls, sized so that one block takes
//! at least [`BLOCK`]; counts are exact and repeat from run to run.

use crate::inputs::Rng;
use crate::serve::{self, Conn, Drive, Shape};
use crate::stats::{median, outputs_match};
use crate::trace::{Recorder, Tracer};
use crate::workloads::THREADS;
use crate::{alloc, metric, Metric, Tally};
use spiral_fft::baselines::IterativeFft;
use spiral_fft::codegen::plan::Step;
use spiral_fft::codegen::stage::Scratch;
use spiral_fft::codegen::{BatchExecutor, Codelet, ParallelExecutor, Plan, PlanWorkspace};
use spiral_fft::search::{CostModel, Tuned, Tuner};
use spiral_fft::serve::wire::{self, ReadEvent, Response};
use spiral_fft::smp::{BarrierKind, Pool};
use spiral_fft::spl::Cplx;
use spiral_fft::SpiralFft;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Layers whose self time the traced run reports (span name prefixes).
pub const LAYERS: [&str; 8] = [
    "bench",
    "facade",
    "search",
    "codegen",
    "verify",
    "smp",
    "serve",
    "baselines",
];

/// Sizes of the sequential probes (both fft-seq classes).
const SEQ_PROBE: [usize; 4] = [1 << 6, 1 << 10, 1 << 14, 1 << 18];
/// Sizes of the 2-thread parallel probes.
const PAR_PROBE: [usize; 3] = [1 << 8, 1 << 12, 1 << 16];
/// Sizes of the batch probes (32 transforms per call).
const BATCH_PROBE: [usize; 3] = [1 << 6, 1 << 8, 1 << 10];
const CODELETS: [usize; 5] = [2, 4, 8, 16, 32];
/// Transform size of the serving probes.
const SERVE_N: usize = 1 << 8;
/// Shortest block of calls one time sample covers.
const BLOCK: Duration = Duration::from_micros(50);
/// Time spent sampling each timed probe.
const PROBE: Duration = Duration::from_millis(40);
/// Closed-loop time of each serving probe phase.
const SERVE_PHASE: Duration = Duration::from_millis(400);

fn k(n: usize) -> u32 {
    n.trailing_zeros()
}

/// Median nanoseconds per call of `f`, timed in blocks.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed() >= BLOCK || calls >= 1 << 20 {
            break;
        }
        calls *= 2;
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < PROBE || samples.len() < 5 {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&mut samples)
}

/// Time `f` once, in milliseconds.
fn once_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// Kernel stages over all of a plan's programs.
fn stage_count(plan: &Plan) -> usize {
    plan.steps
        .iter()
        .map(|s| match s {
            Step::Seq(p) => p.stages.len(),
            Step::Par { programs, .. } => programs.iter().map(|p| p.stages.len()).sum(),
            Step::Exchange { .. } | Step::ScaleAll(_) => 0,
        })
        .sum()
}

/// Run every `LocalStage` of every program of `plan` once over the
/// program's own dimension, as the plan's steps would; the data passes
/// between steps (exchanges, scaling) are left out.
fn apply_stages(plan: &Plan, bufs: &mut [Vec<Cplx>; 2], scratch: &mut Scratch) {
    for step in &plan.steps {
        let programs: &[_] = match step {
            Step::Seq(p) => std::slice::from_ref(p),
            Step::Par { programs, .. } => programs,
            Step::Exchange { .. } | Step::ScaleAll(_) => &[],
        };
        for prog in programs {
            let [a, b] = &mut *bufs;
            for stage in &prog.stages {
                stage.apply(&a[..prog.dim], &mut b[..prog.dim], scratch);
                std::mem::swap(a, b);
            }
        }
    }
}

pub fn probe(seed: u64, rec: &mut Recorder) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let mut m: Vec<Metric> = Vec::new();
    let mut rng = Rng::new(seed, 9);
    let mu = spiral_fft::smp::topology::mu();

    // search + codegen lowering: tune, then lower the winning formula.
    let seq_tuner = Tuner::new(1, mu, CostModel::Analytic);
    let par_tuner = Tuner::new(THREADS, mu, CostModel::Analytic);
    let mut seq_plans: Vec<(usize, Plan)> = Vec::new();
    for &n in &SEQ_PROBE {
        let s = rec.begin("search.tune_sequential", n as u64);
        let (ms, tuned) = once_ms(|| seq_tuner.tune_sequential(n));
        rec.end(s);
        let tuned: Tuned = tuned.unwrap_or_else(|e| panic!("tuning DFT_{n}: {e}"));
        m.push(metric(format!("search.tune_ms.seq.n{}", k(n)), ms, "ms"));
        lower(rec, &mut m, "seq", n, &tuned, 1, mu);
        seq_plans.push((n, tuned.plan));
    }
    let (mut evaluated, mut quarantined) = (0usize, 0usize);
    let mut par_plans: Vec<(usize, Plan)> = Vec::new();
    for &n in &PAR_PROBE {
        let s = rec.begin("search.tune_parallel", n as u64);
        let (ms, outcome) = once_ms(|| par_tuner.tune_parallel_report(n));
        rec.end(s);
        let outcome = outcome.unwrap_or_else(|e| panic!("tuning 2-thread DFT_{n}: {e}"));
        evaluated += outcome.report.evaluated;
        quarantined += outcome.report.quarantined.len();
        let tuned = outcome
            .best
            .unwrap_or_else(|| panic!("DFT_{n} has a 2-thread plan"));
        m.push(metric(format!("search.tune_ms.par2.n{}", k(n)), ms, "ms"));
        lower(rec, &mut m, "par2", n, &tuned, THREADS, mu);
        par_plans.push((n, tuned.plan));
    }
    m.push(metric("search.evaluated", evaluated as f64, "count"));
    m.push(metric("search.quarantined", quarantined as f64, "count"));

    // Codelets, scalar and 4 lanes.
    for &size in &CODELETS {
        let c = Codelet::for_size(size);
        let x = rng.vector(size * 4);
        let mut out = vec![Cplx::ZERO; size * 4];
        let mut scratch = Vec::new();
        let s = rec.begin("codegen.codelet", size as u64);
        let ns = time_ns(|| {
            c.apply(
                std::hint::black_box(&x[..size]),
                &mut out[..size],
                &mut scratch,
            )
        });
        rec.end(s);
        m.push(metric(format!("codegen.codelet.ns.m{size}"), ns, "ns"));
        let s = rec.begin("codegen.codelet_lanes4", size as u64);
        let ns = time_ns(|| c.apply_lanes::<4>(std::hint::black_box(&x), &mut out, &mut scratch));
        rec.end(s);
        m.push(metric(
            format!("codegen.codelet_lanes4.ns.m{size}"),
            ns,
            "ns",
        ));
    }

    // Stages, plan steps, the facade, and the baseline, per size.
    for (n, plan) in &seq_plans {
        let n = *n;
        let x = rng.vector(n);
        let mut bufs = [x.clone(), vec![Cplx::ZERO; n]];
        let mut scratch = Scratch::default();
        let s = rec.begin("codegen.stage", n as u64);
        let stage_ns = time_ns(|| apply_stages(plan, &mut bufs, &mut scratch));
        rec.end(s);
        let mut ws = PlanWorkspace::default();
        let mut out = vec![Cplx::ZERO; n];
        let s = rec.begin("codegen.execute_into", n as u64);
        let exec_ns = time_ns(|| plan.execute_into(&x, &mut out, &mut ws));
        rec.end(s);
        tally.record(outputs_match(&out, &IterativeFft::new(n).run(&x)));
        m.push(metric(
            format!("codegen.stage.ns.n{}", k(n)),
            stage_ns,
            "ns",
        ));
        m.push(metric(
            format!("codegen.execute_into.ns.n{}", k(n)),
            exec_ns,
            "ns",
        ));
        m.push(metric(
            format!("codegen.step_overhead_ns.n{}", k(n)),
            exec_ns - stage_ns,
            "ns",
        ));
        let fft = SpiralFft::sequential(n);
        let s = rec.begin("facade.forward", n as u64);
        let fwd_ns = time_ns(|| {
            std::hint::black_box(fft.forward(&x));
        });
        rec.end(s);
        m.push(metric(
            format!("facade.forward_overhead_ns.n{}", k(n)),
            fwd_ns - exec_ns,
            "ns",
        ));
    }
    let mut iterative_ns = Vec::new();
    for n in (6..=18).step_by(2).map(|e| 1usize << e) {
        let b = IterativeFft::new(n);
        let x = rng.vector(n);
        let s = rec.begin("baselines.iterative", n as u64);
        iterative_ns.push((
            n,
            time_ns(|| {
                std::hint::black_box(b.run(&x));
            }),
        ));
        rec.end(s);
    }

    // Allocations per warm call, counted exactly (nothing else runs).
    {
        let n = 1 << 10;
        let plan = &seq_plans[1].1;
        let x = rng.vector(n);
        let mut ws = PlanWorkspace::default();
        let mut out = vec![Cplx::ZERO; n];
        let allocs = alloc::per_warm_call(|| plan.execute_into(&x, &mut out, &mut ws));
        m.push(metric(
            "codegen.execute_into.allocs",
            allocs as f64,
            "count",
        ));
        let fft = SpiralFft::sequential(n);
        let allocs = alloc::per_warm_call(|| {
            std::hint::black_box(fft.forward(&x));
        });
        m.push(metric("facade.forward.allocs", allocs as f64, "count"));
        let exec = BatchExecutor::new(THREADS);
        let xs = rng.vectors(32, n);
        let allocs = alloc::per_warm_call(|| {
            std::hint::black_box(exec.try_execute_batch(plan, &xs).ok());
        });
        m.push(metric("codegen.batch.allocs", allocs as f64, "count"));
    }

    // The pool and the barriers on 2 threads.
    {
        let pool = Pool::new(THREADS);
        let s = rec.begin("smp.pool.try_run", 0);
        let ns = time_ns(|| {
            let _ = pool.try_run(&|_| {});
        });
        rec.end(s);
        m.push(metric("smp.pool.dispatch_us", ns / 1e3, "us"));
        for (kind, name) in [(BarrierKind::Spin, "spin"), (BarrierKind::Park, "park")] {
            let barrier = kind.build(THREADS);
            let rounds = 20_000;
            let s = rec.begin("smp.barrier.wait", 0);
            let t = Instant::now();
            std::thread::scope(|scope| {
                for _ in 1..THREADS {
                    scope.spawn(|| {
                        (0..rounds).for_each(|_| {
                            barrier.wait();
                        })
                    });
                }
                (0..rounds).for_each(|_| {
                    barrier.wait();
                });
            });
            rec.end(s);
            let us = t.elapsed().as_secs_f64() * 1e6 / rounds as f64;
            m.push(metric(format!("smp.barrier.round_us.{name}"), us, "us"));
        }
    }

    // Parallel plans against half the sequential time at the same size.
    let exec = ParallelExecutor::with_auto_barrier(THREADS);
    let seq_tuner_plans: Vec<Plan> = PAR_PROBE
        .iter()
        .map(|&n| {
            seq_tuner
                .tune_sequential(n)
                .expect("sequential tuning")
                .plan
        })
        .collect();
    for ((n, plan), seq) in par_plans.iter().zip(&seq_tuner_plans) {
        let n = *n;
        let x = rng.vector(n);
        let s = rec.begin("codegen.parallel", n as u64);
        let par_ns = time_ns(|| {
            std::hint::black_box(exec.execute(plan, &x));
        });
        rec.end(s);
        tally.record(outputs_match(
            &exec.execute(plan, &x),
            &IterativeFft::new(n).run(&x),
        ));
        let mut ws = PlanWorkspace::default();
        let mut out = vec![Cplx::ZERO; n];
        let seq_ns = time_ns(|| seq.execute_into(&x, &mut out, &mut ws));
        m.push(metric(
            format!("codegen.parallel.ns.n{}", k(n)),
            par_ns,
            "ns",
        ));
        m.push(metric(
            format!("codegen.parallel.sync_us.n{}", k(n)),
            (par_ns - seq_ns / THREADS as f64) / 1e3,
            "us",
        ));
    }

    // Batches of 32 on the pool.
    let batch = BatchExecutor::new(THREADS);
    for &n in &BATCH_PROBE {
        let plan = seq_tuner
            .tune_sequential(n)
            .expect("sequential tuning")
            .plan;
        let xs = rng.vectors(32, n);
        let s = rec.begin("codegen.batch", n as u64);
        let ns = time_ns(|| {
            std::hint::black_box(batch.try_execute_batch(&plan, &xs).ok());
        });
        rec.end(s);
        m.push(metric(
            format!("codegen.batch.ns_per_transform.n{}", k(n)),
            ns / 32.0,
            "ns",
        ));
    }

    serving(seed, rec, &mut tally, &mut m);
    for (n, ns) in iterative_ns {
        m.push(metric(
            format!("baselines.iterative_ns.n{}", k(n)),
            ns,
            "ns",
        ));
    }
    (tally, m)
}

/// Lower a tuned formula again (`Plan::from_formula` then
/// `fuse_exchanges`) and report the time and the plan's shape.
fn lower(
    rec: &mut Recorder,
    m: &mut Vec<Metric>,
    tag: &str,
    n: usize,
    tuned: &Tuned,
    threads: usize,
    mu: usize,
) {
    let s = rec.begin("codegen.lower", n as u64);
    let (ms, plan) =
        once_ms(|| Plan::from_formula(&tuned.formula, threads, mu).map(Plan::fuse_exchanges));
    rec.end(s);
    let plan = plan.unwrap_or_else(|e| panic!("lowering the tuned DFT_{n}: {e}"));
    m.push(metric(
        format!("codegen.lower_ms.{tag}.n{}", k(n)),
        ms,
        "ms",
    ));
    m.push(metric(
        format!("codegen.plan.stages.{tag}.n{}", k(n)),
        stage_count(&plan) as f64,
        "count",
    ));
    m.push(metric(
        format!("codegen.plan.flops.{tag}.n{}", k(n)),
        plan.flops() as f64,
        "count",
    ));
    m.push(metric(
        format!("codegen.plan.barriers.{tag}.n{}", k(n)),
        plan.barriers() as f64,
        "count",
    ));
}

/// Serving layers: certification of the plans serve-mix loads, wisdom
/// load, the plan cache, the wire codec, batch execution, and client
/// round trips at n = 2^8 with batch 1 and 8.
fn serving(seed: u64, rec: &mut Recorder, tally: &mut Tally, m: &mut Vec<Metric>) {
    let mut rng = Rng::new(seed, 10);
    let path = serve::wisdom_path("probe");
    let all_plans = serve::write_wisdom(&path, &serve::SERVE_SIZES);
    let at = serve::SERVE_SIZES
        .iter()
        .position(|&n| n == SERVE_N)
        .expect("the probe size is a served size");
    let plans = &all_plans[at..=at];
    let s = rec.begin("verify.certify", 0);
    let (certify_ms, reports) = once_ms(|| {
        all_plans
            .iter()
            .map(|p| spiral_verify::certify::certify_plan(p, &Default::default()))
            .collect::<Vec<_>>()
    });
    rec.end(s);
    tally.record(reports.iter().all(|r| r.is_certified()));
    m.push(metric("verify.certify_ms", certify_ms, "ms"));

    let sv = serve::start(&path, rec);
    m.push(metric("serve.wisdom_open_ms", sv.wisdom_open_s * 1e3, "ms"));
    let s = rec.begin("serve.cache_hit", SERVE_N as u64);
    let hit_ns = time_ns(|| {
        std::hint::black_box(sv.service.sequential_plan(SERVE_N).ok());
    });
    rec.end(s);
    m.push(metric("serve.cache.hit_ns", hit_ns, "ns"));

    for batch in [1usize, 8] {
        let shapes: Vec<Shape> = serve::shapes(&mut rng, &[SERVE_N], &[batch], plans);
        let inputs = rng.vectors(batch, SERVE_N);
        let request = spiral_fft::serve::request_from_inputs(7, 0, &inputs);
        let outputs: Vec<Cplx> = inputs.iter().flat_map(|x| plans[0].execute(x)).collect();
        let response = Response::Ok {
            id: 7,
            data: outputs,
        };
        let s = rec.begin("serve.wire", batch as u64);
        let wire_ns = time_ns(|| {
            let frame = wire::encode_request(&request);
            let got = wire::read_request(&mut Cursor::new(frame), wire::MAX_FRAME_BYTES);
            std::hint::black_box(matches!(got, Ok(ReadEvent::Request(_))));
            let frame = wire::encode_response(&response);
            std::hint::black_box(wire::read_response(&mut Cursor::new(frame)).ok());
        });
        rec.end(s);
        let s = rec.begin("serve.exec", batch as u64);
        let exec_ns = time_ns(|| {
            std::hint::black_box(sv.service.serve_batch(SERVE_N, &inputs).ok());
        });
        rec.end(s);
        let mut conn = vec![Conn::open(&sv.server, &shapes, seed, 50 + batch as u64)];
        let mut d = Drive::new(shapes.len());
        serve::drive(
            &mut conn,
            &shapes,
            Instant::now() + SERVE_PHASE,
            rec,
            &mut d,
        );
        tally.absorb(&d.tally);
        let p50_ns = median(&mut d.rtt_ns[0]);
        let tag = format!("b{batch}");
        m.push(metric(format!("serve.wire.us.{tag}"), wire_ns / 1e3, "us"));
        m.push(metric(format!("serve.exec_us.{tag}"), exec_ns / 1e3, "us"));
        m.push(metric(format!("serve.p50_us.{tag}"), p50_ns / 1e3, "us"));
        m.push(metric(
            format!("serve.hop_us.{tag}"),
            (p50_ns - wire_ns - exec_ns) / 1e3,
            "us",
        ));
    }

    // Two connections at batch 8, for coalescing and queueing.
    let shapes = serve::shapes(&mut rng, &[SERVE_N], &[8], plans);
    let before = sv.server.counters();
    let mut conns: Vec<Conn> = (0..THREADS as u64)
        .map(|i| Conn::open(&sv.server, &shapes, seed, 60 + i))
        .collect();
    let mut d = Drive::new(shapes.len());
    serve::drive(
        &mut conns,
        &shapes,
        Instant::now() + SERVE_PHASE,
        rec,
        &mut d,
    );
    tally.absorb(&d.tally);
    let after = sv.server.counters();
    let tuner = sv.service.tuner_invocations();
    let drain = serve::finish(sv, conns, tally);
    let dispatches = (after.dispatches - before.dispatches).max(1);
    let coalesced = after.coalesced - before.coalesced;
    m.push(metric(
        "serve.coalesced_per_dispatch",
        coalesced as f64 / dispatches as f64,
        "count",
    ));
    m.push(metric(
        "serve.exec_queue_max_depth",
        drain.exec_max_depth as f64,
        "count",
    ));
    m.push(metric("serve.tuner_invocations", tuner as f64, "count"));
}
