//! The `serve-mix` workload and the serving harness the layer probes
//! share: an in-process `Server` over `PlanService::with_wisdom`, started
//! from a wisdom file written untimed beforehand, driven by persistent
//! client connections in closed loops.

use crate::inputs::Rng;
use crate::stats::{geomean, median, outputs_match, quantile};
use crate::trace::Tracer;
use crate::workloads::{Run, THREADS};
use crate::Tally;
use spiral_fft::baselines::IterativeFft;
use spiral_fft::codegen::Plan;
use spiral_fft::serve::wire::{self, Request, Response};
use spiral_fft::serve::{Client, DrainReport, PlanService, Server, ServerConfig};
use spiral_fft::spl::Cplx;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SERVE_SIZES: [usize; 3] = [1 << 6, 1 << 8, 1 << 10];
pub const SERVE_BATCHES: [usize; 2] = [1, 8];
/// Distinct seeded requests per shape; clients cycle through them.
const VARIANTS: usize = 2;
/// Serving constructions timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Measurement windows: each serves, then times the baseline briefly.
const WINDOW: Duration = Duration::from_millis(500);
const BASELINE_SHARE: f64 = 0.1;

/// One request shape (n, batch) with its seeded requests and their
/// expected outputs, computed by `Plan::execute` on the same inputs.
pub struct Shape {
    pub n: usize,
    pub batch: usize,
    requests: Vec<Request>,
    expect: Vec<Vec<Cplx>>,
}

impl Shape {
    fn matches(&self, variant: usize, data: &[Cplx]) -> bool {
        let want = &self.expect[variant];
        data.len() == want.len()
            && data
                .chunks(self.n)
                .zip(want.chunks(self.n))
                .all(|(g, w)| outputs_match(g, w))
    }
}

pub fn wisdom_path(tag: &str) -> PathBuf {
    Path::new(".perfbench").join(format!("wisdom-{tag}.json"))
}

/// Tune the sequential plans for `sizes` into a fresh wisdom file at
/// `path` (untimed) and return them for computing expected outputs.
pub fn write_wisdom(path: &Path, sizes: &[usize]) -> Vec<Arc<Plan>> {
    let _ = std::fs::remove_file(path);
    let mu = spiral_fft::smp::topology::mu();
    let (svc, _) = PlanService::with_wisdom(THREADS, mu, path);
    let plans = sizes
        .iter()
        .map(|&n| {
            let served = svc
                .sequential_plan(n)
                .unwrap_or_else(|e| panic!("tuning DFT_{n} for wisdom failed: {e}"));
            served.plan.clone()
        })
        .collect();
    if let Err(e) = svc.save_wisdom() {
        panic!("cannot write wisdom file {}: {e}", path.display());
    }
    plans
}

/// Shapes for every (size, batch) pair, with seeded inputs.
pub fn shapes(
    rng: &mut Rng,
    sizes: &[usize],
    batches: &[usize],
    plans: &[Arc<Plan>],
) -> Vec<Shape> {
    let mut out = Vec::new();
    for (&n, plan) in sizes.iter().zip(plans) {
        for &batch in batches {
            let mut requests = Vec::new();
            let mut expect = Vec::new();
            for _ in 0..VARIANTS {
                let inputs = rng.vectors(batch, n);
                expect.push(inputs.iter().flat_map(|x| plan.execute(x)).collect());
                requests.push(spiral_fft::serve::request_from_inputs(0, 0, &inputs));
            }
            out.push(Shape {
                n,
                batch,
                requests,
                expect,
            });
        }
    }
    out
}

/// A running server, its plan service, and how long opening the
/// wisdom store took.
pub struct Serving {
    pub service: Arc<PlanService>,
    pub server: Server,
    pub wisdom_open_s: f64,
}

/// Open the wisdom file into a plan service and start a server on an
/// ephemeral loopback port.
pub fn start<T: Tracer>(path: &Path, tracer: &mut T) -> Serving {
    let mu = spiral_fft::smp::topology::mu();
    let w = tracer.begin("serve.wisdom_open", 0);
    let t = Instant::now();
    let (service, report) = PlanService::with_wisdom(THREADS, mu, path);
    let wisdom_open_s = t.elapsed().as_secs_f64();
    tracer.end(w);
    assert!(
        report.rejected.is_empty() && report.discarded.is_none(),
        "wisdom written moments ago must load: {}",
        report.summary()
    );
    let service = Arc::new(service);
    let s = tracer.begin("serve.server_start", 0);
    let cfg = ServerConfig {
        workers: THREADS,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&service), cfg).expect("loopback server starts");
    tracer.end(s);
    Serving {
        service,
        server,
        wisdom_open_s,
    }
}

/// One request round trip, timed from encode to decoded response;
/// returns whether the response is OK and correct, and the nanoseconds.
fn round_trip<T: Tracer>(
    client: &mut Client,
    shape: &Shape,
    request: &Request,
    variant: usize,
    tracer: &mut T,
) -> (bool, f64) {
    let id = request.id;
    let s = tracer.begin("serve.request", id);
    let t = Instant::now();
    let e = tracer.begin("serve.wire.encode", id);
    let frame = wire::encode_request(request);
    tracer.end(e);
    let r = tracer.begin("serve.roundtrip", id);
    let response = wire::write_all(client.stream_mut(), &frame)
        .and_then(|()| wire::read_response(client.stream_mut()));
    tracer.end(r);
    let ns = t.elapsed().as_nanos() as f64;
    tracer.end(s);
    let c = tracer.begin("bench.check", id);
    let ok = matches!(&response, Ok(Response::Ok { id: got, data }) if *got == id && shape.matches(variant, data));
    tracer.end(c);
    (ok, ns)
}

/// What one closed-loop client saw.
pub struct Drive {
    /// Round-trip nanoseconds of the correct responses, per shape.
    pub rtt_ns: Vec<Vec<f64>>,
    pub tally: Tally,
}

/// A persistent client connection with its own copies of the requests.
pub struct Conn {
    client: Client,
    requests: Vec<Vec<Request>>,
    rng: Rng,
    next_id: u64,
}

impl Conn {
    pub fn open(server: &Server, shapes: &[Shape], seed: u64, index: u64) -> Conn {
        Conn {
            client: Client::connect(server.local_addr()).expect("loopback connect"),
            requests: shapes.iter().map(|s| s.requests.clone()).collect(),
            rng: Rng::new(seed, 100 + index),
            next_id: (index + 1) << 40,
        }
    }

    /// Closed loop until `until`: draw a shape and variant, send, wait,
    /// check.
    fn run<T: Tracer>(
        &mut self,
        shapes: &[Shape],
        until: Instant,
        tracer: &mut T,
        out: &mut Drive,
    ) {
        while Instant::now() < until {
            let c = self.rng.below(shapes.len());
            let v = self.rng.below(VARIANTS);
            let request = &mut self.requests[c][v];
            request.id = self.next_id;
            self.next_id += 1;
            let (ok, ns) = round_trip(&mut self.client, &shapes[c], request, v, tracer);
            out.tally.record(ok);
            if ok {
                out.rtt_ns[c].push(ns);
            }
        }
    }
}

/// Run every connection in its own thread until `until`; merge results.
pub fn drive<T: Tracer>(
    conns: &mut [Conn],
    shapes: &[Shape],
    until: Instant,
    tracer: &mut T,
    out: &mut Drive,
) {
    let results: Vec<(Drive, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let mut t = tracer.fork(1 + i as u32);
                scope.spawn(move || {
                    let mut d = Drive::new(shapes.len());
                    conn.run(shapes, until, &mut t, &mut d);
                    (d, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (d, t) in results {
        out.tally.absorb(&d.tally);
        for (all, mine) in out.rtt_ns.iter_mut().zip(d.rtt_ns) {
            all.extend(mine);
        }
        tracer.join(t);
    }
}

impl Drive {
    pub fn new(shapes: usize) -> Drive {
        Drive {
            rtt_ns: vec![Vec::new(); shapes],
            tally: Tally::default(),
        }
    }
}

/// Drain the server and check that no plan was tuned while serving.
pub fn finish(serving: Serving, conns: Vec<Conn>, tally: &mut Tally) -> DrainReport {
    drop(conns);
    let report = serving.server.shutdown();
    tally.record(serving.service.tuner_invocations() == 0 && report.thread_panics == 0);
    report
}

pub fn serve_mix<T: Tracer>(seed: u64, budget: Duration, tracer: &mut T) -> Run {
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed, 3);
    let path = wisdom_path("serve-mix");
    let plans = write_wisdom(&path, &SERVE_SIZES);
    let shapes = shapes(&mut rng, &SERVE_SIZES, &SERVE_BATCHES, &plans);

    // Set-up: wisdom load with certification, server start, connect,
    // and the first correct response.
    let mut setup_s = Vec::new();
    let mut serving = None;
    for rep in 0..SETUP_REPS {
        let s = tracer.begin("bench.setup", rep as u64);
        let t = Instant::now();
        let sv = start(&path, tracer);
        let mut client = Client::connect(sv.server.local_addr()).expect("loopback connect");
        let (ok, _) = round_trip(&mut client, &shapes[0], &shapes[0].requests[0], 0, tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.end(s);
        tally.record(ok);
        drop(client);
        if rep + 1 == SETUP_REPS {
            serving = Some(sv);
        } else {
            finish(sv, Vec::new(), &mut tally);
        }
    }
    let serving = serving.expect("at least one setup repetition");
    let mut conns: Vec<Conn> = (0..THREADS)
        .map(|i| Conn::open(&serving.server, &shapes, seed, i as u64))
        .collect();

    // Measurement: windows of serving, each followed by a short run of
    // the baseline on the same inputs while the server idles. Each
    // window's served medians are paired with its own baseline medians.
    let baselines: Vec<IterativeFft> = SERVE_SIZES.iter().map(|&n| IterativeFft::new(n)).collect();
    let mut window_ratios: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    let mut all = Drive::new(shapes.len());
    let mut iter_all: Vec<Vec<f64>> = vec![Vec::new(); SERVE_SIZES.len()];
    let mut serve_s = 0.0;
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < budget {
        let mut window = Drive::new(shapes.len());
        let t = Instant::now();
        drive(
            &mut conns,
            &shapes,
            t + WINDOW.mul_f64(1.0 - BASELINE_SHARE),
            tracer,
            &mut window,
        );
        serve_s += t.elapsed().as_secs_f64();
        let mut iter_ns: Vec<Vec<f64>> = vec![Vec::new(); SERVE_SIZES.len()];
        let until = Instant::now() + WINDOW.mul_f64(BASELINE_SHARE);
        while Instant::now() < until {
            for ((b, ns), shape) in baselines
                .iter()
                .zip(&mut iter_ns)
                .zip(shapes.iter().step_by(SERVE_BATCHES.len()))
            {
                let x = &shape.requests[k % VARIANTS].data[..shape.n];
                let s = tracer.begin("baselines.iterative", k as u64);
                let t = Instant::now();
                let y = b.run(x);
                ns.push(t.elapsed().as_nanos() as f64);
                tracer.end(s);
                std::hint::black_box(y);
            }
            k += 1;
        }
        for ((shape, rtt), ratios) in shapes
            .iter()
            .zip(&mut window.rtt_ns)
            .zip(&mut window_ratios)
        {
            if !rtt.is_empty() {
                let iter = median(&mut iter_ns[size_index(shape.n)]);
                ratios.push(shape.batch as f64 * iter / median(rtt));
            }
        }
        all.tally.absorb(&window.tally);
        for (a, w) in all.rtt_ns.iter_mut().zip(window.rtt_ns) {
            a.extend(w);
        }
        for (a, w) in iter_all.iter_mut().zip(iter_ns) {
            a.extend(w);
        }
    }
    finish(serving, conns, &mut tally);
    tally.absorb(&all.tally);

    eprintln!(
        "perfbench: shape        n  batch  samples    p50_us    p99_us  iter_p50_us  vs_iterative"
    );
    let (mut small, mut large, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for ((shape, rtt), ratios) in shapes.iter().zip(&mut all.rtt_ns).zip(&mut window_ratios) {
        let ratio = quantile(ratios, crate::fft::PAIR_QUANTILE);
        let (med, tail) = (median(rtt) / 1e3, quantile(rtt, 0.99) / 1e3);
        eprintln!(
            "perfbench: serve  {:>8} {:>6} {:>8} {:>9.2} {:>9.2} {:>12.2} {:>13.4}",
            shape.n,
            shape.batch,
            rtt.len(),
            med,
            tail,
            median(&mut iter_all[size_index(shape.n)]) / 1e3,
            ratio
        );
        if shape.batch == 1 {
            small.push(ratio)
        } else {
            large.push(ratio)
        }
        p50.push(med);
        p99.push(tail);
    }
    let responses: usize = all.rtt_ns.iter().map(Vec::len).sum();
    Run {
        setup_s: median(&mut setup_s),
        small_vs_iterative: geomean(small),
        large_vs_iterative: geomean(large),
        p50_us: geomean(p50),
        p99_us: geomean(p99),
        ops_per_s: responses as f64 / serve_s,
        samples: responses,
        tally,
    }
}

fn size_index(n: usize) -> usize {
    SERVE_SIZES
        .iter()
        .position(|&s| s == n)
        .expect("a served size")
}
