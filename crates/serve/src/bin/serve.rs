//! `serve` — the serving-tier binary: in-process benchmark, network
//! server, and load driver.
//!
//! Three modes:
//!
//! * **bench** (default, also with no subcommand — CI's serve-smoke
//!   invokes it with bare flags): build a [`PlanService`], feed it a
//!   deterministic stream of batched small-DFT requests in-process, and
//!   report throughput plus cache/tuner counters. Exits non-zero under
//!   `--assert-no-tuning` if any request reached the tuner.
//! * **listen**: run the network tier ([`spiral_serve::Server`]) on an
//!   address, printing the bound address, until the duration elapses
//!   (`--duration-s 0` = forever).
//! * **load**: drive concurrent client connections at a running server
//!   and report the response mix and latency percentiles.
//!
//! Argument handling is strict: unknown flags, non-numeric values, and
//! zero values for `--threads`/`--batch`/`--requests` (and the other
//! counts) exit 2 with the usage string.

use spiral_serve::{LoadSpec, PlanService, Server, ServerConfig};
use spiral_smp::topology::{self, HostFingerprint};
use spiral_spl::cplx::Cplx;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: serve [bench] [--threads P] [--mu M] [--sizes N1,N2,...] [--batch B] \
[--requests R] [--wisdom PATH] [--assert-no-tuning] [--seed S]
       serve listen [--addr HOST:PORT] [--workers W] [--threads P] [--mu M] [--wisdom PATH] \
[--deadline-ms D] [--queue-bound Q] [--conn-backlog C] [--duration-s T] [--flight-record PATH]
       serve load [--addr HOST:PORT] [--connections C] [--requests R] [--n N] [--batch B] \
[--deadline-ms D] [--reconnect 0|1] [--seed S]
       serve stats [--addr HOST:PORT] [--format prom|json|dump] [--out PATH]";

fn usage_exit(reason: &str) -> ! {
    if !reason.is_empty() {
        eprintln!("serve: {reason}");
    }
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Flag cursor over the argument list: every flag takes a value.
struct Args {
    args: Vec<String>,
    i: usize,
}

impl Args {
    fn next_flag(&mut self) -> Option<String> {
        let f = self.args.get(self.i).cloned();
        if f.is_some() {
            self.i += 1;
        }
        f
    }

    fn value(&mut self, flag: &str) -> String {
        match self.args.get(self.i) {
            Some(v) => {
                self.i += 1;
                v.clone()
            }
            None => usage_exit(&format!("{flag} needs a value")),
        }
    }

    /// A count that must be a positive integer.
    fn positive(&mut self, flag: &str) -> usize {
        let v = self.value(flag);
        match v.parse::<usize>() {
            Ok(0) => usage_exit(&format!("{flag} must be positive, got 0")),
            Ok(k) => k,
            Err(_) => usage_exit(&format!("{flag} needs a positive integer, got '{v}'")),
        }
    }

    /// A numeric value where 0 is meaningful (seeds, durations,
    /// "use the default" deadlines).
    fn number(&mut self, flag: &str) -> u64 {
        let v = self.value(flag);
        v.parse::<u64>()
            .unwrap_or_else(|_| usage_exit(&format!("{flag} needs an integer, got '{v}'")))
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match raw.first().map(String::as_str) {
        Some("bench") => ("bench", raw[1..].to_vec()),
        Some("listen") => ("listen", raw[1..].to_vec()),
        Some("load") => ("load", raw[1..].to_vec()),
        Some("stats") => ("stats", raw[1..].to_vec()),
        Some("--help" | "-h") => usage_exit(""),
        Some(s) if !s.starts_with("--") => usage_exit(&format!("unknown subcommand '{s}'")),
        // Bare flags: the historical invocation, kept as bench mode.
        _ => ("bench", raw),
    };
    let mut args = Args { args: rest, i: 0 };
    match mode {
        "bench" => run_bench(&mut args),
        "listen" => run_listen(&mut args),
        "load" => run_load(&mut args),
        "stats" => run_stats(&mut args),
        _ => unreachable!("mode set above"),
    }
}

// --- bench mode -------------------------------------------------------

struct BenchOpts {
    threads: usize,
    mu: usize,
    sizes: Vec<usize>,
    batch: usize,
    requests: usize,
    wisdom: Option<String>,
    assert_no_tuning: bool,
    seed: u64,
}

fn run_bench(args: &mut Args) {
    let mut opts = BenchOpts {
        threads: topology::processors(),
        mu: topology::mu(),
        sizes: vec![64, 256, 1024],
        batch: 32,
        requests: 64,
        wisdom: None,
        assert_no_tuning: false,
        seed: 1,
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--threads" => opts.threads = args.positive("--threads"),
            "--mu" => opts.mu = args.positive("--mu"),
            "--sizes" => {
                let v = args.value("--sizes");
                opts.sizes = v
                    .split(',')
                    .map(|s| match s.trim().parse::<usize>() {
                        Ok(0) | Err(_) => {
                            usage_exit(&format!("--sizes needs positive integers, got '{s}'"))
                        }
                        Ok(k) => k,
                    })
                    .collect();
                if opts.sizes.is_empty() {
                    usage_exit("--sizes needs at least one size");
                }
            }
            "--batch" => opts.batch = args.positive("--batch"),
            "--requests" => opts.requests = args.positive("--requests"),
            "--wisdom" => opts.wisdom = Some(args.value("--wisdom")),
            "--assert-no-tuning" => opts.assert_no_tuning = true,
            "--seed" => opts.seed = args.number("--seed"),
            "--help" | "-h" => usage_exit(""),
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    bench(&opts);
}

/// Deterministic request stream: splitmix64 over the seed.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

fn batch_inputs(rng: &mut Stream, b: usize, n: usize) -> Vec<Vec<Cplx>> {
    (0..b)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let re = (rng.next() % 2000) as f64 / 1000.0 - 1.0;
                    let im = (rng.next() % 2000) as f64 / 1000.0 - 1.0;
                    Cplx::new(re, im)
                })
                .collect()
        })
        .collect()
}

fn open_service(threads: usize, mu: usize, wisdom: Option<&str>) -> PlanService {
    match wisdom {
        Some(path) => {
            let (svc, report) = PlanService::with_wisdom(threads, mu, path);
            println!("{} ({})", report.summary(), path);
            for r in &report.rejected {
                println!(
                    "  rejected n={} p={} mu={}: {}",
                    r.n, r.threads, r.mu, r.reason
                );
            }
            svc
        }
        None => PlanService::new(threads, mu),
    }
}

fn bench(opts: &BenchOpts) {
    println!("host: {}", HostFingerprint::current());
    let service = open_service(opts.threads, opts.mu, opts.wisdom.as_deref());

    // Warm phase: plan every size once (tunes on a cold service, loads
    // from wisdom on a warm one). Timed separately from serving.
    let t_plan = Instant::now();
    for &n in &opts.sizes {
        let served = service
            .sequential_plan(n)
            .unwrap_or_else(|e| panic!("planning DFT_{n} failed: {e}"));
        println!(
            "plan DFT_{n}: {:?} via {} (cost {:.0})",
            served.source, served.choice, served.cost
        );
    }
    let plan_secs = t_plan.elapsed().as_secs_f64();

    // Serve phase: deterministic mixed-size batched request stream.
    let mut rng = Stream(opts.seed);
    let mut transforms = 0usize;
    let t_serve = Instant::now();
    for r in 0..opts.requests {
        let seed_off = usize::try_from(opts.seed % opts.sizes.len() as u64)
            .expect("residue below sizes length");
        let n = opts.sizes[(r + seed_off) % opts.sizes.len()];
        let inputs = batch_inputs(&mut rng, opts.batch, n);
        let out = service
            .serve_batch(n, &inputs)
            .unwrap_or_else(|e| panic!("request {r} (DFT_{n} x{}) failed: {e}", opts.batch));
        transforms += out.len();
    }
    let serve_secs = t_serve.elapsed().as_secs_f64();

    println!(
        "served {} requests ({} transforms, batch {}) on {} threads",
        opts.requests, transforms, opts.batch, opts.threads
    );
    println!(
        "planning {:.3} s; serving {:.3} s  ->  {:.0} transforms/s, {:.0} batches/s",
        plan_secs,
        serve_secs,
        transforms as f64 / serve_secs.max(1e-12),
        opts.requests as f64 / serve_secs.max(1e-12),
    );
    println!(
        "cache: {} plans, {} hits, {} misses; tuner invocations: {}; wisdom save failures: {}",
        service.cached_plans(),
        service.cache_hits(),
        service.cache_misses(),
        service.tuner_invocations(),
        service.wisdom_save_failures(),
    );
    if let Err(e) = service.save_wisdom() {
        eprintln!("warning: wisdom save failed: {e}");
    }

    if opts.assert_no_tuning && service.tuner_invocations() > 0 {
        eprintln!(
            "FAIL: --assert-no-tuning, but the tuner ran {} time(s) — wisdom was cold or stale",
            service.tuner_invocations()
        );
        std::process::exit(1);
    }
}

// --- listen mode ------------------------------------------------------

fn run_listen(args: &mut Args) {
    let mut cfg = ServerConfig::default();
    let mut threads = topology::processors();
    let mut mu = topology::mu();
    let mut wisdom: Option<String> = None;
    let mut duration_s: u64 = 0;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--addr" => cfg.addr = args.value("--addr"),
            "--workers" => cfg.workers = args.positive("--workers"),
            "--threads" => threads = args.positive("--threads"),
            "--mu" => mu = args.positive("--mu"),
            "--wisdom" => wisdom = Some(args.value("--wisdom")),
            "--deadline-ms" => {
                let ms = args.number("--deadline-ms");
                if ms > 0 {
                    cfg.default_deadline = Duration::from_millis(ms);
                }
            }
            "--queue-bound" => cfg.queue_bound = args.positive("--queue-bound"),
            "--conn-backlog" => cfg.conn_backlog = args.positive("--conn-backlog"),
            "--duration-s" => duration_s = args.number("--duration-s"),
            "--flight-record" => {
                cfg.flight_record_path =
                    Some(std::path::PathBuf::from(args.value("--flight-record")));
            }
            "--help" | "-h" => usage_exit(""),
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    let service = std::sync::Arc::new(open_service(threads, mu, wisdom.as_deref()));
    let server = match Server::start(service, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start server: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    if duration_s == 0 {
        // Run until killed; park the main thread.
        loop {
            std::thread::park();
        }
    }
    std::thread::sleep(Duration::from_secs(duration_s));
    let report = server.shutdown();
    let c = report.counters;
    println!(
        "drained: {} requests ({} ok, {} overloaded, {} expired, {} errors); \
         {} protocol errors; degraded: {}",
        c.requests, c.ok, c.overloaded, c.expired, c.errors, c.protocol_errors, report.degraded
    );
    if let Some(e) = report.wisdom_error {
        eprintln!("warning: wisdom save failed: {e}");
    }
    if report.thread_panics > 0 {
        eprintln!("FAIL: {} server thread(s) panicked", report.thread_panics);
        std::process::exit(1);
    }
}

// --- stats mode -------------------------------------------------------

fn run_stats(args: &mut Args) {
    let mut addr = "127.0.0.1:7348".to_string();
    let mut kind = spiral_serve::StatsKind::Json;
    let mut out: Option<String> = None;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--addr" => addr = args.value("--addr"),
            "--format" => {
                kind = match args.value("--format").as_str() {
                    "json" => spiral_serve::StatsKind::Json,
                    "prom" => spiral_serve::StatsKind::Prom,
                    "dump" => spiral_serve::StatsKind::Dump,
                    v => usage_exit(&format!("--format needs prom, json, or dump, got '{v}'")),
                }
            }
            "--out" => out = Some(args.value("--out")),
            "--help" | "-h" => usage_exit(""),
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    let addr: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(_) => usage_exit(&format!("--addr needs HOST:PORT, got '{addr}'")),
    };
    let mut client = match spiral_serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let body = match client.stats(kind) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("serve: stats exchange failed: {e}");
            std::process::exit(1);
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &body) {
                eprintln!("serve: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {} bytes to {path}", body.len());
        }
        None => println!("{body}"),
    }
}

// --- load mode --------------------------------------------------------

fn run_load(args: &mut Args) {
    let mut addr = "127.0.0.1:7348".to_string();
    let mut spec = LoadSpec {
        addr: "127.0.0.1:0".parse().expect("literal address parses"),
        connections: 4,
        requests_per_conn: 64,
        n: 256,
        batch: 8,
        deadline_ms: 0,
        reconnect_per_request: false,
        seed: 1,
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--addr" => addr = args.value("--addr"),
            "--connections" => spec.connections = args.positive("--connections"),
            "--requests" => spec.requests_per_conn = args.positive("--requests"),
            "--n" => spec.n = args.positive("--n"),
            "--batch" => spec.batch = args.positive("--batch"),
            "--deadline-ms" => {
                spec.deadline_ms = u32::try_from(args.number("--deadline-ms"))
                    .unwrap_or_else(|_| usage_exit("--deadline-ms too large"));
            }
            "--reconnect" => {
                spec.reconnect_per_request = match args.value("--reconnect").as_str() {
                    "0" => false,
                    "1" => true,
                    v => usage_exit(&format!("--reconnect needs 0 or 1, got '{v}'")),
                }
            }
            "--seed" => spec.seed = args.number("--seed"),
            "--help" | "-h" => usage_exit(""),
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    spec.addr = match addr.parse() {
        Ok(a) => a,
        Err(_) => usage_exit(&format!("--addr needs HOST:PORT, got '{addr}'")),
    };
    let mut outcome = spiral_serve::drive(&spec);
    let total = outcome.responses();
    let p50 = spiral_serve::percentile_us(&mut outcome.latencies_us, 50.0);
    let p99 = spiral_serve::percentile_us(&mut outcome.latencies_us, 99.0);
    println!(
        "{} responses in {:.3} s ({:.0} req/s): {} ok, {} overloaded, {} expired, {} errors; \
         {} connect failures, {} protocol errors",
        total,
        outcome.elapsed_s,
        total as f64 / outcome.elapsed_s.max(1e-12),
        outcome.ok,
        outcome.overloaded,
        outcome.expired,
        outcome.errors,
        outcome.conn_failures,
        outcome.protocol_errors,
    );
    println!("latency (ok requests): p50 {p50} us, p99 {p99} us");
    if outcome.protocol_errors > 0 || (outcome.ok == 0 && total > 0) {
        std::process::exit(1);
    }
    if total == 0 {
        eprintln!("FAIL: no responses received (is the server running at {addr}?)");
        std::process::exit(1);
    }
}
