//! `figures` — regenerate the paper's evaluation.
//!
//! ```text
//! figures list                                  (every command, described)
//! figures fig3 --machine core-duo [--min 6] [--max 18] [--out results/]
//! figures crossover [--machine core-duo]
//! figures sequential [--min 8] [--max 14]       (host wall-clock)
//! figures ablation-false-sharing [--machine core-duo]
//! figures ablation-schedule [--machine core-duo] [--size 12]
//! figures ablation-sixstep [--machine core-duo]
//! figures ablation-merge [--machine core-duo]
//! figures trace [--size 12] [--threads 2] [--out results/]
//! figures timeline [--size 12] [--threads 2] [--out results/]
//! figures search
//! figures verify [--machine core-duo] [--min 8] [--max 14] [--out results/]
//! figures certify [--min 2] [--max 6] [--threads 4] [--out results/]
//! figures serve-load [--min 6] [--max 8] [--workers 2] [--connections 4] [--requests 32]
//!                    [--batch 8] [--deadline-ms 0] [--wisdom PATH] [--require-warm 0|1]
//!                    [--out results/]
//! figures serve-dash [--size 8] [--workers 2] [--connections 4] [--requests 32] [--out results/]
//! figures all [--out results/]
//! ```
//!
//! Flags are validated per command: an unknown flag, a missing value,
//! a value that does not parse, or a stray positional argument is an
//! error (exit 2), not a silent no-op.

use spiral_bench::ablations::{
    false_sharing_ablation, merge_ablation, schedule_ablation, search_comparison, sixstep_ablation,
    verification_ablation,
};
use spiral_bench::ascii;
use spiral_bench::series::{crossover, fig3_series, machine_slug, tune_spiral, Series};
use spiral_sim::{by_name, paper_machines, simulate_plan, MachineSpec};
use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// One dispatchable `figures` command: its name, what it reproduces,
/// and exactly which flags it accepts.
struct CmdSpec {
    name: &'static str,
    desc: &'static str,
    flags: &'static [&'static str],
}

const COMMANDS: &[CmdSpec] = &[
    CmdSpec {
        name: "fig3",
        desc: "Figure 3 — the five pseudo-Mflop/s curves on a simulated machine",
        flags: &["machine", "min", "max", "out"],
    },
    CmdSpec {
        name: "crossover",
        desc: "CLAIM-XOVER — where parallelization starts to pay off",
        flags: &["machine", "min", "max"],
    },
    CmdSpec {
        name: "sequential",
        desc: "CLAIM-SEQ — host wall-clock sequential comparison vs baselines",
        flags: &["min", "max"],
    },
    CmdSpec {
        name: "ablation-false-sharing",
        desc: "ABL-FS — µ-aware formula (14) vs µ-oblivious false sharing",
        flags: &["machine", "min", "max", "out"],
    },
    CmdSpec {
        name: "ablation-schedule",
        desc: "ABL-SCHED — block-cyclic grain sweep at one size",
        flags: &["machine", "size"],
    },
    CmdSpec {
        name: "ablation-sixstep",
        desc: "ABL-SIXSTEP — multicore CT vs explicit six-step transposes",
        flags: &["machine", "min", "max"],
    },
    CmdSpec {
        name: "ablation-merge",
        desc: "ABL-MERGE — explicit exchange passes vs merged into compute",
        flags: &["machine", "min", "max"],
    },
    CmdSpec {
        name: "trace",
        desc: "per-stage waterfall of one traced run",
        flags: &["size", "threads", "out"],
    },
    CmdSpec {
        name: "timeline",
        desc: "Chrome/Perfetto event timeline of one observed run",
        flags: &["size", "threads", "out"],
    },
    CmdSpec {
        name: "search",
        desc: "SEARCH-DP — DP vs random vs evolutionary vs fixed radix-2",
        flags: &["machine"],
    },
    CmdSpec {
        name: "verify",
        desc: "ABL-VERIFY — static analyzer vs dynamic simulator verdicts",
        flags: &["machine", "min", "max", "out"],
    },
    CmdSpec {
        name: "certify",
        desc: "CERT — exact symbolic + dataflow certification sweep over tuner-reachable plans",
        flags: &["min", "max", "threads", "out"],
    },
    CmdSpec {
        name: "serve-load",
        desc:
            "SERVE-LOAD — network-tier latency percentiles under single/warm/overload concurrency",
        flags: &[
            "min",
            "max",
            "workers",
            "connections",
            "requests",
            "batch",
            "deadline-ms",
            "wisdom",
            "require-warm",
            "out",
        ],
    },
    CmdSpec {
        name: "serve-dash",
        desc: "SERVE-DASH — live-telemetry dashboard artifact: warm load, SS01 snapshot \
               over the wire, forced shed with flight record",
        flags: &["size", "workers", "connections", "requests", "batch", "out"],
    },
    CmdSpec {
        name: "all",
        desc: "every simulated figure and ablation in sequence",
        flags: &["machine", "min", "max", "out"],
    },
    CmdSpec {
        name: "list",
        desc: "enumerate every command with its description and flags",
        flags: &[],
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage_and_exit();
    };
    if cmd == "list" || cmd == "--list" {
        print_list();
        return;
    }
    let Some(spec) = COMMANDS.iter().find(|s| s.name == cmd) else {
        eprintln!("unknown command: {cmd}");
        usage_and_exit();
    };
    let opts = match parse_flags(&args[1..], spec.flags) {
        Ok(values) => Flags {
            cmd: spec.name,
            values,
        },
        Err(e) => {
            eprintln!("figures {cmd}: {e}");
            usage_and_exit();
        }
    };
    let out_dir = opts.get("out").map(str::to_string);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("cannot create output dir");
    }

    match cmd {
        "fig3" => {
            let m = machine_arg(&opts);
            run_fig3(&m, &opts, out_dir.as_deref());
        }
        "crossover" => {
            let m = machine_arg(&opts);
            run_crossover(&m, &opts);
        }
        "sequential" => run_sequential_host(&opts),
        "ablation-false-sharing" => {
            let m = machine_arg(&opts);
            run_abl_fs(&m, &opts, out_dir.as_deref());
        }
        "ablation-schedule" => {
            let m = machine_arg(&opts);
            run_abl_sched(&m, &opts);
        }
        "ablation-sixstep" => {
            let m = machine_arg(&opts);
            run_abl_sixstep(&m, &opts);
        }
        "ablation-merge" => {
            let m = machine_arg(&opts);
            run_abl_merge(&m, &opts);
        }
        "trace" => run_trace(&opts, out_dir.as_deref()),
        "timeline" => run_timeline(&opts, out_dir.as_deref()),
        "search" => run_search(&opts),
        "verify" => {
            let m = machine_arg(&opts);
            run_verify(&m, &opts, out_dir.as_deref());
        }
        "certify" => run_certify(&opts, out_dir.as_deref()),
        "serve-load" => run_serve_load(&opts, out_dir.as_deref()),
        "serve-dash" => run_serve_dash(&opts, out_dir.as_deref()),
        "all" => {
            let (min, max) = range(&opts, 6, 16);
            for m in paper_machines() {
                println!("\n================== {} ==================", m.name);
                let series = fig3_series(&m, min, max);
                print_fig3(&m, &series);
                save_csv(&m, &series, out_dir.as_deref());
            }
            let m = machine_arg(&opts);
            run_crossover(&m, &opts);
            run_abl_fs(&m, &opts, out_dir.as_deref());
            run_abl_sched(&m, &opts);
            run_abl_sixstep(&m, &opts);
            run_abl_merge(&m, &opts);
            run_search(&opts);
            run_verify(&m, &opts, out_dir.as_deref());
        }
        _ => unreachable!("command table covers every dispatched name"),
    }
}

fn print_list() {
    println!("figures — commands (flags take a value: --flag VALUE)\n");
    for c in COMMANDS {
        let flags = if c.flags.is_empty() {
            String::new()
        } else {
            format!(
                "  [{}]",
                c.flags
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )
        };
        println!("  {:<24} {}{}", c.name, c.desc, flags);
    }
    println!("\nmachines: core-duo opteron pentium-d xeon-mp");
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: figures <command> [--flag VALUE ...]\n\
         run `figures list` for every command, its description, and its flags"
    );
    std::process::exit(2);
}

/// Strict flag parsing: every flag must be known to the command and
/// must take a value; stray positional arguments are errors.
fn parse_flags(args: &[String], known: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("stray argument `{a}` (flags are --name VALUE)"));
        };
        if !known.contains(&key) {
            let accepted = if known.is_empty() {
                "no flags".to_string()
            } else {
                known
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            return Err(format!("unknown flag --{key} (accepted: {accepted})"));
        }
        let v = it
            .next()
            .ok_or_else(|| format!("flag --{key} requires a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

/// The log2 sizes `--size`, `--min` and `--max` accept: 2^24 complex
/// doubles are 256 MiB per buffer, past any size the figures sweep.
const LOG2_SIZES: std::ops::RangeInclusive<u32> = 1..=24;

/// The validated flags of one command invocation.
struct Flags {
    cmd: &'static str,
    values: HashMap<String, String>,
}

impl Flags {
    /// The raw value of `--flag`, if given.
    fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The parsed value of `--flag`, or `default` when it is absent. A
    /// value that does not parse exits 2 naming the flag.
    fn parse<T: FromStr>(&self, flag: &str, default: T) -> T
    where
        T::Err: Display,
    {
        match self.get(flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|e| self.reject(flag, v, e)),
        }
    }

    /// The log2 transform size `--flag` gives, or `default` when it is
    /// absent. A value outside [`LOG2_SIZES`] exits 2 naming the flag,
    /// instead of shifting into another size.
    fn log2(&self, flag: &str, default: u32) -> u32 {
        let k = self.parse(flag, default);
        if !LOG2_SIZES.contains(&k) {
            self.reject(
                flag,
                &k.to_string(),
                format!(
                    "log2 size out of range {}..={}",
                    LOG2_SIZES.start(),
                    LOG2_SIZES.end()
                ),
            );
        }
        k
    }

    fn reject(&self, flag: &str, value: &str, why: impl Display) -> ! {
        eprintln!("figures {}: --{flag} {value}: {why}", self.cmd);
        std::process::exit(2);
    }
}

fn machine_arg(opts: &Flags) -> MachineSpec {
    let key = opts.get("machine").unwrap_or("core-duo");
    by_name(key).unwrap_or_else(|| {
        eprintln!("unknown machine {key}");
        usage_and_exit()
    })
}

fn range(opts: &Flags, dmin: u32, dmax: u32) -> (u32, u32) {
    let min = opts.log2("min", dmin);
    let max = opts.log2("max", dmax);
    (min, max.max(min))
}

fn write_artifact(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                panic!("cannot create output directory {}: {e}", dir.display())
            });
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn save_csv(m: &MachineSpec, series: &[Series], out_dir: Option<&str>) {
    if let Some(dir) = out_dir {
        let path = format!("{dir}/fig3_{}.csv", machine_slug(m));
        write_artifact(&path, &ascii::csv(series));
        println!("wrote {path}");
    }
}

fn print_fig3(m: &MachineSpec, series: &[Series]) {
    println!("\nFigure 3 — {} — pseudo-Mflop/s (5 N log2 N / t)", m.name);
    println!("{}", ascii::table(series));
    println!("{}", ascii::chart(&m.name, series, 18));
}

fn run_fig3(m: &MachineSpec, opts: &Flags, out_dir: Option<&str>) {
    let (min, max) = range(opts, 6, 18);
    let series = fig3_series(m, min, max);
    print_fig3(m, &series);
    save_csv(m, &series, out_dir);
    if let (Some(x_sp), Some(x_fw)) = (
        crossover(&series[0], &series[2], 0.02),
        crossover(&series[3], &series[4], 0.02),
    ) {
        println!("parallel pays off: Spiral from 2^{x_sp}, FFTW-like from 2^{x_fw}");
    }
}

fn run_crossover(m: &MachineSpec, opts: &Flags) {
    let (min, max) = range(opts, 6, 15);
    println!("\nCLAIM-XOVER on {} — parallelization crossover", m.name);
    let series = fig3_series(m, min, max);
    let x_sp = crossover(&series[0], &series[2], 0.02);
    let x_fw = crossover(&series[3], &series[4], 0.02);
    println!(
        "  Spiral parallel beats sequential from: {}",
        x_sp.map_or("never in range".into(), |k| format!("2^{k}")),
    );
    println!(
        "  FFTW-like parallel beats sequential from: {}",
        x_fw.map_or("never in range".into(), |k| format!("2^{k}")),
    );
    // Cycle count at the Spiral crossover (paper: 2^8 at < 10k cycles).
    if let Some(k) = x_sp {
        let n = 1usize << k;
        let plans = tune_spiral(n, m);
        if let Some((_t, plan)) = plans.parallel.last() {
            let rep = simulate_plan(plan, m, true);
            println!(
                "  at 2^{k}: parallel run = {:.0} cycles ({:.1} µs, {:.0} pseudo-Mflop/s)",
                rep.cycles, rep.micros, rep.pseudo_mflops
            );
        }
    }
}

/// Host wall-clock comparison of sequential implementations (CLAIM-SEQ):
/// the tuned generated plan vs. the baselines, all on this machine.
fn run_sequential_host(opts: &Flags) {
    use spiral_baselines::{FftwLikeConfig, FftwLikeFft, IterativeFft, StockhamFft};
    use spiral_search::{CostModel, Tuner};
    use spiral_spl::cplx::Cplx;
    use std::time::Instant;
    let (min, max) = range(opts, 8, 14);
    println!("\nCLAIM-SEQ — host wall-clock, sequential (pseudo-Mflop/s, higher=better)");
    println!(
        "{:>7} {:>16} {:>16} {:>16} {:>16} {:>16}",
        "log2n", "spiral(plan)", "spiral(C -O3)", "fftw-like", "iterative", "stockham"
    );
    let time_us = |f: &mut dyn FnMut()| -> f64 {
        f(); // warm
        let reps = 5;
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        best
    };
    for k in min..=max {
        let n = 1usize << k;
        let x: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new(i as f64, -0.5 * i as f64))
            .collect();
        let tuner = Tuner::new(1, spiral_smp::topology::mu(), CostModel::Analytic);
        let plan = tuner.tune_sequential(n).expect("analytic tuning").plan;
        let t_spiral = time_us(&mut || {
            std::hint::black_box(plan.execute(&x));
        });
        // The paper's actual artifact: emitted C compiled with the
        // platform compiler.
        let t_spiral_c = spiral_bench::cbench::time_emitted_c(&plan, 7);
        let fftw = FftwLikeFft::new(n, FftwLikeConfig::default());
        let t_fftw = time_us(&mut || {
            std::hint::black_box(fftw.run(&x));
        });
        let iter = IterativeFft::new(n);
        let t_iter = time_us(&mut || {
            std::hint::black_box(iter.run(&x));
        });
        let stock = StockhamFft::new(n);
        let t_stock = time_us(&mut || {
            std::hint::black_box(stock.run(&x));
        });
        let pm = |t: f64| spiral_spl::num::pseudo_mflops(n, t);
        println!(
            "{:>7} {:>16.1} {:>16} {:>16.1} {:>16.1} {:>16.1}",
            k,
            pm(t_spiral),
            t_spiral_c.map_or("-".to_string(), |t| format!("{:.1}", pm(t))),
            pm(t_fftw),
            pm(t_iter),
            pm(t_stock)
        );
    }
}

fn run_abl_fs(m: &MachineSpec, opts: &Flags, out_dir: Option<&str>) {
    let (min, max) = range(opts, 8, 14);
    println!(
        "\nABL-FS on {} — false sharing: µ-aware (14) vs µ-oblivious",
        m.name
    );
    println!(
        "{:>7} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "log2n", "spiral FS", "naive FS", "spiral cyc", "naive cyc", "slowdown"
    );
    let rows = false_sharing_ablation(m, min, max);
    for r in &rows {
        println!(
            "{:>7} {:>14} {:>14} {:>14.0} {:>14.0} {:>11.2}x",
            r.log2n,
            r.spiral_false_sharing,
            r.naive_false_sharing,
            r.spiral_cycles,
            r.naive_cycles,
            r.naive_cycles / r.spiral_cycles
        );
    }
    if let Some(dir) = out_dir {
        let path = format!("{dir}/abl_false_sharing_{}.json", machine_slug(m));
        write_artifact(&path, &serde_json::to_string_pretty(&rows).unwrap());
        println!("wrote {path}");
    }
}

fn run_abl_sched(m: &MachineSpec, opts: &Flags) {
    let k = opts.log2("size", 12);
    let n = 1usize << k;
    if n < 2 * m.p {
        let why = format!("the last grain, n/(2p), needs n >= {}", 2 * m.p);
        opts.reject("size", &k.to_string(), why);
    }
    println!(
        "\nABL-SCHED on {} — block-cyclic grain sweep at 2^{k}",
        m.name
    );
    println!(
        "{:>8} {:>16} {:>14} {:>14}",
        "grain", "false sharing", "cycles", "pMflop/s"
    );
    let mu = m.mu();
    let grains = [1, 2, mu, 4 * mu, n / (2 * m.p)];
    for r in schedule_ablation(m, k, &grains) {
        println!(
            "{:>8} {:>16} {:>14.0} {:>14.0}",
            r.grain, r.false_sharing, r.cycles, r.pmflops
        );
    }
}

fn run_abl_sixstep(m: &MachineSpec, opts: &Flags) {
    let (min, max) = range(opts, 10, 16);
    println!(
        "\nABL-SIXSTEP on {} — multicore CT (14) vs explicit transposes",
        m.name
    );
    println!(
        "{:>7} {:>18} {:>14} {:>18}",
        "log2n", "multicore CT", "six-step", "six-step blocked"
    );
    for r in sixstep_ablation(m, min, max) {
        println!(
            "{:>7} {:>18.0} {:>14.0} {:>18.0}",
            r.log2n, r.multicore_ct_pmflops, r.sixstep_pmflops, r.sixstep_blocked_pmflops
        );
    }
}

fn run_abl_merge(m: &MachineSpec, opts: &Flags) {
    let (min, max) = range(opts, 8, 14);
    println!(
        "\nABL-MERGE on {} — explicit P ⊗̄ I_µ passes vs merged into compute",
        m.name
    );
    println!(
        "{:>7} {:>16} {:>10} {:>16} {:>10} {:>10}",
        "log2n", "explicit cyc", "barriers", "fused cyc", "barriers", "speedup"
    );
    for r in merge_ablation(m, min, max) {
        println!(
            "{:>7} {:>16.0} {:>10} {:>16.0} {:>10} {:>9.2}x",
            r.log2n,
            r.explicit_cycles,
            r.explicit_barriers,
            r.fused_cycles,
            r.fused_barriers,
            r.explicit_cycles / r.fused_cycles
        );
    }
}

/// `figures trace`: execute the tuned plan for `--size` with per-stage
/// instrumentation and print the waterfall table of where the run's
/// time went.
fn run_trace(opts: &Flags, out_dir: Option<&str>) {
    use spiral_codegen::Executor;
    use spiral_search::{CostModel, Tuner};
    use spiral_spl::cplx::Cplx;

    let k = opts.log2("size", 12);
    let threads: usize = opts.parse("threads", 2);
    let reps = 5usize;
    let n = 1usize << k;
    let mu = spiral_smp::topology::mu();
    let tuned = match Tuner::new(threads, mu, CostModel::Analytic).tune_parallel(n) {
        Ok(Some(t)) => t,
        _ => {
            eprintln!("no tunable parallel plan for n=2^{k}, p={threads}, µ={mu}");
            std::process::exit(2);
        }
    };
    let x: Vec<Cplx> = (0..n)
        .map(|i| Cplx::new(i as f64, -0.5 * i as f64))
        .collect();
    let exec = Executor::new(threads);
    let plan = &tuned.plan;
    let labels = plan.stage_labels();
    let mut out = vec![Cplx::ZERO; n];
    let mut merged: Option<spiral_trace::RunProfile> = None;
    for _ in 0..reps {
        let (_, p) = spiral_trace::profile_run(n, threads, &labels, |c| {
            exec.try_run(plan, &[&x], &mut [&mut out], c)
        })
        .expect("healthy plan must execute");
        merged = Some(match merged.take() {
            Some(m) => m.try_merge(&p).expect("same plan, same shape"),
            None => p,
        });
    }
    let profile = merged.expect("reps >= 1");
    print_waterfall(&profile, &tuned.choice);
    if let Some(dir) = out_dir {
        let path = format!("{dir}/trace_profile_2e{k}_p{threads}.json");
        write_artifact(&path, &profile.to_json());
        println!("wrote {path}");
    }
}

/// Per-stage waterfall of a measured profile: compute/barrier split,
/// imbalance, throughput, and a bar proportional to the stage's share of
/// critical-path compute time.
fn print_waterfall(p: &spiral_trace::RunProfile, choice: &str) {
    println!(
        "\nTRACE — n={} p={} runs={} ({choice})",
        p.n, p.threads, p.runs
    );
    println!(
        "{:>5} {:<20} {:>10} {:>11} {:>11} {:>7} {:>9} {:>10}  waterfall",
        "stage", "label", "elems", "max µs", "mean µs", "imbal", "bar-wait%", "Melem/s"
    );
    let crit_total: u64 = p
        .stages
        .iter()
        .map(|s| s.threads.iter().map(|t| t.compute_ns).max().unwrap_or(0))
        .sum();
    for s in &p.stages {
        let max_ns = s.threads.iter().map(|t| t.compute_ns).max().unwrap_or(0);
        let mean_ns = s.compute_ns() as f64 / s.threads.len().max(1) as f64;
        let wait = s.barrier_wait_ns();
        let busy = s.compute_ns() + wait;
        let wait_pct = if busy > 0 {
            100.0 * wait as f64 / busy as f64
        } else {
            0.0
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bar_len = if crit_total > 0 {
            (max_ns as f64 / crit_total as f64 * 40.0).round() as usize
        } else {
            0
        };
        println!(
            "{:>5} {:<20} {:>10} {:>11.1} {:>11.1} {:>7.3} {:>8.2}% {:>10.1}  {}",
            s.index,
            s.label,
            s.elements() / p.runs.max(1),
            max_ns as f64 / 1e3 / p.runs.max(1) as f64,
            mean_ns / 1e3 / p.runs.max(1) as f64,
            s.imbalance(),
            wait_pct,
            s.throughput_eps() / 1e6,
            "#".repeat(bar_len)
        );
    }
    println!(
        "totals: compute {:.1} µs, barrier wait {:.1} µs (share {:.2}%), wall {:.1} µs/run, \
         load imbalance {:.3}, worst stage imbalance {:.3}",
        p.total_compute_ns() as f64 / 1e3 / p.runs.max(1) as f64,
        p.total_barrier_wait_ns() as f64 / 1e3 / p.runs.max(1) as f64,
        100.0 * p.barrier_share(),
        p.wall_ns as f64 / 1e3 / p.runs.max(1) as f64,
        p.load_imbalance(),
        p.max_stage_imbalance()
    );
}

/// `figures timeline`: record the tuner search (candidate spans,
/// quarantine marks) and one observed execution (pool jobs, per-stage
/// compute, barrier waits and releases) for `--size` into an event
/// timeline, cross-check the timeline against the run's aggregated
/// `RunProfile` and the static timeline checker, and export Chrome
/// trace-event JSON loadable in Perfetto / `chrome://tracing`.
fn run_timeline(opts: &Flags, out_dir: Option<&str>) {
    use spiral_codegen::Executor;
    use spiral_search::{CostModel, Tuner};
    use spiral_spl::cplx::Cplx;
    use spiral_trace::{Timeline, TimelineEventKind};
    use spiral_verify::timeline::verify_timeline;

    let k = opts.log2("size", 12);
    let threads: usize = opts.parse("threads", 2);
    let n = 1usize << k;
    let mu = spiral_smp::topology::mu();
    let timeline = Timeline::new(threads);

    let outcome = Tuner::new(threads, mu, CostModel::Analytic)
        .tune_parallel_report_with(n, &timeline)
        .unwrap_or_else(|e| {
            eprintln!("tuning failed for n=2^{k}, p={threads}: {e}");
            std::process::exit(2);
        });
    let Some(tuned) = outcome.best else {
        eprintln!("no tunable parallel plan for n=2^{k}, p={threads}, µ={mu}");
        std::process::exit(2);
    };
    let x: Vec<Cplx> = (0..n)
        .map(|i| Cplx::new(i as f64, -0.5 * i as f64))
        .collect();
    let exec = Executor::new(threads);
    let plan = &tuned.plan;
    let labels = plan.stage_labels();
    let mut out = vec![Cplx::ZERO; n];
    let (_, profile) = spiral_trace::profile_run(n, threads, &labels, |c| {
        exec.try_run(plan, &[&x], &mut [&mut out], &(c, &timeline))
    })
    .expect("healthy plan must execute");

    let events = timeline.events();
    println!(
        "\nTIMELINE — n={n} p={threads} ({}): {} events, {} dropped",
        tuned.choice,
        events.len(),
        timeline.total_dropped()
    );
    println!(
        "  search: {} candidate span(s), {} quarantine mark(s)",
        outcome.report.evaluated,
        outcome.report.quarantined.len()
    );

    // Cross-check the streamed spans against the independently
    // aggregated RunProfile of the same run: the two instruments must
    // tell the same story (within clock-read jitter).
    let tl_compute = timeline.total_ns(TimelineEventKind::StageCompute);
    let tl_barrier = timeline.total_ns(TimelineEventKind::BarrierWait);
    let agree = |name: &str, tl: u64, prof: u64| {
        let rel = if prof > 0 {
            100.0 * (tl as f64 - prof as f64) / prof as f64
        } else {
            0.0
        };
        println!(
            "  {name}: timeline {:.1} µs vs profile {:.1} µs ({rel:+.2}%)",
            tl as f64 / 1e3,
            prof as f64 / 1e3
        );
    };
    agree("compute", tl_compute, profile.total_compute_ns());
    agree("barrier wait", tl_barrier, profile.total_barrier_wait_ns());

    // Static sanity: non-overlapping per-thread spans, nesting, and one
    // barrier release per thread per synchronized stage.
    let diags = verify_timeline(&events, threads, tuned.plan.steps.len());
    if diags.is_empty() {
        println!("  checker: timeline is well-formed");
    } else {
        println!("  checker: {} finding(s)", diags.len());
        for d in diags.iter().take(5) {
            println!("    {}", d.detail);
        }
    }

    if let Some(dir) = out_dir {
        let path = format!("{dir}/timeline_2e{k}_p{threads}.json");
        write_artifact(&path, &timeline.chrome_trace(&labels));
        println!("wrote {path} (load in Perfetto or chrome://tracing)");
    }
}

/// ABL-VERIFY: run the static analyzer on the tuned µ-aware plan and on
/// the µ-oblivious baseline schedule, and cross-check both verdicts
/// against the simulator's dynamic false-sharing counter.
fn run_verify(m: &MachineSpec, opts: &Flags, out_dir: Option<&str>) {
    let (min, max) = range(opts, 8, 14);
    println!(
        "\nABL-VERIFY on {} — static analyzer vs dynamic simulator",
        m.name
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "log2n",
        "spiral diag",
        "spiral sFS",
        "spiral dFS",
        "naive diag",
        "naive sFS",
        "naive dFS",
        "agree"
    );
    let rows = verification_ablation(m, min, max);
    for r in &rows {
        println!(
            "{:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
            r.log2n,
            r.spiral_diagnostics,
            r.spiral_static_false_sharing,
            r.spiral_sim_false_sharing,
            r.naive_diagnostics,
            r.naive_static_false_sharing,
            r.naive_sim_false_sharing,
            r.verdicts_agree
        );
    }
    // Show what a rejection looks like: the analyzer's findings on the
    // µ-oblivious schedule at the smallest size.
    if let Some(r) = rows.first() {
        let sched = spiral_verify::baseline::FftwLikeSchedule {
            n: 1usize << r.log2n,
            threads: m.p,
            grain: 1,
        };
        let report = spiral_verify::verify_fftw_like(
            &sched,
            m.mu(),
            &spiral_verify::VerifyOptions::default(),
        );
        for d in report.diagnostics.iter().take(3) {
            println!("  naive 2^{}: {}", r.log2n, d.detail);
        }
    }
    if let Some(dir) = out_dir {
        let path = format!("{dir}/abl_verify_{}.json", machine_slug(m));
        write_artifact(&path, &serde_json::to_string_pretty(&rows).unwrap());
        println!("wrote {path}");
    }
}

fn run_certify(opts: &Flags, out_dir: Option<&str>) {
    let (min, max) = range(opts, 2, 6);
    let threads: usize = opts.parse("threads", 4);
    println!(
        "\nCERT — exact symbolic + dataflow certification, n = 2^{min}..2^{max}, p ≤ {threads}"
    );
    let file = spiral_bench::certify::certification_sweep(min, max, threads);
    println!(
        "{:>7} {:>3} {:>3} {:<42} {:>9} {:>9}",
        "n", "p", "µ", "shape", "dataflow", "symbolic"
    );
    for r in &file.rows {
        let sym = match r.symbolic_certified {
            Some(true) => "proven",
            Some(false) => "REJECTED",
            None => "skipped",
        };
        let df = if r.dataflow_certified {
            "ok"
        } else {
            "REJECTED"
        };
        println!(
            "{:>7} {:>3} {:>3} {:<42} {:>9} {:>9}",
            r.n, r.threads, r.mu, r.shape, df, sym
        );
        for f in &r.findings {
            println!("        {f}");
        }
    }
    println!(
        "{}/{} plan shapes certified (symbolic limit n ≤ {})",
        file.certified, file.total, file.symbolic_limit
    );
    if let Some(dir) = out_dir {
        let path = format!("{dir}/certify_report.json");
        write_artifact(&path, &serde_json::to_string_pretty(&file).unwrap());
        println!("wrote {path}");
    }
    if file.certified != file.total {
        std::process::exit(1);
    }
}

/// SERVE-LOAD: drive the network tier through the single / warm /
/// overload phases, record the artifact, and gate on the robustness
/// contract: zero client-visible protocol errors, warm p99 within the
/// deadline, overload actually shed (`Overloaded` seen), and — under
/// `--require-warm 1` — zero tuner invocations (the warm-path
/// invariant).
fn run_serve_load(opts: &Flags, out_dir: Option<&str>) {
    use spiral_bench::serve_load::{measure_serve_load, ServeLoadOpts};

    let (min, max) = range(opts, 6, 8);
    let mut slo = ServeLoadOpts {
        min_log2n: min,
        max_log2n: max,
        ..ServeLoadOpts::default()
    };
    slo.workers = opts.parse("workers", slo.workers);
    slo.connections = opts.parse("connections", slo.connections);
    slo.requests_per_conn = opts.parse("requests", slo.requests_per_conn);
    slo.batch = opts.parse("batch", slo.batch);
    slo.deadline_ms = opts.parse("deadline-ms", slo.deadline_ms);
    slo.wisdom = opts.get("wisdom").map(std::path::PathBuf::from);
    let require_warm = match opts.get("require-warm") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => opts.reject("require-warm", v, "expected 0 or 1"),
    };

    println!(
        "\nSERVE-LOAD — wire round-trips, n = 2^{min}..2^{max}, batch {}, \
         warm {} conn(s), overload {}x",
        slo.batch, slo.connections, slo.overload_factor
    );
    let file = match measure_serve_load(&slo) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("serve-load: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:>6} {:>9} {:>5} {:>7} {:>6} {:>7} {:>7} {:>5} {:>9} {:>9} {:>9} {:>9}",
        "log2n",
        "phase",
        "conns",
        "reqs",
        "ok",
        "ovld",
        "expired",
        "err",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "resp/s"
    );
    for r in &file.rows {
        println!(
            "{:>6} {:>9} {:>5} {:>7} {:>6} {:>7} {:>7} {:>5} {:>9} {:>9} {:>9} {:>9.0}",
            r.log2n,
            r.phase,
            r.connections,
            r.requests,
            r.ok,
            r.overloaded,
            r.expired,
            r.errors,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.rps
        );
    }
    println!(
        "tuner invocations across the run: {}",
        file.tuner_invocations
    );

    // The shed-don't-buffer criterion, recorded per size: the overload
    // phase's admitted p99 against 2x the single-client p99.
    for k in min..=max {
        let single = file
            .rows
            .iter()
            .find(|r| r.log2n == u64::from(k) && r.phase == "single");
        let over = file
            .rows
            .iter()
            .find(|r| r.log2n == u64::from(k) && r.phase == "overload");
        if let (Some(s), Some(o)) = (single, over) {
            if o.ok > 0 && s.p99_us > 0 {
                let ratio = o.p99_us as f64 / s.p99_us as f64;
                println!(
                    "  n=2^{k}: admitted-under-overload p99 = {:.2}x single-client p99 {}",
                    ratio,
                    if ratio <= 2.0 {
                        "(within 2x)"
                    } else {
                        "(over 2x — expected when the client storm shares the server's CPUs)"
                    }
                );
            }
        }
    }

    if let Some(dir) = out_dir {
        let path = format!("{dir}/serve_load.json");
        write_artifact(&path, &serde_json::to_string_pretty(&file).unwrap());
        println!("wrote {path}");
    }

    let mut failures = Vec::new();
    let protocol_errors: u64 = file.rows.iter().map(|r| r.protocol_errors).sum();
    if protocol_errors > 0 {
        failures.push(format!(
            "{protocol_errors} client-visible protocol error(s)"
        ));
    }
    let deadline_us = if file.deadline_ms == 0 {
        1_000_000 // the server's default 1 s budget
    } else {
        file.deadline_ms * 1000
    };
    for r in file.rows.iter().filter(|r| r.phase == "warm") {
        if r.ok < r.requests {
            failures.push(format!(
                "warm phase n=2^{} did not admit everything ({}/{} ok)",
                r.log2n, r.ok, r.requests
            ));
        }
        if r.p99_us >= deadline_us {
            failures.push(format!(
                "warm phase n=2^{} p99 {} µs breaches the {} µs deadline",
                r.log2n, r.p99_us, deadline_us
            ));
        }
    }
    let overloaded: u64 = file
        .rows
        .iter()
        .filter(|r| r.phase == "overload")
        .map(|r| r.overloaded)
        .sum();
    if overloaded == 0 {
        failures.push("overload phase saw no Overloaded responses — nothing was shed".to_string());
    }
    if require_warm && file.tuner_invocations > 0 {
        failures.push(format!(
            "--require-warm 1, but the tuner ran {} time(s) — wisdom was cold or stale",
            file.tuner_invocations
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("serve-load FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("serve-load: contract holds (shed under overload, warm p99 within deadline)");
}

/// The SERVE-DASH dashboard artifact: one warm load run's telemetry,
/// fetched over the wire (`SS01`) and cross-checked against the drain
/// report, plus the forced-shed tallies that exercised the flight
/// recorder.
#[derive(serde::Serialize, serde::Deserialize)]
struct ServeDashFile {
    /// Artifact layout version.
    schema: u64,
    /// Execution-pool threads behind the served plans.
    workers: u64,
    /// Warm-phase connections.
    connections: u64,
    /// Transform size as log2 n.
    log2n: u64,
    /// Transforms per request.
    batch: u64,
    /// `Ok` responses in the warm phase.
    warm_ok: u64,
    /// `Overloaded` responses in the forced-shed burst.
    shed_overloaded: u64,
    /// `Expired` responses in the forced-shed burst.
    shed_expired: u64,
    /// SLO breaches the server recorded (shed or over-budget).
    slo_breaches: u64,
    /// The server's own latency percentiles.
    server: spiral_bench::serve_load::ServerLatencySummary,
    /// Full drain-time metrics snapshot (counters, gauges, histograms).
    metrics: spiral_serve::MetricsSnapshot,
}

fn run_serve_dash(opts: &Flags, out_dir: Option<&str>) {
    use spiral_serve::{drive, Client, LoadSpec, PlanService, Server, ServerConfig, StatsKind};
    use std::sync::Arc;

    let log2n = opts.log2("size", 8);
    let workers: usize = opts.parse("workers", 2);
    let conns: usize = opts.parse::<usize>("connections", 4).max(1);
    let requests: usize = opts.parse("requests", 32);
    let batch: usize = opts.parse("batch", 8);
    let n = 1usize << log2n;

    let service = Arc::new(PlanService::new(workers, spiral_smp::topology::mu()));
    if let Err(e) = service.sequential_plan(n) {
        eprintln!("serve-dash: planning DFT_{n} failed: {e}");
        std::process::exit(1);
    }
    let flight_path =
        out_dir.map(|dir| std::path::PathBuf::from(format!("{dir}/flight_record_shed.json")));
    let cfg = ServerConfig {
        workers: conns,
        conn_backlog: conns,
        queue_bound: conns * 2,
        flight_record_path: flight_path.clone(),
        ..ServerConfig::default()
    };
    let server = match Server::start(Arc::clone(&service), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve-dash: server failed to start: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr();

    println!("\nSERVE-DASH — n = 2^{log2n}, batch {batch}, {conns} warm conn(s)");
    let warm = drive(&LoadSpec {
        addr,
        connections: conns,
        requests_per_conn: requests,
        n,
        batch,
        deadline_ms: 0,
        reconnect_per_request: false,
        seed: 11,
    });
    println!("warm: {} ok / {} responses", warm.ok, warm.responses());

    // Telemetry over the wire, exactly as a monitoring agent would
    // fetch it: both exposition formats through the SS01 frame.
    let wire_requests = match Client::connect(addr) {
        Ok(mut c) => {
            let json = c.stats(StatsKind::Json).unwrap_or_default();
            let prom = c.stats(StatsKind::Prom).unwrap_or_default();
            println!(
                "SS01: JSON snapshot {} bytes, Prometheus exposition {} bytes",
                json.len(),
                prom.len()
            );
            spiral_serve::MetricsSnapshot::from_json(&json)
                .ok()
                .and_then(|s| s.counter("serve_requests_total"))
        }
        Err(e) => {
            eprintln!("serve-dash: stats connection failed: {e}");
            None
        }
    };

    // Forced shed: a reconnect-per-request burst past admission with a
    // 1 ms deadline — expiries and rejects, each an SLO breach, the
    // first of which persists the flight record.
    let shed = drive(&LoadSpec {
        addr,
        connections: conns * 4,
        requests_per_conn: (requests / 4).max(2),
        n,
        batch,
        deadline_ms: 1,
        reconnect_per_request: true,
        seed: 13,
    });
    println!(
        "forced shed: {} overloaded, {} expired, {} ok",
        shed.overloaded, shed.expired, shed.ok
    );

    let report = server.shutdown();
    if report.thread_panics > 0 {
        eprintln!("serve-dash: server lost a thread");
        std::process::exit(1);
    }
    let m = &report.metrics;
    if let (Some(wire), Some(fin)) = (wire_requests, m.counter("serve_requests_total")) {
        // The wire snapshot predates the shed burst; it can only lag.
        if wire > fin {
            eprintln!("serve-dash: wire snapshot ahead of drain accounting ({wire} > {fin})");
            std::process::exit(1);
        }
    }
    let dash = ServeDashFile {
        schema: 1,
        workers: workers as u64,
        connections: conns as u64,
        log2n: u64::from(log2n),
        batch: batch as u64,
        warm_ok: warm.ok,
        shed_overloaded: shed.overloaded,
        shed_expired: shed.expired,
        slo_breaches: m.counter("serve_slo_breaches_total").unwrap_or(0),
        server: spiral_bench::serve_load::ServerLatencySummary::from_metrics(m),
        metrics: report.metrics.clone(),
    };
    println!(
        "drain: {} requests, {} SLO breach(es), server p50/p99/p999 = {}/{}/{} µs",
        m.counter("serve_requests_total").unwrap_or(0),
        dash.slo_breaches,
        dash.server.p50_us,
        dash.server.p99_us,
        dash.server.p999_us
    );
    if let Some(dir) = out_dir {
        let path = format!("{dir}/serve_dash.json");
        write_artifact(&path, &serde_json::to_string_pretty(&dash).unwrap());
        println!("wrote {path}");
    }
    match &flight_path {
        Some(p) if p.exists() => println!("wrote {} (SLO-breach flight record)", p.display()),
        Some(p) => println!("no flight record at {} — nothing breached", p.display()),
        None => {}
    }
}

fn run_search(opts: &Flags) {
    let m = machine_arg(opts);
    println!(
        "\nSEARCH-DP on {} — simulated cycles (lower=better)",
        m.name
    );
    println!(
        "{:>7} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "log2n", "DP", "(evals)", "random", "evolve", "radix-2"
    );
    for r in search_comparison(&m, &[8, 10, 12]) {
        println!(
            "{:>7} {:>12.0} {:>10} {:>12.0} {:>12.0} {:>12.0}",
            r.log2n, r.dp_cycles, r.dp_evaluated, r.random_cycles, r.evolve_cycles, r.radix2_cycles
        );
    }
}
