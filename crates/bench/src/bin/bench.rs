//! `bench` — the benchmark-history CLI.
//!
//! ```text
//! bench history record  [--out FILE] [--sizes 8,10] [--threads 1,2] [--reps 5] [--batch 32]
//! bench history compare [--file FILE] [--mad-factor 4.0] [--min-drop 0.05]
//! bench history show    [--file FILE]
//! ```
//!
//! `record` measures a (sizes × threads) grid of tuned transforms and
//! appends a run to the history file (default
//! `results/BENCH_<host>.json`, file created on first use). `compare`
//! checks the latest run against the most recent earlier run on the
//! same host and exits 1 if any grid point regressed beyond its
//! noise-aware threshold — the CI contract. `show` prints the stored
//! trajectories as sparklines.

use spiral_bench::ascii::sparkline;
use spiral_bench::history::{compare_latest, measure_grid, BenchHistory, BenchHost, CompareOpts};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage:
  bench history record  [--out FILE] [--sizes 8,10] [--threads 1,2] [--reps 5] [--batch 32]
  bench history compare [--file FILE] [--mad-factor 4.0] [--min-drop 0.05]
  bench history show    [--file FILE]";

fn run(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("history") => history_cmd(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".to_string()),
    }
}

fn history_cmd(args: &[String]) -> Result<i32, String> {
    let (sub, rest) = args
        .split_first()
        .ok_or("missing history subcommand (record | compare | show)")?;
    let flags = parse_flags(rest, flag_names(sub)?)?;
    match sub.as_str() {
        "record" => record(&flags),
        "compare" => compare(&flags),
        "show" => show(&flags),
        _ => unreachable!(),
    }
}

fn flag_names(sub: &str) -> Result<&'static [&'static str], String> {
    match sub {
        "record" => Ok(&["--out", "--sizes", "--threads", "--reps", "--batch"]),
        "compare" => Ok(&["--file", "--mad-factor", "--min-drop"]),
        "show" => Ok(&["--file"]),
        other => Err(format!(
            "unknown history subcommand `{other}` (record | compare | show)"
        )),
    }
}

/// Strict flag parsing: every flag must be known and take a value; stray
/// positional arguments are errors.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !known.contains(&a.as_str()) {
            return Err(format!(
                "unexpected argument `{a}` (known flags: {})",
                known.join(", ")
            ));
        }
        let v = it
            .next()
            .ok_or_else(|| format!("flag {a} requires a value"))?;
        out.push((a.clone(), v.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn default_path() -> PathBuf {
    PathBuf::from(format!(
        "results/BENCH_{}.json",
        BenchHost::current().slug()
    ))
}

fn history_path(flags: &[(String, String)], key: &str) -> PathBuf {
    flag(flags, key).map_or_else(default_path, PathBuf::from)
}

fn parse_list(s: &str, what: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad {what} entry `{t}`"))
        })
        .collect()
}

fn record(flags: &[(String, String)]) -> Result<i32, String> {
    let path = history_path(flags, "--out");
    let sizes: Vec<u32> = parse_list(flag(flags, "--sizes").unwrap_or("8,10"), "--sizes")?
        .into_iter()
        .map(|k| u32::try_from(k).expect("log2 size fits u32"))
        .collect();
    let threads = parse_list(flag(flags, "--threads").unwrap_or("1,2"), "--threads")?;
    let reps: usize = flag(flags, "--reps")
        .unwrap_or("5")
        .parse()
        .map_err(|_| "bad --reps value".to_string())?;

    let batch: Option<usize> = match flag(flags, "--batch") {
        Some(v) => Some(v.parse().map_err(|_| "bad --batch value".to_string())?),
        None => None,
    };

    let mut history = BenchHistory::load(&path)?;
    let mut run = measure_grid(&sizes, &threads, reps);
    if let Some(b) = batch {
        // Batched grid points ride along in the same run, keyed by
        // (log2n, threads, batch) so compare/trajectory track them
        // separately from the batch=1 grid.
        let rows = spiral_bench::batch::measure_batch_rows(&sizes, &threads, b, reps);
        run.entries
            .extend(spiral_bench::batch::rows_to_entries(&rows, reps));
    }
    if run.entries.is_empty() {
        return Err("no grid point was measurable (sizes too small for the thread counts?)".into());
    }
    println!(
        "recorded run on {} ({} grid points, {} reps each):",
        run.host.name,
        run.entries.len(),
        reps
    );
    for e in &run.entries {
        println!(
            "  n=2^{:<2} p={} b={:<3} c={:<3} {:>8.1} µs (±{:.1})  {:>6.3} GF/s (±{:.3})  [{}]",
            e.log2n,
            e.threads,
            e.batch,
            e.connections,
            e.median_us,
            e.mad_us,
            e.gflops,
            e.gflops_mad,
            e.plan_kind
        );
    }
    history.append(run);
    history.validate()?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    history.save(&path)?;
    println!(
        "history: {} run(s) in {}",
        history.runs.len(),
        path.display()
    );
    Ok(0)
}

fn compare(flags: &[(String, String)]) -> Result<i32, String> {
    let path = history_path(flags, "--file");
    let opts = CompareOpts {
        mad_factor: flag(flags, "--mad-factor")
            .unwrap_or("4.0")
            .parse()
            .map_err(|_| "bad --mad-factor value".to_string())?,
        min_rel_drop: flag(flags, "--min-drop")
            .unwrap_or("0.05")
            .parse()
            .map_err(|_| "bad --min-drop value".to_string())?,
    };
    let history = BenchHistory::load(&path)?;
    let Some(report) = compare_latest(&history, &opts) else {
        println!(
            "{}: no runs recorded yet — nothing to compare",
            path.display()
        );
        return Ok(0);
    };
    if report.lines.is_empty() {
        println!(
            "{}: no comparable baseline (first run on this host, or new grid points); \
             {} point(s) unmatched",
            path.display(),
            report.unmatched
        );
        return Ok(0);
    }
    println!(
        "comparing latest run against baseline ({}; threshold = max({}·MAD/base, {:.0}%)):",
        path.display(),
        opts.mad_factor,
        100.0 * opts.min_rel_drop
    );
    for l in &report.lines {
        println!(
            "  n=2^{:<2} p={} b={:<3} c={:<3} {:>6.3} → {:>6.3} GF/s  {:>+6.1}% (tol {:.1}%)  {}  {}",
            l.log2n,
            l.threads,
            l.batch,
            l.connections,
            l.base_gflops,
            l.cur_gflops,
            100.0 * l.rel_delta,
            100.0 * l.threshold,
            sparkline(&l.trajectory),
            if l.regressed { "REGRESSED" } else { "ok" }
        );
    }
    if report.unmatched > 0 {
        println!("  ({} point(s) had no baseline)", report.unmatched);
    }
    let regressions = report.regressions();
    if regressions > 0 {
        println!("{regressions} regression(s) detected");
        return Ok(1);
    }
    println!("no regressions");
    Ok(0)
}

fn show(flags: &[(String, String)]) -> Result<i32, String> {
    let path = history_path(flags, "--file");
    let history = BenchHistory::load(&path)?;
    if history.runs.is_empty() {
        println!("{}: empty history", path.display());
        return Ok(0);
    }
    println!(
        "{}: {} run(s), schema v{}",
        path.display(),
        history.runs.len(),
        history.schema
    );
    let latest = history.runs.last().expect("non-empty");
    println!(
        "latest: run #{} on {} ({} cores, µ={})",
        latest.seq, latest.host.name, latest.host.fingerprint.cores, latest.host.fingerprint.mu
    );
    for e in &latest.entries {
        let traj = history.trajectory(
            e.log2n,
            e.threads,
            e.batch,
            e.connections,
            &e.backend,
            &latest.host.name,
        );
        println!(
            "  n=2^{:<2} p={} b={:<3} c={:<3} {:<6} {:>6.3} GF/s  {}  ({} run(s))",
            e.log2n,
            e.threads,
            e.batch,
            e.connections,
            e.backend,
            e.gflops,
            sparkline(&traj),
            traj.len()
        );
    }
    Ok(0)
}
