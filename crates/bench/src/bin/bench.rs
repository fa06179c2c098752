//! `bench` — the benchmark-history CLI over perfbench results.
//!
//! ```text
//! bench history record  --from FILE --workload W --seed S --commit SHA [--out FILE]
//! bench history compare [--file FILE] [--mad-factor 4.0] [--min-drop 0.05]
//! bench history show    [--file FILE]
//! ```
//!
//! `record` reads the last non-empty line of a saved perfbench stdout,
//! checks it against `BENCHMARK.json`, and appends it as one run to the
//! history file (default `BENCH_<host>.json` in the working directory,
//! the repository root; created on first use). `compare` compares the
//! last two commits recorded on the latest run's host and exits 1 on any
//! regression — the CI contract. `show` prints each end-to-end metric's
//! per-commit medians as the trajectory.

use spiral_bench::history::{
    compare_last_two, declaration, BenchHistory, BenchHost, BenchRun, CompareOpts,
};
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
  bench history record  --from FILE --workload W --seed S --commit SHA [--out FILE]
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
        "record" => Ok(&["--from", "--workload", "--seed", "--commit", "--out"]),
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

fn required<'a>(flags: &'a [(String, String)], name: &str) -> Result<&'a str, String> {
    flag(flags, name).ok_or_else(|| format!("{name} is required"))
}

fn history_path(flags: &[(String, String)], key: &str) -> PathBuf {
    flag(flags, key).map_or_else(
        || PathBuf::from(format!("BENCH_{}.json", BenchHost::current().slug())),
        PathBuf::from,
    )
}

fn record(flags: &[(String, String)]) -> Result<i32, String> {
    let from = required(flags, "--from")?;
    let workload = required(flags, "--workload")?;
    let commit = required(flags, "--commit")?;
    let seed: u64 = required(flags, "--seed")?
        .parse()
        .map_err(|_| "bad --seed value".to_string())?;
    let path = history_path(flags, "--out");

    let bytes = std::fs::read(from).map_err(|e| format!("reading {from}: {e}"))?;
    let run = BenchRun::from_perfbench(&bytes, commit, workload, seed)
        .map_err(|e| format!("{from}: {e}"))?;
    let mut history = BenchHistory::load(&path)?;
    history.append(run);
    history.save(&path)?;
    let run = history.runs.last().expect("just appended");
    println!(
        "recorded run #{} ({} {} seed {}{}, {} metric(s), {}/{} failed) in {}",
        run.seq,
        run.commit,
        run.workload,
        run.seed,
        if run.is_traced() { ", traced" } else { "" },
        run.metrics.len(),
        run.failed,
        run.attempted,
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
    let Some(report) = compare_last_two(&history, &opts) else {
        println!(
            "{}: fewer than two commits recorded on the latest run's host — nothing to compare",
            path.display()
        );
        return Ok(0);
    };
    println!(
        "{}: {} (base) → {} (head) on {}; regressed = worse by > max({}·MAD/base, {:.0}%), \
         gain = head wins ≥ 9/10 same-seed pairs and moves the median by > base IQR",
        path.display(),
        report.base_commit,
        report.head_commit,
        report.host,
        opts.mad_factor,
        100.0 * opts.min_rel_drop
    );
    println!(
        "  {:<9} {:<19} {:>28}  {:>28}  {:>7} {:>6} {:>6}  verdict",
        "workload", "metric", "base q1 / median / q3", "head q1 / median / q3", "wins", "Δ", "tol"
    );
    for l in &report.lines {
        println!(
            "  {:<9} {:<19} {:>28}  {:>28}  {:>3}/{:<3} {:>+5.1}% {:>5.1}%  {}",
            l.workload,
            l.metric,
            format!("{:.4} / {:.4} / {:.4}", l.base[0], l.base[1], l.base[2]),
            format!("{:.4} / {:.4} / {:.4}", l.head[0], l.head[1], l.head[2]),
            l.head_wins,
            l.pairs,
            100.0 * l.rel_gain,
            100.0 * l.threshold,
            l.verdict
        );
    }
    for f in &report.failed {
        println!(
            "  {:<9} failed share {:.6} → {:.6}  {}",
            f.workload,
            f.base,
            f.head,
            if f.head > f.base { "regressed" } else { "ok" }
        );
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
    let Some(host) = history.latest_host() else {
        println!("{}: empty history", path.display());
        return Ok(0);
    };
    let commits = history.commits(host);
    println!(
        "{}: {} run(s), schema v{}; host {}: {} commit(s), oldest first: {}",
        path.display(),
        history.runs.len(),
        history.schema,
        host,
        commits.len(),
        commits.join(" ")
    );
    for workload in history.workloads(host) {
        for spec in &declaration().end_to_end {
            let t = history.trajectory(host, workload, &spec.name);
            if t.is_empty() {
                continue;
            }
            let points: Vec<String> = t
                .iter()
                .map(|(c, m, n)| format!("{c} {m:.4} ({n})"))
                .collect();
            println!(
                "  {:<9} {:<19} [{}, {} is better]  {}",
                workload,
                spec.name,
                spec.unit,
                spec.better,
                points.join(" → ")
            );
        }
    }
    Ok(0)
}
