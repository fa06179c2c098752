//! A very short run of every workload: the result line must be well
//! formed, every metric named validly, once, with a unit, no operation
//! may fail, and the metrics must be exactly those `BENCHMARK.json` at
//! the repository root lists.

use std::collections::BTreeSet;
use std::process::Command;

/// The metric names of one `BENCHMARK.json` list (`end_to_end` or
/// `per_layer`).
fn listed(section: &str) -> BTreeSet<String> {
    let spec = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    let from = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let list = &spec[from..];
    let list = &list[..list.find(']').expect("a closed list")];
    list.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

/// Run the benchmark and return (attempted, failed, [(name, value, unit)]).
fn run(workload: &str, trace: u8) -> (u64, u64, Vec<(String, String, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.4"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload}: {line}"
    );
    let field = |key: &str| -> u64 {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("{key} missing: {line}"))
            + key.len();
        line[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|d| d.parse().ok())
            .unwrap_or_else(|| panic!("{key} is not a count: {line}"))
    };
    let (attempted, failed) = (field("\"attempted\": "), field("\"failed\": "));
    let body = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    let metrics = body
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("quoted name").to_string();
            let value = entry
                .split("\"value\": ")
                .nth(1)
                .and_then(|v| v.split(',').next())
                .unwrap_or_else(|| panic!("{name} has no value"))
                .to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .unwrap_or_else(|| panic!("{name} has no unit"))
                .to_string();
            (name, value, unit)
        })
        .collect();
    (attempted, failed, metrics)
}

fn check(workload: &str, trace: u8) -> BTreeSet<String> {
    let (attempted, failed, metrics) = run(workload, trace);
    assert!(attempted > 0, "{workload}: nothing attempted");
    assert_eq!(failed, 0, "{workload}: failed share must be 0");
    let mut names = BTreeSet::new();
    for (name, value, unit) in metrics {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{workload}: invalid metric name {name:?}"
        );
        assert!(!unit.is_empty(), "{workload}: {name} has no unit");
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{workload}: {name} = {value}"
        );
        assert!(
            names.insert(name.clone()),
            "{workload}: {name} reported twice"
        );
    }
    names
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    for workload in ["fft-seq", "fft-par2", "serve-mix"] {
        assert_eq!(check(workload, 0), listed("end_to_end"), "{workload}");
    }
}

#[test]
fn traced_run_reports_every_layer_metric() {
    assert_eq!(check("serve-mix", 1), listed("per_layer"));
}
