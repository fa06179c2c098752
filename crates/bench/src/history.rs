//! Benchmark history: record → store → compare runs of the repository
//! benchmark (`perfbench/`).
//!
//! Each perfbench run prints, as its last line, a JSON object with the
//! correctness tally and every metric by name and unit. This module
//! keeps those lines in a schema-versioned `BENCH_<host>.json`, one
//! [`BenchRun`] per line, tagged with commit, workload and seed. Metric
//! names, units and directions come from `BENCHMARK.json`, the file the
//! benchmark pipeline judges by, so there is one definition of "faster".
//! [`compare_last_two`] judges the last two commits recorded on one host
//! with a noise-aware threshold; timings never compare across hosts.

use serde::{Deserialize, Serialize};
use spiral_smp::topology::HostFingerprint;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Version stamp of the serialized [`BenchHistory`] layout; guarded by
/// the golden snapshot under `results/bench_history_schema.json`.
///
/// * v1–v7 — each run held a grid of self-timed (size, threads, batch,
///   connections, backend) points.
/// * v8 — each run is one perfbench result line: commit, workload,
///   seed, the correctness tally and the metrics by name.
///
/// No file before v8 was ever committed, so there are no migrations: a
/// file at any other version is rejected with the same error.
pub const BENCH_SCHEMA_VERSION: u64 = 8;

/// The benchmark's declaration, read once at build time.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Largest integer a JSON number (an `f64`) carries exactly.
const MAX_EXACT_COUNT: f64 = 9_007_199_254_740_992.0;

/// The machine a benchmark run executed on: a human-facing name plus
/// the workspace-wide hardware [`HostFingerprint`] (the same identity
/// block `spiral-trace` profiles and `spiral-serve` wisdom carry).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchHost {
    /// Host name (kernel hostname; `"unknown-host"` when unavailable).
    pub name: String,
    /// Hardware identity (cores, µ, line size, compiled features).
    pub fingerprint: HostFingerprint,
}

impl BenchHost {
    /// The current host.
    pub fn current() -> BenchHost {
        BenchHost {
            name: hostname(),
            fingerprint: HostFingerprint::current(),
        }
    }

    /// Filesystem-safe slug of the host name (for `BENCH_<slug>.json`).
    pub fn slug(&self) -> String {
        let s: String = self
            .name
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let trimmed = s.trim_matches('-');
        if trimmed.is_empty() {
            "unknown-host".to_string()
        } else {
            trimmed.to_string()
        }
    }
}

fn hostname() -> String {
    #[cfg(target_os = "linux")]
    if let Ok(s) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let s = s.trim();
        if !s.is_empty() {
            return s.to_string();
        }
    }
    std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown-host".to_string())
}

/// A metric `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct MetricSpec {
    /// Name as perfbench prints it.
    pub name: String,
    /// Unit as perfbench prints it.
    pub unit: String,
    /// `"lower"` or `"higher"`: which way the metric improves.
    pub better: String,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Deserialize)]
pub struct Declaration {
    /// Compared by [`compare_last_two`].
    pub end_to_end: Vec<MetricSpec>,
    /// Reported by traced runs; stored, never compared.
    pub per_layer: Vec<MetricSpec>,
}

/// The benchmark's declared metrics, parsed once.
pub fn declaration() -> &'static Declaration {
    static DECLARATION: OnceLock<Declaration> = OnceLock::new();
    DECLARATION.get_or_init(|| {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json declares its metrics")
    })
}

fn metric_spec(name: &str) -> Option<&'static MetricSpec> {
    let d = declaration();
    d.end_to_end
        .iter()
        .chain(&d.per_layer)
        .find(|s| s.name == name)
}

/// One metric value as perfbench printed it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// The number (always finite).
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// A non-negative integer field of a JSON object.
fn count(v: &serde::Value, key: &str) -> Result<u64, String> {
    let x = v
        .get(key)
        .and_then(serde::Value::as_f64)
        .ok_or_else(|| format!("`{key}` is missing or not a number"))?;
    if !(x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT_COUNT) {
        return Err(format!("`{key}` = {x} is not a count"));
    }
    // Checked just above: a whole number in [0, 2^53].
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(x as u64)
}

/// One recorded perfbench run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchRun {
    /// Sequence number within the file (1-based, strictly increasing).
    pub seq: u64,
    /// Unix time the run was recorded, in milliseconds.
    pub unix_ms: u64,
    /// Host the run executed on.
    pub host: BenchHost,
    /// Commit (or label) of the code that ran.
    pub commit: String,
    /// perfbench workload.
    pub workload: String,
    /// perfbench seed.
    pub seed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (wrong output or non-OK response).
    pub failed: u64,
    /// Every metric perfbench printed, by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl BenchRun {
    /// A run on this host from a saved perfbench stdout. The output is
    /// untrusted: its last non-empty line must be the result object,
    /// every metric declared in `BENCHMARK.json` with the unit printed,
    /// every value finite, and `failed ≤ attempted`. Anything else is an
    /// `Err` with the reason.
    pub fn from_perfbench(
        output: &[u8],
        commit: &str,
        workload: &str,
        seed: u64,
    ) -> Result<BenchRun, String> {
        let text = std::str::from_utf8(output)
            .map_err(|e| format!("perfbench output is not UTF-8: {e}"))?;
        let line = text
            .lines()
            .rev()
            .map(str::trim)
            .find(|l| !l.is_empty())
            .ok_or("perfbench output has no non-empty line")?;
        let v: serde::Value =
            serde_json::from_str(line).map_err(|e| format!("last line is not JSON: {e}"))?;
        let (attempted, failed) = (count(&v, "attempted")?, count(&v, "failed")?);
        let Some(serde::Value::Obj(fields)) = v.get("metrics") else {
            return Err("last line has no `metrics` object".to_string());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in fields {
            let spec = metric_spec(name)
                .ok_or_else(|| format!("unknown metric {name:?} (not in BENCHMARK.json)"))?;
            let Some(serde::Value::Str(unit)) = m.get("unit") else {
                return Err(format!("metric {name:?} has no unit"));
            };
            if *unit != spec.unit {
                return Err(format!(
                    "metric {name:?} has unit {unit:?}, BENCHMARK.json declares {:?}",
                    spec.unit
                ));
            }
            let value = m
                .get("value")
                .and_then(serde::Value::as_f64)
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("metric {name:?} has no finite value"))?;
            let unit = unit.clone();
            if metrics
                .insert(name.clone(), MetricValue { value, unit })
                .is_some()
            {
                return Err(format!("metric {name:?} appears twice"));
            }
        }
        let run = BenchRun {
            seq: 0, // assigned by BenchHistory::append
            unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            host: BenchHost::current(),
            commit: commit.to_string(),
            workload: workload.to_string(),
            seed,
            attempted,
            failed,
            metrics,
        };
        run.validate()?;
        Ok(run)
    }

    /// A traced run (`--trace 1`) carries per-layer metrics. Its ratios
    /// come from half-budget runs, so it is stored but never compared.
    pub fn is_traced(&self) -> bool {
        let e2e = &declaration().end_to_end;
        self.metrics
            .keys()
            .any(|n| !e2e.iter().any(|s| s.name == *n))
    }

    fn validate(&self) -> Result<(), String> {
        if self.commit.is_empty() || self.workload.is_empty() {
            return Err("commit and workload must not be empty".to_string());
        }
        if self.failed > self.attempted {
            return Err(format!(
                "failed ({}) exceeds attempted ({})",
                self.failed, self.attempted
            ));
        }
        if self.metrics.is_empty() {
            return Err("no metrics".to_string());
        }
        match self.metrics.iter().find(|(_, m)| !m.value.is_finite()) {
            Some((name, _)) => Err(format!("metric {name:?} is not finite")),
            None => Ok(()),
        }
    }
}

/// The whole stored history: schema version + runs, oldest first.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchHistory {
    /// Serialization layout version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Recorded runs, oldest first.
    pub runs: Vec<BenchRun>,
}

impl Default for BenchHistory {
    fn default() -> BenchHistory {
        BenchHistory {
            schema: BENCH_SCHEMA_VERSION,
            runs: Vec::new(),
        }
    }
}

impl BenchHistory {
    /// Parse a history file's contents. The schema is checked before
    /// the layout, so a file at any other version — older or newer —
    /// fails with the same error.
    pub fn from_json(s: &str) -> Result<BenchHistory, String> {
        let v: serde::Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        check_schema(v.get("schema").and_then(serde::Value::as_f64))?;
        let h = BenchHistory::from_value(&v).map_err(|e| e.to_string())?;
        h.validate()?;
        Ok(h)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("BenchHistory serializes")
    }

    /// Load from `path`; a missing file is an empty history.
    pub fn load(path: &std::path::Path) -> Result<BenchHistory, String> {
        match std::fs::read_to_string(path) {
            Ok(s) => BenchHistory::from_json(&s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(BenchHistory::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    /// Write to `path` as pretty JSON.
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Structural validity: known schema, strictly increasing run
    /// sequence numbers, and every run valid (non-empty labels,
    /// `failed ≤ attempted`, finite metric values).
    pub fn validate(&self) -> Result<(), String> {
        check_schema(Some(self.schema as f64))?;
        let mut prev_seq = 0u64;
        for run in &self.runs {
            if run.seq <= prev_seq {
                return Err(format!(
                    "run sequence numbers must strictly increase: {} after {prev_seq}",
                    run.seq
                ));
            }
            prev_seq = run.seq;
            run.validate()
                .map_err(|e| format!("run {}: {e}", run.seq))?;
        }
        Ok(())
    }

    /// Append `run`, assigning the next sequence number.
    pub fn append(&mut self, mut run: BenchRun) {
        run.seq = self.runs.last().map_or(0, |r| r.seq) + 1;
        self.runs.push(run);
    }

    /// The host of the latest run: the one `compare` and `show` report.
    pub fn latest_host(&self) -> Option<&str> {
        self.runs.last().map(|r| r.host.name.as_str())
    }

    /// Commits recorded on `host`, in order of first appearance.
    pub fn commits(&self, host: &str) -> Vec<&str> {
        self.distinct(host, |r| &r.commit)
    }

    /// Workloads recorded on `host`, in order of first appearance.
    pub fn workloads(&self, host: &str) -> Vec<&str> {
        self.distinct(host, |r| &r.workload)
    }

    fn distinct(&self, host: &str, key: fn(&BenchRun) -> &String) -> Vec<&str> {
        let mut seen: Vec<&str> = Vec::new();
        for r in self.runs.iter().filter(|r| r.host.name == host) {
            if !seen.contains(&key(r).as_str()) {
                seen.push(key(r));
            }
        }
        seen
    }

    fn on_host<'a>(&'a self, host: &'a str) -> impl Iterator<Item = &'a BenchRun> + 'a {
        self.runs.iter().filter(move |r| r.host.name == host)
    }

    /// Untraced runs of (`host`, `commit`, `workload`) that report
    /// `metric`, in file order, as (seed, value).
    fn values(&self, host: &str, commit: &str, workload: &str, metric: &str) -> Vec<(u64, f64)> {
        self.on_host(host)
            .filter(|r| r.commit == commit && r.workload == workload && !r.is_traced())
            .filter_map(|r| r.metrics.get(metric).map(|m| (r.seed, m.value)))
            .collect()
    }

    /// The trajectory of one metric: per commit on `host` (oldest
    /// first), the median over its untraced runs and how many there
    /// were. Commits with no such run are skipped.
    pub fn trajectory(
        &self,
        host: &str,
        workload: &str,
        metric: &str,
    ) -> Vec<(String, f64, usize)> {
        self.commits(host)
            .into_iter()
            .filter_map(|c| {
                let xs: Vec<f64> = self
                    .values(host, c, workload, metric)
                    .iter()
                    .map(|&(_, x)| x)
                    .collect();
                (!xs.is_empty()).then(|| (c.to_string(), median(&xs), xs.len()))
            })
            .collect()
    }
}

/// The one schema gate: anything but [`BENCH_SCHEMA_VERSION`] (or a
/// missing stamp) is unsupported.
fn check_schema(schema: Option<f64>) -> Result<(), String> {
    if schema == Some(BENCH_SCHEMA_VERSION as f64) {
        return Ok(());
    }
    let found = schema.map_or_else(|| "missing".to_string(), |s| s.to_string());
    Err(format!(
        "unsupported bench history schema {found} (this build reads {BENCH_SCHEMA_VERSION})"
    ))
}

/// Median of a sample (empty → 0).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Median absolute deviation from the median — the robust spread
/// estimate the regression threshold is scaled by.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// `[q1, median, q3]` by the method Python's `statistics.quantiles(xs,
/// n=4)` uses (`perfbench/spread.py` reports the same numbers). A single
/// value is its own quartiles; an empty sample is all zeros.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let cut = |i: usize| match n {
        0 => 0.0,
        1 => v[0],
        _ => {
            let m = i * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            v[j - 1] + (m as f64 / 4.0 - j as f64) * (v[j] - v[j - 1])
        }
    };
    [cut(1), median(&v), cut(3)]
}

/// Regression threshold: a metric regresses when its median is worse
/// by more than `max(mad_factor · MAD / base median, min_rel_drop)`,
/// MAD being the larger of the two sides'.
#[derive(Clone, Copy, Debug)]
pub struct CompareOpts {
    /// Robust standard-deviation-equivalents of noise a drop must exceed.
    pub mad_factor: f64,
    /// Floor, so near-zero-MAD samples don't flag sub-percent jitter.
    pub min_rel_drop: f64,
}

impl Default for CompareOpts {
    fn default() -> CompareOpts {
        CompareOpts {
            mad_factor: 4.0,
            min_rel_drop: 0.05,
        }
    }
}

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the noise-aware threshold allows.
    Regressed,
    /// Wins ≥ 9/10 of the pairs and moves the median by more than the
    /// base side's interquartile range.
    Gain,
    /// Neither.
    NoChange,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Regressed => "regressed",
            Verdict::Gain => "gain",
            Verdict::NoChange => "no change",
        })
    }
}

/// One workload × end-to-end metric, base commit against head commit.
#[derive(Clone, Debug)]
pub struct CompareLine {
    /// perfbench workload.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// [`quartiles`] of the base commit's untraced runs.
    pub base: [f64; 3],
    /// [`quartiles`] of the head commit's untraced runs.
    pub head: [f64; 3],
    /// Same-seed (base, head) pairs.
    pub pairs: usize,
    /// Pairs in which the head run is strictly better.
    pub head_wins: usize,
    /// Median change relative to the base median, signed so that
    /// positive is better and negative is worse.
    pub rel_gain: f64,
    /// The noise-aware relative worsening that is tolerated.
    pub threshold: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// One workload's `failed / attempted` over all its runs on each side.
/// A higher share on the head side is a regression, whatever the
/// timings say.
#[derive(Clone, Debug)]
pub struct FailedShare {
    /// perfbench workload.
    pub workload: String,
    /// Base side share.
    pub base: f64,
    /// Head side share.
    pub head: f64,
}

/// The last two commits recorded on one host, compared.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Host compared on.
    pub host: String,
    /// Earlier commit.
    pub base_commit: String,
    /// Later commit.
    pub head_commit: String,
    /// Workload × end-to-end metric verdicts.
    pub lines: Vec<CompareLine>,
    /// Failed share per workload.
    pub failed: Vec<FailedShare>,
}

impl CompareReport {
    /// Metric lines that regressed plus workloads whose failed share
    /// rose.
    pub fn regressions(&self) -> usize {
        let lines = self
            .lines
            .iter()
            .filter(|l| l.verdict == Verdict::Regressed)
            .count();
        lines + self.failed.iter().filter(|f| f.head > f.base).count()
    }
}

/// Compare the last two commits (in order of first appearance) recorded
/// on the latest run's host, for every workload both recorded and every
/// end-to-end metric of `BENCHMARK.json`. `None` when that host has
/// fewer than two commits.
pub fn compare_last_two(history: &BenchHistory, opts: &CompareOpts) -> Option<CompareReport> {
    let host = history.latest_host()?;
    let commits = history.commits(host);
    let [.., base_commit, head_commit] = commits[..] else {
        return None;
    };
    let mut report = CompareReport {
        host: host.to_string(),
        base_commit: base_commit.to_string(),
        head_commit: head_commit.to_string(),
        lines: Vec::new(),
        failed: Vec::new(),
    };
    for workload in history.workloads(host) {
        let share = |commit: &str| {
            let (failed, attempted) = history
                .on_host(host)
                .filter(|r| r.commit == commit && r.workload == workload)
                .fold((0u64, 0u64), |(f, a), r| {
                    (f.saturating_add(r.failed), a.saturating_add(r.attempted))
                });
            (attempted > 0).then(|| failed as f64 / attempted as f64)
        };
        let (Some(base), Some(head)) = (share(base_commit), share(head_commit)) else {
            continue;
        };
        report.failed.push(FailedShare {
            workload: workload.to_string(),
            base,
            head,
        });
        for spec in &declaration().end_to_end {
            let base = history.values(host, base_commit, workload, &spec.name);
            let head = history.values(host, head_commit, workload, &spec.name);
            if !base.is_empty() && !head.is_empty() {
                report
                    .lines
                    .push(compare_metric(workload, spec, &base, &head, opts));
            }
        }
    }
    Some(report)
}

/// The verdict on one metric from (seed, value) samples of each side.
fn compare_metric(
    workload: &str,
    spec: &MetricSpec,
    base: &[(u64, f64)],
    head: &[(u64, f64)],
    opts: &CompareOpts,
) -> CompareLine {
    // +1 when higher is better: `sign · (x - y) > 0` means x beats y.
    let sign = if spec.better == "higher" { 1.0 } else { -1.0 };
    // Pair each base run with the next unused head run of the same seed.
    let mut used = vec![false; head.len()];
    let (mut pairs, mut head_wins) = (0, 0);
    for &(seed, b) in base {
        if let Some(i) = (0..head.len()).find(|&i| !used[i] && head[i].0 == seed) {
            used[i] = true;
            pairs += 1;
            head_wins += usize::from(sign * (head[i].1 - b) > 0.0);
        }
    }
    let base_x: Vec<f64> = base.iter().map(|&(_, x)| x).collect();
    let head_x: Vec<f64> = head.iter().map(|&(_, x)| x).collect();
    let ([b1, bm, b3], hq) = (quartiles(&base_x), quartiles(&head_x));
    let delta = sign * (hq[1] - bm);
    let rel_gain = delta / bm.abs();
    let noise = opts.mad_factor * mad(&base_x).max(mad(&head_x)) / bm.abs();
    let threshold = noise.max(opts.min_rel_drop);
    let verdict = if rel_gain < -threshold {
        Verdict::Regressed
    } else if pairs > 0 && head_wins * 10 >= pairs * 9 && delta > b3 - b1 {
        Verdict::Gain
    } else {
        Verdict::NoChange
    };
    CompareLine {
        workload: workload.to_string(),
        metric: spec.name.clone(),
        base: [b1, bm, b3],
        head: hq,
        pairs,
        head_wins,
        rel_gain,
        threshold,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(name: &str) -> BenchHost {
        BenchHost {
            name: name.to_string(),
            fingerprint: HostFingerprint {
                cores: 2,
                mu: 4,
                cache_line_bytes: 64,
                simd_width: 4,
                features: vec!["simd4".to_string()],
            },
        }
    }

    fn m(value: f64, unit: &str) -> MetricValue {
        let unit = unit.to_string();
        MetricValue { value, unit }
    }

    /// An untraced fft-seq run on `test-host` with the three end-to-end
    /// metrics.
    fn run(commit: &str, seed: u64, setup_s: f64, small: f64, large: f64) -> BenchRun {
        BenchRun {
            seq: 0,
            unix_ms: 1_700_000_000_000,
            host: host("test-host"),
            commit: commit.to_string(),
            workload: "fft-seq".to_string(),
            seed,
            attempted: 1000,
            failed: 0,
            metrics: [
                ("setup_s".to_string(), m(setup_s, "s")),
                ("small_vs_iterative".to_string(), m(small, "x")),
                ("large_vs_iterative".to_string(), m(large, "x")),
            ]
            .into(),
        }
    }

    /// Ten seeds per side; `f(commit, seed)` builds each run. Runs are
    /// appended in alternating order, base first for odd seeds.
    fn pairs(f: impl Fn(&str, u64) -> BenchRun) -> BenchHistory {
        let mut h = BenchHistory::default();
        for seed in 1..=10 {
            let (first, second) = if seed % 2 == 1 {
                ("base", "head")
            } else {
                ("head", "base")
            };
            h.append(f(first, seed));
            h.append(f(second, seed));
        }
        h
    }

    fn line<'a>(r: &'a CompareReport, metric: &str) -> &'a CompareLine {
        r.lines.iter().find(|l| l.metric == metric).unwrap()
    }

    /// ±2 % of jitter that depends on the seed only.
    fn jitter(seed: u64) -> f64 {
        1.0 + 0.02 * ((seed * 7 % 5) as f64 - 2.0) / 2.0
    }

    #[test]
    fn declaration_lists_the_end_to_end_metrics() {
        let d = declaration();
        let e2e: Vec<(&str, &str)> = d
            .end_to_end
            .iter()
            .map(|s| (s.name.as_str(), s.better.as_str()))
            .collect();
        assert_eq!(
            e2e,
            [
                ("setup_s", "lower"),
                ("small_vs_iterative", "higher"),
                ("large_vs_iterative", "higher")
            ]
        );
        assert!(!d.per_layer.is_empty());
        let mut both = d.end_to_end.iter().chain(&d.per_layer);
        assert!(both.all(|s| s.better == "lower" || s.better == "higher"));
    }

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // MAD of {1,2,3,4,100}: median 3, deviations {2,1,0,1,97} → 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn append_assigns_increasing_seq_and_validates() {
        let mut h = BenchHistory::default();
        h.append(run("a", 1, 0.1, 1.2, 1.05));
        h.append(run("b", 1, 0.1, 1.2, 1.05));
        assert_eq!((h.runs[0].seq, h.runs[1].seq), (1, 2));
        h.validate().unwrap();
        assert_eq!(BenchHistory::from_json(&h.to_json()).unwrap(), h);
    }

    #[test]
    fn validate_rejects_bad_histories() {
        let one = |edit: fn(&mut BenchRun)| {
            let mut h = BenchHistory::default();
            h.append(run("a", 1, 0.1, 1.2, 1.05));
            edit(&mut h.runs[0]);
            h.validate().unwrap_err()
        };
        assert!(one(|r| r.seq = 0).contains("strictly increase"));
        assert!(one(|r| r.failed = 1001).contains("exceeds attempted"));
        assert!(one(|r| r.workload.clear()).contains("must not be empty"));
        assert!(one(|r| r.metrics.clear()).contains("no metrics"));
        let err = one(|r| r.metrics.get_mut("setup_s").unwrap().value = f64::NAN);
        assert!(err.contains("not finite"), "{err}");
    }

    #[test]
    fn identical_runs_do_not_regress() {
        let h = pairs(|c, s| run(c, s, 0.1 * jitter(s), 1.2 * jitter(s), 1.05));
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        assert_eq!(
            (r.base_commit.as_str(), r.head_commit.as_str()),
            ("base", "head")
        );
        assert_eq!(r.lines.len(), 3);
        for l in &r.lines {
            assert_eq!(l.verdict, Verdict::NoChange, "{l:?}");
            assert_eq!((l.pairs, l.head_wins), (10, 0));
        }
        assert_eq!(r.regressions(), 0);
    }

    #[test]
    fn synthetic_2x_slowdown_is_flagged() {
        // Head takes twice as long per transform: both ratios halve.
        let h = pairs(|c, s| {
            let slow = if c == "head" { 0.5 } else { 1.0 };
            run(c, s, 0.1, 1.2 * jitter(s) * slow, 1.05 * jitter(s) * slow)
        });
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.regressions(), 2);
        let l = line(&r, "small_vs_iterative");
        assert_eq!(l.verdict, Verdict::Regressed);
        assert!((l.rel_gain + 0.5).abs() < 1e-12);
        assert_eq!(line(&r, "setup_s").verdict, Verdict::NoChange);
    }

    #[test]
    fn rising_setup_time_is_a_regression() {
        let h = pairs(|c, s| {
            let setup = if c == "head" { 0.13 } else { 0.1 };
            run(c, s, setup * jitter(s), 1.2, 1.05)
        });
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        let l = line(&r, "setup_s");
        assert_eq!(l.verdict, Verdict::Regressed, "{l:?}");
        assert!(l.rel_gain < -0.25);
        assert_eq!(r.regressions(), 1);
    }

    #[test]
    fn falling_ratio_is_a_regression_and_rising_one_a_gain() {
        let h = pairs(|c, s| {
            let large = if c == "head" { 0.9 } else { 1.05 };
            let small = if c == "head" { 1.32 } else { 1.2 };
            run(c, s, 0.1, small * jitter(s), large * jitter(s))
        });
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        assert_eq!(line(&r, "large_vs_iterative").verdict, Verdict::Regressed);
        let small = line(&r, "small_vs_iterative");
        assert_eq!(small.verdict, Verdict::Gain, "{small:?}");
        assert_eq!(small.head_wins, 10);
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        // Head is 10 % faster on eight seeds and 10 % slower on two.
        let h = pairs(|c, s| {
            let f = match (c, s) {
                ("head", 1 | 2) => 0.9,
                ("head", _) => 1.1,
                _ => 1.0,
            };
            run(c, s, 0.1, 1.2 * f, 1.05)
        });
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        let l = line(&r, "small_vs_iterative");
        assert_eq!((l.pairs, l.head_wins), (10, 8));
        assert_eq!(l.verdict, Verdict::NoChange);
    }

    #[test]
    fn noisy_baseline_widens_the_threshold() {
        // ±25 % spread on both sides: MAD/median = 0.125 → threshold
        // 50 %, so a 20 % drop is within noise.
        let spread = |s: u64| 1.0 + 0.25 * ((s % 5) as f64 - 2.0) / 2.0;
        let h = pairs(|c, s| {
            let f = if c == "head" { 0.8 } else { 1.0 };
            run(c, s, 0.1, 1.2 * spread(s) * f, 1.05)
        });
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        let l = line(&r, "small_vs_iterative");
        assert!(l.threshold >= 0.4, "{l:?}");
        assert_eq!(l.verdict, Verdict::NoChange);
        assert_eq!(r.regressions(), 0);
    }

    #[test]
    fn higher_failed_share_trips_the_gate_with_equal_timings() {
        let h = pairs(|c, s| {
            let mut r = run(c, s, 0.1, 1.2, 1.05);
            if c == "head" && s == 3 {
                r.failed = 1;
            }
            r
        });
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        assert!(r.lines.iter().all(|l| l.verdict == Verdict::NoChange));
        assert_eq!(r.failed.len(), 1);
        assert_eq!(r.regressions(), 1);
    }

    #[test]
    fn traced_runs_are_stored_but_not_compared() {
        let mut h = pairs(|c, s| run(c, s, 0.1, 1.2, 1.05));
        let mut traced = run("head", 1, 9.0, 0.1, 0.1);
        traced
            .metrics
            .insert("e2e.p50_us".to_string(), m(3.0, "us"));
        assert!(traced.is_traced() && !h.runs[0].is_traced());
        h.append(traced);
        let r = compare_last_two(&h, &CompareOpts::default()).unwrap();
        assert_eq!(r.regressions(), 0);
        assert_eq!(line(&r, "setup_s").pairs, 10);
    }

    #[test]
    fn foreign_host_runs_are_not_compared() {
        let mut h = BenchHistory::default();
        let mut other = run("base", 1, 0.1, 9.0, 9.0);
        other.host = host("other-host");
        h.append(other);
        h.append(run("head", 1, 0.1, 1.0, 1.0));
        assert!(compare_last_two(&h, &CompareOpts::default()).is_none());
        assert_eq!(h.commits("test-host"), ["head"]);
    }

    #[test]
    fn first_run_has_no_baseline() {
        assert!(compare_last_two(&BenchHistory::default(), &CompareOpts::default()).is_none());
        let mut h = BenchHistory::default();
        h.append(run("a", 1, 0.1, 1.0, 1.0));
        assert!(compare_last_two(&h, &CompareOpts::default()).is_none());
    }

    #[test]
    fn trajectory_lists_per_commit_medians_oldest_first() {
        let mut h = BenchHistory::default();
        for (c, small) in [("a", 1.0), ("b", 1.2), ("a", 3.0), ("c", 1.4), ("b", 1.4)] {
            h.append(run(c, 1, 0.1, small, 1.0));
        }
        let t = h.trajectory("test-host", "fft-seq", "small_vs_iterative");
        let want = [("a", 2.0, 2), ("b", 1.3, 2), ("c", 1.4, 1)];
        assert_eq!(t.len(), 3);
        for ((c, m, n), (wc, wm, wn)) in t.iter().zip(want) {
            assert_eq!((c.as_str(), *n), (wc, wn));
            assert!((m - wm).abs() < 1e-12);
        }
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let future = BenchHistory {
            schema: BENCH_SCHEMA_VERSION + 1,
            ..Default::default()
        };
        let v7 = r#"{"schema": 7, "runs": []}"#;
        for (schema, text) in [(BENCH_SCHEMA_VERSION + 1, future.to_json()), (7, v7.into())] {
            let err = BenchHistory::from_json(&text).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "unsupported bench history schema {schema} \
                     (this build reads {BENCH_SCHEMA_VERSION})"
                )
            );
        }
    }

    #[test]
    fn host_slug_is_filesystem_safe() {
        let mut host = BenchHost::current();
        host.name = "CI runner.42!".to_string();
        assert_eq!(host.slug(), "ci-runner-42");
        host.name = "---".to_string();
        assert_eq!(host.slug(), "unknown-host");
    }
}
