//! The repository benchmark. One command runs one seeded workload and
//! prints, as its last line, a JSON object with the correctness tally
//! and every metric by name with its unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fft-seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with tracing off.
//! `--trace 1` reports the per-layer metrics: it times each layer's
//! public entry points from outside, then runs the workload once
//! untraced and once with spans recorded, writes the spans as
//! Chrome/Perfetto JSON under `.perfbench/`, and reports each layer's
//! self time and the tracing overhead. See `perfbench/README.md` for the
//! metrics and the layer each one belongs to.

mod alloc;
mod fft;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Attempted and failed operations; a wrong output or a non-OK response
/// is a failure.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Args {
    workload: workloads::Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <fft-seq|fft-par2|serve-mix> --seed <u64> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(workloads::Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.unwrap_or(false),
    })
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite numbers are not JSON; report them as null.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (tally, metrics) = if args.trace {
        workloads::traced(args.workload, args.seed, args.budget)
    } else {
        workloads::untraced(args.workload, args.seed, args.budget)
    };
    println!("{}", json_line(&tally, &metrics));
}
