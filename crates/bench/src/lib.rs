//! # spiral-bench — harness regenerating the paper's evaluation
//!
//! * [`series`] — the five Figure 3 curves (pseudo-Mflop/s vs. size) on
//!   the simulated machines, with the paper's max-over-threads
//!   methodology;
//! * [`ascii`] — terminal tables/charts and CSV output;
//! * [`ablations`] — false-sharing, scheduling-grain, six-step,
//!   exchange-merge, analyzer-vs-simulator, and search-strategy
//!   ablations, all on the simulated machines;
//! * [`history`] — the `BENCH_<host>.json` record of perfbench runs
//!   per commit, with noise-aware comparison (the `bench` binary);
//! * [`cbench`] — the emitted C compiled with the platform compiler
//!   and timed, for `figures sequential` (CLAIM-SEQ);
//! * [`certify`] — CERT: the static certification sweep (exact
//!   symbolic + dataflow) and its `certify_report.json` artifact;
//! * [`serve_load`] — SERVE-LOAD: the network tier's round-trip latency
//!   percentiles under single / warm / overload client concurrency,
//!   and its `serve_load.json` artifact.
//!
//! The `figures` binary drives everything:
//! ```text
//! cargo run -p spiral-bench --release --bin figures -- fig3 --machine core-duo
//! cargo run -p spiral-bench --release --bin figures -- all
//! ```
//!
//! Host speed is measured by `perfbench/` and recorded with `bench
//! history`; the one host timer left here is `figures sequential`,
//! for the baselines perfbench does not time.

#![warn(missing_docs)]

pub mod ablations;
pub mod ascii;
pub mod cbench;
pub mod certify;
pub mod history;
pub mod series;
pub mod serve_load;
