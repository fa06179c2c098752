//! # spiral-bench — harness regenerating the paper's evaluation
//!
//! * [`series`] — the five Figure 3 curves (pseudo-Mflop/s vs. size) on
//!   the simulated machines, with the paper's max-over-threads
//!   methodology;
//! * [`ascii`] — terminal tables/charts and CSV output;
//! * [`ablations`] — false-sharing, scheduling-grain, six-step, and
//!   search-strategy ablations;
//! * [`history`] — longitudinal `BENCH_<host>.json` benchmark history
//!   with noise-aware regression comparison (the `bench` binary);
//! * [`batch`] — BATCH: batched small-DFT throughput vs per-transform
//!   dispatch, the serving layer's speedup measurement;
//! * [`certify`] — CERT: the static certification sweep (exact
//!   symbolic + dataflow) and its `certify_report.json` artifact;
//! * [`simd_ablation`] — ABL-SIMD: the short-vector backend vs the
//!   scalar kernel path on the host, `simd_ablation.json`;
//! * [`serve_load`] — SERVE-LOAD: the network tier's round-trip latency
//!   percentiles under single / warm / overload client concurrency,
//!   and its `serve_load.json` artifact.
//!
//! The `figures` binary drives everything:
//! ```text
//! cargo run -p spiral-bench --release --bin figures -- fig3 --machine core-duo
//! cargo run -p spiral-bench --release --bin figures -- all
//! ```

#![warn(missing_docs)]

pub mod ablations;
pub mod ascii;
pub mod batch;
pub mod cbench;
pub mod certify;
pub mod history;
pub mod series;
pub mod serve_load;
pub mod simd_ablation;
