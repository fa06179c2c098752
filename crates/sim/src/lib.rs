//! # spiral-sim — shared-memory machine simulator
//!
//! The container this reproduction runs in has a single CPU, so real
//! threads cannot exhibit parallel speedup. This crate substitutes the
//! paper's four physical evaluation machines with models that consume the
//! *exact* per-thread memory-access streams of compiled plans
//! ([`spiral_codegen::Plan::run_traced`]) and estimate cycles:
//!
//! * [`machine`] — specs for the paper's Core Duo, Pentium D, Opteron,
//!   and Xeon MP (µ = 4 on all of them), with on-chip vs. bus coherence
//!   and barrier costs;
//! * [`cache`] — set-associative LRU caches;
//! * [`simhook`] — per-core clocks, coherence directory, and — central to
//!   the paper — **false-sharing detection**: line transfers caused by
//!   different-element accesses;
//! * [`report`] — one-call plan simulation with pseudo-Mflop/s output.

#![warn(missing_docs)]

pub mod cache;
pub mod machine;
pub mod report;
pub mod simhook;

pub use machine::{by_name, core_duo, opteron, paper_machines, pentium_d, xeon_mp, MachineSpec};
pub use report::{simulate_plan, SimReport};
pub use simhook::{SimStats, SmpSim};
