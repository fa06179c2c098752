//! # spiral-serve — the serving layer
//!
//! Everything below this crate answers "what is the fastest way to run
//! *one* DFT_n on this machine?" — the generator derives candidates,
//! the search picks a winner, the executors run it. A serving workload
//! asks a different question: many independent, mostly small transforms
//! arrive over time, repeat sizes heavily, and must not pay the tuner
//! on every request. This crate closes that gap with three pieces:
//!
//! * [`wisdom`] — FFTW-style persisted tuning results: the winning SPL
//!   formulas, keyed by `(n, threads, µ)` and bound to a
//!   [`spiral_smp::topology::HostFingerprint`], reloaded and
//!   re-validated (parse → lower → `spiral-verify`) on startup;
//! * [`cache`] — [`cache::PlanService`]: a sharded read-mostly plan
//!   cache with single-flight tuning (a cold key is tuned exactly once,
//!   no matter how many threads ask for it concurrently) and an
//!   observable tuner-invocation counter;
//! * batched execution via [`spiral_codegen::BatchExecutor`] — the
//!   batch dimension, not the transform, is partitioned across the
//!   pool, so a batch of small DFTs costs one dispatch/join instead of
//!   one barrier set per transform.
//!
//! On top of the service sits the **network tier** (PR 7), built
//! robustness-first:
//!
//! * [`wire`] — a length-prefixed binary protocol whose decode paths
//!   distinguish idle, clean-close, torn, stalled, and malformed;
//! * [`overload`] — bounded queues with non-blocking admission and the
//!   request-accounting counters (every request ends in exactly one of
//!   `Ok` / `Overloaded` / `Expired` / `Error`);
//! * [`net`] — the thread-per-core server: deadline enforcement end to
//!   end, load shedding of expired work, cross-connection coalescing of
//!   same-size requests into one batch dispatch, sticky degradation to
//!   the sequential path when the pool watchdog trips, graceful drain;
//! * [`client`] — the blocking client and load driver, including
//!   deliberately misbehaving writers for the chaos suite.
//!
//! The `serve` binary drives the service with a synthetic request
//! stream and reports throughput (`bench` mode), runs the server
//! (`listen`), or drives load at one (`load`); `--assert-no-tuning`
//! turns the warm-wisdom invariant (zero tuner invocations) into an
//! exit code.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod metrics;
pub mod net;
pub mod overload;
pub mod wire;
pub mod wisdom;

pub use cache::{PlanService, PlanSource, ServedPlan};
pub use client::{drive, percentile_us, request_from_inputs, Client, LoadOutcome, LoadSpec};
pub use metrics::{GaugeReadings, ServeMetrics};
pub use net::{DrainReport, Server, ServerConfig};
pub use overload::{BoundedQueue, CounterSnapshot, Push, ServeCounters};
pub use spiral_codegen::BatchExecutor;
pub use spiral_smp::error::SpiralError;
pub use spiral_trace::metrics::MetricsSnapshot;
pub use wire::{Request, Response, StatsKind, WireError, MAX_FRAME_BYTES};
pub use wisdom::{
    compile_entry, CompiledEntry, LoadReport, RejectedEntry, WisdomEntry, WisdomFile, WisdomStore,
    WISDOM_SCHEMA_VERSION,
};
