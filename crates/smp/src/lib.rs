//! # spiral-smp — shared-memory execution substrate
//!
//! The runtime layer under the generated programs:
//!
//! * [`align::AlignedVec`] — cache-line aligned buffers (the `P ⊗̄ I_µ`
//!   false-sharing guarantee assumes line-aligned vectors, paper §3.1);
//! * [`barrier`] — low-latency spin and parking barriers for the
//!   per-stage synchronization of the generated parallel programs;
//! * [`pool::Pool`] — a persistent worker pool ("thread pooling" in the
//!   paper's comparison with FFTW) so small transforms do not pay thread
//!   startup cost;
//! * [`topology`] — host processor count and the cache-line parameter µ;
//! * [`error::SpiralError`] — the workspace-wide structured error of the
//!   fault-tolerant execution layer (panic isolation, barrier watchdogs,
//!   poison recovery);
//! * `faults` *(feature `faults`)* — deterministic fault injection for
//!   exercising the failure model;
//! * [`trace`] — the [`trace::Observer`] hook the execution layers
//!   report timestamped spans and marks through; `()` is the no-op
//!   observer (the recorders live in `spiral-trace`).

#![warn(missing_docs)]

pub mod align;
pub mod barrier;
pub mod error;
#[cfg(feature = "faults")]
pub mod faults;
pub mod pool;
pub mod topology;
pub mod trace;

pub use align::{AlignedVec, CACHE_LINE_BYTES};
pub use barrier::{Barrier, BarrierKind, ParkBarrier, SpinBarrier};
pub use error::{lock_recover, panic_payload, SpiralError};
pub use pool::Pool;
