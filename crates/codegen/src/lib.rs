//! # spiral-codegen — the SPL compiler (implementation level of Figure 1)
//!
//! Turns (fully expanded) SPL formulas into executable code:
//!
//! * [`lower`] — formulas → stage programs with explicit gather/scatter
//!   loop nests;
//! * [`fuse`] — loop merging (ref. [11] in the paper): permutations and
//!   diagonals fold into adjacent compute loops, so a Cooley–Tukey
//!   formula becomes `log N` kernel passes;
//! * [`codelet`] — genfft-style straight-line base-case kernels produced
//!   by partial evaluation and compiled: the build script prints every
//!   DAG as a straight-line Rust function, generic over the lane type;
//! * [`plan`] — the executable [`plan::Plan`]: steps separated by
//!   barriers, with the tagged parallel operators mapped to statically
//!   scheduled parallel steps;
//! * [`parallel`] — multithreaded execution on the `spiral-smp` pool;
//! * [`batch`] — batch-dimension parallel execution of many independent
//!   small transforms per pool dispatch (the serving layer's executor);
//! * [`hook`] — instrumentation interface replaying exact per-thread
//!   memory-access streams into the machine simulator;
//! * [`cemit`] — C source emission (OpenMP and pthreads flavors).
//!
//! Debug builds additionally run a statically installed plan validator
//! ([`plan::install_validator`]) before parallel execution — the hook
//! through which `spiral-verify`'s race audit and dataflow certification
//! guard the executor's `unsafe` shared-buffer access.
//!
//! ## Example
//!
//! ```
//! use spiral_rewrite::multicore_dft_expanded;
//! use spiral_codegen::plan::Plan;
//! use spiral_spl::cplx::Cplx;
//!
//! let formula = multicore_dft_expanded(64, 2, 4, None, 8).unwrap();
//! let plan = Plan::from_formula(&formula, 2, 4).unwrap();
//! let x: Vec<Cplx> = (0..64).map(|k| Cplx::real(k as f64)).collect();
//! let y = plan.execute(&x);
//! assert_eq!(y.len(), 64);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cemit;
pub mod codelet;
pub mod fuse;
pub mod hook;
pub mod lower;
pub mod parallel;
pub mod plan;
pub mod simd;
pub mod stage;
pub mod vectorize;

/// `usize` index → `u32` table entry. Permutation/gather tables store
/// `u32` to halve their footprint; a transform large enough to overflow
/// one (n > 2³²) is far beyond anything this workspace lowers, so the
/// conversion asserts instead of truncating.
pub(crate) fn u32_idx(v: usize) -> u32 {
    u32::try_from(v).expect("index exceeds u32 table range")
}

pub use batch::BatchExecutor;
pub use cemit::{emit_c, CFlavor};
pub use codelet::Codelet;
pub use hook::{MemHook, NullHook, Region};
pub use lower::{lower_seq, LowerError};
pub use parallel::ParallelExecutor;
pub use plan::{
    install_validator, ElementOp, Plan, PlanShape, PlanValidator, PlanWorkspace, Portion, Step,
};
pub use simd::detected_simd_width;
pub use spiral_smp::SpiralError;
pub use vectorize::{stage_alignment, vectorize_plan, vectorized_shape};
