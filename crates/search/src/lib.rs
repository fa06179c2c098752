//! # spiral-search — the search/learning block (paper §2.3, Figure 1)
//!
//! Spiral adapts to the target platform by searching the space of
//! recursion strategies (rule trees) and, for shared memory, the
//! top-level split of the multicore Cooley–Tukey formula:
//!
//! * [`cost::CostModel`] — analytic, simulator-cycle, or wall-clock
//!   candidate costing;
//! * [`dp`] — dynamic programming over rule trees (Spiral's default);
//! * [`random`] — random sampling baseline;
//! * [`evolve`] — evolutionary search (ref. [24]);
//! * [`tuner::Tuner`] — the full feedback loop producing a tuned
//!   [`spiral_codegen::Plan`].

#![warn(missing_docs)]

pub mod cost;
pub mod dp;
pub mod evolve;
pub mod random;
pub mod tuner;

pub use cost::CostModel;
pub use dp::{dp_search, SearchResult};
pub use evolve::{evolve_search, EvolveOpts};
pub use random::{random_search, random_tree};
pub use spiral_codegen::SpiralError;
pub use tuner::{candidate_vec_widths, QuarantineEntry, TuneOutcome, TuneReport, Tuned, Tuner};
