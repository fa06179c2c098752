//! # spiral-rewrite — the rewriting system of the SC'06 paper
//!
//! This crate is the paper's primary contribution in code:
//!
//! * [`ruletree`] — recursion strategies (factorization trees) for the
//!   Cooley–Tukey breakdown rule (1), the space the autotuner searches;
//! * [`smp_rules`] — the Table 1 shared-memory parallelization rules
//!   (6)–(11) and the engine driving them to a fixpoint;
//! * [`derive`](mod@derive) — the end-to-end derivation producing the *multicore
//!   Cooley–Tukey FFT*, formula (14), plus a hand-built (14) used to
//!   cross-check the derivation;
//! * [`check`] — Definition 1 (*load-balanced*, *avoids false sharing*,
//!   *fully optimized*) as an executable checker, with per-processor
//!   work accounting.
//!
//! ## Example: derive formula (14)
//!
//! ```
//! use spiral_rewrite::derive::multicore_dft;
//! use spiral_rewrite::check::check_fully_optimized;
//!
//! let r = multicore_dft(64, 2, 4, None).unwrap();
//! check_fully_optimized(&r.formula, 2, 4).unwrap();
//! println!("{}", r.formula.pretty());
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod derive;
pub mod dft2d;
pub mod ruletree;
pub mod smp_rules;
pub mod wht;

pub use check::{check_fully_optimized, load_balance_ratio, Violation};
pub use derive::{
    default_split, expand_dfts, formula_14, multicore_dft, multicore_dft_expanded, sequential_dft,
    DeriveError,
};
pub use dft2d::{dft2d, multicore_dft2d, multicore_dft2d_expanded};
pub use ruletree::RuleTree;
pub use smp_rules::{parallelize, RewriteError, RewriteStep, Rewritten};
pub use wht::{multicore_wht, reference_wht, wht};
