//! # spiral-baselines — the comparison implementations
//!
//! The DFT implementations the paper's evaluation section measures the
//! generated code against, built from scratch:
//!
//! * [`naive::NaiveDft`] — O(n²) definition (correctness reference);
//! * [`iterative::IterativeFft`] — iterative in-place radix-2 with bit
//!   reversal (the large-stride access pattern of §2.2);
//! * [`stockham::StockhamFft`] — autosort variant;
//! * [`sixstep::SixStepFft`] — the six-step algorithm (3) with explicit
//!   (optionally cache-blocked, ref. [1]) transpositions and a natural
//!   parallel schedule;
//! * [`fftwlike::FftwLikeFft`] — an FFTW-3.1-like model: µ-oblivious
//!   block-cyclic loop parallelization with per-execution thread
//!   creation (pooling off by default), which reproduces FFTW's late
//!   parallelization crossover.
//!
//! The parallel baselines expose `trace(threads, hook)` so the machine
//! simulator can account their memory behaviour exactly like the
//! generated plans'.

#![warn(missing_docs)]

pub mod fftwlike;
pub mod iterative;
pub mod naive;
pub mod sixstep;
pub mod stockham;
pub mod transpose;

pub use fftwlike::{FftwLikeConfig, FftwLikeFft};
pub use iterative::IterativeFft;
pub use naive::NaiveDft;
pub use sixstep::SixStepFft;
pub use stockham::StockhamFft;
