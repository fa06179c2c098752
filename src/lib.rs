//! # spiral-fft — FFT program generation for shared memory (SMP & multicore)
//!
//! A from-scratch Rust reproduction of Franchetti, Voronenko, Püschel,
//! *"FFT Program Generation for Shared Memory: SMP and Multicore"*
//! (Supercomputing 2006): a Spiral-style program generator whose
//! rewriting system derives DFT algorithms that are provably
//! load-balanced and free of false sharing for `p` processors with
//! cache-line length `µ`, plus the compiler, threaded runtime, machine
//! simulator, baselines, and autotuner around it.
//!
//! ## Crates (re-exported as modules)
//!
//! | module | contents |
//! |---|---|
//! | [`spl`] | the SPL formula language: AST, semantics, permutations, parser |
//! | [`rewrite`] | Table 1 rules, rule trees, the multicore Cooley–Tukey derivation (14), Definition 1 checker |
//! | [`codegen`] | formula → plan compilation, loop merging, codelets, threaded execution, C emission |
//! | [`smp`] | aligned buffers, barriers, thread pool |
//! | [`sim`] | shared-memory machine simulator with false-sharing accounting |
//! | [`search`] | DP / random / evolutionary autotuning |
//! | [`baselines`] | naive, recursive, iterative, Stockham, six-step, FFTW-like |
//!
//! ## Quick start
//!
//! ```
//! use spiral_fft::SpiralFft;
//! use spiral_fft::spl::Cplx;
//!
//! // Generate (and autotune) a DFT_256 for up to 2 processors, µ = 4.
//! let fft = SpiralFft::parallel(256, 2, 4).expect("256 is (pµ)²-compatible");
//! // The tuner picks how many of the 2 threads pay at this size.
//! assert!(fft.plan().threads <= 2);
//! let x: Vec<Cplx> = (0..256).map(|k| Cplx::real(k as f64)).collect();
//! let y = fft.forward(&x);
//! assert_eq!(y.len(), 256);
//! ```

#![warn(missing_docs)]

pub mod bluestein;

pub use spiral_baselines as baselines;
pub use spiral_codegen as codegen;
pub use spiral_rewrite as rewrite;
pub use spiral_search as search;
pub use spiral_serve as serve;
pub use spiral_sim as sim;
pub use spiral_smp as smp;
pub use spiral_spl as spl;

use spiral_codegen::plan::Plan;
use spiral_codegen::ParallelExecutor;
use spiral_search::{CostModel, Tuner};
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;

/// A generated, tuned DFT implementation — the library's front door.
pub struct SpiralFft {
    formula: Spl,
    backend: Backend,
}

/// How a transform executes.
enum Backend {
    /// A compiled plan (optionally on the thread pool).
    Plan {
        plan: Plan,
        executor: Option<ParallelExecutor>,
    },
    /// Bluestein chirp-z fallback for sizes with prime factors larger
    /// than the codelet bound (runs a tuned power-of-two plan inside).
    Bluestein(bluestein::Bluestein),
}

/// Errors from the high-level constructors and fallible execution paths.
#[derive(Debug)]
pub enum Error {
    /// No parallel factorization exists: the paper's multicore
    /// Cooley–Tukey (14) requires `(pµ)² | n`.
    NoParallelSplit {
        /// Requested transform size.
        n: usize,
        /// Requested processor count.
        p: usize,
        /// Requested cache-line length.
        mu: usize,
    },
    /// The execution layer reported a fault (tuning measurement failure,
    /// worker panic, watchdog expiry, corrupted output, …).
    Fault(spiral_smp::SpiralError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NoParallelSplit { n, p, mu } => write!(
                f,
                "DFT_{n} has no p={p}, µ={mu} multicore factorization (need (pµ)² | n)"
            ),
            Error::Fault(e) => write!(f, "execution layer fault: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<spiral_smp::SpiralError> for Error {
    fn from(e: spiral_smp::SpiralError) -> Error {
        Error::Fault(e)
    }
}

impl SpiralFft {
    /// Generate and tune a sequential `DFT_n`. Sizes whose prime factors
    /// all fit the codelet bound compile to a direct plan; other sizes
    /// (large primes) fall back to Bluestein's algorithm over a tuned
    /// power-of-two plan.
    pub fn sequential(n: usize) -> SpiralFft {
        let smooth = spiral_spl::num::factorize(n)
            .iter()
            .all(|&(prime, _)| prime <= spiral_codegen::lower::MAX_CODELET);
        if !smooth {
            return SpiralFft {
                formula: Spl::Dft(n),
                backend: Backend::Bluestein(bluestein::Bluestein::new(n)),
            };
        }
        let mu = spiral_smp::topology::mu();
        let tuned = Tuner::new(1, mu, CostModel::Analytic)
            .tune_sequential(n)
            .unwrap_or_else(|e| panic!("sequential tuning of DFT_{n} failed: {e}"));
        SpiralFft {
            formula: tuned.formula,
            backend: Backend::Plan {
                plan: tuned.plan,
                executor: None,
            },
        }
    }

    /// Generate and tune a `DFT_n` for up to `p` threads and cache-line
    /// length `µ` (in complex elements; pass
    /// `spiral_smp::topology::mu()` for this host). The tuner ranks the
    /// `p`-thread formulas against the sequential one
    /// ([`Tuner::tune`]), so a transform too small for `p` threads to pay
    /// runs on one; [`plan`](Self::plan)`().threads` reports the choice,
    /// and no thread pool is built for one thread. A `p`-thread result is
    /// fully optimized in the paper's Definition 1 sense: load-balanced
    /// and free of false sharing. Fails with [`Error::NoParallelSplit`]
    /// when no `p`-thread formula exists (`(pµ)² ∤ n`).
    pub fn parallel(n: usize, p: usize, mu: usize) -> Result<SpiralFft, Error> {
        let tuned = Tuner::new(p, mu, CostModel::Analytic)
            .tune(n)?
            .ok_or(Error::NoParallelSplit { n, p, mu })?;
        let executor = if tuned.plan.threads > 1 {
            Some(ParallelExecutor::with_auto_barrier(tuned.plan.threads))
        } else {
            None
        };
        Ok(SpiralFft {
            formula: tuned.formula,
            backend: Backend::Plan {
                plan: tuned.plan,
                executor,
            },
        })
    }

    /// Generate a `p`-thread 2-D DFT on a `rows × cols` row-major array
    /// (paper §2.2: multidimensional transforms are tensor products; the
    /// Table 1 rules parallelize the row-column factorization directly).
    /// Requires `p | rows` and `pµ | cols`.
    pub fn parallel_2d(rows: usize, cols: usize, p: usize, mu: usize) -> Result<SpiralFft, Error> {
        let formula =
            spiral_rewrite::multicore_dft2d_expanded(rows, cols, p, mu, 8).map_err(|_| {
                Error::NoParallelSplit {
                    n: rows * cols,
                    p,
                    mu,
                }
            })?;
        let plan = Plan::from_formula(&formula, p, mu)
            .map_err(|e| spiral_smp::SpiralError::Lower(format!("2-D expansion: {e}")))?;
        let executor = if plan.threads > 1 {
            Some(ParallelExecutor::with_auto_barrier(plan.threads))
        } else {
            None
        };
        Ok(SpiralFft {
            formula,
            backend: Backend::Plan { plan, executor },
        })
    }

    /// Generate a `p`-thread Walsh–Hadamard transform `WHT_{2^k}` — the
    /// rewriting rules are transform-generic (paper §2.2: SPL expresses
    /// a large class of linear transforms).
    pub fn parallel_wht(k: u32, p: usize, mu: usize) -> Result<SpiralFft, Error> {
        let derived =
            spiral_rewrite::multicore_wht(k, p, mu).map_err(|_| Error::NoParallelSplit {
                n: 1usize << k,
                p,
                mu,
            })?;
        let plan = Plan::from_formula(&derived.formula, p, mu)
            .map_err(|e| spiral_smp::SpiralError::Lower(format!("WHT formula: {e}")))?
            .fuse_exchanges();
        let executor = if plan.threads > 1 {
            Some(ParallelExecutor::with_auto_barrier(plan.threads))
        } else {
            None
        };
        Ok(SpiralFft {
            formula: derived.formula,
            backend: Backend::Plan { plan, executor },
        })
    }

    /// Sequential 2-D DFT on a `rows × cols` row-major array.
    pub fn sequential_2d(rows: usize, cols: usize) -> SpiralFft {
        let f2d = spiral_rewrite::dft2d(rows, cols);
        let formula =
            spiral_rewrite::expand_dfts(&f2d, &|k| spiral_rewrite::RuleTree::balanced(k, 8))
                .normalized();
        let plan = Plan::from_formula(&formula, 1, spiral_smp::topology::mu())
            .expect("2-D expansion always lowers");
        SpiralFft {
            formula,
            backend: Backend::Plan {
                plan,
                executor: None,
            },
        }
    }

    /// The SPL formula this implementation executes.
    pub fn formula(&self) -> &Spl {
        &self.formula
    }

    /// The executing compiled plan. For Bluestein-backed sizes this is
    /// the *inner* power-of-two plan (of size ≥ 2n-1).
    pub fn plan(&self) -> &Plan {
        match &self.backend {
            Backend::Plan { plan, .. } => plan,
            Backend::Bluestein(b) => b.inner_plan(),
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.formula.dim()
    }

    /// True for a zero-size transform (never produced by the
    /// constructors; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compute the forward DFT of `x` (length must equal [`len`](Self::len)).
    /// Panics on execution failure; see [`try_forward`](Self::try_forward)
    /// for the fallible variant. The output is not scanned for non-finite
    /// values on this path: a NaN or infinity in `x` comes back in the
    /// result.
    pub fn forward(&self, x: &[Cplx]) -> Vec<Cplx> {
        match &self.backend {
            Backend::Plan {
                plan,
                executor: Some(e),
            } => e.execute(plan, x),
            Backend::Plan {
                plan,
                executor: None,
            } => plan.execute(x),
            Backend::Bluestein(b) => b.run(x),
        }
    }

    /// `Err` unless `x` has [`len`](Self::len) elements, whichever
    /// backend runs it.
    fn check_len(&self, x: &[Cplx]) -> Result<(), Error> {
        if x.len() == self.len() {
            return Ok(());
        }
        Err(Error::Fault(spiral_smp::SpiralError::Plan(format!(
            "input length {} does not match transform size {}",
            x.len(),
            self.len()
        ))))
    }

    /// Compute the forward DFT of `x`, propagating execution-layer
    /// faults (worker panics, watchdog expiries, non-finite output) and
    /// a wrong input length as [`Error::Fault`] instead of panicking.
    /// Every backend scans the output, so a non-finite value gives the
    /// same `Err` on one thread, on `p` threads and under Bluestein.
    pub fn try_forward(&self, x: &[Cplx]) -> Result<Vec<Cplx>, Error> {
        self.check_len(x)?;
        let out = match &self.backend {
            Backend::Plan {
                plan,
                executor: Some(e),
            } => return Ok(e.try_execute(plan, x)?),
            _ => self.forward(x),
        };
        if let Some(index) = spiral_spl::cplx::first_non_finite(&out) {
            return Err(Error::Fault(spiral_smp::SpiralError::NonFinite {
                index,
                context: format!("sequential execution of a {}-point transform", self.len()),
            }));
        }
        Ok(out)
    }

    /// Compute the inverse DFT of `y`, including the `1/n` scaling, via
    /// the conjugation identity `DFT⁻¹(y) = conj(DFT(conj(y))) / n` —
    /// the same generated program runs both directions.
    pub fn inverse(&self, y: &[Cplx]) -> Vec<Cplx> {
        let n = self.len() as f64;
        let conj_in: Vec<Cplx> = y.iter().map(|z| z.conj()).collect();
        self.forward(&conj_in)
            .into_iter()
            .map(|z| z.conj() * (1.0 / n))
            .collect()
    }

    /// Emit the C code (OpenMP or pthreads flavor) for the executing plan.
    pub fn emit_c(&self, flavor: spiral_codegen::CFlavor) -> String {
        spiral_codegen::emit_c(self.plan(), flavor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::assert_slices_close;

    fn ramp(n: usize) -> Vec<Cplx> {
        (0..n).map(|k| Cplx::new(k as f64, 1.0)).collect()
    }

    #[test]
    fn sequential_front_door() {
        let fft = SpiralFft::sequential(128);
        assert_eq!(fft.len(), 128);
        let x = ramp(128);
        assert_slices_close(&fft.forward(&x), &dft(128).eval(&x), 1e-6);
    }

    #[test]
    fn parallel_front_door() {
        // One thread where two do not pay, two where they do; a 2-thread
        // result is fully optimized.
        for (n, threads) in [(256usize, 1usize), (1 << 14, 2)] {
            let fft = SpiralFft::parallel(n, 2, 4).unwrap();
            assert_eq!(fft.plan().threads, threads, "n={n}");
            let x = ramp(n);
            let want = spiral_baselines::IterativeFft::new(n).run(&x);
            assert_slices_close(&fft.forward(&x), &want, 1e-9 * n as f64);
            if threads == 2 {
                spiral_rewrite::check_fully_optimized(fft.formula(), 2, 4).unwrap();
            }
        }
    }

    #[test]
    fn parallel_rejects_impossible_sizes() {
        assert!(matches!(
            SpiralFft::parallel(32, 2, 4),
            Err(Error::NoParallelSplit { .. })
        ));
    }

    #[test]
    fn inverse_roundtrips() {
        for fft in [
            SpiralFft::sequential(64),
            SpiralFft::parallel(256, 2, 4).unwrap(),
        ] {
            let n = fft.len();
            let x = ramp(n);
            let back = fft.inverse(&fft.forward(&x));
            assert_slices_close(&back, &x, 1e-9 * n as f64);
        }
    }

    #[test]
    fn two_dimensional_transforms() {
        let (r, c) = (8usize, 16usize);
        let seq = SpiralFft::sequential_2d(r, c);
        let par = SpiralFft::parallel_2d(r, c, 2, 4).unwrap();
        let x = ramp(r * c);
        let ys = seq.forward(&x);
        let yp = par.forward(&x);
        assert_slices_close(&ys, &yp, 1e-8);
        // DC bin equals the sum of all samples.
        let sum = x.iter().fold(Cplx::ZERO, |a, b| a + *b);
        assert!(ys[0].approx_eq(sum, 1e-9));
        // Round trip through the inverse.
        assert_slices_close(&par.inverse(&yp), &x, 1e-9);
        spiral_rewrite::check_fully_optimized(par.formula(), 2, 4).unwrap();
    }

    #[test]
    fn large_prime_sizes_use_bluestein() {
        let fft = SpiralFft::sequential(97);
        assert_eq!(fft.len(), 97);
        let x = ramp(97);
        assert_slices_close(&fft.forward(&x), &dft(97).eval(&x), 1e-6);
        assert_slices_close(&fft.inverse(&fft.forward(&x)), &x, 1e-9);
        // The inner plan is a tuned power of two.
        assert!(fft.plan().n.is_power_of_two());
    }

    #[test]
    fn walsh_hadamard_front_door() {
        let fft = SpiralFft::parallel_wht(8, 2, 4).unwrap();
        let x = ramp(256);
        let y = fft.forward(&x);
        let want = spiral_rewrite::reference_wht(&x);
        assert_slices_close(&y, &want, 1e-9);
        // inverse() works for the WHT too (real symmetric matrix).
        assert_slices_close(&fft.inverse(&y), &x, 1e-9);
        spiral_rewrite::check_fully_optimized(fft.formula(), 2, 4).unwrap();
    }

    #[test]
    fn fallible_forward() {
        let fft = SpiralFft::parallel(256, 2, 4).unwrap();
        let x = ramp(256);
        let want = dft(256).eval(&x);
        assert_slices_close(&fft.try_forward(&x).unwrap(), &want, 1e-6);
        // Misuse surfaces as a structured error, not a panic.
        assert!(matches!(fft.try_forward(&x[..100]), Err(Error::Fault(_))));
    }

    /// One NaN in the input is `Err(NonFinite)` from `try_forward` on
    /// every backend: one thread (the tuner picks one at 256), two
    /// threads, and Bluestein.
    #[test]
    fn try_forward_rejects_non_finite_output_on_every_backend() {
        let ffts = [
            SpiralFft::parallel(256, 2, 4).unwrap(),
            SpiralFft::parallel(1 << 14, 2, 4).unwrap(),
            SpiralFft::sequential(256),
            SpiralFft::sequential(97),
        ];
        assert_eq!(ffts[0].plan().threads, 1);
        assert_eq!(ffts[1].plan().threads, 2);
        for fft in &ffts {
            let mut x = ramp(fft.len());
            x[3] = Cplx::new(f64::NAN, 0.0);
            let err = fft.try_forward(&x).unwrap_err();
            assert!(
                matches!(err, Error::Fault(spiral_smp::SpiralError::NonFinite { .. })),
                "DFT_{}: {err}",
                fft.len()
            );
        }
    }

    #[test]
    fn c_emission_from_front_door() {
        let fft = SpiralFft::parallel(256, 2, 4).unwrap();
        let c = fft.emit_c(spiral_codegen::CFlavor::OpenMp);
        assert!(c.contains("spiral_dft_256"));
    }
}
