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
//! | [`baselines`] | naive, iterative, Stockham, six-step, FFTW-like |
//! | [`serve`] | wisdom-backed plan service, plan cache, TCP serving tier |
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

mod bluestein;

pub use spiral_baselines as baselines;
pub use spiral_codegen as codegen;
pub use spiral_rewrite as rewrite;
pub use spiral_search as search;
pub use spiral_serve as serve;
pub use spiral_sim as sim;
pub use spiral_smp as smp;
pub use spiral_spl as spl;

use spiral_codegen::lower::factors_have_kernels;
use spiral_codegen::plan::Plan;
use spiral_codegen::Executor;
use spiral_search::{CostModel, Tuner};
use spiral_spl::cplx::Cplx;
use spiral_spl::Spl;

use bluestein::Bluestein;

/// A generated, tuned DFT implementation — the library's front door:
/// one compiled plan on an executor of its thread count (one thread
/// starts no pool worker).
pub struct SpiralFft {
    formula: Spl,
    plan: Plan,
    executor: Executor,
    /// Bluestein chirp-z data for sizes with a prime factor that has no
    /// kernel; `plan` is then the inner power-of-two `DFT_m`.
    bluestein: Option<Bluestein>,
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
    /// [`SpiralFft::emit_c`] on a size that runs by Bluestein's
    /// algorithm: the C backend emits one plan, and the plan of such a
    /// size is only the inner power-of-two transform.
    NoCEmission {
        /// Requested transform size.
        n: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::NoParallelSplit { n, p, mu } => write!(
                f,
                "DFT_{n} has no p={p}, µ={mu} multicore factorization (need (pµ)² | n)"
            ),
            Error::Fault(e) => write!(f, "execution layer fault: {e}"),
            Error::NoCEmission { n } => write!(
                f,
                "DFT_{n} runs by Bluestein's algorithm, which the C backend does not emit"
            ),
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
    /// `formula` compiled to `plan`, on an executor of its thread count.
    fn compiled(formula: Spl, plan: Plan) -> SpiralFft {
        let executor = Executor::new(plan.threads);
        SpiralFft {
            formula,
            plan,
            executor,
            bluestein: None,
        }
    }

    /// `DFT_n` by Bluestein's algorithm over a power-of-two `DFT_m`,
    /// `m ≥ 2n − 1`, tuned like [`parallel`](Self::parallel)'s plans for
    /// up to `p` threads: on one thread when `m` has no `p`-thread split
    /// or `p` threads do not pay.
    fn bluestein(n: usize, p: usize, mu: usize) -> Result<SpiralFft, spiral_smp::SpiralError> {
        let m = (2 * n - 1).next_power_of_two();
        let tuner = Tuner::new(p, mu, CostModel::Analytic);
        let inner = match tuner.tune(m)? {
            Some(tuned) => tuned,
            None => tuner.tune_sequential(m)?,
        };
        let mut fft = SpiralFft::compiled(Spl::Dft(n), inner.plan);
        fft.bluestein = Some(Bluestein::new(n, &fft.plan, &fft.executor));
        Ok(fft)
    }

    /// Generate and tune a sequential `DFT_n`. Sizes whose prime factors
    /// all have kernels compile to a direct plan; other sizes (a prime
    /// factor above `MAX_CODELET`) run Bluestein's algorithm over a tuned
    /// power-of-two plan.
    pub fn sequential(n: usize) -> SpiralFft {
        let mu = spiral_smp::topology::mu();
        if !factors_have_kernels(n) {
            return SpiralFft::bluestein(n, 1, mu)
                .unwrap_or_else(|e| panic!("Bluestein DFT_{n} tuning failed: {e}"));
        }
        let tuned = Tuner::new(1, mu, CostModel::Analytic)
            .tune_sequential(n)
            .unwrap_or_else(|e| panic!("sequential tuning of DFT_{n} failed: {e}"));
        SpiralFft::compiled(tuned.formula, tuned.plan)
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
    /// when no `p`-thread formula exists (`(pµ)² ∤ n`). Otherwise a size
    /// with a prime factor above `MAX_CODELET` runs Bluestein's
    /// algorithm, as in [`sequential`](Self::sequential), over an inner
    /// power-of-two transform tuned for up to `p` threads.
    pub fn parallel(n: usize, p: usize, mu: usize) -> Result<SpiralFft, Error> {
        if !factors_have_kernels(n) {
            if p > 1 && spiral_rewrite::default_split(n, p, mu).is_none() {
                return Err(Error::NoParallelSplit { n, p, mu });
            }
            return Ok(SpiralFft::bluestein(n, p, mu)?);
        }
        let tuned = Tuner::new(p, mu, CostModel::Analytic)
            .tune(n)?
            .ok_or(Error::NoParallelSplit { n, p, mu })?;
        Ok(SpiralFft::compiled(tuned.formula, tuned.plan))
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
        Ok(SpiralFft::compiled(formula, plan))
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
        Ok(SpiralFft::compiled(derived.formula, plan))
    }

    /// Sequential 2-D DFT on a `rows × cols` row-major array.
    pub fn sequential_2d(rows: usize, cols: usize) -> SpiralFft {
        let f2d = spiral_rewrite::dft2d(rows, cols);
        let formula =
            spiral_rewrite::expand_dfts(&f2d, &|k| spiral_rewrite::RuleTree::balanced(k, 8))
                .normalized();
        let plan = Plan::from_formula(&formula, 1, spiral_smp::topology::mu())
            .expect("2-D expansion always lowers");
        SpiralFft::compiled(formula, plan)
    }

    /// The SPL formula this implementation executes.
    pub fn formula(&self) -> &Spl {
        &self.formula
    }

    /// The executing compiled plan. For Bluestein-backed sizes this is
    /// the *inner* power-of-two plan (of size ≥ 2n-1).
    pub fn plan(&self) -> &Plan {
        &self.plan
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

    /// Write the forward DFT of `x` into `y`, both of length
    /// [`len`](Self::len): the one transform call. Every backend runs
    /// through [`Executor::try_run`] (Bluestein's two inner `DFT_m` runs
    /// included) and answers alike: a wrong length is `Err(Plan)` before
    /// anything runs, and a non-finite value in `y` is
    /// `Err(NonFinite { index })` at its first index in `y`, which holds
    /// the computed values. A warm call allocates nothing, except
    /// Bluestein's one work buffer.
    pub fn forward_into(&self, x: &[Cplx], y: &mut [Cplx]) -> Result<(), Error> {
        match &self.bluestein {
            None => self.executor.try_run(&self.plan, &[x], &mut [y], &())?,
            Some(b) => b.forward_into(&self.plan, &self.executor, x, y)?,
        }
        Ok(())
    }

    /// The forward DFT of `x` in a new vector: [`forward_into`](Self::forward_into),
    /// panicking with its error message on any `Err`.
    pub fn forward(&self, x: &[Cplx]) -> Vec<Cplx> {
        let mut y = vec![Cplx::ZERO; self.len()];
        self.forward_into(x, &mut y)
            .unwrap_or_else(|e| panic!("{e}"));
        y
    }

    /// The forward DFT of `x` in a new vector, or
    /// [`forward_into`](Self::forward_into)'s `Err`.
    pub fn try_forward(&self, x: &[Cplx]) -> Result<Vec<Cplx>, Error> {
        let mut y = vec![Cplx::ZERO; self.len()];
        self.forward_into(x, &mut y)?;
        Ok(y)
    }

    /// The inverse DFT of `y`, including the `1/n` scaling, via the
    /// conjugation identity `DFT⁻¹(y) = conj(DFT(conj(y))) / n` — the same
    /// generated program runs both directions. Panics like
    /// [`forward`](Self::forward).
    pub fn inverse(&self, y: &[Cplx]) -> Vec<Cplx> {
        let conj_in: Vec<Cplx> = y.iter().map(|z| z.conj()).collect();
        let mut x = self.forward(&conj_in);
        let scale = 1.0 / self.len() as f64;
        for z in &mut x {
            *z = z.conj() * scale;
        }
        x
    }

    /// Emit the C code (OpenMP or pthreads flavor) for the executing
    /// plan. [`Error::NoCEmission`] for a Bluestein-backed size, whose
    /// plan is only the inner transform.
    pub fn emit_c(&self, flavor: spiral_codegen::CFlavor) -> Result<String, Error> {
        match self.bluestein {
            None => Ok(spiral_codegen::emit_c(self.plan(), flavor)),
            Some(_) => Err(Error::NoCEmission { n: self.len() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spiral_spl::builder::dft;
    use spiral_spl::cplx::{assert_slices_close, first_non_finite};

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

    /// A size with a prime factor above the kernel set runs Bluestein on
    /// `parallel` as on `sequential`, once a `p`-thread split exists, over
    /// an inner transform tuned for `p` threads like `parallel`'s own.
    #[test]
    fn parallel_sizes_with_large_prime_factors_use_bluestein() {
        for n in [64 * 47, 64 * 67] {
            let fft = SpiralFft::parallel(n, 2, 4).unwrap();
            assert!(fft.bluestein.is_some(), "DFT_{n}");
            let inner = SpiralFft::parallel(fft.plan().n, 2, 4).unwrap();
            assert_eq!(fft.plan().threads, inner.plan().threads, "DFT_{n}");
            let x = ramp(n);
            assert_slices_close(&fft.forward(&x), &dft(n).eval(&x), 1e-9 * n as f64);
        }
        assert!(matches!(
            SpiralFft::parallel(2 * 47, 2, 4),
            Err(Error::NoParallelSplit { n: 94, .. })
        ));
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

    /// One NaN in the input is the same `Err(NonFinite)` on every
    /// backend — one thread (the tuner picks one at 256), two threads and
    /// Bluestein — from `forward_into` and `try_forward`, at the first
    /// non-finite element of the `y` that `forward_into` wrote; `forward`
    /// panics with that error.
    #[test]
    fn non_finite_input_is_the_same_error_on_every_backend() {
        let ffts = [
            SpiralFft::sequential(256),
            SpiralFft::parallel(256, 2, 4).unwrap(),
            SpiralFft::parallel(1 << 14, 2, 4).unwrap(),
            SpiralFft::sequential(97),
        ];
        assert_eq!(ffts[1].plan().threads, 1);
        assert_eq!(ffts[2].plan().threads, 2);
        assert!(ffts[3].bluestein.is_some());
        let non_finite_index = |r: Result<(), Error>| match r {
            Err(Error::Fault(spiral_smp::SpiralError::NonFinite { index, .. })) => index,
            other => panic!("{other:?}"),
        };
        for fft in &ffts {
            let n = fft.len();
            let mut x = ramp(n);
            x[3] = Cplx::new(f64::NAN, 0.0);
            let mut y = vec![Cplx::ZERO; n];
            let index = non_finite_index(fft.forward_into(&x, &mut y));
            assert_eq!(Some(index), first_non_finite(&y), "DFT_{n}");
            assert_eq!(index, 0, "DFT_{n}: every output bin sums x[3]");
            let via_try = non_finite_index(fft.try_forward(&x).map(drop));
            assert_eq!(via_try, index, "DFT_{n}");
            let forward = std::panic::AssertUnwindSafe(|| fft.forward(&x));
            let panic = std::panic::catch_unwind(forward).unwrap_err();
            let msg = panic.downcast_ref::<String>().unwrap();
            assert!(
                msg.contains("non-finite value at index 0"),
                "DFT_{n}: {msg}"
            );
        }
    }

    /// A wrong length is `Err(Plan)` on every backend, before anything
    /// runs.
    #[test]
    fn forward_into_checks_lengths_on_every_backend() {
        for fft in [
            SpiralFft::sequential(64),
            SpiralFft::parallel(1 << 14, 2, 4).unwrap(),
            SpiralFft::sequential(97),
        ] {
            let n = fft.len();
            let (x, mut y) = (ramp(n + 1), vec![Cplx::ZERO; n + 1]);
            for (x_len, y_len) in [(n - 1, n), (n, n + 1)] {
                let err = fft.forward_into(&x[..x_len], &mut y[..y_len]);
                assert!(
                    matches!(err, Err(Error::Fault(spiral_smp::SpiralError::Plan(_)))),
                    "DFT_{n}: {err:?}"
                );
            }
        }
    }

    /// A plan of the transform's own size emits C; a Bluestein-backed
    /// size, whose plan is only the inner `DFT_256`, is an `Err`.
    #[test]
    fn c_emission_from_front_door() {
        let fft = SpiralFft::parallel(256, 2, 4).unwrap();
        let c = fft.emit_c(spiral_codegen::CFlavor::OpenMp).unwrap();
        assert!(c.contains("spiral_dft_256"));
        let bluestein = SpiralFft::sequential(97);
        assert!(matches!(
            bluestein.emit_c(spiral_codegen::CFlavor::OpenMp),
            Err(Error::NoCEmission { n: 97 })
        ));
    }
}
