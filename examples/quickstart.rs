//! Quickstart: generate a tuned DFT, run it, verify it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spiral_fft::spl::builder::dft;
use spiral_fft::spl::cplx::max_dist;
use spiral_fft::spl::Cplx;
use spiral_fft::SpiralFft;

fn main() {
    let n = 1024;

    // --- sequential ---------------------------------------------------
    let fft = SpiralFft::sequential(n);
    println!("generated sequential DFT_{n}");
    println!(
        "  plan: {} steps, {} flops",
        fft.plan().steps.len(),
        fft.plan().flops()
    );

    // A test signal: two tones plus a DC offset.
    let x: Vec<Cplx> = (0..n)
        .map(|k| {
            let t = k as f64 / n as f64;
            let s = 0.5
                + (2.0 * std::f64::consts::PI * 3.0 * t).cos()
                + 0.25 * (2.0 * std::f64::consts::PI * 17.0 * t).sin();
            Cplx::real(s)
        })
        .collect();
    let y = fft.forward(&x);

    // Peaks must sit at bins 0, 3, 17 (and mirrors).
    let mut mags: Vec<(usize, f64)> = y.iter().enumerate().map(|(k, z)| (k, z.abs())).collect();
    mags.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "  strongest bins: {:?}",
        &mags[..5].iter().map(|m| m.0).collect::<Vec<_>>()
    );

    // Cross-check against the defining O(n²) DFT.
    let reference = dft(n).eval(&x);
    println!("  max |Δ| vs naive DFT: {:.3e}", max_dist(&y, &reference));

    // --- parallel -----------------------------------------------------
    // Up to p threads: the tuner runs the transform on one thread where
    // p threads do not pay, and reports its choice in the plan.
    let p = 2;
    let mu = spiral_fft::smp::topology::mu();
    for n in [n, 1 << 14] {
        let x: Vec<Cplx> = (0..n).map(|k| Cplx::new(k as f64, 1.0)).collect();
        match SpiralFft::parallel(n, p, mu) {
            Ok(pfft) => {
                let threads = pfft.plan().threads;
                println!("\ngenerated DFT_{n} for up to p = {p}, µ = {mu}: {threads} thread(s)");
                let yp = pfft.forward(&x);
                let ys = SpiralFft::sequential(n).forward(&x);
                println!("  max |Δ| vs sequential: {:.3e}", max_dist(&ys, &yp));
                if threads == p {
                    // The generated formula is provably fully optimized:
                    spiral_fft::rewrite::check_fully_optimized(pfft.formula(), p, mu)
                        .expect("Definition 1 violated?!");
                    println!("  Definition 1 check: load-balanced, no false sharing ✓");
                }
            }
            Err(e) => println!("\nparallel generation not possible: {e}"),
        }
    }
}
