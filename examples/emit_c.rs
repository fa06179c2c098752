//! Emit the generated C code (the paper's actual backend) for a DFT on
//! up to 2 threads and print it — OpenMP or pthreads flavor. A size too
//! small for 2 threads to pay gets sequential C; a size that runs by
//! Bluestein's algorithm (a prime factor above 43) has no C to emit.
//!
//! ```text
//! cargo run --release --example emit_c [n] [openmp|pthreads]
//! ```

use spiral_fft::codegen::CFlavor;
use spiral_fft::SpiralFft;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let flavor = match std::env::args().nth(2).as_deref() {
        Some("pthreads") => CFlavor::Pthreads,
        _ => CFlavor::OpenMp,
    };
    let fft = match SpiralFft::parallel(n, 2, 4) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}; falling back to sequential");
            SpiralFft::sequential(n)
        }
    };
    match fft.emit_c(flavor) {
        Ok(c) => {
            println!("/* formula: {} */", fft.formula());
            println!("{c}");
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
