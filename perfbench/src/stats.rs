//! Order statistics and output checks.

use spiral_fft::spl::Cplx;

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. Sorts `xs` in place. `NaN` for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, c), x| (s + x.ln(), c + 1));
    (sum / count.max(1) as f64).exp()
}

/// Whether `got` matches `want` within an `O(log n)` round-off bound:
/// the largest elementwise error, relative to the largest output
/// magnitude, must stay below `1e-13 · log2 n` (a correct double FFT
/// sits near `1e-16 · log2 n`; a wrong one near 1).
pub fn outputs_match(got: &[Cplx], want: &[Cplx]) -> bool {
    if got.len() != want.len() || want.is_empty() {
        return false;
    }
    let scale = want.iter().fold(0.0f64, |m, z| m.max(z.abs())).max(1.0);
    let err = got
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (a, b)| m.max((*a - *b).abs()));
    let log_n = (want.len() as f64).log2().max(1.0);
    err.is_finite() && err <= 1e-13 * log_n * scale
}
