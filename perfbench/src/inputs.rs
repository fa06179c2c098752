//! Seeded input generation. Every vector and request the program under
//! test sees comes from here, so one `--seed` fixes all inputs.

use spiral_fft::spl::Cplx;

/// SplitMix64: small, fast, and good enough to draw benchmark inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so that two
    /// consumers of one seed (two client connections, two cells) never
    /// draw the same sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits.
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * u - 1.0
    }

    /// Uniform index in `0..len`.
    pub fn below(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }

    /// A length-`n` complex vector with entries uniform in the unit square.
    pub fn vector(&mut self, n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|_| Cplx::new(self.unit(), self.unit()))
            .collect()
    }

    /// `count` independent length-`n` vectors.
    pub fn vectors(&mut self, count: usize, n: usize) -> Vec<Vec<Cplx>> {
        (0..count).map(|_| self.vector(n)).collect()
    }
}
