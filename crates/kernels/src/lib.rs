//! # rcr-kernels
//!
//! The HPC micro-kernel suite behind the performance studies (E5, E6,
//! E11, E16–E18, E22) — every kernel in **naive**, **optimized**,
//! **vectorized**, and **parallel** variants, plus the persistent
//! work-stealing runtime they share ([`pool`]), its scheduler facade
//! ([`par`]), the portable lane abstraction behind the vectorized tier
//! ([`simd`]), and the selection bitmaps of the columnar survey engine
//! ([`bitmap`]).
//!
//! The variants model the performance ladder a researcher climbs: the
//! straightforward translation of the math (naive), the
//! locality/allocation-conscious rewrite (optimized), the explicitly
//! SIMD-shaped rewrite (vectorized — multi-accumulator lane bundles,
//! register blocking, time tiling), and the multicore port (parallel,
//! which composes with the vectorized bodies into a `parallel+simd` top
//! tier). The studies report the ratios between rungs; the *shape* of
//! those ratios (who wins, roughly by how much, where memory-bound
//! kernels stop scaling) is the reproduction target.
//!
//! ```
//! use rcr_kernels::matmul;
//!
//! let n = 64;
//! let a = matmul::gen_matrix(n, 1);
//! let b = matmul::gen_matrix(n, 2);
//! let naive = matmul::naive(&a, &b, n);
//! let blocked = matmul::blocked(&a, &b, n);
//! let parallel = matmul::parallel(&a, &b, n, 4);
//! assert!(rcr_kernels::verify::approx_eq_slices(&naive, &blocked, 1e-9));
//! assert!(rcr_kernels::verify::approx_eq_slices(&naive, &parallel, 1e-9));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod dotaxpy;
pub mod matmul;
pub mod montecarlo;
pub mod par;
pub mod pool;
pub mod reduce;
pub mod simd;
pub mod spmv;
pub mod stencil;
pub mod verify;

/// Deterministic xorshift64* PRNG used by every kernel's data generator.
///
/// Not a statistical-quality generator — a fast, dependency-light, seedable
/// stream that makes inputs reproducible across runs and platforms.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is remapped (xorshift requires a
    /// non-zero state).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Multiply-shift bound; bias is negligible for the n used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod rng_tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = XorShift64::new(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn range_and_below() {
        let mut r = XorShift64::new(9);
        for _ in 0..1000 {
            let v = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
            let k = r.below(10);
            assert!(k < 10);
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        XorShift64::new(1).below(0);
    }
}
