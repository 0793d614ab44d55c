//! Sum reductions over large arrays: the purest bandwidth-bound kernel in
//! the suite (one load, one add per element).

use crate::par;
use crate::simd;
use crate::XorShift64;

/// Generates a deterministic vector of length `n` in `[0, 1)`.
pub fn gen_data(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed ^ 0x5EDC);
    (0..n).map(|_| rng.next_f64()).collect()
}

/// Naive serial sum (single accumulator chain).
pub fn sum_naive(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

/// Optimized serial sum: eight-way unrolled independent accumulators.
fn sum_optimized(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let chunks = xs.chunks_exact(8);
    let rem = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    let mut tail = 0.0;
    for &v in rem {
        tail += v;
    }
    acc.iter().sum::<f64>() + tail
}

/// Vectorized sum on the [`crate::simd`] lane abstraction (4 × 8-lane
/// accumulators, masked remainder, pairwise horizontal reduction).
/// Reassociates relative to [`sum_naive`] — compare with
/// [`crate::verify::close`].
pub fn sum_vectorized(xs: &[f64]) -> f64 {
    simd::sum::<{ simd::LANES }>(xs)
}

/// Parallel sum via chunked map-reduce.
pub fn sum_parallel(xs: &[f64], threads: usize) -> f64 {
    par::map_reduce(
        xs.len(),
        threads,
        0.0,
        |s, e| sum_optimized(&xs[s..e]),
        |a, b| a + b,
    )
}

/// `parallel+simd` sum: the [`sum_vectorized`] body inside the same
/// deterministic chunked map-reduce as [`sum_parallel`].
pub fn sum_parallel_simd(xs: &[f64], threads: usize) -> f64 {
    par::map_reduce(
        xs.len(),
        threads,
        0.0,
        |s, e| sum_vectorized(&xs[s..e]),
        |a, b| a + b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::approx_eq;

    #[test]
    fn sums_agree() {
        use crate::verify::{close, sum_abs_tol};
        for n in [0, 1, 7, 8, 9, 1000, 12_345] {
            let xs = gen_data(n, 5);
            let reference = sum_naive(&xs);
            let tol = sum_abs_tol(xs.iter().copied());
            assert!(approx_eq(reference, sum_optimized(&xs), 1e-10), "opt n={n}");
            assert!(close(reference, sum_vectorized(&xs), 64, tol), "vec n={n}");
            for t in [1, 2, 8] {
                assert!(
                    approx_eq(reference, sum_parallel(&xs, t), 1e-10),
                    "par n={n} t={t}"
                );
                assert!(
                    close(reference, sum_parallel_simd(&xs, t), 64, tol),
                    "par+simd n={n} t={t}"
                );
            }
        }
    }

    #[test]
    fn sum_known_value() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(sum_naive(&xs), 5050.0);
        assert_eq!(sum_optimized(&xs), 5050.0);
        assert_eq!(sum_vectorized(&xs), 5050.0);
        assert_eq!(sum_parallel(&xs, 4), 5050.0);
        assert_eq!(sum_parallel_simd(&xs, 4), 5050.0);
    }
}
