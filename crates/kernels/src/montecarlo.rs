//! Monte-Carlo π estimation: embarrassingly parallel, compute-bound, and
//! the cleanest near-linear scaling curve in experiment E6.
//!
//! Each thread owns an independent, deterministically-derived PRNG stream
//! (`seed ⊕ f(thread)`), so the parallel estimate is reproducible for a
//! fixed thread count and needs no synchronization at all.

use crate::par;
use crate::XorShift64;

/// Serial estimate of π from `samples` dart throws.
pub fn pi_serial(samples: u64, seed: u64) -> f64 {
    let hits = count_hits(samples, seed);
    4.0 * hits as f64 / samples.max(1) as f64
}

fn count_hits(samples: u64, seed: u64) -> u64 {
    let mut rng = XorShift64::new(seed);
    let mut hits = 0u64;
    for _ in 0..samples {
        let x = rng.next_f64();
        let y = rng.next_f64();
        if x * x + y * y <= 1.0 {
            hits += 1;
        }
    }
    hits
}

/// Parallel estimate: the sample budget is split across threads, each with
/// its own derived stream.
pub fn pi_parallel(samples: u64, seed: u64, threads: usize) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    let threads = threads.clamp(1, 64).min((samples as usize).max(1));
    let per = samples / threads as u64;
    let remainder = samples % threads as u64;
    let hits = par::map_reduce(
        threads,
        threads,
        0u64,
        |s, e| {
            let mut h = 0;
            for t in s..e {
                let quota = per + u64::from((t as u64) < remainder);
                // Distinct stream per worker; splitmix-style spread.
                let stream = seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h += count_hits(quota, stream);
            }
            h
        },
        |a, b| a + b,
    );
    4.0 * hits as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_converges_to_pi() {
        let est = pi_serial(200_000, 42);
        assert!(
            (est - std::f64::consts::PI).abs() < 0.02,
            "estimate = {est}"
        );
    }

    #[test]
    fn parallel_converges_to_pi() {
        for threads in [1, 2, 4, 8] {
            let est = pi_parallel(200_000, 42, threads);
            assert!(
                (est - std::f64::consts::PI).abs() < 0.02,
                "estimate = {est} at {threads} threads"
            );
        }
    }

    #[test]
    fn deterministic_given_seed_and_threads() {
        assert_eq!(pi_serial(10_000, 7), pi_serial(10_000, 7));
        assert_eq!(pi_parallel(10_000, 7, 4), pi_parallel(10_000, 7, 4));
        assert_ne!(pi_serial(10_000, 7), pi_serial(10_000, 8));
        // One worker draws the serial stream, so it is the serial estimate.
        assert_eq!(pi_parallel(10_000, 7, 1), pi_serial(10_000, 7));
    }

    #[test]
    fn sample_budget_fully_spent_with_remainder() {
        // 10 samples over 3 threads: 4+3+3; estimate still in [0, 4].
        let est = pi_parallel(10, 1, 3);
        assert!((0.0..=4.0).contains(&est));
    }

    #[test]
    fn zero_samples() {
        assert_eq!(pi_parallel(0, 1, 4), 0.0);
        assert_eq!(pi_serial(0, 1), 0.0);
    }
}
