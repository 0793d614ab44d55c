//! The one timing protocol of every timed study (E5, E6, E11, E16–E18,
//! E21–E23): run the arm once untimed, check that output against the arm's
//! reference, and only then time `reps` runs and report their median.
//!
//! A failing check times nothing: [`measure`] returns the check's error —
//! [`Error::VerificationFailed`] from [`verify`] — before the first timed
//! run. The clock covers one call of the arm, from its input to its
//! output; preparing a fresh input ([`measure_with`]) and dropping the
//! output happen outside it. Every timed output passes through
//! [`black_box`], so the optimizer cannot delete the work, and the check
//! sees the arm's whole output, not a sample of it.
//!
//! The studies use four kinds of check, each stated where it is used:
//! bitwise equality with the reference, ULPs plus an absolute floor
//! ([`rcr_kernels::verify::close`] with this module's `MAX_ULPS` and
//! `chain_tol`), a digest of the whole output, and a six-sigma bound
//! around π (`verify_pi`) for Monte-Carlo arms that draw their own sample.

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use rcr_stats::descriptive::median;

use crate::{Error, Result};

/// The timed result of one arm.
#[derive(Debug, Clone, Copy, Serialize, PartialEq)]
pub struct Measurement {
    /// Median wall time of the timed runs in seconds — interpolated for an
    /// even run count, and at least 1e-12 so ratios stay finite.
    pub median_s: f64,
    /// Number of timed runs.
    pub runs: usize,
}

/// Runs `run` once and hands that output to `check`; if the check passes,
/// times `reps` more runs and returns their median.
///
/// # Errors
/// The check's error, before any run is timed.
///
/// # Panics
/// Panics when `reps == 0`.
pub fn measure<T>(
    reps: usize,
    mut run: impl FnMut() -> T,
    check: impl FnOnce(T) -> Result<()>,
) -> Result<Measurement> {
    measure_with(reps, || (), |()| run(), check)
}

/// [`measure`] for an arm that consumes its input: `input` builds a fresh
/// one before every run, outside the clock.
///
/// # Errors
/// The check's error, before any run is timed.
///
/// # Panics
/// Panics when `reps == 0`.
pub fn measure_with<I, T>(
    reps: usize,
    mut input: impl FnMut() -> I,
    mut run: impl FnMut(I) -> T,
    check: impl FnOnce(T) -> Result<()>,
) -> Result<Measurement> {
    assert!(reps > 0, "need at least one timed run");
    check(run(input()))?;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let fresh = input();
        let t0 = Instant::now();
        let out = black_box(run(black_box(fresh)));
        times.push(t0.elapsed().as_secs_f64());
        drop(out);
    }
    Ok(Measurement {
        median_s: median(&times)?.max(1e-12),
        runs: reps,
    })
}

/// `Ok` when `ok` holds, else [`Error::VerificationFailed`] saying `what`.
pub fn verify(ok: bool, what: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(Error::VerificationFailed(what()))
    }
}

/// ULP budget for reassociated reductions (matches the kernel tests).
pub(crate) const MAX_ULPS: u64 = 256;

/// Absolute floor for comparing two differently-associated sums of `n`
/// terms with the given absolute mass: the standard forward error bound
/// of recursive summation, `ε · n · Σ|terms|`. Unlike the fixed-factor
/// [`rcr_kernels::verify::sum_abs_tol`] (sized for the kernel tests'
/// modest lengths), this scales with `n` — at E18's DRAM level a sweep
/// sums ~10⁷ terms, and the serial chain's own rounding drift exceeds any
/// fixed small multiple of `ε · Σ|terms|`.
pub(crate) fn chain_tol(n: usize, abs_sum: f64) -> f64 {
    f64::EPSILON * abs_sum * (n.max(8) as f64)
}

/// Standard deviations [`verify_pi`] allows: a correct sampler misses
/// this bound with probability ~2·10⁻⁹.
const PI_SIGMAS: f64 = 6.0;

/// Checks a Monte-Carlo π estimate from `samples` dart throws against π
/// itself: `4·hits/samples` has standard deviation `4·√(p(1−p)/samples)`
/// with `p = π/4`, and the estimate must lie within [`PI_SIGMAS`] of them.
/// The bound for an arm that draws a different sample than its reference,
/// so equality cannot be asked of it.
pub(crate) fn verify_pi(arm: &str, estimate: f64, samples: u64) -> Result<()> {
    let p = std::f64::consts::FRAC_PI_4;
    let sigma = 4.0 * (p * (1.0 - p) / samples.max(1) as f64).sqrt();
    let off = (estimate - std::f64::consts::PI).abs();
    verify(off <= PI_SIGMAS * sigma, || {
        let bound = PI_SIGMAS * sigma;
        format!("{arm}: π estimate {estimate} is {off:.3e} from π (bound {bound:.3e})")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn measure_times_reps_runs_after_one_checked_warm_up() {
        let calls = Cell::new(0);
        let m = measure(
            5,
            || {
                calls.set(calls.get() + 1);
                (0..10_000).map(|i| f64::from(i).sqrt()).sum::<f64>()
            },
            |v| verify(v > 0.0, || "sum".into()),
        )
        .unwrap();
        assert_eq!(calls.get(), 6, "one warm-up, five timed runs");
        assert_eq!(m.runs, 5);
        assert!(m.median_s >= 1e-12);
    }

    #[test]
    fn failing_check_times_nothing() {
        let calls = Cell::new(0);
        let inputs = Cell::new(0);
        let err = measure_with(
            1000,
            || inputs.set(inputs.get() + 1),
            |()| {
                calls.set(calls.get() + 1);
                1.5f64
            },
            |v| verify(v == 2.0, || format!("got {v}")),
        )
        .unwrap_err();
        assert!(matches!(err, Error::VerificationFailed(ref m) if m == "got 1.5"));
        assert_eq!((calls.get(), inputs.get()), (1, 1), "only the warm-up ran");
    }

    #[test]
    fn input_is_fresh_for_every_run() {
        let mut seen = Vec::new();
        let mut next = 0;
        measure_with(
            3,
            || {
                next += 1;
                vec![next; 2]
            },
            |v: Vec<i32>| {
                seen.push(v[0]);
                v
            },
            |v| verify(v == [1, 1], || format!("{v:?}")),
        )
        .unwrap();
        assert_eq!(seen, [1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_runs_panics() {
        let _ = measure(0, || 0.0, |_| Ok(()));
    }

    #[test]
    fn pi_bound_accepts_samplers_and_rejects_bias() {
        let n = 200_000;
        for threads in [1, 2, 4] {
            let est = rcr_kernels::montecarlo::pi_parallel(n, 42, threads);
            verify_pi("mc-pi", est, n).unwrap();
        }
        // 6σ at 200k samples is ~0.022: a 1% bias is far outside it.
        let err = verify_pi("mc-pi", std::f64::consts::PI * 1.01, n).unwrap_err();
        assert!(matches!(err, Error::VerificationFailed(_)), "{err}");
    }
}
