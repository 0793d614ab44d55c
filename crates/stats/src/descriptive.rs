//! Descriptive statistics: location, spread, shape, and quantiles.
//!
//! Two variance algorithms are provided — the single-pass Welford update (used
//! by streaming consumers such as the cluster simulator's metric accumulators)
//! and the numerically robust two-pass formula — and a property test pins
//! their agreement.

use crate::{ensure_sample, Error, Result};

/// Arithmetic mean of a non-empty sample.
///
/// # Errors
/// [`Error::EmptyInput`] on an empty slice, [`Error::NonFinite`] on NaN/inf.
pub fn mean(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs, "mean input")?;
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Two-pass sample variance with Bessel's correction (`n - 1` denominator).
///
/// # Errors
/// Requires at least two observations.
pub fn variance(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs, "variance input")?;
    if xs.len() < 2 {
        return Err(Error::TooFewObservations {
            needed: 2,
            got: xs.len(),
        });
    }
    let m = mean(xs)?;
    // Corrected two-pass: subtracting the mean-residual term compensates for
    // rounding in the first pass.
    let (mut ss, mut comp) = (0.0, 0.0);
    for &x in xs {
        let d = x - m;
        ss += d * d;
        comp += d;
    }
    Ok((ss - comp * comp / xs.len() as f64) / (xs.len() - 1) as f64)
}

/// Sample standard deviation (square root of [`variance`]).
///
/// # Errors
/// Same conditions as [`variance`].
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    variance(xs).map(f64::sqrt)
}

/// Geometric mean of a sample of strictly positive values.
///
/// Used for the speedup summaries in the performance-gap experiments, matching
/// the geomean convention of the source papers.
///
/// # Errors
/// Rejects empty input and non-positive values.
pub fn geometric_mean(xs: &[f64]) -> Result<f64> {
    ensure_sample(xs, "geometric_mean input")?;
    let mut acc = 0.0;
    for &x in xs {
        if x <= 0.0 {
            return Err(Error::OutOfRange {
                what: "geometric_mean element",
                value: x,
            });
        }
        acc += x.ln();
    }
    Ok((acc / xs.len() as f64).exp())
}

/// Sample quantile with linear interpolation between order statistics
/// (type-7, the R/NumPy default). `q` must lie in `[0, 1]`.
///
/// # Errors
/// Rejects empty input and out-of-range `q`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    ensure_sample(xs, "quantile input")?;
    if !(0.0..=1.0).contains(&q) {
        return Err(Error::OutOfRange {
            what: "q",
            value: q,
        });
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite by ensure_sample"));
    Ok(quantile_sorted(&sorted, q))
}

/// [`quantile`] on data the caller has already sorted ascending.
///
/// Skips the sort and the validation; `sorted` must be non-empty, finite, and
/// ascending, and `q` in `[0, 1]` — callers inside this crate guarantee it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }
}

/// Median (the 0.5 quantile).
///
/// # Errors
/// Rejects empty input.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Five-number summary plus mean and standard deviation for report tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `n == 1`).
    pub std_dev: f64,
}

impl Summary {
    /// Computes the summary of a non-empty sample.
    ///
    /// # Errors
    /// Rejects empty or non-finite input.
    pub fn of(xs: &[f64]) -> Result<Self> {
        ensure_sample(xs, "Summary input")?;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite by ensure_sample"));
        let sd = if xs.len() >= 2 { std_dev(xs)? } else { 0.0 };
        Ok(Summary {
            n: xs.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(xs)?,
            std_dev: sd,
        })
    }

    /// Interquartile range `q3 - q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Single-pass (Welford) accumulator for mean and variance.
///
/// Suitable for streaming contexts; merging two accumulators is supported via
/// [`Welford::merge`] (Chan's parallel update), so parallel workers can each
/// keep a local accumulator and combine at the end.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Current sample variance (Bessel corrected), or `None` for `n < 2`.
    pub fn variance(&self) -> Option<f64> {
        (self.n >= 2).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Current sample standard deviation, or `None` for `n < 2`.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Merges another accumulator into this one (parallel combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += delta * other.n as f64 / n as f64;
        self.n = n;
    }
}

/// Fixed-width histogram of a sample over `[lo, hi)` with `bins` buckets.
///
/// Observations outside the range are clamped into the first/last bin so that
/// the counts always total `xs.len()` — the behaviour wait-time CDF plots need.
///
/// # Errors
/// Rejects `bins == 0`, `hi <= lo`, and non-finite input.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Result<Vec<u64>> {
    crate::ensure_finite(xs, "histogram input")?;
    if bins == 0 {
        return Err(Error::OutOfRange {
            what: "bins",
            value: 0.0,
        });
    }
    if hi <= lo {
        return Err(Error::OutOfRange {
            what: "hi",
            value: hi,
        });
    }
    let mut counts = vec![0u64; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        let idx = ((x - lo) / width).floor();
        let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
        counts[idx] += 1;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-12);
        // Sample variance with n-1: sum sq dev = 32, / 7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two() {
        assert_eq!(
            variance(&[1.0]),
            Err(Error::TooFewObservations { needed: 2, got: 1 })
        );
        assert_eq!(mean(&[]), Err(Error::EmptyInput));
    }

    #[test]
    fn geometric_mean_known() {
        let xs = [1.0, 10.0, 100.0];
        assert!((geometric_mean(&xs).unwrap() - 10.0).abs() < 1e-9);
        assert!(geometric_mean(&[1.0, 0.0]).is_err());
        assert!(geometric_mean(&[1.0, -2.0]).is_err());
    }

    #[test]
    fn quantiles_match_numpy_type7() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0).unwrap() - 4.0).abs() < 1e-12);
        assert!((median(&[3.0, 1.0, 2.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(quantile(&xs, 1.5).is_err());
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[42.0], 0.73).unwrap(), 42.0);
    }

    #[test]
    fn summary_of_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.iqr() - 2.0).abs() < 1e-12);
        let single = Summary::of(&[7.0]).unwrap();
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.5, 2.5, 3.0, 4.25, 5.75, -2.0, 100.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), xs.len() as u64);
        assert!((w.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((w.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        let mut w = Welford::new();
        w.push(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.variance(), None);
    }

    #[test]
    fn welford_merge_equivalent_to_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-10);
        assert!((a.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
        // Merging with/into empties.
        let mut empty = Welford::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        let mut c = whole;
        c.merge(&Welford::new());
        assert_eq!(c.count(), whole.count());
    }

    #[test]
    fn histogram_counts_everything() {
        let xs = [0.1, 0.5, 0.9, -3.0, 7.0];
        let h = histogram(&xs, 0.0, 1.0, 2).unwrap();
        assert_eq!(h.iter().sum::<u64>(), xs.len() as u64);
        // Bin 0 covers [0, 0.5): holds 0.1 and the clamped -3.0.
        // Bin 1 covers [0.5, 1.0): holds 0.5, 0.9, and the clamped 7.0.
        assert_eq!(h, vec![2, 3]);
        assert!(histogram(&xs, 0.0, 1.0, 0).is_err());
        assert!(histogram(&xs, 1.0, 1.0, 4).is_err());
    }

    proptest! {
        #[test]
        fn prop_welford_agrees_with_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
            let mut w = Welford::new();
            for &x in &xs { w.push(x); }
            let m = mean(&xs).unwrap();
            let v = variance(&xs).unwrap();
            prop_assert!((w.mean().unwrap() - m).abs() < 1e-6 * (1.0 + m.abs()));
            prop_assert!((w.variance().unwrap() - v).abs() < 1e-5 * (1.0 + v.abs()));
        }

        #[test]
        fn prop_quantile_bounded_by_extremes(
            xs in proptest::collection::vec(-1e9f64..1e9, 1..100),
            q in 0.0f64..=1.0,
        ) {
            let v = quantile(&xs, q).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo && v <= hi);
        }

        #[test]
        fn prop_quantile_monotone_in_q(
            xs in proptest::collection::vec(-1e6f64..1e6, 2..60),
            q1 in 0.0f64..=1.0,
            q2 in 0.0f64..=1.0,
        ) {
            let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&xs, qa).unwrap() <= quantile(&xs, qb).unwrap() + 1e-12);
        }

        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 2..100)) {
            prop_assert!(variance(&xs).unwrap() >= -1e-9);
        }

        #[test]
        fn prop_histogram_total(xs in proptest::collection::vec(-10f64..10.0, 0..200)) {
            let h = histogram(&xs, -5.0, 5.0, 10).unwrap();
            prop_assert_eq!(h.iter().sum::<u64>(), xs.len() as u64);
        }
    }
}
