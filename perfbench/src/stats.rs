//! Order statistics for reported timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, together with the sample
//! count, so a tail figure never rests on a handful of observations.

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median, tail percentile and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (0 with no samples).
    pub p50: f64,
    /// Tail percentile reported, e.g. 99.0; 0 when there are too few
    /// samples for any percentile on the ladder.
    pub tail_pct: f64,
    /// Value at `tail_pct` (0 when `tail_pct` is 0).
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank index of percentile `pct` among `n` sorted samples.
fn rank(pct: f64, n: usize) -> usize {
    let r = (pct * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Summarizes `samples` (any order; NaNs are a caller bug).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = xs.len();
    if n == 0 {
        return Summary {
            p50: 0.0,
            tail_pct: 0.0,
            tail: 0.0,
            n,
        };
    }
    let tail = TAIL_LADDER
        .iter()
        .find(|&&p| n - 1 - rank(p, n) >= MIN_BEYOND)
        .map_or((0.0, 0.0), |&p| (p, xs[rank(p, n)]));
    Summary {
        p50: median_sorted(&xs),
        tail_pct: tail.0,
        tail: tail.1,
        n,
    }
}

fn median_sorted(xs: &[f64]) -> f64 {
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        0.5 * (xs[m - 1] + xs[m])
    }
}

/// Median of `samples` (0 with no samples).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Mean of `samples` (0 with no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=1000: p99.9 (rank 999) has one sample beyond, p99 (rank 990)
        // has exactly ten.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.tail_pct, s.tail, s.n), (99.0, 990.0, 1000));
        assert_eq!(s.p50, 500.5);
        // 999 samples: p99 → rank 990 leaves nine beyond, so p95 it is.
        let s = summarize(&xs[..999]);
        assert_eq!((s.tail_pct, s.tail, s.n), (95.0, 950.0, 999));
        // 100 samples: p90 (rank 90) leaves exactly ten beyond.
        let s = summarize(&xs[..100]);
        assert_eq!((s.tail_pct, s.tail), (90.0, 90.0));
    }

    #[test]
    fn tail_is_absent_below_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.tail_pct, s.tail, s.n, s.p50), (0.0, 0.0, 19, 10.0));
        let s = summarize(&[3.0; 20]);
        assert_eq!((s.tail_pct, s.tail), (50.0, 3.0));
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let xs: Vec<f64> = (0..500).map(|i| f64::from((i * 7919) % 500)).collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(summarize(&xs), summarize(&sorted));
    }
}
