//! Timing harness for the timing experiments behind the `reproduce`
//! binary, which need medians, not full distributions.

use std::time::{Duration, Instant};

/// Summary of repeated timed runs of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Number of timed runs.
    pub runs: usize,
    /// Fastest run.
    pub min: Duration,
    /// Median run (the headline number).
    pub median: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Slowest run.
    pub max: Duration,
}

/// Times one call of `f`, returning its result and the elapsed wall time.
fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// Runs `f` once to warm up, then `runs` timed repetitions, feeding each
/// result to `consume` (which must observe the value so the optimizer
/// cannot delete the work — pass a checksum accumulator).
///
/// # Panics
/// Panics when `runs == 0`.
pub fn measure<T>(
    runs: usize,
    mut f: impl FnMut() -> T,
    mut consume: impl FnMut(T),
) -> Measurement {
    assert!(runs > 0, "need at least one timed run");
    consume(f()); // warm-up
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let (v, dt) = time_once(&mut f);
        consume(v);
        times.push(dt);
    }
    times.sort();
    let total: Duration = times.iter().sum();
    Measurement {
        runs,
        min: times[0],
        median: times[times.len() / 2],
        mean: total / runs as u32,
        max: times[times.len() - 1],
    }
}

/// Opaque sink that defeats dead-code elimination without `unsafe` or
/// volatile tricks: it folds observed values into a checksum the caller can
/// print.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sink {
    acc: f64,
}

impl Sink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one value.
    pub fn eat(&mut self, v: f64) {
        // Any fold that depends on every input works; keep it cheap.
        self.acc = self.acc.mul_add(0.5, v);
    }

    /// Final checksum (print it, or assert it is finite).
    pub fn value(&self) -> f64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_ordered_stats() {
        let mut sink = Sink::new();
        let m = measure(
            5,
            || {
                let mut s = 0.0f64;
                for i in 0..10_000 {
                    s += (i as f64).sqrt();
                }
                s
            },
            |v| sink.eat(v),
        );
        assert_eq!(m.runs, 5);
        assert!(m.min <= m.median);
        assert!(m.median <= m.max);
        assert!(m.mean >= m.min && m.mean <= m.max);
        assert!(sink.value().is_finite());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_runs_panics() {
        measure(0, || 0.0, |_| {});
    }

    #[test]
    fn time_once_returns_value() {
        let (v, dt) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(dt >= Duration::ZERO);
    }
}
