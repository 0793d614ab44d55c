//! The parallel runtime facade: fork-join primitives shared by every
//! parallel kernel variant, now backed by the persistent work-stealing
//! pool in [`crate::pool`].
//!
//! Three schedulers are provided and compared in E17 (see [`Scheduler`]):
//!
//! * **spawn-static** (`for_each_chunk_spawn`) — fresh `std::thread::scope`
//!   threads per call, one contiguous chunk per worker. Zero scheduling
//!   overhead inside a call, but pays thread creation on *every* call and
//!   is vulnerable to load imbalance.
//! * **spawn-dynamic** (`for_each_dynamic_spawn`) — fresh scoped threads
//!   pulling fixed-size chunks from a shared atomic counter. Balances
//!   irregular work, still pays per-call spawn cost.
//! * **work-stealing** — the persistent pool: per-call cost is an inject +
//!   wakeup, and idle workers steal oldest-first from their peers.
//!
//! [`map_reduce`] and the band helpers run on the pool; their `threads`
//! argument controls the *partition* of the index space (and thereby
//! reduction order), so results are bit-identical for a fixed `threads`
//! value — the partition is a pure function of the arguments, never of
//! steal timing.

use crate::pool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parses a thread-count override string: a positive integer in `1..=256`.
/// Anything else (empty, junk, zero, absurd) is rejected with `None`.
pub fn parse_threads(s: &str) -> Option<usize> {
    s.trim()
        .parse::<usize>()
        .ok()
        .filter(|t| (1..=256).contains(t))
}

/// Number of worker threads to use by default.
///
/// The `RCR_THREADS` environment variable, when set to an integer in
/// `1..=256`, overrides the detected value — so experiments and benches
/// can pin a thread count without recompiling. Otherwise: the machine's
/// available parallelism, capped at 16 (the fork-join kernels here stop
/// scaling well beyond that on shared-memory hosts).
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var("RCR_THREADS") {
        if let Some(t) = parse_threads(&s) {
            return t;
        }
    }
    std::thread::available_parallelism().map_or(4, |n| n.get().min(16))
}

/// Splits `0..n` into exactly `parts` contiguous half-open ranges whose
/// sizes differ by at most one. All ranges are non-empty when
/// `parts <= n`; `parts` is clamped to `1..=n` first (empty result for
/// `n == 0`).
fn balanced_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    (0..parts)
        .map(|i| (i * n / parts, (i + 1) * n / parts))
        .collect()
}

/// Spawn-per-call static scheduler: the pre-pool implementation, kept as
/// the "naive runtime" arm of the E17 scheduler ablation. Spawns fresh
/// scoped threads on every call, one balanced chunk each.
///
/// # Panics
/// Re-raises panics from worker threads.
fn for_each_chunk_spawn<F>(n: usize, threads: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    if n == 0 {
        return;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        body(0, n);
        return;
    }
    let ranges = balanced_ranges(n, threads);
    std::thread::scope(|scope| {
        for &(start, end) in &ranges {
            let body = &body;
            scope.spawn(move || body(start, end));
        }
    });
}

/// Spawn-per-call dynamic scheduler: fresh scoped threads pulling
/// `chunk`-sized slices from a shared counter — the second "naive runtime"
/// arm of the E17 ablation.
///
/// # Panics
/// Re-raises panics from worker threads.
fn for_each_dynamic_spawn<F>(n: usize, threads: usize, chunk: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let chunk = chunk.max(1);
    if n == 0 {
        return;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        body(0, n);
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let body = &body;
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                body(start, end);
            });
        }
    });
}

/// The three parallel schedulers compared by experiment E17. All three
/// present the same `(n, threads, chunk, body)` interface so workloads are
/// interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Fresh scoped threads per call, one static chunk per worker.
    SpawnStatic,
    /// Fresh scoped threads per call, atomic-counter chunk claiming.
    SpawnDynamic,
    /// The persistent work-stealing pool ([`crate::pool`]).
    WorkStealing,
}

impl Scheduler {
    /// Every scheduler, in ablation order (the spawn-static arm is the
    /// baseline the others are compared against).
    pub const ALL: [Scheduler; 3] = [
        Scheduler::SpawnStatic,
        Scheduler::SpawnDynamic,
        Scheduler::WorkStealing,
    ];

    /// Stable display name used in tables, CSV and figure labels.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::SpawnStatic => "spawn-static",
            Scheduler::SpawnDynamic => "spawn-dynamic",
            Scheduler::WorkStealing => "work-stealing",
        }
    }

    /// Runs `body` over `0..n` under this scheduler with `threads` workers.
    /// `chunk` is the dynamic-claim / stealing grain (ignored by
    /// spawn-static, which always uses one balanced chunk per worker).
    pub fn for_each<F>(self, n: usize, threads: usize, chunk: usize, body: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        match self {
            Scheduler::SpawnStatic => for_each_chunk_spawn(n, threads, body),
            Scheduler::SpawnDynamic => for_each_dynamic_spawn(n, threads, chunk, body),
            Scheduler::WorkStealing => {
                if n == 0 {
                    return;
                }
                pool::sized(threads.max(1)).parallel_for(n, chunk.max(1), body);
            }
        }
    }
}

/// Runs `body` once per contiguous band of `data`, in parallel, where a
/// band is `band`-element-aligned (e.g. one matrix row = `n` elements).
/// `body` receives the band's element offset within `data` and the
/// mutable band slice. Bands are split recursively with [`pool::join`],
/// so disjoint `&mut` access needs no unsafe and no `Arc`.
pub fn for_each_bands_mut<T, F>(data: &mut [T], band: usize, parts: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let band = band.max(1);
    let n_bands = data.len() / band;
    debug_assert_eq!(
        data.len() % band,
        0,
        "data length must be a multiple of the band size"
    );
    if n_bands == 0 {
        if !data.is_empty() {
            body(0, data);
        }
        return;
    }
    let parts = parts.clamp(1, n_bands);
    if parts == 1 {
        body(0, data);
        return;
    }
    bands_rec(data, 0, band, n_bands, parts, &body);
}

fn bands_rec<T, F>(
    data: &mut [T],
    offset: usize,
    band: usize,
    n_bands: usize,
    parts: usize,
    body: &F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if parts <= 1 {
        body(offset, data);
        return;
    }
    let left_parts = parts / 2;
    // Bands split proportionally to parts, so every leaf gets >= 1 band
    // (invariant: parts <= n_bands).
    let left_bands = n_bands * left_parts / parts;
    let split = left_bands * band;
    let (l, r) = data.split_at_mut(split);
    pool::join(
        || bands_rec(l, offset, band, left_bands, left_parts, body),
        || {
            bands_rec(
                r,
                offset + split,
                band,
                n_bands - left_bands,
                parts - left_parts,
                body,
            )
        },
    );
}

/// [`for_each_bands_mut`] with single-element bands: splits `data` into at
/// most `parts` contiguous mutable chunks processed in parallel. `body`
/// receives each chunk's start offset and the chunk itself.
pub fn for_each_mut_chunk<T, F>(data: &mut [T], parts: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    for_each_bands_mut(data, 1, parts, body);
}

/// Parallel map-reduce over contiguous chunks: each task computes a
/// partial with `map` on its `(start, end)` range, and the partials are
/// folded with `reduce` in deterministic chunk order (so non-associative
/// floating-point reductions stay reproducible for a fixed thread count —
/// the fold order is the partition order, which depends only on
/// `(n, threads)`).
pub fn map_reduce<T, M, R>(n: usize, threads: usize, identity: T, map: M, reduce: R) -> T
where
    T: Send,
    M: Fn(usize, usize) -> T + Sync,
    R: Fn(T, T) -> T,
{
    if n == 0 {
        return identity;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return reduce(identity, map(0, n));
    }
    let ranges = balanced_ranges(n, threads);
    let mut partials: Vec<Option<T>> = Vec::new();
    partials.resize_with(ranges.len(), || None);
    fill_slots(&mut partials, &ranges, &map);
    let mut acc = identity;
    for p in partials.into_iter().flatten() {
        acc = reduce(acc, p);
    }
    acc
}

/// Fills `slots[i] = Some(map(ranges[i]))` in parallel via nested joins.
fn fill_slots<T, M>(slots: &mut [Option<T>], ranges: &[(usize, usize)], map: &M)
where
    T: Send,
    M: Fn(usize, usize) -> T + Sync,
{
    match slots.len() {
        0 => {}
        1 => {
            let (s, e) = ranges[0];
            slots[0] = Some(map(s, e));
        }
        len => {
            let mid = len / 2;
            let (sl, sr) = slots.split_at_mut(mid);
            let (rl, rr) = ranges.split_at(mid);
            pool::join(|| fill_slots(sl, rl, map), || fill_slots(sr, rr, map));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn default_threads_is_sane() {
        let t = default_threads();
        assert!((1..=256).contains(&t));
    }

    #[test]
    fn parse_threads_accepts_sane_values_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("256"), Some(256));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("257"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("-2"), None);
    }

    #[test]
    fn rcr_threads_env_overrides_default() {
        // Env mutation is process-global; pick a value inside the sane
        // range other tests assert on, and restore afterwards.
        let prev = std::env::var("RCR_THREADS").ok();
        std::env::set_var("RCR_THREADS", "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var("RCR_THREADS", "not-a-number");
        let fallback = default_threads();
        assert!((1..=16).contains(&fallback), "junk override is ignored");
        match prev {
            Some(v) => std::env::set_var("RCR_THREADS", v),
            None => std::env::remove_var("RCR_THREADS"),
        }
    }

    #[test]
    fn balanced_ranges_cover_and_never_produce_empty_chunks() {
        assert!(balanced_ranges(0, 5).is_empty());
        for n in 1..=48usize {
            for parts in 1..=9usize {
                let ranges = balanced_ranges(n, parts);
                assert_eq!(ranges.len(), parts.min(n), "n = {n}, parts = {parts}");
                let mut next = 0;
                let mut min_len = usize::MAX;
                let mut max_len = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, next, "contiguous: n = {n}, parts = {parts}");
                    assert!(e > s, "non-empty: n = {n}, parts = {parts}");
                    min_len = min_len.min(e - s);
                    max_len = max_len.max(e - s);
                    next = e;
                }
                assert_eq!(next, n, "covers 0..n: n = {n}, parts = {parts}");
                assert!(
                    max_len - min_len <= 1,
                    "balanced: n = {n}, parts = {parts}, sizes {min_len}..={max_len}"
                );
            }
        }
    }

    /// Exhaustive small-range coverage check for a `(start, end)` scheduler.
    fn assert_covers_exactly_once(
        n: usize,
        label: &str,
        run: impl Fn(&(dyn Fn(usize, usize) + Sync)),
    ) {
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let workers = AtomicUsize::new(0);
        run(&|s, e| {
            assert!(e > s, "{label}: empty range ({s}, {e}) handed to a worker");
            workers.fetch_add(1, Ordering::Relaxed);
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "{label}: some index not covered exactly once"
        );
    }

    #[test]
    fn static_chunks_cover_exhaustively_with_no_empty_ranges() {
        // The regression this guards: div_ceil chunking used to hand some
        // workers empty ranges (e.g. n = 10, threads = 7 left 2 idle after
        // a mid-loop break). Exhaustive over small (n, threads).
        for n in 0..=48usize {
            for threads in 1..=9usize {
                assert_covers_exactly_once(n, &format!("spawn n={n} t={threads}"), |body| {
                    for_each_chunk_spawn(n, threads, body)
                });
            }
        }
    }

    #[test]
    fn dynamic_chunks_cover_exhaustively() {
        for n in [0usize, 1, 7, 23, 48] {
            for threads in 1..=5usize {
                for chunk in [1usize, 3, 64] {
                    assert_covers_exactly_once(
                        n,
                        &format!("dyn-spawn n={n} t={threads}"),
                        |body| for_each_dynamic_spawn(n, threads, chunk, body),
                    );
                }
            }
        }
    }

    #[test]
    fn all_schedulers_cover_range_exactly_once() {
        for sched in Scheduler::ALL {
            for n in [0usize, 1, 10, 1003] {
                assert_covers_exactly_once(n, sched.name(), |body| sched.for_each(n, 4, 16, body));
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        for_each_chunk_spawn(0, 4, |_, _| panic!("no work expected"));
        for_each_dynamic_spawn(0, 4, 8, |_, _| panic!("no work expected"));
        // Single-thread fallback executes inline over the whole range.
        for_each_chunk_spawn(10, 1, |s, e| assert_eq!((s, e), (0, 10)));
        let count = AtomicUsize::new(0);
        for_each_chunk_spawn(10, 1, |s, e| {
            count.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
        // More threads than items clamps.
        let count = AtomicUsize::new(0);
        for_each_chunk_spawn(3, 64, |s, e| {
            count.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dynamic_zero_chunk_is_clamped_to_one() {
        // Regression: chunk 0 used to panic (and before that, would have
        // spun forever claiming empty slices). It now behaves as chunk 1.
        let n = 37;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for_each_dynamic_spawn(n, 4, 0, |s, e| {
            assert_eq!(e, s + 1, "clamped chunk claims one index at a time");
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // Single-thread fallback with chunk 0 runs the whole range inline.
        for_each_dynamic_spawn(10, 1, 0, |s, e| assert_eq!((s, e), (0, 10)));
    }

    #[test]
    fn mut_chunk_bands_are_disjoint_aligned_and_complete() {
        // Element chunks.
        for n in [0usize, 1, 7, 100] {
            for parts in 1..=6usize {
                let mut data = vec![0u32; n];
                for_each_mut_chunk(&mut data, parts, |off, band| {
                    assert!(!band.is_empty() || n == 0);
                    for (k, v) in band.iter_mut().enumerate() {
                        *v = (off + k) as u32 + 1;
                    }
                });
                assert!(
                    data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1),
                    "n = {n}, parts = {parts}"
                );
            }
        }
        // Row-aligned bands: every band a multiple of the row width.
        let rows = 13usize;
        let cols = 7usize;
        for parts in 1..=6usize {
            let mut data = vec![0u32; rows * cols];
            for_each_bands_mut(&mut data, cols, parts, |off, band| {
                assert_eq!(off % cols, 0, "band starts on a row boundary");
                assert_eq!(band.len() % cols, 0, "band is whole rows");
                assert!(!band.is_empty());
                for (k, v) in band.iter_mut().enumerate() {
                    *v = (off + k) as u32 + 1;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        }
    }

    #[test]
    fn map_reduce_sums_deterministically() {
        let n = 100_000;
        let expect = (n as u64 - 1) * n as u64 / 2;
        for threads in [1, 2, 3, 8] {
            let total = map_reduce(
                n,
                threads,
                0u64,
                |s, e| (s..e).map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(total, expect, "threads = {threads}");
        }
        // Repeated runs with the same thread count are bit-identical even
        // for floats.
        let a = map_reduce(
            1 << 12,
            4,
            0.0f64,
            |s, e| (s..e).map(|i| (i as f64).sin()).sum(),
            |x, y| x + y,
        );
        let b = map_reduce(
            1 << 12,
            4,
            0.0f64,
            |s, e| (s..e).map(|i| (i as f64).sin()).sum(),
            |x, y| x + y,
        );
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn map_reduce_empty_is_identity() {
        let v = map_reduce(0, 4, 42u64, |_, _| 0, |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn uneven_work_is_balanced_by_dynamic_scheduler() {
        // Not a performance assertion (CI noise) — just exercises the path
        // where the last indices carry all the work.
        let total = AtomicU64::new(0);
        for_each_dynamic_spawn(256, 4, 8, |s, e| {
            for i in s..e {
                let mut acc = 0u64;
                let reps = if i > 200 { 10_000 } else { 10 };
                for k in 0..reps {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                total.fetch_add(acc & 1, Ordering::Relaxed);
            }
        });
        // All 256 indices visited.
        assert!(total.load(Ordering::Relaxed) <= 256);
    }

    #[test]
    fn schedulers_agree_bitwise_on_disjoint_float_stores() {
        // The determinism contract E17 relies on: identical per-index
        // float writes under every scheduler and several thread counts.
        let n = 4096usize;
        let reference: Vec<u64> = (0..n)
            .map(|i| ((i as f64) * 0.37).cos().to_bits())
            .collect();
        for sched in Scheduler::ALL {
            for threads in [1usize, 2, 4, 7] {
                let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                sched.for_each(n, threads, 32, |s, e| {
                    for (i, slot) in slots.iter().enumerate().take(e).skip(s) {
                        slot.store(((i as f64) * 0.37).cos().to_bits(), Ordering::Relaxed);
                    }
                });
                for (i, slot) in slots.iter().enumerate() {
                    assert_eq!(
                        slot.load(Ordering::Relaxed),
                        reference[i],
                        "scheduler {}, threads {threads}, index {i}",
                        sched.name()
                    );
                }
            }
        }
    }
}
