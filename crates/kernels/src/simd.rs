//! Portable SIMD-style lane abstraction: the vectorized tier's foundation.
//!
//! No `std::simd`, no intrinsics, no unsafe — [`F64Lanes`] is a fixed-size
//! `f64` array whose arithmetic is written in the exact shapes LLVM's
//! autovectorizer reliably turns into packed vector instructions at the
//! crate's baseline target: full-width loads/stores via
//! `copy_from_slice`, element-wise loops over `[f64; W]` with no
//! loop-carried dependence, and multi-accumulator reductions that defer
//! the horizontal sum to a single pairwise tree at the end.
//!
//! Two deliberate policy choices, both documented pitfalls in this suite:
//!
//! * Multiply-add is the plain `a * b + c`, **not** `f64::mul_add` —
//!   without `-C target-cpu` enabling FMA, `mul_add` lowers to a libm
//!   call and is several times slower (see `dotaxpy::axpy_optimized`).
//! * Reductions reassociate: a `W`-lane sum adds the same terms in a
//!   different order than the serial chain, so results are compared with
//!   the ULP/absolute-floor policy in [`crate::verify`], never bitwise.
//!
//! The module also owns the `RCR_TILE` override ([`default_tile`]) for the
//! cache-blocking sizes used by the packed matmul micro-kernel, mirroring
//! `RCR_THREADS` in [`crate::par`].

/// Default lane width for the vectorized kernels: 8 doubles = one cache
/// line, wide enough to fill two 4-wide AVX registers (or four SSE2 ones)
/// per bundle while staying register-resident on every x86-64 baseline.
pub const LANES: usize = 8;

/// A bundle of `W` lanes of `f64`, processed element-wise.
///
/// `W` should be a small power of two (2, 4, 8); any `W >= 1` is correct,
/// but non-power-of-two widths defeat the autovectorizer's whole-register
/// pattern matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64Lanes<const W: usize>(pub [f64; W]);

#[allow(clippy::should_implement_trait)] // named methods, not operators
impl<const W: usize> F64Lanes<W> {
    /// All lanes zero.
    pub const ZERO: Self = F64Lanes([0.0; W]);

    /// Broadcasts one scalar into every lane.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        F64Lanes([v; W])
    }

    /// Loads the first `W` elements of `xs` (full-width load).
    ///
    /// # Panics
    /// Panics when `xs.len() < W`.
    #[inline]
    pub fn load(xs: &[f64]) -> Self {
        let mut a = [0.0; W];
        a.copy_from_slice(&xs[..W]);
        F64Lanes(a)
    }

    /// Masked load for the `n % W != 0` remainder: lanes `0..xs.len()`
    /// come from `xs`, the rest are zero (the additive identity, so a
    /// partial bundle can flow through the same reduction as full ones).
    ///
    /// # Panics
    /// Panics when `xs.len() > W`.
    #[inline]
    fn load_partial(xs: &[f64]) -> Self {
        assert!(xs.len() <= W, "partial load wider than the bundle");
        let mut a = [0.0; W];
        a[..xs.len()].copy_from_slice(xs);
        F64Lanes(a)
    }

    /// Stores all `W` lanes into the head of `out`.
    ///
    /// # Panics
    /// Panics when `out.len() < W`.
    #[inline]
    pub fn store(self, out: &mut [f64]) {
        out[..W].copy_from_slice(&self.0);
    }

    /// Lane-wise addition.
    #[inline]
    #[must_use]
    pub fn add(self, rhs: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(&rhs.0) {
            *x += y;
        }
        F64Lanes(a)
    }

    /// Lane-wise multiplication.
    #[inline]
    #[must_use]
    pub fn mul(self, rhs: Self) -> Self {
        let mut a = self.0;
        for (x, y) in a.iter_mut().zip(&rhs.0) {
            *x *= y;
        }
        F64Lanes(a)
    }

    /// Lane-wise multiply-add `self * a + b`, in the plain `mul`-then-`add`
    /// shape (not `f64::mul_add`; see the module docs for why).
    #[inline]
    #[must_use]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        let mut r = self.0;
        for ((x, y), z) in r.iter_mut().zip(&a.0).zip(&b.0) {
            *x = *x * y + z;
        }
        F64Lanes(r)
    }

    /// Horizontal sum by pairwise tree reduction (log₂ W rounding steps
    /// rather than W, and the shape LLVM folds into shuffles + adds).
    #[inline]
    pub fn sum(self) -> f64 {
        if W == 0 {
            return 0.0;
        }
        let mut buf = self.0;
        let mut w = W;
        while w > 1 {
            let half = w / 2;
            for i in 0..half {
                buf[i] += buf[w - half + i];
            }
            w -= half;
        }
        buf[0]
    }
}

/// Number of independent accumulator bundles the reductions keep in
/// flight: 4 × `W` partial sums hides the ~4-cycle add latency behind
/// 1-per-cycle throughput on every recent x86-64/aarch64 core.
const ACCS: usize = 4;

/// Vectorized dot product: 4 independent `W`-lane accumulators over the
/// main body, one bundle for the `W`-wide tail, a masked
/// `F64Lanes::load_partial` for the final `n % W` elements, then a
/// single horizontal reduction.
///
/// Reassociates relative to [`crate::dotaxpy::dot_naive`]; compare with
/// [`crate::verify::close`].
///
/// # Panics
/// Panics on length mismatch.
pub fn dot<const W: usize>(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot requires equal lengths");
    let n = x.len();
    let step = ACCS * W;
    let mut acc = [F64Lanes::<W>::ZERO; ACCS];
    let mut i = 0;
    if W > 0 {
        while i + step <= n {
            for (a, lane) in acc.iter_mut().enumerate() {
                let o = i + a * W;
                *lane = F64Lanes::load(&x[o..]).mul_add(F64Lanes::load(&y[o..]), *lane);
            }
            i += step;
        }
        while i + W <= n {
            acc[0] = F64Lanes::load(&x[i..]).mul_add(F64Lanes::load(&y[i..]), acc[0]);
            i += W;
        }
        if i < n {
            acc[1] =
                F64Lanes::load_partial(&x[i..]).mul_add(F64Lanes::load_partial(&y[i..]), acc[1]);
        }
    }
    acc[0].add(acc[1]).add(acc[2].add(acc[3])).sum()
}

/// Vectorized sum: same accumulator structure as [`dot`] with the
/// multiply dropped.
pub fn sum<const W: usize>(xs: &[f64]) -> f64 {
    let n = xs.len();
    let step = ACCS * W;
    let mut acc = [F64Lanes::<W>::ZERO; ACCS];
    let mut i = 0;
    if W > 0 {
        while i + step <= n {
            for (a, lane) in acc.iter_mut().enumerate() {
                *lane = lane.add(F64Lanes::load(&xs[i + a * W..]));
            }
            i += step;
        }
        while i + W <= n {
            acc[0] = acc[0].add(F64Lanes::load(&xs[i..]));
            i += W;
        }
        if i < n {
            acc[1] = acc[1].add(F64Lanes::load_partial(&xs[i..]));
        }
    }
    acc[0].add(acc[1]).add(acc[2].add(acc[3])).sum()
}

/// Vectorized AXPY `y[i] += alpha * x[i]`: `W`-wide bundles with a scalar
/// tail. Every element sees exactly one multiply and one add, the same as
/// the naive loop, so the result is **bitwise identical** to
/// [`crate::dotaxpy::axpy_naive`] — no reassociation happens here.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy<const W: usize>(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    if W == 0 {
        for (yv, &xv) in y.iter_mut().zip(x) {
            *yv += alpha * xv;
        }
        return;
    }
    let av = F64Lanes::<W>::splat(alpha);
    // Four bundles per iteration: matches the unroll depth LLVM gives the
    // plain zipped loop, so the lane tier never loses to it on throughput.
    let step = ACCS * W;
    let mut yw = y.chunks_exact_mut(step);
    for (yb, xb) in (&mut yw).zip(x.chunks_exact(step)) {
        for (yv, xv) in yb.chunks_exact_mut(W).zip(xb.chunks_exact(W)) {
            F64Lanes::load(xv).mul_add(av, F64Lanes::load(yv)).store(yv);
        }
    }
    let rem = yw.into_remainder();
    let xrem = &x[x.len() - rem.len()..];
    let mut yc = rem.chunks_exact_mut(W);
    for (yb, xb) in (&mut yc).zip(xrem.chunks_exact(W)) {
        F64Lanes::load(xb).mul_add(av, F64Lanes::load(yb)).store(yb);
    }
    let tail = yc.into_remainder();
    let xtail = &xrem[xrem.len() - tail.len()..];
    for (yv, &xv) in tail.iter_mut().zip(xtail) {
        *yv += alpha * xv;
    }
}

/// Vectorized in-place scale `y[i] *= alpha` (used by the ResearchScript
/// `vscale` builtin behind `Tier::Vectorized`).
pub fn scale<const W: usize>(alpha: f64, y: &mut [f64]) {
    if W == 0 {
        for v in y {
            *v *= alpha;
        }
        return;
    }
    let av = F64Lanes::<W>::splat(alpha);
    let mut yc = y.chunks_exact_mut(W);
    for yb in &mut yc {
        F64Lanes::load(yb).mul(av).store(yb);
    }
    for v in yc.into_remainder() {
        *v *= alpha;
    }
}

/// Smallest / largest accepted cache tile (in elements along one axis).
const TILE_RANGE: std::ops::RangeInclusive<usize> = 8..=256;

/// Fallback tile when `RCR_TILE` is unset: 64 k-elements per packed panel
/// strip keeps the panel (64 × 8 doubles = 4 KiB) resident in L1 next to
/// the A operands and the 4×8 accumulator block.
pub const DEFAULT_TILE: usize = 64;

/// Parses a tile-size override string: a positive integer, rounded up to
/// the next power of two and clamped to `8..=256`. Junk (empty, zero,
/// non-numeric) is rejected with `None` rather than clamped, mirroring
/// [`crate::par::parse_threads`].
fn parse_tile(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&t| t > 0).map(|t| {
        t.clamp(*TILE_RANGE.start(), *TILE_RANGE.end())
            .next_power_of_two()
    })
}

/// Cache-tile size used by the blocked/packed kernels.
///
/// The `RCR_TILE` environment variable, when set to a positive integer,
/// overrides [`DEFAULT_TILE`] (rounded up to a power of two and clamped
/// to `8..=256`) — so the E18 tile ablation and cache-size experiments
/// can re-tune blocking without recompiling, exactly like `RCR_THREADS`
/// re-tunes the thread count.
pub fn default_tile() -> usize {
    if let Ok(s) = std::env::var("RCR_TILE") {
        if let Some(t) = parse_tile(&s) {
            return t;
        }
    }
    DEFAULT_TILE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dotaxpy::{axpy_naive, dot_naive, gen_vector};
    use crate::reduce::{gen_data, sum_naive};
    use crate::verify::{close, sum_abs_tol, within_ulps};
    use proptest::prelude::*;

    #[test]
    fn lanes_basic_ops() {
        let a = F64Lanes::<4>([1.0, 2.0, 3.0, 4.0]);
        let b = F64Lanes::<4>::splat(2.0);
        assert_eq!(a.add(b).0, [3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mul(b).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.mul_add(b, a).0, [3.0, 6.0, 9.0, 12.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(F64Lanes::<1>([7.0]).sum(), 7.0);
    }

    #[test]
    fn partial_load_zero_fills() {
        let l = F64Lanes::<4>::load_partial(&[5.0, 6.0]);
        assert_eq!(l.0, [5.0, 6.0, 0.0, 0.0]);
        assert_eq!(F64Lanes::<4>::load_partial(&[]).0, [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "wider than the bundle")]
    fn partial_load_rejects_overflow() {
        let _ = F64Lanes::<2>::load_partial(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn store_roundtrip() {
        let mut out = [0.0; 6];
        F64Lanes::<4>([1.0, 2.0, 3.0, 4.0]).store(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn dot_known_value_and_remainders() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot::<4>(&x, &y), 32.0);
        assert_eq!(dot::<8>(&x, &y), 32.0); // n < W: pure masked path
        assert_eq!(dot::<2>(&[], &[]), 0.0);
    }

    #[test]
    fn dot_matches_naive_within_tolerance() {
        for n in [0usize, 1, 7, 8, 31, 32, 33, 255, 1024, 10_001] {
            let x = gen_vector(n, 1);
            let y = gen_vector(n, 2);
            let reference = dot_naive(&x, &y);
            let tol = sum_abs_tol(x.iter().zip(&y).map(|(a, b)| a * b));
            assert!(close(reference, dot::<4>(&x, &y), 64, tol), "W=4 n={n}");
            assert!(close(reference, dot::<8>(&x, &y), 64, tol), "W=8 n={n}");
        }
    }

    #[test]
    fn sum_matches_naive_within_tolerance() {
        for n in [0usize, 1, 5, 8, 63, 64, 65, 4097] {
            let xs = gen_data(n, 3);
            let reference = sum_naive(&xs);
            let tol = sum_abs_tol(xs.iter().copied());
            assert!(close(reference, sum::<4>(&xs), 64, tol), "W=4 n={n}");
            assert!(close(reference, sum::<8>(&xs), 64, tol), "W=8 n={n}");
        }
    }

    #[test]
    fn axpy_is_bitwise_identical_to_naive() {
        for n in [0usize, 1, 7, 8, 9, 255, 1000] {
            let x = gen_vector(n, 5);
            let base = gen_vector(n, 6);
            let mut expect = base.clone();
            axpy_naive(1.7, &x, &mut expect);
            for_widths(&x, &base, &expect);
        }
    }

    fn for_widths(x: &[f64], base: &[f64], expect: &[f64]) {
        let mut y4 = base.to_vec();
        axpy::<4>(1.7, x, &mut y4);
        assert_eq!(y4, expect);
        let mut y8 = base.to_vec();
        axpy::<8>(1.7, x, &mut y8);
        assert_eq!(y8, expect);
    }

    #[test]
    fn scale_matches_scalar_loop() {
        for n in [0usize, 1, 9, 100] {
            let base = gen_vector(n, 8);
            let mut expect = base.clone();
            for v in &mut expect {
                *v *= 0.75;
            }
            let mut got = base.clone();
            scale::<8>(0.75, &mut got);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn parse_tile_rounds_and_clamps() {
        assert_eq!(parse_tile("64"), Some(64));
        assert_eq!(parse_tile(" 32 "), Some(32));
        assert_eq!(parse_tile("100"), Some(128)); // round up to pow2
        assert_eq!(parse_tile("1"), Some(8)); // clamp low
        assert_eq!(parse_tile("9999"), Some(256)); // clamp high
        assert_eq!(parse_tile("0"), None);
        assert_eq!(parse_tile(""), None);
        assert_eq!(parse_tile("wide"), None);
    }

    #[test]
    fn rcr_tile_env_overrides_default() {
        let prev = std::env::var("RCR_TILE").ok();
        std::env::set_var("RCR_TILE", "32");
        assert_eq!(default_tile(), 32);
        std::env::set_var("RCR_TILE", "junk");
        assert_eq!(default_tile(), DEFAULT_TILE);
        match prev {
            Some(v) => std::env::set_var("RCR_TILE", v),
            None => std::env::remove_var("RCR_TILE"),
        }
    }

    proptest! {
        #[test]
        fn prop_dot_agrees_across_widths_and_sizes(
            xs in proptest::collection::vec(-100f64..100.0, 0..300)
        ) {
            // Arbitrary n, including n < W and n % W != 0 for every width.
            let ys: Vec<f64> = xs.iter().map(|v| v * 0.5 - 1.0).collect();
            let reference = dot_naive(&xs, &ys);
            let tol = sum_abs_tol(xs.iter().zip(&ys).map(|(a, b)| a * b));
            prop_assert!(close(reference, dot::<2>(&xs, &ys), 128, tol));
            prop_assert!(close(reference, dot::<4>(&xs, &ys), 128, tol));
            prop_assert!(close(reference, dot::<8>(&xs, &ys), 128, tol));
        }

        #[test]
        fn prop_sum_agrees_with_serial(
            xs in proptest::collection::vec(-1000f64..1000.0, 0..400)
        ) {
            let reference = sum_naive(&xs);
            let tol = sum_abs_tol(xs.iter().copied());
            prop_assert!(close(reference, sum::<8>(&xs), 128, tol));
        }

        #[test]
        fn prop_axpy_bitwise_for_any_n(
            xs in proptest::collection::vec(-10f64..10.0, 0..200),
            alpha in -4f64..4.0
        ) {
            let base: Vec<f64> = xs.iter().map(|v| v * 0.25 + 1.0).collect();
            let mut expect = base.clone();
            axpy_naive(alpha, &xs, &mut expect);
            let mut got = base.clone();
            axpy::<8>(alpha, &xs, &mut got);
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn ulp_policy_actually_needed_for_reassociated_dot() {
        // Documents why the vectorized tier is compared with `close` and
        // not `==`: at some size the reassociated result really does differ
        // in the last bits — but stays within a few ULPs.
        let n = 4096;
        let x = gen_vector(n, 11);
        let y = gen_vector(n, 12);
        let a = dot_naive(&x, &y);
        let b = dot::<8>(&x, &y);
        assert!(within_ulps(a, b, 1 << 16), "wildly divergent dot");
    }
}
