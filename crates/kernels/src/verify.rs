//! Cross-variant verification helpers: every parallel/optimized kernel is
//! checked against its naive sibling in tests before any benchmark quotes a
//! speedup.
//!
//! # Tolerance policy
//!
//! Two families of comparison live here, for two failure models:
//!
//! * **Relative tolerance** ([`approx_eq`], [`approx_eq_slices`]) — the
//!   historical check, right when the variants perform the *same*
//!   floating-point operations and only scheduling/rounding noise is
//!   expected.
//! * **ULP + absolute floor** ([`within_ulps`], [`close`],
//!   [`close_slices`]) — for the vectorized/multi-accumulator tier, where
//!   reassociation is *by design*: a `W`-lane sum performs the same
//!   additions in a different association order, so bitwise equality (and
//!   even a fixed relative tolerance, under heavy cancellation) is the
//!   wrong contract. The policy is: accept when the results are within
//!   `max_ulps` units-in-the-last-place of each other, **or** within an
//!   absolute floor the caller derives from the data (typically
//!   `f64::EPSILON × Σ|terms| × small-constant`, the standard forward
//!   error bound of a reassociated sum). Kernels whose vectorized variant
//!   performs *identical* per-element operations (AXPY, the stencil's
//!   time-tiled fusion) still assert bitwise equality in their own tests —
//!   the looser contract is reserved for genuinely reassociated
//!   reductions (dot, sum, SpMV row dots, matmul k-blocking).

/// True when two slices agree element-wise within relative tolerance
/// `tol` (absolute near zero).
pub fn approx_eq_slices(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&x, &y)| {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= tol * scale
        })
}

/// True when two scalars agree within relative tolerance.
pub fn approx_eq(x: f64, y: f64, tol: f64) -> bool {
    let scale = x.abs().max(y.abs()).max(1.0);
    (x - y).abs() <= tol * scale
}

/// Maps a float onto a monotone integer line so that the integer distance
/// between two mapped values counts the representable doubles between
/// them. `-0.0` and `+0.0` both map to zero.
fn ulp_key(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    if b < 0 {
        i64::MIN - b
    } else {
        b
    }
}

/// Distance between two floats in units-in-the-last-place: the number of
/// representable `f64` values between them (0 when bitwise equal, and
/// `u64::MAX` when either argument is NaN, so NaN never compares close).
fn ulp_diff(x: f64, y: f64) -> u64 {
    if x.is_nan() || y.is_nan() {
        return u64::MAX;
    }
    ulp_key(x).abs_diff(ulp_key(y))
}

/// True when `x` and `y` are within `max_ulps` representable values of
/// each other. NaN is never within tolerance of anything (including NaN);
/// infinities match only themselves at any finite `max_ulps`.
pub fn within_ulps(x: f64, y: f64, max_ulps: u64) -> bool {
    ulp_diff(x, y) <= max_ulps
}

/// The reassociation-tolerant scalar check (see the module-level tolerance
/// policy): within `max_ulps` ULPs **or** within the absolute floor
/// `abs_tol` the caller derived from the summands.
pub fn close(x: f64, y: f64, max_ulps: u64, abs_tol: f64) -> bool {
    within_ulps(x, y, max_ulps) || (x - y).abs() <= abs_tol
}

/// Element-wise [`close`] over slices (lengths must match).
pub fn close_slices(a: &[f64], b: &[f64], max_ulps: u64, abs_tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| close(x, y, max_ulps, abs_tol))
}

/// Absolute floor for comparing two reassociated sums of the given terms:
/// `f64::EPSILON × Σ|terms| × 8`. The factor 8 covers the extra rounding
/// steps a multi-accumulator/blocked evaluation introduces without
/// admitting genuinely wrong answers.
pub fn sum_abs_tol(terms: impl Iterator<Item = f64>) -> f64 {
    f64::EPSILON * terms.map(f64::abs).sum::<f64>() * 8.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_slices_behaviour() {
        assert!(approx_eq_slices(&[1.0, 2.0], &[1.0, 2.0 + 1e-12], 1e-9));
        assert!(!approx_eq_slices(&[1.0, 2.0], &[1.0, 2.1], 1e-9));
        assert!(!approx_eq_slices(&[1.0], &[1.0, 1.0], 1e-9));
        // Relative scaling: 1e6 vs 1e6+1 passes at 1e-5.
        assert!(approx_eq_slices(&[1e6], &[1e6 + 1.0], 1e-5));
        assert!(!approx_eq_slices(&[1e6], &[1e6 + 100.0], 1e-6));
    }

    #[test]
    fn approx_eq_near_zero_uses_absolute() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-3, 1e-9));
    }

    #[test]
    fn ulp_diff_counts_representable_steps() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 17)), 17);
        // Symmetric, and spans zero correctly: -min_pos .. +min_pos is 2.
        let tiny = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_diff(tiny, -tiny), 2);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(f64::NAN, 1.0), u64::MAX);
    }

    #[test]
    fn within_ulps_behaviour() {
        let x = 1.0f64;
        let y = f64::from_bits(x.to_bits() + 4);
        assert!(within_ulps(x, y, 4));
        assert!(!within_ulps(x, y, 3));
        assert!(within_ulps(f64::INFINITY, f64::INFINITY, 0));
        // Infinity is the bit pattern one past f64::MAX: exactly 1 ULP.
        assert_eq!(ulp_diff(f64::INFINITY, f64::MAX), 1);
        assert!(!within_ulps(f64::INFINITY, f64::MAX, 0));
        assert!(!within_ulps(f64::NAN, f64::NAN, u64::MAX - 1));
    }

    #[test]
    fn close_accepts_abs_floor_under_cancellation() {
        // 1e-18 vs 0.0 is astronomically far in ULPs but fine absolutely —
        // exactly the cancellation case the reassociated-sum policy covers.
        assert!(!within_ulps(1e-18, 0.0, 1 << 20));
        assert!(close(1e-18, 0.0, 64, 1e-12));
        assert!(!close(1e-3, 0.0, 64, 1e-12));
    }

    #[test]
    fn close_slices_checks_every_element() {
        assert!(close_slices(&[1.0, 2.0], &[1.0, 2.0], 0, 0.0));
        assert!(!close_slices(&[1.0, 2.0], &[1.0, 2.5], 64, 1e-12));
        assert!(!close_slices(&[1.0], &[1.0, 1.0], 64, 1e-12));
    }

    #[test]
    fn sum_abs_tol_scales_with_magnitude() {
        let small = sum_abs_tol([1.0f64; 4].into_iter());
        let large = sum_abs_tol([1.0f64; 4000].into_iter());
        assert!(large > 100.0 * small);
        assert!(small > 0.0);
    }
}
