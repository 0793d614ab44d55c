//! Dense square matrix multiplication: the compute-bound flagship kernel.
//!
//! * [`naive`] — textbook `ijk` order: the inner loop strides down `b`'s
//!   columns, missing cache on every step.
//! * [`blocked`] — `ikj` reordering plus register-friendly row accumulation:
//!   the classic "one-line locality fix" whose payoff the paper's
//!   performance-gap argument leans on. (Remainder audit: `ikj` has no
//!   block-edge cases — every loop runs to exactly `n` — so any `n`,
//!   including primes, is handled; the exhaustive `1..=17` tests below
//!   pin that down for both this and the packed kernel.)
//! * [`packed`] — the vectorized tier: a register-blocked 4×8
//!   micro-kernel over a packed, zero-padded B panel, k-blocked by the
//!   `RCR_TILE` cache tile ([`crate::simd::default_tile`]). This is the
//!   BLIS-shaped layering under `blocked()`: same `ikj` dataflow, but the
//!   4×8 accumulator block stays in registers across the whole k-tile
//!   instead of round-tripping `c`'s row through cache every k step.
//! * [`parallel`] / [`parallel_packed`] — output-row bands distributed
//!   over the persistent work-stealing pool, with the `ikj` or the packed
//!   micro-kernel body respectively (`parallel+simd`).

use crate::par;
use crate::simd;
use crate::XorShift64;

/// Generates a deterministic `n × n` matrix (row-major) with entries in
/// `[-1, 1)`.
pub fn gen_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37).wrapping_add(1));
    (0..n * n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

fn check_dims(a: &[f64], b: &[f64], n: usize) {
    assert_eq!(a.len(), n * n, "a must be n*n");
    assert_eq!(b.len(), n * n, "b must be n*n");
}

/// Naive `ijk` multiplication. Returns `c = a · b` (row-major).
///
/// # Panics
/// Panics when slice lengths are not `n * n`.
pub fn naive(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    check_dims(a, b, n);
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Locality-optimized `ikj` multiplication: for each `(i, k)`, the scalar
/// `a[i][k]` streams across `b`'s row `k` and `c`'s row `i` — unit-stride
/// inner loop that the compiler can vectorize.
///
/// # Panics
/// Panics when slice lengths are not `n * n`.
pub fn blocked(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    check_dims(a, b, n);
    let mut c = vec![0.0; n * n];
    mul_rows_ikj(a, b, &mut c, n, 0, n);
    c
}

/// Core `ikj` routine over a row range `[row_start, row_end)` of the output.
fn mul_rows_ikj(a: &[f64], b: &[f64], c: &mut [f64], n: usize, row_start: usize, row_end: usize) {
    for i in row_start..row_end {
        let c_row = &mut c[(i - row_start) * n..(i - row_start + 1) * n];
        let a_row = &a[i * n..(i + 1) * n];
        for (k, &aik) in a_row.iter().enumerate() {
            let b_row = &b[k * n..(k + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj += aik * bj;
            }
        }
    }
}

/// Parallel `ikj` multiplication over `threads` pool tasks, each owning a
/// contiguous band of output rows.
///
/// # Panics
/// Panics when slice lengths are not `n * n`.
pub fn parallel(a: &[f64], b: &[f64], n: usize, threads: usize) -> Vec<f64> {
    check_dims(a, b, n);
    let mut c = vec![0.0; n * n];
    if n == 0 {
        return c;
    }
    // Split the output into disjoint row bands so each task writes its own
    // region; the fork-join band splitter hands out whole rows.
    par::for_each_bands_mut(&mut c, n, threads, |off, band| {
        let row_start = off / n;
        mul_rows_ikj(a, b, band, n, row_start, row_start + band.len() / n);
    });
    c
}

/// Rows of the register-blocked micro-kernel (independent accumulator
/// rows kept live across the k loop).
const MR: usize = 4;
/// Columns of the micro-kernel: one 8-lane bundle, matching
/// [`simd::LANES`].
const NR: usize = 8;

/// Vectorized matmul: register-blocked 4×8 micro-kernel over a packed
/// B panel, k-blocked at [`simd::default_tile`] (override with
/// `RCR_TILE`). Returns `c = a · b` (row-major).
///
/// Reassociates `c[i][j]`'s k-sum across tile boundaries when
/// `n > tile`, so results are compared with [`crate::verify::close`]
/// (bitwise equal to [`blocked`] when `n <= tile`).
///
/// # Panics
/// Panics when slice lengths are not `n * n`.
pub fn packed(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    packed_with_tile(a, b, n, simd::default_tile())
}

/// [`packed`] with an explicit k-tile, so the tests can sweep tile sizes.
///
/// # Panics
/// Panics when slice lengths are not `n * n`.
fn packed_with_tile(a: &[f64], b: &[f64], n: usize, tile: usize) -> Vec<f64> {
    check_dims(a, b, n);
    let mut c = vec![0.0; n * n];
    packed_rows(a, b, &mut c, n, 0, n, tile);
    c
}

/// Packed micro-kernel routine over a row range `[row_start, row_end)` of
/// the output (`c` is the band, indexed relative to `row_start` like
/// [`mul_rows_ikj`]).
fn packed_rows(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    row_start: usize,
    row_end: usize,
    tile: usize,
) {
    let kc = tile.max(1);
    // One reusable panel: a kc × NR strip of B, packed contiguous and
    // zero-padded on the right edge so the micro-kernel never branches on
    // column remainders.
    let mut panel = vec![0.0f64; kc * NR];
    for k0 in (0..n).step_by(kc) {
        let kb = kc.min(n - k0);
        for j0 in (0..n).step_by(NR) {
            let jb = NR.min(n - j0);
            for k in 0..kb {
                let row = (k0 + k) * n + j0;
                let dst = &mut panel[k * NR..(k + 1) * NR];
                dst[..jb].copy_from_slice(&b[row..row + jb]);
                dst[jb..].fill(0.0);
            }
            let mut i = row_start;
            // Full MR-row blocks take the register-resident fast path;
            // the final short block (row remainder) reuses the same
            // accumulator layout with fewer live rows.
            while i < row_end {
                let ib = MR.min(row_end - i);
                let mut acc = [[0.0f64; NR]; MR];
                if ib == MR {
                    for (k, p) in panel[..kb * NR].chunks_exact(NR).enumerate() {
                        let col = k0 + k;
                        let a0 = a[i * n + col];
                        let a1 = a[(i + 1) * n + col];
                        let a2 = a[(i + 2) * n + col];
                        let a3 = a[(i + 3) * n + col];
                        for (j, &pv) in p.iter().enumerate() {
                            acc[0][j] += a0 * pv;
                            acc[1][j] += a1 * pv;
                            acc[2][j] += a2 * pv;
                            acc[3][j] += a3 * pv;
                        }
                    }
                } else {
                    for (k, p) in panel[..kb * NR].chunks_exact(NR).enumerate() {
                        let col = k0 + k;
                        for (r, accr) in acc.iter_mut().enumerate().take(ib) {
                            let aik = a[(i + r) * n + col];
                            for (av, &pv) in accr.iter_mut().zip(p) {
                                *av += aik * pv;
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(ib) {
                    let row = (i + r - row_start) * n + j0;
                    for (cv, &av) in c[row..row + jb].iter_mut().zip(accr) {
                        *cv += av;
                    }
                }
                i += ib;
            }
        }
    }
}

/// `parallel+simd` matmul: output-row bands on the persistent pool, each
/// band running the packed 4×8 micro-kernel.
///
/// # Panics
/// Panics when slice lengths are not `n * n`.
pub fn parallel_packed(a: &[f64], b: &[f64], n: usize, threads: usize) -> Vec<f64> {
    check_dims(a, b, n);
    let mut c = vec![0.0; n * n];
    if n == 0 {
        return c;
    }
    let tile = simd::default_tile();
    par::for_each_bands_mut(&mut c, n, threads, |off, band| {
        let row_start = off / n;
        packed_rows(a, b, band, n, row_start, row_start + band.len() / n, tile);
    });
    c
}

/// FLOP count of an `n × n` matmul (2n³), for bench reporting.
pub fn flops(n: usize) -> u64 {
    2 * (n as u64).pow(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{approx_eq_slices, close_slices};
    use proptest::prelude::*;

    #[test]
    fn identity_multiplication() {
        let n = 8;
        let mut ident = vec![0.0; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        let a = gen_matrix(n, 3);
        assert!(approx_eq_slices(&naive(&a, &ident, n), &a, 1e-12));
        assert!(approx_eq_slices(&naive(&ident, &a, n), &a, 1e-12));
        assert!(approx_eq_slices(&blocked(&a, &ident, n), &a, 1e-12));
        assert!(approx_eq_slices(&parallel(&a, &ident, n, 3), &a, 1e-12));
    }

    #[test]
    fn known_2x2_product() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        assert_eq!(naive(&a, &b, 2), vec![19.0, 22.0, 43.0, 50.0]);
        assert_eq!(blocked(&a, &b, 2), vec![19.0, 22.0, 43.0, 50.0]);
        assert_eq!(parallel(&a, &b, 2, 2), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn variants_agree_on_random_inputs() {
        for n in [1, 3, 16, 33, 64] {
            let a = gen_matrix(n, 1);
            let b = gen_matrix(n, 2);
            let reference = naive(&a, &b, n);
            assert!(
                approx_eq_slices(&reference, &blocked(&a, &b, n), 1e-9),
                "blocked mismatch at n={n}"
            );
            for threads in [1, 2, 5, 16] {
                assert!(
                    approx_eq_slices(&reference, &parallel(&a, &b, n, threads), 1e-9),
                    "parallel mismatch at n={n}, threads={threads}"
                );
            }
        }
    }

    /// Per-element absolute tolerance for a reassociated k-sum of an n×n
    /// product of entries in [-1, 1): EPSILON × n (the max Σ|a·b| per
    /// element) × the verify-policy constant.
    fn matmul_tol(n: usize) -> f64 {
        f64::EPSILON * n as f64 * 8.0
    }

    #[test]
    fn blocked_and_packed_exhaustive_small_n() {
        // The remainder audit: every n in 1..=17 exercises row remainders
        // (n % MR), column remainders (n % NR), and — with tile 8 — k-tile
        // remainders, simultaneously and in every combination that the
        // micro-kernel's edge paths can hit.
        for n in 1..=17usize {
            let a = gen_matrix(n, 21);
            let b = gen_matrix(n, 22);
            let reference = naive(&a, &b, n);
            assert!(
                approx_eq_slices(&reference, &blocked(&a, &b, n), 1e-12),
                "blocked at n={n}"
            );
            for tile in [8, 16, 64] {
                assert!(
                    close_slices(
                        &reference,
                        &packed_with_tile(&a, &b, n, tile),
                        64,
                        matmul_tol(n)
                    ),
                    "packed at n={n} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn packed_variants_agree_on_larger_sizes() {
        for n in [31, 64, 97] {
            let a = gen_matrix(n, 5);
            let b = gen_matrix(n, 6);
            let reference = naive(&a, &b, n);
            assert!(
                close_slices(&reference, &packed(&a, &b, n), 64, matmul_tol(n)),
                "packed at n={n}"
            );
            for threads in [1, 2, 5] {
                assert!(
                    close_slices(
                        &reference,
                        &parallel_packed(&a, &b, n, threads),
                        64,
                        matmul_tol(n)
                    ),
                    "parallel_packed at n={n}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn packed_is_bitwise_blocked_within_one_tile() {
        // With a single k-tile there is no cross-tile reassociation: the
        // packed kernel adds the same products in the same k order as the
        // ikj row accumulation.
        let n = 13;
        let a = gen_matrix(n, 9);
        let b = gen_matrix(n, 10);
        assert_eq!(blocked(&a, &b, n), packed_with_tile(&a, &b, n, 64));
    }

    proptest! {
        #[test]
        fn prop_packed_agrees_with_naive(
            n in 1usize..24,
            tile in 8usize..65,
            threads in 1usize..6,
            seed in 1u64..200
        ) {
            let a = gen_matrix(n, seed);
            let b = gen_matrix(n, seed + 1);
            let reference = naive(&a, &b, n);
            let tol = matmul_tol(n);
            prop_assert!(close_slices(&reference, &packed_with_tile(&a, &b, n, tile), 128, tol));
            prop_assert!(close_slices(&reference, &parallel_packed(&a, &b, n, threads), 128, tol));
        }
    }

    #[test]
    fn gen_matrix_is_deterministic_and_bounded() {
        let a = gen_matrix(10, 5);
        let b = gen_matrix(10, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (-1.0..1.0).contains(&v)));
        assert_ne!(gen_matrix(10, 6), a);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(flops(10), 2000);
        assert_eq!(flops(0), 0);
    }

    #[test]
    #[should_panic(expected = "n*n")]
    fn dimension_mismatch_panics() {
        let _ = naive(&[1.0, 2.0], &[1.0, 2.0, 3.0, 4.0], 2);
    }
}
