//! Sparse matrix–vector multiply (CSR): irregular memory access with
//! per-row load imbalance — the kernel that motivates the dynamic
//! scheduler ablation.
//!
//! The vectorized tier ([`vectorized`], [`parallel_vectorized`]) cannot
//! use contiguous lane loads (CSR gathers through `col_idx`), so its
//! speedup comes from instruction-level parallelism instead: each row's
//! gather-multiply chain runs on four independent accumulators
//! (`row_dot_vectorized`), and rows are processed in batches of four
//! independent chains so short rows overlap in the out-of-order window.

use crate::par;
use crate::XorShift64;

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Row start offsets into `col_idx`/`values` (length `n_rows + 1`).
    pub row_ptr: Vec<usize>,
    /// Column indices.
    pub col_idx: Vec<usize>,
    /// Non-zero values.
    pub values: Vec<f64>,
}

impl Csr {
    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Validates structural invariants (monotone row_ptr, in-range columns).
    pub fn is_valid(&self) -> bool {
        self.row_ptr.len() == self.n_rows + 1
            && self.row_ptr[0] == 0
            && *self.row_ptr.last().expect("len >= 1") == self.values.len()
            && self.row_ptr.windows(2).all(|w| w[0] <= w[1])
            && self.col_idx.len() == self.values.len()
            && self.col_idx.iter().all(|&c| c < self.n_cols)
    }
}

/// Generates a deterministic sparse square matrix with a heavy-tailed
/// per-row non-zero count (some rows 1 nnz, some `max_row_nnz`), which is
/// what makes static scheduling unbalanced.
pub fn gen_sparse(n: usize, max_row_nnz: usize, seed: u64) -> Csr {
    let mut rng = XorShift64::new(seed ^ 0x5BA5);
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for _ in 0..n {
        // Quadratic skew: most rows sparse, a few dense.
        let u = rng.next_f64();
        let nnz = 1 + ((u * u) * max_row_nnz.saturating_sub(1) as f64) as usize;
        let mut cols: Vec<usize> = (0..nnz).map(|_| rng.below(n as u64) as usize).collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            col_idx.push(c);
            values.push(rng.range_f64(-1.0, 1.0));
        }
        row_ptr.push(values.len());
    }
    Csr {
        n_rows: n,
        n_cols: n,
        row_ptr,
        col_idx,
        values,
    }
}

/// Dot product of row `r` of `m` with `x` — the per-row unit of work the
/// E6/E17 scheduler studies partition.
#[inline]
pub fn row_dot(m: &Csr, x: &[f64], r: usize) -> f64 {
    let lo = m.row_ptr[r];
    let hi = m.row_ptr[r + 1];
    let mut acc = 0.0;
    for (c, v) in m.col_idx[lo..hi].iter().zip(&m.values[lo..hi]) {
        acc += v * x[*c];
    }
    acc
}

/// Serial SpMV: `y = M · x`.
///
/// # Panics
/// Panics when `x.len() != n_cols`.
pub fn serial(m: &Csr, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), m.n_cols, "x must have n_cols entries");
    (0..m.n_rows).map(|r| row_dot(m, x, r)).collect()
}

/// Dot product of row `r` with four independent accumulators over the
/// row's non-zeros — breaks the serial add-latency chain of [`row_dot`].
/// Reassociates, so results are compared with [`crate::verify::close`].
#[inline]
fn row_dot_vectorized(m: &Csr, x: &[f64], r: usize) -> f64 {
    let lo = m.row_ptr[r];
    let hi = m.row_ptr[r + 1];
    let cols = &m.col_idx[lo..hi];
    let vals = &m.values[lo..hi];
    let mut acc = [0.0f64; 4];
    let cc = cols.chunks_exact(4);
    let vc = vals.chunks_exact(4);
    let (cr, vr) = (cc.remainder(), vc.remainder());
    for (c4, v4) in cc.zip(vc) {
        acc[0] += v4[0] * x[c4[0]];
        acc[1] += v4[1] * x[c4[1]];
        acc[2] += v4[2] * x[c4[2]];
        acc[3] += v4[3] * x[c4[3]];
    }
    let mut tail = 0.0;
    for (c, v) in cr.iter().zip(vr) {
        tail += v * x[*c];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Fills `band` (rows `start..start + band.len()` of the output) with
/// [`row_dot_vectorized`] results, four rows per batch — the shared body
/// of [`vectorized`] and [`parallel_vectorized`].
fn fill_rows_vectorized(m: &Csr, x: &[f64], start: usize, band: &mut [f64]) {
    let mut r = start;
    let mut quads = band.chunks_exact_mut(4);
    for quad in &mut quads {
        // Four independent accumulation chains in flight per batch.
        quad[0] = row_dot_vectorized(m, x, r);
        quad[1] = row_dot_vectorized(m, x, r + 1);
        quad[2] = row_dot_vectorized(m, x, r + 2);
        quad[3] = row_dot_vectorized(m, x, r + 3);
        r += 4;
    }
    for out in quads.into_remainder() {
        *out = row_dot_vectorized(m, x, r);
        r += 1;
    }
}

/// Vectorized SpMV: 4-row batches of 4-accumulator row dots.
///
/// # Panics
/// Panics when `x.len() != n_cols`.
pub fn vectorized(m: &Csr, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), m.n_cols, "x must have n_cols entries");
    let mut y = vec![0.0; m.n_rows];
    fill_rows_vectorized(m, x, 0, &mut y);
    y
}

/// `parallel+simd` SpMV: static row bands on the persistent pool, each
/// band running the 4-row-batched vectorized body.
///
/// # Panics
/// Panics when `x.len() != n_cols`.
pub fn parallel_vectorized(m: &Csr, x: &[f64], threads: usize) -> Vec<f64> {
    assert_eq!(x.len(), m.n_cols, "x must have n_cols entries");
    let mut y = vec![0.0; m.n_rows];
    par::for_each_mut_chunk(&mut y, threads, |start, band| {
        fill_rows_vectorized(m, x, start, band);
    });
    y
}

/// Parallel SpMV with static row bands on the persistent pool.
///
/// # Panics
/// Panics when `x.len() != n_cols`.
pub fn parallel_static(m: &Csr, x: &[f64], threads: usize) -> Vec<f64> {
    assert_eq!(x.len(), m.n_cols, "x must have n_cols entries");
    let mut y = vec![0.0; m.n_rows];
    par::for_each_mut_chunk(&mut y, threads, |start, band| {
        for (k, out) in band.iter_mut().enumerate() {
            *out = row_dot(m, x, start + k);
        }
    });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{approx_eq_slices, close_slices};
    use proptest::prelude::*;

    fn small_csr() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr {
            n_rows: 3,
            n_cols: 3,
            row_ptr: vec![0, 2, 2, 4],
            col_idx: vec![0, 2, 0, 1],
            values: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    #[test]
    fn known_product() {
        let m = small_csr();
        assert!(m.is_valid());
        let y = serial(&m, &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
        assert_eq!(parallel_static(&m, &[1.0, 2.0, 3.0], 2), y);
        assert_eq!(vectorized(&m, &[1.0, 2.0, 3.0]), y);
        assert_eq!(parallel_vectorized(&m, &[1.0, 2.0, 3.0], 2), y);
    }

    #[test]
    fn generated_matrices_are_valid() {
        for n in [1, 10, 200] {
            let m = gen_sparse(n, 32, 7);
            assert!(m.is_valid(), "invalid CSR at n={n}");
            assert!(m.nnz() >= n, "every row has at least one nnz");
        }
    }

    #[test]
    fn variants_agree_on_generated_matrices() {
        let m = gen_sparse(500, 64, 3);
        let x = crate::dotaxpy::gen_vector(500, 9);
        let reference = serial(&m, &x);
        let tol = spmv_tol(&m, &x);
        assert!(close_slices(&reference, &vectorized(&m, &x), 64, tol));
        for t in [1, 2, 4, 8] {
            assert!(approx_eq_slices(
                &reference,
                &parallel_static(&m, &x, t),
                1e-12
            ));
            assert!(close_slices(
                &reference,
                &parallel_vectorized(&m, &x, t),
                64,
                tol
            ));
        }
    }

    /// Absolute floor for one reassociated row dot: the densest row's
    /// worst-case Σ|v·x| with entries in [-1, 1) is bounded by its nnz.
    fn spmv_tol(m: &Csr, _x: &[f64]) -> f64 {
        let max_nnz = m.row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        f64::EPSILON * max_nnz as f64 * 8.0
    }

    #[test]
    fn vectorized_row_remainders_are_exact() {
        // Rows with 0..=9 nnz hit every chunks_exact(4) remainder path.
        let m = gen_sparse(64, 10, 11);
        let x = crate::dotaxpy::gen_vector(64, 12);
        let reference = serial(&m, &x);
        assert!(close_slices(
            &reference,
            &vectorized(&m, &x),
            64,
            spmv_tol(&m, &x)
        ));
    }

    proptest! {
        #[test]
        fn prop_parallel_simd_agrees_across_all_schedulers(
            n in 1usize..300,
            max_nnz in 1usize..48,
            threads in 1usize..6,
            seed in 1u64..200
        ) {
            // The E18 `parallel+simd` determinism contract: the vectorized
            // row body is a pure function of the row index, so running it
            // under each of the three schedulers gives bitwise-identical
            // output — and all of it within tolerance of the serial
            // reference.
            use crate::par::Scheduler;
            use std::sync::atomic::{AtomicU64, Ordering};
            let m = gen_sparse(n, max_nnz, seed);
            let x = crate::dotaxpy::gen_vector(n, seed + 7);
            let reference = serial(&m, &x);
            let tol = spmv_tol(&m, &x);
            let mut first: Option<Vec<f64>> = None;
            for sched in Scheduler::ALL {
                let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                sched.for_each(n, threads, 8, |s, e| {
                    for (r, slot) in slots.iter().enumerate().take(e).skip(s) {
                        slot.store(row_dot_vectorized(&m, &x, r).to_bits(), Ordering::Relaxed);
                    }
                });
                let y: Vec<f64> = slots
                    .iter()
                    .map(|s| f64::from_bits(s.load(Ordering::Relaxed)))
                    .collect();
                prop_assert!(close_slices(&reference, &y, 128, tol), "{}", sched.name());
                match &first {
                    None => first = Some(y),
                    Some(f) => {
                        for (a, b) in f.iter().zip(&y) {
                            prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", sched.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_costs_are_skewed() {
        let m = gen_sparse(2000, 64, 5);
        let rows: Vec<usize> = m.row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        let max = *rows.iter().max().expect("non-empty");
        let min = *rows.iter().min().expect("non-empty");
        assert!(
            max >= 8 * min.max(1),
            "expected heavy tail: min={min} max={max}"
        );
    }

    #[test]
    #[should_panic(expected = "n_cols")]
    fn wrong_x_length_panics() {
        let m = small_csr();
        let _ = serial(&m, &[1.0]);
    }
}
