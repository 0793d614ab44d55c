//! Experiment E18 (Figure 9): the cache-aware memory-hierarchy study.
//!
//! Six kernels (dot, axpy, sum, stencil, spmv, matmul) are swept across
//! working-set sizes chosen to sit inside L1, L2, last-level cache, and
//! DRAM, under four implementation tiers:
//!
//! * `serial` — the naive/reference implementation,
//! * `simd` — the vectorized tier built on [`rcr_kernels::simd`],
//! * `parallel` — the work-stealing-pool parallel tier,
//! * `parallel+simd` — the vectorized body inside the parallel driver.
//!
//! Every cell reports GFLOP/s and effective GB/s (compulsory bytes moved
//! per call divided by median time), plus speedup over the serial tier at
//! the same size. Every tier goes through [`crate::harness`]: before it is
//! timed, its warm-up output is verified against the serial tier's
//! warm-up output — bitwise where the tier performs
//! identical per-element operations (axpy, the time-tiled stencil), and
//! via the ULP + absolute-floor policy of [`rcr_kernels::verify`] where
//! reassociation is by design (dot, sum, SpMV row dots, matmul
//! k-blocking). A mismatch aborts the experiment with
//! [`crate::Error::VerificationFailed`] rather than reporting a wrong-fast
//! number.
//!
//! Expected shape: at L1-resident sizes the `simd` tier separates from
//! `serial` on compute-starved kernels (dot's naive loop is a
//! latency-bound serial add chain; the multi-accumulator tier breaks the
//! dependency). As the working set falls out of cache every tier collapses
//! toward the same memory-bandwidth ceiling, which is the Figure 9 story:
//! effective GB/s converges while GFLOP/s diverges only for the
//! cache-blocked matmul. Parallel tiers are host-gated — on a single-core
//! container they cannot beat serial and the rows document overhead
//! instead.
//!
//! `matmul` is compute-bound, so its per-level matrix dimensions are fixed
//! small enough that a full sweep stays seconds, not minutes; its
//! `working_set_bytes` column records the actual `3·n²·8` footprint.

use serde::Serialize;

use rcr_kernels::verify::{close, close_slices};
use rcr_kernels::{dotaxpy, matmul, reduce, spmv, stencil};

use crate::harness::{chain_tol, measure_with, verify, MAX_ULPS};
use crate::perfgap::GapConfig;
use crate::Result;

/// One (kernel, working-set level, tier) cell of the E18 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct MemPoint {
    /// Kernel name (`dot`, `axpy`, `sum`, `stencil`, `spmv`, `matmul`).
    pub kernel: String,
    /// Memory-hierarchy level the working set targets
    /// (`L1`, `L2`, `LLC`, `DRAM`).
    pub level: String,
    /// Actual working-set footprint in bytes for this cell.
    pub working_set_bytes: usize,
    /// Problem size (vector length, grid side, rows, or matrix dimension).
    pub n: usize,
    /// Tier name (`serial`, `simd`, `parallel`, `parallel+simd`).
    pub tier: String,
    /// Median seconds per call.
    pub median_s: f64,
    /// Billions of floating-point operations per second.
    pub gflops: f64,
    /// Effective bandwidth: compulsory bytes per call / median seconds,
    /// in GB/s. For the compute-bound matmul this is footprint traffic,
    /// not the bottleneck.
    pub gbps: f64,
    /// Speedup of this tier over the `serial` tier at the same size.
    pub speedup_vs_serial: f64,
    /// Whether the tier's result matched the serial reference (always
    /// `true` in returned rows; a mismatch aborts the run instead).
    pub verified: bool,
}

/// Tier names in sweep order; `serial` must come first (it is the
/// speedup baseline and the verification reference).
pub const TIERS: [&str; 4] = ["serial", "simd", "parallel", "parallel+simd"];

/// Working-set targets per level. Quick mode shrinks every level so the
/// whole sweep runs in well under a second for tests and CI smoke.
fn levels(quick: bool) -> [(&'static str, usize); 4] {
    if quick {
        [
            ("L1", 4 << 10),
            ("L2", 32 << 10),
            ("LLC", 128 << 10),
            ("DRAM", 1 << 20),
        ]
    } else {
        [
            ("L1", 24 << 10),
            ("L2", 768 << 10),
            ("LLC", 12 << 20),
            ("DRAM", 96 << 20),
        ]
    }
}

/// Per-level matrix dimensions for the compute-bound matmul (see the
/// module docs); `24·n²` bytes is the actual footprint recorded.
fn matmul_dims(quick: bool) -> [usize; 4] {
    if quick {
        [12, 24, 48, 72]
    } else {
        [32, 180, 320, 512]
    }
}

/// Times the four tiers of one (kernel, level) cell and appends a
/// [`MemPoint`] row per tier. `bodies` are in [`TIERS`] order, each run on
/// a fresh `input()`; the serial tier's warm-up output is the reference
/// every later tier's warm-up output must `match` before that tier is
/// timed.
#[allow(clippy::too_many_arguments)]
fn time_tiers<I, T>(
    out: &mut Vec<MemPoint>,
    kernel: &str,
    level: &str,
    ws_bytes: usize,
    n: usize,
    flops: f64,
    bytes: f64,
    reps: usize,
    mut input: impl FnMut() -> I,
    bodies: [&dyn Fn(I) -> T; 4],
    matches: impl Fn(&T, &T) -> bool,
) -> Result<()> {
    let mut reference = None;
    let mut serial_s = f64::NAN;
    for (tier, body) in TIERS.into_iter().zip(bodies) {
        let s = measure_with(reps, &mut input, body, |got| match &reference {
            None => {
                reference = Some(got);
                Ok(())
            }
            Some(want) => verify(matches(want, &got), || {
                format!("E18 {kernel}/{level}: tier `{tier}` disagrees with serial reference")
            }),
        })?
        .median_s;
        if tier == "serial" {
            serial_s = s;
        }
        out.push(MemPoint {
            kernel: kernel.to_string(),
            level: level.to_string(),
            working_set_bytes: ws_bytes,
            n,
            tier: tier.to_string(),
            median_s: s,
            gflops: flops / s / 1e9,
            gbps: bytes / s / 1e9,
            speedup_vs_serial: serial_s / s,
            verified: true,
        });
    }
    Ok(())
}

/// Dot-product cell: the `serial` tier is the latency-bound naive chain,
/// so this is where the multi-accumulator SIMD tier shows its largest win.
fn dot_cell(
    out: &mut Vec<MemPoint>,
    level: &str,
    bytes: usize,
    threads: usize,
    reps: usize,
) -> Result<()> {
    let n = (bytes / 16).max(64);
    let x = dotaxpy::gen_vector(n, 0xE18D01);
    let y = dotaxpy::gen_vector(n, 0xE18D02);
    let tol = chain_tol(n, x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum());
    time_tiers(
        out,
        "dot",
        level,
        16 * n,
        n,
        2.0 * n as f64,
        16.0 * n as f64,
        reps,
        || (),
        [
            &|()| dotaxpy::dot_naive(&x, &y),
            &|()| dotaxpy::dot_vectorized(&x, &y),
            &|()| dotaxpy::dot_parallel(&x, &y, threads),
            &|()| dotaxpy::dot_parallel_simd(&x, &y, threads),
        ],
        |&want, &got| close(want, got, MAX_ULPS, tol),
    )
}

/// AXPY cell: every tier performs identical per-element operations, so
/// verification is bitwise. Each run updates a fresh copy of `y`, made
/// outside the clock.
fn axpy_cell(
    out: &mut Vec<MemPoint>,
    level: &str,
    bytes: usize,
    threads: usize,
    reps: usize,
) -> Result<()> {
    let n = (bytes / 16).max(64);
    let alpha = 1.000_3_f64;
    let x = dotaxpy::gen_vector(n, 0xE18A01);
    let y0 = dotaxpy::gen_vector(n, 0xE18A02);
    let axpy = |kernel: &dyn Fn(&mut [f64]), mut y: Vec<f64>| {
        kernel(&mut y);
        y
    };
    time_tiers(
        out,
        "axpy",
        level,
        16 * n,
        n,
        2.0 * n as f64,
        24.0 * n as f64,
        reps,
        || y0.clone(),
        [
            &|y| axpy(&|y| dotaxpy::axpy_naive(alpha, &x, y), y),
            &|y| axpy(&|y| dotaxpy::axpy_vectorized(alpha, &x, y), y),
            &|y| axpy(&|y| dotaxpy::axpy_parallel(alpha, &x, y, threads), y),
            &|y| axpy(&|y| dotaxpy::axpy_parallel_simd(alpha, &x, y, threads), y),
        ],
        |want, got| want == got,
    )
}

/// Sum cell: one load and one add per element — the purest bandwidth probe.
fn sum_cell(
    out: &mut Vec<MemPoint>,
    level: &str,
    bytes: usize,
    threads: usize,
    reps: usize,
) -> Result<()> {
    let n = (bytes / 8).max(64);
    let xs = reduce::gen_data(n, 0xE185);
    let tol = chain_tol(n, xs.iter().map(|v| v.abs()).sum());
    time_tiers(
        out,
        "sum",
        level,
        8 * n,
        n,
        n as f64,
        8.0 * n as f64,
        reps,
        || (),
        [
            &|()| reduce::sum_naive(&xs),
            &|()| reduce::sum_vectorized(&xs),
            &|()| reduce::sum_parallel(&xs, threads),
            &|()| reduce::sum_parallel_simd(&xs, threads),
        ],
        |&want, &got| close(want, got, MAX_ULPS, tol),
    )
}

/// Stencil cell: the `simd` tier is the time-tiled fused-sweep variant,
/// bitwise identical to the reference by construction. The working set is
/// the two ping-pong grids (`16` bytes per point).
fn stencil_cell(
    out: &mut Vec<MemPoint>,
    level: &str,
    bytes: usize,
    threads: usize,
    reps: usize,
    sweeps: usize,
) -> Result<()> {
    let side = ((bytes / 16) as f64).sqrt() as usize;
    let side = side.max(8);
    let grid = stencil::gen_grid(side, side, 0xE1857);
    let points = side * side;
    let interior = side.saturating_sub(2) * side.saturating_sub(2);
    time_tiers(
        out,
        "stencil",
        level,
        16 * points,
        side,
        (5 * interior * sweeps) as f64,
        (16 * points * sweeps) as f64,
        reps,
        || (),
        [
            &|()| stencil::optimized(&grid, side, side, sweeps),
            &|()| stencil::vectorized(&grid, side, side, sweeps),
            &|()| stencil::parallel(&grid, side, side, sweeps, threads),
            &|()| stencil::parallel_vectorized(&grid, side, side, sweeps, threads),
        ],
        |want, got| want == got,
    )
}

/// SpMV cell: irregular gather traffic; the SIMD tier is the four-way
/// independent-accumulator row dot. Working set is the CSR arrays plus
/// the dense vectors (~`24·nnz + 16·n` bytes).
fn spmv_cell(
    out: &mut Vec<MemPoint>,
    level: &str,
    bytes: usize,
    threads: usize,
    reps: usize,
) -> Result<()> {
    // gen_sparse(n, 64, _) averages ~20 nnz/row -> ~336 bytes/row + x/y.
    let n = (bytes / 336).max(16);
    let m = spmv::gen_sparse(n, 64, 0xE185B);
    let x = dotaxpy::gen_vector(n, 0xE185C);
    let max_nnz = (0..m.n_rows)
        .map(|r| m.row_ptr[r + 1] - m.row_ptr[r])
        .max()
        .unwrap_or(0);
    let tol = f64::EPSILON * max_nnz as f64 * 8.0;
    let nnz = m.nnz();
    time_tiers(
        out,
        "spmv",
        level,
        24 * nnz + 16 * n,
        n,
        2.0 * nnz as f64,
        (24 * nnz + 16 * n) as f64,
        reps,
        || (),
        [
            &|()| spmv::serial(&m, &x),
            &|()| spmv::vectorized(&m, &x),
            &|()| spmv::parallel_static(&m, &x, threads),
            &|()| spmv::parallel_vectorized(&m, &x, threads),
        ],
        |want, got| close_slices(want, got, MAX_ULPS, tol),
    )
}

/// Matmul cell: compute-bound contrast to the streaming kernels. The
/// serial baseline is the cache-blocked variant (the naive ijk loop would
/// measure cache misses, not the SIMD tier); the SIMD tier is the
/// register-blocked packed micro-kernel.
fn matmul_cell(
    out: &mut Vec<MemPoint>,
    level: &str,
    n: usize,
    threads: usize,
    reps: usize,
) -> Result<()> {
    let a = matmul::gen_matrix(n, 0xE1833);
    let b = matmul::gen_matrix(n, 0xE1834);
    let tol = f64::EPSILON * n as f64 * 8.0;
    time_tiers(
        out,
        "matmul",
        level,
        24 * n * n,
        n,
        matmul::flops(n) as f64,
        (24 * n * n) as f64,
        reps,
        || (),
        [
            &|()| matmul::blocked(&a, &b, n),
            &|()| matmul::packed(&a, &b, n),
            &|()| matmul::parallel(&a, &b, n, threads),
            &|()| matmul::parallel_packed(&a, &b, n, threads),
        ],
        |want, got| close_slices(want, got, MAX_ULPS, tol),
    )
}

/// Runs the full E18 sweep: 6 kernels × 4 working-set levels × 4 tiers =
/// 96 verified rows.
pub fn run(config: &GapConfig) -> Result<Vec<MemPoint>> {
    let reps = if config.quick { 2 } else { 5 };
    let sweeps = if config.quick { 2 } else { 6 };
    let threads = config.threads.max(1);
    let mut out = Vec::with_capacity(96);
    for (i, (level, bytes)) in levels(config.quick).into_iter().enumerate() {
        dot_cell(&mut out, level, bytes, threads, reps)?;
        axpy_cell(&mut out, level, bytes, threads, reps)?;
        sum_cell(&mut out, level, bytes, threads, reps)?;
        stencil_cell(&mut out, level, bytes, threads, reps, sweeps)?;
        spmv_cell(&mut out, level, bytes, threads, reps)?;
        matmul_cell(&mut out, level, matmul_dims(config.quick)[i], threads, reps)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_covers_every_cell() {
        let rows = run(&GapConfig::quick()).expect("quick run verifies");
        assert_eq!(rows.len(), 96);
        for kernel in ["dot", "axpy", "sum", "stencil", "spmv", "matmul"] {
            for level in ["L1", "L2", "LLC", "DRAM"] {
                let cell: Vec<_> = rows
                    .iter()
                    .filter(|r| r.kernel == kernel && r.level == level)
                    .collect();
                assert_eq!(cell.len(), 4, "{kernel}/{level}");
                let tiers: Vec<_> = cell.iter().map(|r| r.tier.as_str()).collect();
                assert_eq!(tiers, TIERS.to_vec(), "{kernel}/{level}");
                for r in cell {
                    assert!(r.verified);
                    assert!(r.median_s > 0.0 && r.gflops > 0.0 && r.gbps > 0.0);
                    assert!(r.speedup_vs_serial > 0.0);
                    assert!(r.working_set_bytes > 0 && r.n > 0);
                }
            }
        }
    }

    #[test]
    fn serial_rows_have_unit_speedup() {
        let rows = run(&GapConfig::quick()).expect("quick run verifies");
        for r in rows.iter().filter(|r| r.tier == "serial") {
            assert!((r.speedup_vs_serial - 1.0).abs() < 1e-12, "{}", r.kernel);
        }
    }

    #[test]
    fn working_sets_grow_with_level() {
        let rows = run(&GapConfig::quick()).expect("quick run verifies");
        for kernel in ["dot", "axpy", "sum", "stencil", "spmv", "matmul"] {
            let ws: Vec<_> = rows
                .iter()
                .filter(|r| r.kernel == kernel && r.tier == "serial")
                .map(|r| r.working_set_bytes)
                .collect();
            assert_eq!(ws.len(), 4, "{kernel}");
            assert!(ws.windows(2).all(|w| w[0] < w[1]), "{kernel}: {ws:?}");
        }
    }
}
