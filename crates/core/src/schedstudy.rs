//! Experiment E17 (Figure 8): the scheduler ablation.
//!
//! The same four workloads run under each of the three parallel schedulers
//! in [`rcr_kernels::par::Scheduler`] — spawn-per-call static, spawn-per-call
//! dynamic, and the persistent work-stealing pool — at a matched thread
//! count. Each workload makes `calls` back-to-back scheduler invocations
//! per timed run, so per-call runtime overhead (thread creation vs pool
//! wakeup) is what the regular/fine-grained workloads expose, while the
//! skewed SpMV exposes load balancing.
//!
//! Workloads:
//!
//! * `saxpy` — regular, bandwidth-bound: every index costs the same, so
//!   a good runtime should be within noise of static partitioning.
//! * `spmv-skewed` — irregular: heavy-tailed row costs make static bands
//!   unbalanced; stealing (or dynamic claiming) wins.
//! * `matmul-tiny` — fine-grained: many short calls on a small matrix, so
//!   fixed per-call overhead dominates and amortization is the story.
//! * `null` — the empty body: a direct probe of pure per-call overhead.
//!
//! Every workload writes each output element as a pure function of its
//! index into an atomic slot array, so results are bitwise identical
//! across schedulers and thread counts; each arm's FNV checksum over its
//! warm-up output is verified against the serial reference before the arm
//! is timed ([`crate::harness`]).

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

use rcr_kernels::par::Scheduler;
use rcr_kernels::{dotaxpy, matmul, spmv};

use crate::harness::{measure, verify};
use crate::perfgap::GapConfig;
use crate::Result;

/// One (workload, scheduler) cell of the E17 ablation.
#[derive(Debug, Clone, Serialize)]
pub struct SchedPoint {
    /// Workload name (`saxpy`, `spmv-skewed`, `matmul-tiny`, `null`).
    pub workload: String,
    /// Scheduler name from [`Scheduler::name`].
    pub scheduler: String,
    /// Worker threads used by every scheduler in this row's workload.
    pub threads: usize,
    /// Scheduler invocations per timed run.
    pub calls: usize,
    /// Median seconds for all `calls` invocations.
    pub median_s: f64,
    /// `median_s / calls`, in microseconds — the per-call cost.
    pub per_call_us: f64,
    /// Speedup over the spawn-static arm of the same workload.
    pub speedup_vs_spawn_static: f64,
    /// Parallel efficiency: `serial_s / (threads × median_s)`.
    pub efficiency: f64,
    /// FNV-1a checksum over the output bits (identical across schedulers
    /// by construction, verified before the arm is timed).
    pub checksum: u64,
}

fn checksum(slots: &[AtomicU64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in slots {
        h = (h ^ s.load(Ordering::Relaxed)).wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Measures one workload under the serial baseline and all three
/// schedulers, appending one [`SchedPoint`] per scheduler.
#[allow(clippy::too_many_arguments)] // one call site; the args are the workload definition
fn study<F>(
    out: &mut Vec<SchedPoint>,
    name: &str,
    n: usize,
    chunk: usize,
    calls: usize,
    threads: usize,
    reps: usize,
    slots: &[AtomicU64],
    body: F,
) -> Result<()>
where
    F: Fn(usize, usize) + Sync,
{
    let clear = || slots.iter().for_each(|s| s.store(0, Ordering::Relaxed));
    // Serial reference: result checksum and single-thread time.
    clear();
    let mut reference = 0;
    let serial_s = measure(
        reps,
        || {
            for _ in 0..calls {
                if n > 0 {
                    body(0, n);
                }
            }
        },
        |()| {
            reference = checksum(slots);
            Ok(())
        },
    )?
    .median_s;

    let mut static_s = None;
    for sched in Scheduler::ALL {
        clear();
        let mut got = 0;
        let median_s = measure(
            reps,
            || {
                for _ in 0..calls {
                    sched.for_each(n, threads, chunk, &body);
                }
            },
            |()| {
                got = checksum(slots);
                verify(got == reference, || {
                    format!(
                        "E17 {name}/{}: checksum {got:#x} != serial {reference:#x}",
                        sched.name()
                    )
                })
            },
        )?
        .median_s;
        let baseline = *static_s.get_or_insert(median_s);
        out.push(SchedPoint {
            workload: name.to_owned(),
            scheduler: sched.name().to_owned(),
            threads,
            calls,
            median_s,
            per_call_us: median_s / calls as f64 * 1e6,
            speedup_vs_spawn_static: baseline / median_s,
            efficiency: serial_s / (threads as f64 * median_s),
            checksum: got,
        });
    }
    Ok(())
}

/// Runs the E17 scheduler ablation: 4 workloads × 3 schedulers.
///
/// # Errors
/// [`crate::Error::VerificationFailed`] when a scheduler's output checksum
/// disagrees with the serial reference.
pub fn run(config: &GapConfig) -> Result<Vec<SchedPoint>> {
    let reps = if config.quick { 3 } else { 5 };
    let threads = config.threads.max(1);
    let mut out = Vec::with_capacity(12);

    // saxpy — regular. Idempotent form: slots[i] = 2.5·x[i] + y0[i].
    {
        let n = if config.quick { 20_000 } else { 400_000 };
        let calls = if config.quick { 4 } else { 24 };
        let x = dotaxpy::gen_vector(n, 1);
        let y0 = dotaxpy::gen_vector(n, 2);
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        study(
            &mut out,
            "saxpy",
            n,
            2048,
            calls,
            threads,
            reps,
            &slots,
            |s, e| {
                for i in s..e {
                    slots[i].store((2.5 * x[i] + y0[i]).to_bits(), Ordering::Relaxed);
                }
            },
        )?;
    }

    // spmv on a skewed matrix — irregular.
    {
        let (n, max_nnz) = if config.quick {
            (2_000, 64)
        } else {
            (20_000, 256)
        };
        let calls = if config.quick { 4 } else { 20 };
        let m = spmv::gen_sparse(n, max_nnz, 3);
        let x = dotaxpy::gen_vector(n, 9);
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        study(
            &mut out,
            "spmv-skewed",
            n,
            32,
            calls,
            threads,
            reps,
            &slots,
            |s, e| {
                for (r, slot) in slots.iter().enumerate().take(e).skip(s) {
                    slot.store(spmv::row_dot(&m, &x, r).to_bits(), Ordering::Relaxed);
                }
            },
        )?;
    }

    // small repeated matmuls — fine-grained (per-call overhead dominates).
    {
        let nm = if config.quick { 12 } else { 32 };
        let calls = if config.quick { 20 } else { 150 };
        let a = matmul::gen_matrix(nm, 1);
        let b = matmul::gen_matrix(nm, 2);
        let slots: Vec<AtomicU64> = (0..nm * nm).map(|_| AtomicU64::new(0)).collect();
        study(
            &mut out,
            "matmul-tiny",
            nm,
            1,
            calls,
            threads,
            reps,
            &slots,
            |s, e| {
                let mut row = vec![0.0f64; nm];
                for i in s..e {
                    row.iter_mut().for_each(|v| *v = 0.0);
                    for (k, &aik) in a[i * nm..(i + 1) * nm].iter().enumerate() {
                        for (rv, &bkj) in row.iter_mut().zip(&b[k * nm..(k + 1) * nm]) {
                            *rv += aik * bkj;
                        }
                    }
                    for (j, &rv) in row.iter().enumerate() {
                        slots[i * nm + j].store(rv.to_bits(), Ordering::Relaxed);
                    }
                }
            },
        )?;
    }

    // null — the empty body: pure per-call scheduler overhead.
    {
        let calls = if config.quick { 20 } else { 200 };
        study(
            &mut out,
            "null",
            threads,
            1,
            calls,
            threads,
            reps,
            &[],
            |_, _| {},
        )?;
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablation_shape_and_checksums() {
        let rows = run(&GapConfig::quick()).unwrap();
        assert_eq!(rows.len(), 12, "4 workloads x 3 schedulers");
        for chunk in rows.chunks(3) {
            // Rows come in workload-major groups with the spawn-static
            // baseline first.
            assert_eq!(chunk[0].scheduler, "spawn-static");
            assert!((chunk[0].speedup_vs_spawn_static - 1.0).abs() < 1e-12);
            for p in chunk {
                assert_eq!(p.workload, chunk[0].workload);
                assert_eq!(p.checksum, chunk[0].checksum, "{}", p.scheduler);
                assert!(p.median_s > 0.0);
                assert!(p.per_call_us > 0.0);
                assert!(p.efficiency >= 0.0);
            }
        }
        let workloads: Vec<&str> = rows
            .iter()
            .step_by(3)
            .map(|p| p.workload.as_str())
            .collect();
        assert_eq!(workloads, ["saxpy", "spmv-skewed", "matmul-tiny", "null"]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The contract under test: deterministic kernels give the same
        // checksums no matter how many threads the schedulers use.
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 4] {
            let cfg = GapConfig {
                quick: true,
                threads,
            };
            let sums: Vec<u64> = run(&cfg).unwrap().iter().map(|p| p.checksum).collect();
            match &reference {
                None => reference = Some(sums),
                Some(r) => assert_eq!(&sums, r, "threads = {threads}"),
            }
        }
    }
}
