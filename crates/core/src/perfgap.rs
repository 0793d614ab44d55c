//! The performance study: the same kernels run as ResearchScript —
//! tree-walking, bytecode, fused, register-IR JIT, and vectorized-builtin
//! tiers — and as native Rust — naive, optimized, and parallel — with
//! cross-tier verification before any time is trusted.
//!
//! [`measure_gaps`] is the one measurement of this tier ladder. Four
//! tables read its result: E5 (the gap figure), E11 (the interpreter
//! ablation), E16 ([`gap_closure`]) and E22 ([`jit_gap`]). E6
//! ([`measure_scaling`]) times thread scaling separately.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

use rcr_kernels::verify::{close, close_slices};
use rcr_kernels::{dotaxpy, matmul, montecarlo, par, reduce, spmv, stencil};
use rcr_minilang::{
    run_source, run_source_vm, run_source_vm_fused, run_source_vm_jit_counted, Value,
};
use rcr_stats::regression::{amdahl_speedup, fit_amdahl};

use crate::harness::{chain_tol, measure, verify, verify_pi, Measurement, MAX_ULPS};
use crate::{Error, Result};

/// Study configuration. `quick` shrinks sizes/reps by ~50× so unit tests
/// and CI can exercise every code path in seconds; `reproduce` uses the
/// full sizes unless given `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct GapConfig {
    /// Use reduced problem sizes and repetitions.
    pub quick: bool,
    /// Worker threads for the parallel tiers (defaults to
    /// [`par::default_threads`]).
    pub threads: usize,
}

impl Default for GapConfig {
    fn default() -> Self {
        GapConfig {
            quick: false,
            threads: par::default_threads(),
        }
    }
}

impl GapConfig {
    /// Quick configuration for tests.
    pub fn quick() -> Self {
        GapConfig {
            quick: true,
            threads: 2,
        }
    }

    pub(crate) fn reps(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }
}

/// One execution tier of the gap study, in ladder order (slowest first).
///
/// The display names here are the single source of truth: every table and
/// figure (`reproduce e5`/`e11`/`e16`/`e22`, the render module) takes tier labels
/// from [`Tier::name`] so prose, tables, and legends cannot drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Tier {
    /// ResearchScript on the tree-walking interpreter.
    Interp,
    /// ResearchScript on the plain bytecode VM.
    Vm,
    /// ResearchScript on the bytecode VM after the peephole /
    /// superinstruction pass.
    VmFused,
    /// ResearchScript with the register-IR JIT tier on top of the fused
    /// VM: hot functions compile to typed register code at runtime.
    VmJit,
    /// ResearchScript using the vectorized builtins (which delegate to
    /// the `rcr_kernels::simd` lane abstraction, so this tier runs the
    /// same multi-accumulator kernels as native SIMD and pays only
    /// interpreter dispatch).
    Vectorized,
    /// Native Rust, naive variant.
    NativeNaive,
    /// Native Rust, locality/allocation-optimized variant.
    NativeOptimized,
    /// Native Rust, parallel variant.
    NativeParallel,
}

impl Tier {
    /// Every tier, in ladder order.
    pub const ALL: [Tier; 8] = [
        Tier::Interp,
        Tier::Vm,
        Tier::VmFused,
        Tier::VmJit,
        Tier::Vectorized,
        Tier::NativeNaive,
        Tier::NativeOptimized,
        Tier::NativeParallel,
    ];

    /// The human-readable tier label used by every table and figure.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Interp => "tree-walk",
            Tier::Vm => "bytecode VM",
            Tier::VmFused => "fused VM",
            Tier::VmJit => "JIT VM",
            Tier::Vectorized => "vectorized",
            Tier::NativeNaive => "native naive",
            Tier::NativeOptimized => "native optimized",
            Tier::NativeParallel => "native parallel",
        }
    }
}

/// All execution tiers for one kernel. Tiers a kernel cannot express (e.g.
/// a vectorized Monte-Carlo) are `None`.
#[derive(Debug, Clone, Serialize, Default)]
pub struct TierTimes {
    /// ResearchScript on the tree-walking interpreter.
    pub interp: Option<Measurement>,
    /// ResearchScript on the bytecode VM.
    pub vm: Option<Measurement>,
    /// ResearchScript on the fused (peephole-optimized) bytecode VM.
    pub vm_fused: Option<Measurement>,
    /// ResearchScript on the register-IR JIT tier.
    pub vm_jit: Option<Measurement>,
    /// ResearchScript using the vectorized builtins.
    pub vectorized: Option<Measurement>,
    /// Native Rust, naive variant.
    pub native_naive: Option<Measurement>,
    /// Native Rust, locality/allocation-optimized variant.
    pub native_optimized: Option<Measurement>,
    /// Native Rust, parallel variant.
    pub native_parallel: Option<Measurement>,
}

impl TierTimes {
    /// The measured time for `tier`, if that tier ran on this kernel.
    pub fn get(&self, tier: Tier) -> Option<Measurement> {
        match tier {
            Tier::Interp => self.interp,
            Tier::Vm => self.vm,
            Tier::VmFused => self.vm_fused,
            Tier::VmJit => self.vm_jit,
            Tier::Vectorized => self.vectorized,
            Tier::NativeNaive => self.native_naive,
            Tier::NativeOptimized => self.native_optimized,
            Tier::NativeParallel => self.native_parallel,
        }
    }

    /// The faster (by median) of the measured serial native tiers — the
    /// denominator of the E11 gaps and the E16 and E22 closure metrics.
    pub fn native_best_serial(&self) -> Option<Measurement> {
        [self.native_optimized, self.native_naive]
            .into_iter()
            .flatten()
            .min_by(|a, b| a.median_s.total_cmp(&b.median_s))
    }
}

/// One kernel's row in the gap table/figure.
#[derive(Debug, Clone, Serialize, Default)]
pub struct KernelGap {
    /// Kernel name (`dot`, `saxpy`, `mc-pi`, `matmul`).
    pub kernel: String,
    /// Human-readable problem size.
    pub size: String,
    /// Hex of the f64 bit pattern all four script tiers produced — they
    /// are verified bit-identical before any time is trusted.
    pub checksum: String,
    /// Functions the JIT compiled on one run of the kernel's script.
    pub jit_fns_compiled: u64,
    /// Measured tiers.
    pub tiers: TierTimes,
}

impl KernelGap {
    /// Speedup of `tier_s` relative to the tree-walk tier; `None` when
    /// either is missing.
    pub fn speedup_vs_interp(&self, tier: Option<Measurement>) -> Option<f64> {
        let base = self.tiers.interp?;
        let t = tier?;
        Some(base.median_s / t.median_s)
    }
}

// ---- ResearchScript kernel sources ------------------------------------

fn dot_script(n: usize, vectorized: bool) -> String {
    let compute = if vectorized {
        "let r = vdot(a, b);".to_owned()
    } else {
        "fn dot(a, b, n) {\n  let acc = 0;\n  for i in range(0, n) { acc = acc + a[i] * b[i]; }\n  return acc;\n}\nlet r = dot(a, b, n);"
            .to_owned()
    };
    format!(
        "let n = {n};\nlet a = zeros(n);\nlet b = zeros(n);\nfor i in range(0, n) {{\n  a[i] = (i % 7) * 0.25;\n  b[i] = ((i % 5) + 1) * 0.5;\n}}\n{compute}\nr"
    )
}

fn saxpy_script(n: usize, vectorized: bool) -> String {
    let compute = if vectorized {
        "vaxpy(2.5, x, y);".to_owned()
    } else {
        "for i in range(0, n) { y[i] = y[i] + 2.5 * x[i]; }".to_owned()
    };
    format!(
        "let n = {n};\nlet x = zeros(n);\nlet y = zeros(n);\nfor i in range(0, n) {{\n  x[i] = (i % 7) * 0.25;\n  y[i] = ((i % 5) + 1) * 0.5;\n}}\n{compute}\nvsum(y)"
    )
}

fn mcpi_script(n: usize) -> String {
    // Park–Miller LCG: every product stays below 2^53, so f64 arithmetic is
    // exact and all tiers (and the native verifier) agree bit-for-bit.
    format!(
        "fn mcpi(n) {{\n  let seed = 12345;\n  let hits = 0;\n  for i in range(0, n) {{\n    seed = (seed * 16807) % 2147483647;\n    let x = seed / 2147483647;\n    seed = (seed * 16807) % 2147483647;\n    let y = seed / 2147483647;\n    if x * x + y * y <= 1 {{ hits = hits + 1; }}\n  }}\n  return 4 * hits / n;\n}}\nmcpi({n})"
    )
}

fn matmul_script(n: usize) -> String {
    format!(
        "fn matmul(a, b, c, n) {{\n  for i in range(0, n) {{\n    for j in range(0, n) {{\n      let acc = 0;\n      for k in range(0, n) {{ acc = acc + a[i * n + k] * b[k * n + j]; }}\n      c[i * n + j] = acc;\n    }}\n  }}\n}}\nlet n = {n};\nlet a = zeros(n * n);\nlet b = zeros(n * n);\nlet c = zeros(n * n);\nfor i in range(0, n * n) {{\n  a[i] = (i % 7) * 0.25;\n  b[i] = ((i % 5) + 1) * 0.5;\n}}\nmatmul(a, b, c, n);\nvsum(c)"
    )
}

/// Every ResearchScript kernel the performance study executes, labeled with
/// kernel and variant, at audit-friendly sizes — exposed so the lint gate
/// can assert the study's own scripts are diagnostic-free.
pub fn study_scripts() -> Vec<(String, String)> {
    vec![
        ("dot".to_owned(), dot_script(64, false)),
        ("dot-vectorized".to_owned(), dot_script(64, true)),
        ("saxpy".to_owned(), saxpy_script(64, false)),
        ("saxpy-vectorized".to_owned(), saxpy_script(64, true)),
        ("mcpi".to_owned(), mcpi_script(1000)),
        ("matmul".to_owned(), matmul_script(8)),
    ]
}

// ---- native reference data matching the scripts ------------------------

fn script_vec_a(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 7) as f64 * 0.25).collect()
}

fn script_vec_b(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 5) + 1) as f64 * 0.5).collect()
}

/// Native Park–Miller Monte-Carlo π, bit-identical to the script version —
/// including its use of f64 modulo, which is exactly how the "naive native
/// port" of a script looks (and why it is surprisingly slow: `%` on f64 is
/// a libm call).
fn mcpi_native(n: u64) -> f64 {
    let mut seed = 12345f64;
    let mut hits = 0u64;
    for _ in 0..n {
        seed = (seed * 16807.0) % 2147483647.0;
        let x = seed / 2147483647.0;
        seed = (seed * 16807.0) % 2147483647.0;
        let y = seed / 2147483647.0;
        if x * x + y * y <= 1.0 {
            hits += 1;
        }
    }
    4.0 * hits as f64 / n as f64
}

/// Optimized native Park–Miller π: identical sample sequence, but the LCG
/// runs in u64 integer arithmetic (the expert rewrite of [`mcpi_native`]).
fn mcpi_native_optimized(n: u64) -> f64 {
    let mut seed: u64 = 12345;
    let mut hits = 0u64;
    for _ in 0..n {
        seed = (seed * 16807) % 2147483647;
        let x = seed as f64 / 2147483647.0;
        seed = (seed * 16807) % 2147483647;
        let y = seed as f64 / 2147483647.0;
        if x * x + y * y <= 1.0 {
            hits += 1;
        }
    }
    4.0 * hits as f64 / n as f64
}

// ---- verification helpers -----------------------------------------------

fn value_to_f64(v: Value) -> Result<f64> {
    match v {
        Value::Num(n) => Ok(n),
        other => Err(Error::Script(format!(
            "expected numeric result, got {other:?}"
        ))),
    }
}

/// A minilang entry point: parse, compile and run a script on one tier,
/// returning its value and the number of functions the JIT compiled (0
/// off the JIT tier).
type ScriptRunner = fn(&str) -> rcr_minilang::Result<(Value, u32)>;

/// The four script tiers every kernel runs, each through its own minilang
/// entry point (timing includes parsing, compilation, analysis, and JIT
/// translation — the full warmup a user pays).
const SCRIPT_TIERS: [(Tier, ScriptRunner); 4] = [
    (Tier::Interp, |src| Ok((run_source(src)?, 0))),
    (Tier::Vm, |src| Ok((run_source_vm(src)?, 0))),
    (Tier::VmFused, |src| Ok((run_source_vm_fused(src)?, 0))),
    (Tier::VmJit, run_source_vm_jit_counted),
];

/// Checks that `tier` reproduced the kernel's reference result bit for bit.
fn same_bits(kernel: &str, tier: Tier, got: f64, want: f64) -> Result<()> {
    verify(got.to_bits() == want.to_bits(), || {
        format!(
            "{kernel}: tier `{}` diverged ({got} vs {want}, bits {:016x} vs {:016x})",
            tier.name(),
            got.to_bits(),
            want.to_bits()
        )
    })
}

// ---- the kernel table -----------------------------------------------------

/// Naive, optimized and parallel native timings of one kernel.
type NativeTimes = [Measurement; 3];

/// One kernel of the tier ladder.
struct Kernel {
    name: &'static str,
    /// Problem size: quick, full.
    n: [usize; 2],
    size: fn(usize) -> String,
    /// The scalar-loop script all four script tiers run.
    script: fn(usize) -> String,
    /// The same computation through the vectorized builtins, when the
    /// kernel has one.
    vectorized: Option<fn(usize) -> String>,
    /// Times the native tiers, each checked against the scripts' shared
    /// result first: `(n, script result, reps, threads)`.
    native: fn(usize, f64, usize, usize) -> Result<NativeTimes>,
}

const KERNELS: [Kernel; 4] = [
    Kernel {
        name: "dot",
        n: [20_000, 1_000_000],
        size: |n| format!("n={n}"),
        script: |n| dot_script(n, false),
        vectorized: Some(|n| dot_script(n, true)),
        native: native_dot,
    },
    Kernel {
        name: "saxpy",
        n: [20_000, 1_000_000],
        size: |n| format!("n={n}"),
        script: |n| saxpy_script(n, false),
        vectorized: Some(|n| saxpy_script(n, true)),
        native: native_saxpy,
    },
    Kernel {
        name: "mc-pi",
        n: [5_000, 200_000],
        size: |n| format!("samples={n}"),
        script: mcpi_script,
        vectorized: None, // no vectorized form of the sampling loop
        native: native_mcpi,
    },
    Kernel {
        name: "matmul",
        n: [16, 64],
        size: |n| format!("{n}x{n}"),
        script: matmul_script,
        vectorized: None, // no matrix builtin — deliberately
        native: native_matmul,
    },
];

/// Times the naive, optimized and parallel arms of one kernel; `check`
/// sees each arm's warm-up output, with the arm's tier, before the arm is
/// timed.
fn time_native<T>(
    reps: usize,
    [naive, optimized, parallel]: [&dyn Fn() -> T; 3],
    check: impl Fn(Tier, T) -> Result<()>,
) -> Result<NativeTimes> {
    Ok([
        measure(reps, naive, |v| check(Tier::NativeNaive, v))?,
        measure(reps, optimized, |v| check(Tier::NativeOptimized, v))?,
        measure(reps, parallel, |v| check(Tier::NativeParallel, v))?,
    ])
}

// The scripts' inputs are multiples of 1/8 and every partial sum stays far
// below 2^50, so each summation order is exact: the dot, saxpy and matmul
// arms reproduce the scripts' bits, however they associate.

fn native_dot(n: usize, script: f64, reps: usize, threads: usize) -> Result<NativeTimes> {
    let (a, b) = (script_vec_a(n), script_vec_b(n));
    time_native(
        reps,
        [
            &|| dotaxpy::dot_naive(&a, &b),
            &|| dotaxpy::dot_optimized(&a, &b),
            &|| dotaxpy::dot_parallel(&a, &b, threads),
        ],
        |tier, v| same_bits("dot", tier, v, script),
    )
}

fn native_saxpy(n: usize, script: f64, reps: usize, threads: usize) -> Result<NativeTimes> {
    let (x, base) = (script_vec_a(n), script_vec_b(n));
    // Every run updates a fresh copy of `y`, as the script does.
    let axpy = |kernel: &dyn Fn(&mut [f64])| {
        let mut y = base.clone();
        kernel(&mut y);
        y
    };
    time_native(
        reps,
        [
            &|| axpy(&|y| dotaxpy::axpy_naive(2.5, &x, y)),
            &|| axpy(&|y| dotaxpy::axpy_optimized(2.5, &x, y)),
            &|| axpy(&|y| dotaxpy::axpy_parallel(2.5, &x, y, threads)),
        ],
        |tier, y| same_bits("saxpy", tier, y.iter().sum(), script),
    )
}

fn native_mcpi(n: usize, script: f64, reps: usize, threads: usize) -> Result<NativeTimes> {
    let n = n as u64;
    // The serial ports replay the scripted LCG bit for bit; the parallel
    // arm draws its own sample, so it gets the statistical bound.
    time_native(
        reps,
        [&|| mcpi_native(n), &|| mcpi_native_optimized(n), &|| {
            montecarlo::pi_parallel(n, 42, threads)
        }],
        |tier, v| match tier {
            Tier::NativeParallel => verify_pi("mc-pi native parallel", v, n),
            _ => same_bits("mc-pi", tier, v, script),
        },
    )
}

fn native_matmul(n: usize, script: f64, reps: usize, threads: usize) -> Result<NativeTimes> {
    let (a, b) = (script_vec_a(n * n), script_vec_b(n * n));
    time_native(
        reps,
        [
            &|| matmul::naive(&a, &b, n),
            &|| matmul::blocked(&a, &b, n),
            &|| matmul::parallel(&a, &b, n, threads),
        ],
        |tier, c| same_bits("matmul", tier, c.iter().sum(), script),
    )
}

// ---- the study ----------------------------------------------------------

/// Measures the tier ladder: every kernel on the four script tiers, the
/// vectorized builtins and the three native tiers. E5, E11, E16 and E22
/// all read this one result.
///
/// The tree-walk tier's warm-up result is each kernel's reference. Every
/// other arm must reproduce its bits before it is timed, except the
/// native parallel mc-π, which draws its own sample and must land within
/// six standard deviations of π.
///
/// # Errors
/// Script errors and [`Error::VerificationFailed`] when an arm disagrees.
pub fn measure_gaps(config: &GapConfig) -> Result<Vec<KernelGap>> {
    let reps = config.reps();
    KERNELS
        .iter()
        .map(|k| {
            let n = k.n[usize::from(!config.quick)];
            let src = (k.script)(n);
            let mut reference = None;
            let mut jit_fns_compiled = 0;
            let mut times = Vec::with_capacity(SCRIPT_TIERS.len());
            for (tier, run) in SCRIPT_TIERS {
                let m = measure(
                    reps,
                    || run(&src),
                    |out| {
                        let (value, compiled) = out?;
                        jit_fns_compiled += compiled;
                        let got = value_to_f64(value)?;
                        same_bits(k.name, tier, got, *reference.get_or_insert(got))
                    },
                )?;
                times.push(Some(m));
            }
            let [interp, vm, vm_fused, vm_jit]: [Option<Measurement>; 4] =
                times.try_into().expect("one time per script tier");
            let result = reference.expect("the tree-walk tier set the reference");
            let vectorized = k
                .vectorized
                .map(|script| {
                    let src = script(n);
                    measure(
                        reps,
                        || run_source_vm(&src),
                        |out| same_bits(k.name, Tier::Vectorized, value_to_f64(out?)?, result),
                    )
                })
                .transpose()?;
            let [naive, optimized, parallel] = (k.native)(n, result, reps, config.threads)?;
            Ok(KernelGap {
                kernel: k.name.into(),
                size: (k.size)(n),
                checksum: format!("{:016x}", result.to_bits()),
                jit_fns_compiled: u64::from(jit_fns_compiled),
                tiers: TierTimes {
                    interp,
                    vm,
                    vm_fused,
                    vm_jit,
                    vectorized,
                    native_naive: Some(naive),
                    native_optimized: Some(optimized),
                    native_parallel: Some(parallel),
                },
            })
        })
        .collect()
}

/// Fraction of the log-scale `from` → `native` gap that `to` closes:
/// `(ln from − ln to) / (ln from − ln native)`. Zero when there is no gap;
/// 1.0 would mean `to` reached native speed.
fn log_gap_closed(from: f64, to: f64, native: f64) -> f64 {
    let log_gap = (from / native).ln();
    if log_gap.abs() > 1e-9 {
        (from / to).ln() / log_gap
    } else {
        0.0
    }
}

// ---- gap closure (E16) --------------------------------------------------

/// How much of the bytecode-VM → native gap the fused VM closes on one
/// kernel (experiment E16).
#[derive(Debug, Clone, Serialize)]
pub struct GapClosure {
    /// Kernel name.
    pub kernel: String,
    /// Human-readable problem size.
    pub size: String,
    /// Plain bytecode-VM median seconds.
    pub vm_s: f64,
    /// Fused-VM median seconds.
    pub vm_fused_s: f64,
    /// Best serial native median seconds (optimized, else naive).
    pub native_best_s: f64,
    /// Fused-VM speedup over the plain VM (`vm / fused`).
    pub speedup: f64,
    /// Fraction of the log-scale VM → native gap the fused tier closes:
    /// `(ln vm − ln fused) / (ln vm − ln native)`. Zero when fusion buys
    /// nothing; 1.0 would mean the fused VM reached native speed.
    pub closure_frac: f64,
    /// Register-IR JIT median seconds, when that tier was measured.
    pub vm_jit_s: Option<f64>,
    /// JIT speedup over the fused VM (`fused / jit`).
    pub jit_speedup: Option<f64>,
    /// Fraction of the log-scale VM → native gap the JIT tier closes:
    /// `(ln vm − ln jit) / (ln vm − ln native)`.
    pub jit_closure_frac: Option<f64>,
}

/// Derives the E16 gap-closure rows from a measured gap study. Kernels
/// missing any of the three required tiers are skipped.
pub fn gap_closure(gaps: &[KernelGap]) -> Vec<GapClosure> {
    gaps.iter()
        .filter_map(|g| {
            let vm = g.tiers.vm?.median_s;
            let fused = g.tiers.vm_fused?.median_s;
            let native = g.tiers.native_best_serial()?.median_s;
            let jit = g.tiers.vm_jit.map(|t| t.median_s);
            Some(GapClosure {
                kernel: g.kernel.clone(),
                size: g.size.clone(),
                vm_s: vm,
                vm_fused_s: fused,
                native_best_s: native,
                speedup: vm / fused,
                closure_frac: log_gap_closed(vm, fused, native),
                vm_jit_s: jit,
                jit_speedup: jit.map(|j| fused / j),
                jit_closure_frac: jit.map(|j| log_gap_closed(vm, j, native)),
            })
        })
        .collect()
}

// ---- JIT gap closure (E22) ----------------------------------------------

/// One kernel's row in the E22 table: the four script tiers, the native
/// reference, and how much of the remaining fused-VM → native gap the
/// register-IR JIT closes.
#[derive(Debug, Clone, Serialize)]
pub struct JitGapRow {
    /// Kernel name (`dot`, `saxpy`, `mc-pi`, `matmul`).
    pub kernel: String,
    /// Human-readable problem size.
    pub size: String,
    /// Hex of the f64 bit pattern every script tier's result shares
    /// ([`KernelGap::checksum`]).
    pub checksum: String,
    /// Tree-walk median seconds.
    pub interp_s: f64,
    /// Plain bytecode-VM median seconds.
    pub vm_s: f64,
    /// Fused-VM median seconds.
    pub vm_fused_s: f64,
    /// Register-IR JIT median seconds.
    pub vm_jit_s: f64,
    /// Best serial native median seconds (the closure denominator).
    pub native_best_s: f64,
    /// Functions the JIT engine compiled on one run of the script.
    pub jit_fns_compiled: u64,
    /// JIT speedup over the fused VM (`fused / jit`) — the headline.
    pub jit_speedup_vs_fused: f64,
    /// JIT speedup over the tree-walk baseline (`interp / jit`).
    pub jit_speedup_vs_interp: f64,
    /// Fraction of the log-scale fused-VM → native gap the JIT closes:
    /// `(ln fused − ln jit) / (ln fused − ln native)`. Zero when the JIT
    /// buys nothing; 1.0 would mean it reached native speed.
    pub remaining_gap_closed: f64,
}

/// Derives the E22 rows from a measured gap study. Kernels missing a
/// script tier or a serial native tier are skipped.
pub fn jit_gap(gaps: &[KernelGap]) -> Vec<JitGapRow> {
    gaps.iter()
        .filter_map(|g| {
            let secs = |t: Option<Measurement>| Some(t?.median_s);
            let interp = secs(g.tiers.interp)?;
            let fused = secs(g.tiers.vm_fused)?;
            let jit = secs(g.tiers.vm_jit)?;
            let native = secs(g.tiers.native_best_serial())?;
            Some(JitGapRow {
                kernel: g.kernel.clone(),
                size: g.size.clone(),
                checksum: g.checksum.clone(),
                interp_s: interp,
                vm_s: secs(g.tiers.vm)?,
                vm_fused_s: fused,
                vm_jit_s: jit,
                native_best_s: native,
                jit_fns_compiled: g.jit_fns_compiled,
                jit_speedup_vs_fused: fused / jit,
                jit_speedup_vs_interp: interp / jit,
                remaining_gap_closed: log_gap_closed(fused, jit, native),
            })
        })
        .collect()
}

// ---- scaling study (E6) ---------------------------------------------------

/// One kernel's thread-scaling curve.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingCurve {
    /// Kernel name.
    pub kernel: String,
    /// Problem size description.
    pub size: String,
    /// Thread counts measured.
    pub threads: Vec<usize>,
    /// Speedups relative to the 1-thread run of the same implementation.
    pub speedup: Vec<f64>,
    /// Serial fraction from the least-squares Amdahl fit.
    pub amdahl_serial_fraction: f64,
    /// Amdahl-model speedups at the measured thread counts (the fitted
    /// curve for the figure).
    pub amdahl_fit: Vec<f64>,
}

/// Thread counts to sweep: 1, 2, 4, ... up to `max` (always including
/// `max`).
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let mut ts = Vec::new();
    let mut t = 1;
    while t < max {
        ts.push(t);
        t *= 2;
    }
    ts.push(max.max(1));
    ts.dedup();
    ts
}

/// Median seconds of `run(t)` at every thread count `t`, each count's
/// warm-up output passed to `check` before that count is timed.
fn thread_medians<T>(
    reps: usize,
    threads: &[usize],
    run: impl Fn(usize) -> T,
    check: impl Fn(T) -> Result<()>,
) -> Result<Vec<f64>> {
    threads
        .iter()
        .map(|&t| Ok(measure(reps, || run(t), &check)?.median_s))
        .collect()
}

/// Runs the scaling study for matmul, stencil, mc-pi, and sum-reduction,
/// plus the skewed SpMV under two schedulers. Every thread count is
/// checked before it is timed, under E18's tolerance policy: against the
/// serial kernel bitwise (stencil, SpMV) or within ULPs plus an absolute
/// floor (matmul, sum); mc-π within six standard deviations of π.
///
/// # Errors
/// [`Error::VerificationFailed`] when an arm disagrees with its serial
/// reference; statistics errors from the Amdahl fit (degenerate inputs).
pub fn measure_scaling(config: &GapConfig) -> Result<Vec<ScalingCurve>> {
    let reps = config.reps();
    let threads = thread_sweep(config.threads.max(2));
    let mut out = Vec::new();

    let mut push_curve = |kernel: &str, size: String, times: Vec<f64>| -> Result<()> {
        let speedup: Vec<f64> = times.iter().map(|t| times[0] / t).collect();
        let tf: Vec<f64> = threads.iter().map(|&t| t as f64).collect();
        let f = fit_amdahl(&tf, &speedup)?;
        let fit: Vec<f64> = tf.iter().map(|&p| amdahl_speedup(f, p)).collect();
        out.push(ScalingCurve {
            kernel: kernel.to_owned(),
            size,
            threads: threads.clone(),
            speedup,
            amdahl_serial_fraction: f,
            amdahl_fit: fit,
        });
        Ok(())
    };
    let mismatch = |kernel: &str| format!("E6 {kernel}: a thread count disagrees with serial");

    // matmul — compute-bound, near-linear.
    {
        let n = if config.quick { 48 } else { 192 };
        let a = matmul::gen_matrix(n, 1);
        let b = matmul::gen_matrix(n, 2);
        let reference = matmul::blocked(&a, &b, n);
        let tol = f64::EPSILON * n as f64 * 8.0;
        let times = thread_medians(
            reps,
            &threads,
            |t| matmul::parallel(&a, &b, n, t),
            |c| {
                verify(close_slices(&reference, &c, MAX_ULPS, tol), || {
                    mismatch("matmul")
                })
            },
        )?;
        push_curve("matmul", format!("{n}x{n}"), times)?;
    }

    // stencil — memory-bound, sub-linear.
    {
        let (rows, cols, sweeps) = if config.quick {
            (64, 64, 4)
        } else {
            (512, 512, 20)
        };
        let g = stencil::gen_grid(rows, cols, 3);
        let reference = stencil::optimized(&g, rows, cols, sweeps);
        let times = thread_medians(
            reps,
            &threads,
            |t| stencil::parallel(&g, rows, cols, sweeps, t),
            |grid| verify(grid == reference, || mismatch("stencil")),
        )?;
        push_curve("stencil", format!("{rows}x{cols}x{sweeps}"), times)?;
    }

    // mc-pi — embarrassingly parallel. Each thread count draws its own
    // sample, so the check is statistical.
    {
        let n: u64 = if config.quick { 100_000 } else { 4_000_000 };
        let times = thread_medians(
            reps,
            &threads,
            |t| montecarlo::pi_parallel(n, 7, t),
            |est| verify_pi("E6 mc-pi", est, n),
        )?;
        push_curve("mc-pi", format!("samples={n}"), times)?;
    }

    // sum reduction — bandwidth-bound floor.
    {
        let n = if config.quick { 1 << 20 } else { 1 << 25 };
        let xs = reduce::gen_data(n, 9);
        let reference = reduce::sum_naive(&xs);
        let tol = chain_tol(n, xs.iter().map(|v| v.abs()).sum());
        let times = thread_medians(
            reps,
            &threads,
            |t| reduce::sum_parallel(&xs, t),
            |sum| verify(close(reference, sum, MAX_ULPS, tol), || mismatch("sum")),
        )?;
        push_curve("sum", format!("n={n}"), times)?;
    }

    // skewed spmv under two schedulers — irregular work, where the
    // work-stealing series separates from static partitioning (E17's
    // headline, shown here on the E6 scaling axes).
    {
        let (n, max_nnz) = if config.quick {
            (2_000, 64)
        } else {
            (20_000, 256)
        };
        let m = spmv::gen_sparse(n, max_nnz, 3);
        let x = dotaxpy::gen_vector(n, 9);
        let reference: Vec<u64> = spmv::serial(&m, &x).iter().map(|v| v.to_bits()).collect();
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for sched in [par::Scheduler::SpawnStatic, par::Scheduler::WorkStealing] {
            let kernel = format!("spmv ({})", sched.name());
            // Zeroed before each thread count, so a count that skips rows
            // cannot pass on the previous count's values.
            let times = threads
                .iter()
                .map(|&t| {
                    slots.iter().for_each(|s| s.store(0, Ordering::Relaxed));
                    let meas = measure(
                        reps,
                        || {
                            sched.for_each(n, t, 32, |s, e| {
                                for (r, slot) in slots.iter().enumerate().take(e).skip(s) {
                                    slot.store(
                                        spmv::row_dot(&m, &x, r).to_bits(),
                                        Ordering::Relaxed,
                                    );
                                }
                            })
                        },
                        |()| {
                            let same = slots
                                .iter()
                                .zip(&reference)
                                .all(|(s, &r)| s.load(Ordering::Relaxed) == r);
                            verify(same, || mismatch(&kernel))
                        },
                    )?;
                    Ok(meas.median_s)
                })
                .collect::<Result<Vec<f64>>>()?;
            push_curve(&kernel, format!("n={n} nnz<={max_nnz}"), times)?;
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_compute_correct_values() {
        let run = |tier: fn(&str) -> rcr_minilang::Result<Value>, src: &str| {
            value_to_f64(tier(src).unwrap()).unwrap()
        };
        // Small sizes, exact expectations computed natively.
        let n = 100;
        let a = script_vec_a(n);
        let b = script_vec_b(n);
        let expect = dotaxpy::dot_naive(&a, &b);
        assert_eq!(run(run_source, &dot_script(n, false)), expect);
        assert_eq!(run(run_source_vm, &dot_script(n, false)), expect);
        assert_eq!(run(run_source_vm, &dot_script(n, true)), expect);

        let mut y = b.clone();
        dotaxpy::axpy_naive(2.5, &a, &mut y);
        let expect: f64 = y.iter().sum();
        let got = run(run_source_vm, &saxpy_script(n, false));
        assert!((got - expect).abs() < 1e-9);

        assert_eq!(run(run_source_vm, &mcpi_script(1000)), mcpi_native(1000));

        let nm = 8;
        let am = script_vec_a(nm * nm);
        let bm = script_vec_b(nm * nm);
        let expect: f64 = matmul::naive(&am, &bm, nm).iter().sum();
        let got = run(run_source, &matmul_script(nm));
        assert!((got - expect).abs() < 1e-9 * expect.abs());
    }

    #[test]
    fn mcpi_native_estimates_pi() {
        let est = mcpi_native(100_000);
        assert!((est - std::f64::consts::PI).abs() < 0.05, "est = {est}");
    }

    #[test]
    fn quick_gap_study_runs_and_orders_tiers() {
        let gaps = measure_gaps(&GapConfig::quick()).unwrap();
        assert_eq!(gaps.len(), 4);
        for g in &gaps {
            let interp = g.tiers.interp.expect("interp measured");
            let vm = g.tiers.vm.expect("vm measured");
            // The VM beats the tree-walker on every kernel (the headline
            // E11 ordering) — allow generous slack for CI noise.
            assert!(
                vm.median_s < interp.median_s,
                "{}: vm {} !< interp {}",
                g.kernel,
                vm.median_s,
                interp.median_s
            );
            // Native naive beats both script tiers by a wide margin.
            let nat = g.tiers.native_naive.expect("native measured");
            assert!(
                nat.median_s < vm.median_s,
                "{}: native {} !< vm {}",
                g.kernel,
                nat.median_s,
                vm.median_s
            );
            let s = g
                .speedup_vs_interp(g.tiers.native_naive)
                .expect("both present");
            assert!(s > 2.0, "{}: interp->native speedup only {s}", g.kernel);
        }
        let dot = &gaps[0];
        assert_eq!(dot.kernel, "dot");
        assert!(dot.tiers.vectorized.is_some());
        assert!(dot.speedup_vs_interp(None).is_none());
        // Every kernel measures the fused tier, and the closure rows
        // derive from it.
        for g in &gaps {
            assert!(g.tiers.vm_fused.is_some(), "{}: fused missing", g.kernel);
            assert!(g.tiers.vm_jit.is_some(), "{}: jit missing", g.kernel);
        }
        let closures = gap_closure(&gaps);
        assert_eq!(closures.len(), 4);
        for c in &closures {
            assert!(c.speedup > 0.0, "{}: speedup {}", c.kernel, c.speedup);
            assert!(c.closure_frac.is_finite(), "{}", c.kernel);
            let js = c.jit_speedup.expect("jit tier measured");
            assert!(js > 0.0, "{}: jit speedup {}", c.kernel, js);
            assert!(
                c.jit_closure_frac.expect("jit tier measured").is_finite(),
                "{}",
                c.kernel
            );
        }
    }

    #[test]
    fn quick_jit_study_verifies_and_orders_tiers() {
        let rows = jit_gap(&measure_gaps(&GapConfig::quick()).unwrap());
        assert_eq!(rows.len(), 4);
        let kernels: Vec<&str> = rows.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(kernels, ["dot", "saxpy", "mc-pi", "matmul"]);
        for r in &rows {
            // The checksum is the shared bit pattern — 16 hex digits.
            assert_eq!(r.checksum.len(), 16, "{}: {}", r.kernel, r.checksum);
            assert!(
                u64::from_str_radix(&r.checksum, 16).is_ok(),
                "{}: {}",
                r.kernel,
                r.checksum
            );
            // Every cell measured something and the engine actually
            // compiled code (main always tiers up at threshold 1).
            assert!(r.vm_jit_s > 0.0, "{}", r.kernel);
            assert!(r.jit_fns_compiled >= 1, "{}: nothing compiled", r.kernel);
            assert!(
                r.jit_speedup_vs_fused > 0.0 && r.jit_speedup_vs_fused.is_finite(),
                "{}",
                r.kernel
            );
            assert!(r.remaining_gap_closed.is_finite(), "{}", r.kernel);
            // The JIT must at least beat the tree-walker outright.
            assert!(
                r.jit_speedup_vs_interp > 1.0,
                "{}: jit {} !< interp {}",
                r.kernel,
                r.vm_jit_s,
                r.interp_s
            );
        }
    }

    #[test]
    fn tier_table_is_the_single_name_source() {
        assert_eq!(Tier::ALL.len(), 8);
        let names: Vec<&str> = Tier::ALL.iter().map(|t| t.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate tier names");
        assert_eq!(Tier::VmFused.name(), "fused VM");
        assert_eq!(Tier::VmJit.name(), "JIT VM");
        // `get` routes each enum member to the matching struct field.
        let t = TierTimes {
            vm_fused: Some(Measurement {
                median_s: 1.0,
                runs: 1,
            }),
            ..Default::default()
        };
        assert!(t.get(Tier::VmFused).is_some());
        assert!(t.get(Tier::Vm).is_none());
        assert!(t.native_best_serial().is_none());
    }

    #[test]
    fn native_best_serial_is_the_faster_serial_tier() {
        let tt = |s: f64| {
            Some(Measurement {
                median_s: s,
                runs: 1,
            })
        };
        let naive_faster = TierTimes {
            native_naive: tt(0.811),
            native_optimized: tt(0.861),
            native_parallel: tt(0.1),
            ..Default::default()
        };
        assert_eq!(naive_faster.native_best_serial(), tt(0.811));
        let optimized_faster = TierTimes {
            native_naive: tt(2.0),
            native_optimized: tt(1.0),
            ..Default::default()
        };
        assert_eq!(optimized_faster.native_best_serial(), tt(1.0));
        let naive_only = TierTimes {
            native_naive: tt(2.0),
            ..Default::default()
        };
        assert_eq!(naive_only.native_best_serial(), tt(2.0));
    }

    #[test]
    fn gap_closure_handles_missing_and_degenerate_tiers() {
        let tt = |s: f64| {
            Some(Measurement {
                median_s: s,
                runs: 1,
            })
        };
        let gaps = vec![
            KernelGap {
                kernel: "full".into(),
                size: "n=1".into(),
                tiers: TierTimes {
                    interp: tt(16.0),
                    vm: tt(8.0),
                    vm_fused: tt(4.0),
                    vm_jit: tt(2.0),
                    native_naive: tt(2.0),
                    native_optimized: tt(1.0),
                    ..Default::default()
                },
                ..Default::default()
            },
            KernelGap {
                kernel: "no-fused".into(),
                size: "n=1".into(),
                tiers: TierTimes {
                    vm: tt(8.0),
                    native_naive: tt(1.0),
                    ..Default::default()
                },
                ..Default::default()
            },
        ];
        let jit_rows = jit_gap(&gaps);
        assert_eq!(jit_rows.len(), 1, "kernel without script tiers is skipped");
        let j = &jit_rows[0];
        assert_eq!(
            (j.jit_speedup_vs_fused, j.jit_speedup_vs_interp),
            (2.0, 8.0)
        );
        // ln(4/2) / ln(4/1): the JIT closed half the fused → native gap.
        assert!((j.remaining_gap_closed - 0.5).abs() < 1e-12);
        let rows = gap_closure(&gaps);
        assert_eq!(rows.len(), 1, "kernel without a fused tier is skipped");
        let r = &rows[0];
        assert_eq!(r.kernel, "full");
        assert!((r.speedup - 2.0).abs() < 1e-12);
        // ln(8/4) / ln(8/1): closed one of three halvings.
        assert!(
            (r.closure_frac - 1.0 / 3.0).abs() < 1e-12,
            "{}",
            r.closure_frac
        );
        assert_eq!(r.native_best_s, 1.0, "the faster serial native tier");
    }

    #[test]
    fn quick_scaling_study_shapes() {
        let curves = measure_scaling(&GapConfig::quick()).unwrap();
        assert_eq!(curves.len(), 6);
        assert_eq!(curves[4].kernel, "spmv (spawn-static)");
        assert_eq!(curves[5].kernel, "spmv (work-stealing)");
        for c in &curves {
            assert_eq!(c.threads[0], 1);
            assert!(
                (c.speedup[0] - 1.0).abs() < 1e-9,
                "{}: base speedup",
                c.kernel
            );
            assert!(
                (0.0..=1.0).contains(&c.amdahl_serial_fraction),
                "{}",
                c.kernel
            );
            assert_eq!(c.amdahl_fit.len(), c.threads.len());
            assert!(c.speedup.iter().all(|&s| s > 0.0));
        }
    }

    #[test]
    fn thread_sweep_shape() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(2), vec![1, 2]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
    }

    #[test]
    fn verification_failure_is_detected() {
        // The native parallel mc-π arm answers to the statistical bound.
        let n = 200_000;
        assert!(verify_pi("t", montecarlo::pi_parallel(n, 42, 2), n).is_ok());
        let e = verify_pi("t", 3.2, n).unwrap_err();
        assert!(matches!(e, Error::VerificationFailed(_)));
    }

    #[test]
    fn bitwise_verification_rejects_divergence() {
        assert!(same_bits("k", Tier::Vm, 1.5, 1.5).is_ok());
        let err = same_bits("k", Tier::Vm, 1.5 + 1e-15, 1.5).unwrap_err();
        assert!(matches!(err, Error::VerificationFailed(_)), "{err}");
        assert!(err.to_string().contains("bytecode VM"), "{err}");
    }

    #[test]
    fn perturbed_native_arm_fails_before_timing() {
        let (n, reps) = (1000, 3);
        let (a, b) = (script_vec_a(n), script_vec_b(n));
        let script = dotaxpy::dot_naive(&a, &b);
        assert!(native_dot(n, script, reps, 2).is_ok());
        // A reference one ULP off fails the first arm's check.
        let off = f64::from_bits(script.to_bits() + 1);
        let err = native_dot(n, off, reps, 2).unwrap_err();
        assert!(err.to_string().contains("native naive"), "{err}");
        // A parallel arm that drops one term runs once and is never timed.
        let calls = std::cell::Cell::new(0);
        let err = time_native(
            reps,
            [
                &|| dotaxpy::dot_naive(&a, &b),
                &|| dotaxpy::dot_optimized(&a, &b),
                &|| {
                    calls.set(calls.get() + 1);
                    dotaxpy::dot_parallel(&a[..n - 1], &b[..n - 1], 2)
                },
            ],
            |tier, v| same_bits("dot", tier, v, script),
        )
        .unwrap_err();
        assert!(matches!(err, Error::VerificationFailed(_)), "{err}");
        assert!(err.to_string().contains("native parallel"), "{err}");
        assert_eq!(calls.get(), 1, "only the warm-up ran");
    }

    #[test]
    fn perturbed_scaling_arm_fails_before_timing() {
        let xs = reduce::gen_data(4096, 9);
        let reference = reduce::sum_naive(&xs);
        let tol = chain_tol(xs.len(), xs.iter().map(|v| v.abs()).sum());
        let calls = [0, 1, 2].map(|_| std::cell::Cell::new(0));
        let err = thread_medians(
            3,
            &[1, 2],
            |t| {
                calls[t].set(calls[t].get() + 1);
                // The two-thread arm loses the last element.
                reduce::sum_parallel(&xs[..xs.len() + 1 - t], t)
            },
            |sum| verify(close(reference, sum, MAX_ULPS, tol), || "sum".into()),
        )
        .unwrap_err();
        assert!(matches!(err, Error::VerificationFailed(_)), "{err}");
        assert_eq!(calls[1].get(), 4, "one warm-up and three timed runs");
        assert_eq!(calls[2].get(), 1, "the perturbed count is never timed");
    }
}
