//! Machine-readable run summaries (`BENCH_<ID>.json`).
//!
//! Every timing experiment the `reproduce` binary runs with `--out` also
//! emits one small JSON file per experiment: the host it ran on, the
//! handful of headline metrics a reader would paste into a tracking
//! sheet, and a determinism checksum folded over the metric bits.
//! Successive runs on the same host can be diffed mechanically; runs on
//! different hosts carry enough context to explain their numbers.

use serde::Serialize;

use rcr_core::colstudy::ColPoint;
use rcr_core::experiments::INDEX;
use rcr_core::jitstudy::JitGapRow;
use rcr_core::memstudy::MemPoint;
use rcr_core::perfgap::GapClosure;
use rcr_core::schedstudy::SchedPoint;
use rcr_core::servestudy::ServePoint;
use rcr_core::simstudy::SimPoint;

/// The machine a summary was measured on, plus the tuning environment
/// variables that change the numbers.
#[derive(Debug, Clone, Serialize)]
pub struct HostInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// `std::thread::available_parallelism()` (1 when unknown).
    pub available_parallelism: usize,
    /// `RCR_THREADS` if set (overrides every parallel tier's workers).
    pub rcr_threads: Option<String>,
    /// `RCR_TILE` if set (overrides the packed-matmul tile).
    pub rcr_tile: Option<String>,
}

impl HostInfo {
    /// Captures the current host.
    pub fn capture() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            available_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            rcr_threads: std::env::var("RCR_THREADS").ok(),
            rcr_tile: std::env::var("RCR_TILE").ok(),
        }
    }
}

/// One named metric of a summary.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    /// Stable metric name, e.g. `"rows_per_s/1000000/columnar+parallel"`.
    pub name: String,
    /// Metric value.
    pub value: f64,
    /// Unit label, e.g. `"rows/s"`.
    pub unit: &'static str,
}

/// One experiment run's machine-readable summary.
#[derive(Debug, Clone, Serialize)]
pub struct BenchSummary {
    /// Experiment id, e.g. `"E21"`.
    pub experiment: String,
    /// Paper artifact, e.g. `"Figure 11"`.
    pub artifact: String,
    /// Experiment title.
    pub title: String,
    /// Whether the run used `--quick` sizes.
    pub quick: bool,
    /// Host the numbers were measured on.
    pub host: HostInfo,
    /// Headline metrics.
    pub metrics: Vec<Metric>,
    /// Hex digest folded over every metric name and value bit pattern —
    /// two runs with identical metrics have identical checksums.
    pub checksum: String,
}

impl BenchSummary {
    /// Starts an empty summary for experiment `id`, taking its artifact
    /// and title from [`INDEX`].
    ///
    /// # Panics
    /// When `id` is not an [`INDEX`] entry.
    pub fn new(id: &str, quick: bool) -> Self {
        let info = INDEX
            .iter()
            .find(|i| i.id == id)
            .unwrap_or_else(|| panic!("experiment `{id}` is not in INDEX"));
        BenchSummary {
            experiment: info.id.to_owned(),
            artifact: info.artifact.to_owned(),
            title: info.title.to_owned(),
            quick,
            host: HostInfo::capture(),
            metrics: Vec::new(),
            checksum: String::new(),
        }
    }

    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Seals the summary: computes the checksum over the metrics.
    pub fn finish(mut self) -> Self {
        let mut h = 0xBEAC_0000u64 ^ self.experiment.len() as u64;
        for m in &self.metrics {
            for b in m.name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
            h = (h ^ m.value.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self.checksum = format!("{h:016x}");
        self
    }
}

/// E16 metrics: per (kernel, size), the fused-VM speedup and the fraction
/// of the VM→native gap it closes.
pub fn summarize_e16(quick: bool, rows: &[GapClosure]) -> BenchSummary {
    let mut s = BenchSummary::new("E16", quick);
    for r in rows {
        s.push(format!("speedup/{}/{}", r.kernel, r.size), r.speedup, "x");
        s.push(
            format!("closure/{}/{}", r.kernel, r.size),
            r.closure_frac,
            "frac",
        );
    }
    s.finish()
}

/// E17 metrics: per (workload, scheduler), the per-call cost.
pub fn summarize_e17(quick: bool, rows: &[SchedPoint]) -> BenchSummary {
    let mut s = BenchSummary::new("E17", quick);
    for r in rows {
        s.push(
            format!("per_call_us/{}/{}", r.workload, r.scheduler),
            r.per_call_us,
            "us",
        );
    }
    s.finish()
}

/// E18 metrics: per (kernel, tier), the DRAM-level effective bandwidth —
/// the converged ceiling the figure is about.
pub fn summarize_e18(quick: bool, rows: &[MemPoint]) -> BenchSummary {
    let mut s = BenchSummary::new("E18", quick);
    for r in rows.iter().filter(|r| r.level == "DRAM") {
        s.push(format!("dram_gbps/{}/{}", r.kernel, r.tier), r.gbps, "GB/s");
    }
    s.finish()
}

/// E19 metrics: per (fault level, offered multiplier), sustained
/// throughput and completed-job p99.
pub fn summarize_e19(quick: bool, rows: &[ServePoint]) -> BenchSummary {
    let mut s = BenchSummary::new("E19", quick);
    for r in rows {
        s.push(
            format!("sustained_jps/{}/{}x", r.fault_level, r.offered_multiplier),
            r.sustained_jps,
            "jobs/s",
        );
        s.push(
            format!("p99_ms/{}/{}x", r.fault_level, r.offered_multiplier),
            r.p99_ms,
            "ms",
        );
    }
    s.finish()
}

/// E20 metrics: the false-positive rate and per-class detection rates.
pub fn summarize_e20(quick: bool, study: &rcr_core::absintstudy::AbsintStudy) -> BenchSummary {
    let mut s = BenchSummary::new("E20", quick);
    s.push("false_positive_rate", study.false_positive_rate, "frac");
    for c in &study.classes {
        s.push(format!("detection/{}", c.class), c.detection_rate, "frac");
    }
    s.finish()
}

/// E21 metrics: per (population size, tier), rows scanned per second,
/// plus the per-size speedup of the best columnar tier over the row
/// engine.
pub fn summarize_e21(quick: bool, rows: &[ColPoint]) -> BenchSummary {
    let mut s = BenchSummary::new("E21", quick);
    for r in rows {
        s.push(
            format!("rows_per_s/{}/{}", r.rows, r.tier),
            r.rows_per_s,
            "rows/s",
        );
    }
    let sizes: Vec<usize> = {
        let mut v: Vec<usize> = rows.iter().map(|r| r.rows).collect();
        v.dedup();
        v
    };
    for n in sizes {
        let best = rows
            .iter()
            .filter(|r| r.rows == n && r.tier != "row")
            .map(|r| r.speedup_vs_row)
            .fold(0.0f64, f64::max);
        s.push(format!("best_speedup_vs_row/{n}"), best, "x");
    }
    s.finish()
}

/// E22 metrics: per kernel, the JIT speedups and how much of the
/// remaining fused-VM → native gap the JIT closes.
///
/// Metric names deliberately omit the problem size so a `--smoke` run's
/// summary stays structurally comparable (`bench-diff --structural`) to a
/// committed full-size one — the `quick` flag records which sizes ran.
pub fn summarize_e22(quick: bool, rows: &[JitGapRow]) -> BenchSummary {
    let mut s = BenchSummary::new("E22", quick);
    for r in rows {
        s.push(
            format!("jit_speedup_vs_fused/{}", r.kernel),
            r.jit_speedup_vs_fused,
            "x",
        );
        s.push(
            format!("jit_speedup_vs_interp/{}", r.kernel),
            r.jit_speedup_vs_interp,
            "x",
        );
        s.push(
            format!("remaining_gap_closed/{}", r.kernel),
            r.remaining_gap_closed,
            "frac",
        );
    }
    s.finish()
}

/// E23 metrics: per (federation tier, arm), simulated events per second
/// and the speedup over the serial-heap baseline at the same size.
///
/// The sweep's two federation sizes are labeled by ordinal (`small`,
/// `large`) rather than by node count, so a `--smoke` run's summary
/// stays structurally comparable (`bench-diff --structural`) to a
/// committed full-size one — the `quick` flag records which sizes ran.
pub fn summarize_e23(quick: bool, rows: &[SimPoint]) -> BenchSummary {
    let mut s = BenchSummary::new("E23", quick);
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.nodes).collect();
    sizes.dedup();
    for r in rows {
        let tier = match sizes.iter().position(|&n| n == r.nodes) {
            Some(0) => "small".to_owned(),
            Some(1) => "large".to_owned(),
            Some(i) => format!("size{i}"),
            None => unreachable!("every row's size is in the dedup list"),
        };
        s.push(
            format!("events_per_s/{tier}/{}", r.arm),
            r.events_per_s,
            "events/s",
        );
        s.push(
            format!("speedup_vs_heap/{tier}/{}", r.arm),
            r.speedup_vs_heap,
            "x",
        );
    }
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_tracks_metrics() {
        let mut a = BenchSummary::new("E21", true);
        a.push("m", 1.5, "x");
        let a = a.finish();
        let mut b = BenchSummary::new("E21", true);
        b.push("m", 1.5, "x");
        let b = b.finish();
        assert_eq!(a.checksum, b.checksum);
        let mut c = BenchSummary::new("E21", true);
        c.push("m", 2.5, "x");
        let c = c.finish();
        assert_ne!(a.checksum, c.checksum);
        assert_eq!(a.checksum.len(), 16);
    }

    #[test]
    fn summary_headers_match_the_experiment_index() {
        use rcr_core::absintstudy::{AbsintStudy, FactDensity};
        let absint = AbsintStudy {
            n_clean: 0,
            clean_with_findings: 0,
            false_positive_rate: 0.0,
            classes: Vec::new(),
            density: FactDensity {
                n_scripts: 0,
                n_functions: 0,
                finite_cost_functions: 0,
                finite_cost_fraction: 0.0,
                float_array_proofs: 0,
                main_vars: 0,
                typed_main_vars: 0,
                typed_main_var_fraction: 0.0,
                finite_program_cost: 0,
            },
            admission: Vec::new(),
        };
        let summaries = [
            summarize_e16(true, &[]),
            summarize_e17(true, &[]),
            summarize_e18(true, &[]),
            summarize_e19(true, &[]),
            summarize_e20(true, &absint),
            summarize_e21(true, &[]),
            summarize_e22(true, &[]),
            summarize_e23(true, &[]),
        ];
        for (s, n) in summaries.iter().zip(16..) {
            let info = &INDEX[n - 1];
            assert_eq!(info.id, format!("E{n}"));
            assert_eq!(
                (s.experiment.as_str(), s.artifact.as_str(), s.title.as_str()),
                (info.id, info.artifact, info.title)
            );
        }
    }

    #[test]
    fn e21_summary_names_sizes_and_tiers() {
        let rows = vec![
            ColPoint {
                rows: 1000,
                tier: "row".into(),
                median_s: 0.1,
                rows_per_s: 4e4,
                speedup_vs_row: 1.0,
                checksum: 7,
                verified: true,
            },
            ColPoint {
                rows: 1000,
                tier: "columnar".into(),
                median_s: 0.01,
                rows_per_s: 4e5,
                speedup_vs_row: 10.0,
                checksum: 7,
                verified: true,
            },
        ];
        let s = summarize_e21(true, &rows);
        assert!(s
            .metrics
            .iter()
            .any(|m| m.name == "rows_per_s/1000/columnar"));
        let best = s
            .metrics
            .iter()
            .find(|m| m.name == "best_speedup_vs_row/1000")
            .expect("speedup metric");
        assert!((best.value - 10.0).abs() < 1e-12);
        assert!(!s.checksum.is_empty());
    }

    #[test]
    fn e22_summary_names_are_size_free() {
        let row = |kernel: &str| JitGapRow {
            kernel: kernel.to_owned(),
            size: "n=20000".to_owned(),
            checksum: "0123456789abcdef".to_owned(),
            interp_s: 1.0,
            vm_s: 0.5,
            vm_fused_s: 0.2,
            vm_jit_s: 0.1,
            native_best_s: 0.05,
            jit_fns_compiled: 1,
            jit_speedup_vs_fused: 2.0,
            jit_speedup_vs_interp: 10.0,
            remaining_gap_closed: 0.5,
        };
        let s = summarize_e22(true, &[row("dot"), row("matmul")]);
        let names: Vec<&str> = s.metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"jit_speedup_vs_fused/dot"), "{names:?}");
        assert!(names.contains(&"remaining_gap_closed/matmul"), "{names:?}");
        // Size-free: quick and full runs must align structurally.
        assert!(names.iter().all(|n| !n.contains("n=")), "{names:?}");
        assert_eq!(s.metrics.len(), 6);
    }

    #[test]
    fn e23_summary_names_are_size_free() {
        let point = |nodes: usize, arm: &str, speedup: f64| SimPoint {
            nodes,
            jobs: nodes * 100,
            shards: 2,
            arm: arm.to_owned(),
            threads: if arm == "windowed-parallel" { 2 } else { 1 },
            windows: 65,
            events: 1000,
            median_s: 0.5,
            events_per_s: 2000.0,
            speedup_vs_heap: speedup,
            checksum: 7,
            verified: true,
        };
        let rows = vec![
            point(32, "serial-heap", 1.0),
            point(32, "windowed-parallel", 2.0),
            point(10_240, "serial-heap", 1.0),
            point(10_240, "windowed-parallel", 3.5),
        ];
        let s = summarize_e23(true, &rows);
        let names: Vec<&str> = s.metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(
            names.contains(&"events_per_s/small/serial-heap"),
            "{names:?}"
        );
        assert!(
            names.contains(&"speedup_vs_heap/large/windowed-parallel"),
            "{names:?}"
        );
        // Size-free: quick and full sweeps must align structurally.
        assert!(names.iter().all(|n| !n.contains("10240")), "{names:?}");
        assert_eq!(s.metrics.len(), 8);
    }
}
