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
use rcr_core::memstudy::MemPoint;
use rcr_core::perfgap::{GapClosure, JitGapRow};
use rcr_core::schedstudy::SchedPoint;
use rcr_core::servestudy::ServePoint;
use rcr_core::simstudy::SimPoint;

use crate::studies::Study;

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
    /// Seals `metrics` into a summary of `study`, with the checksum folded
    /// over them.
    pub fn new(study: &Study, quick: bool, metrics: Vec<Metric>) -> Self {
        let mut h = 0xBEAC_0000u64 ^ study.id.len() as u64;
        for m in &metrics {
            for b in m.name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
            h = (h ^ m.value.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        BenchSummary {
            experiment: study.id.to_owned(),
            artifact: study.artifact.to_owned(),
            title: study.title.to_owned(),
            quick,
            host: HostInfo::capture(),
            metrics,
            checksum: format!("{h:016x}"),
        }
    }
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// E16 metrics: per kernel, the fused-VM speedup and the fraction of the
/// VM→native gap it closes. Like E22's, the names omit the problem size,
/// so a `--smoke` summary stays structurally comparable to a full one.
pub fn summarize_e16(rows: &[GapClosure]) -> Vec<Metric> {
    let mut s = Vec::new();
    for r in rows {
        s.push(Metric::new(format!("speedup/{}", r.kernel), r.speedup, "x"));
        s.push(Metric::new(
            format!("closure/{}", r.kernel),
            r.closure_frac,
            "frac",
        ));
    }
    s
}

/// E17 metrics: per (workload, scheduler), the per-call cost.
pub fn summarize_e17(rows: &[SchedPoint]) -> Vec<Metric> {
    let mut s = Vec::new();
    for r in rows {
        s.push(Metric::new(
            format!("per_call_us/{}/{}", r.workload, r.scheduler),
            r.per_call_us,
            "us",
        ));
    }
    s
}

/// E18 metrics: per (kernel, tier), the DRAM-level effective bandwidth —
/// the converged ceiling the figure is about.
pub fn summarize_e18(rows: &[MemPoint]) -> Vec<Metric> {
    let mut s = Vec::new();
    for r in rows.iter().filter(|r| r.level == "DRAM") {
        s.push(Metric::new(
            format!("dram_gbps/{}/{}", r.kernel, r.tier),
            r.gbps,
            "GB/s",
        ));
    }
    s
}

/// E19 metrics: per (fault level, offered multiplier), sustained
/// throughput and completed-job p99.
pub fn summarize_e19(rows: &[ServePoint]) -> Vec<Metric> {
    let mut s = Vec::new();
    for r in rows {
        s.push(Metric::new(
            format!("sustained_jps/{}/{}x", r.fault_level, r.offered_multiplier),
            r.sustained_jps,
            "jobs/s",
        ));
        s.push(Metric::new(
            format!("p99_ms/{}/{}x", r.fault_level, r.offered_multiplier),
            r.p99_ms,
            "ms",
        ));
    }
    s
}

/// E20 metrics: the false-positive rate and per-class detection rates.
pub fn summarize_e20(study: &rcr_core::absintstudy::AbsintStudy) -> Vec<Metric> {
    let mut s = vec![Metric::new(
        "false_positive_rate",
        study.false_positive_rate,
        "frac",
    )];
    for c in &study.classes {
        s.push(Metric::new(
            format!("detection/{}", c.class),
            c.detection_rate,
            "frac",
        ));
    }
    s
}

/// E21 metrics: per (population size, tier), rows scanned per second,
/// plus the per-size speedup of the best columnar tier over the row
/// engine.
pub fn summarize_e21(rows: &[ColPoint]) -> Vec<Metric> {
    let mut s = Vec::new();
    for r in rows {
        s.push(Metric::new(
            format!("rows_per_s/{}/{}", r.rows, r.tier),
            r.rows_per_s,
            "rows/s",
        ));
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
        s.push(Metric::new(format!("best_speedup_vs_row/{n}"), best, "x"));
    }
    s
}

/// E22 metrics: per kernel, the JIT speedups and how much of the
/// remaining fused-VM → native gap the JIT closes.
///
/// Metric names deliberately omit the problem size so a `--smoke` run's
/// summary stays structurally comparable (`bench-diff --structural`) to a
/// committed full-size one — the `quick` flag records which sizes ran.
pub fn summarize_e22(rows: &[JitGapRow]) -> Vec<Metric> {
    let mut s = Vec::new();
    for r in rows {
        s.push(Metric::new(
            format!("jit_speedup_vs_fused/{}", r.kernel),
            r.jit_speedup_vs_fused,
            "x",
        ));
        s.push(Metric::new(
            format!("jit_speedup_vs_interp/{}", r.kernel),
            r.jit_speedup_vs_interp,
            "x",
        ));
        s.push(Metric::new(
            format!("remaining_gap_closed/{}", r.kernel),
            r.remaining_gap_closed,
            "frac",
        ));
    }
    s
}

/// E23 metrics: per (federation tier, arm), simulated events per second
/// and the speedup over the serial-heap baseline at the same size.
///
/// The sweep's two federation sizes are labeled by ordinal (`small`,
/// `large`) rather than by node count, so a `--smoke` run's summary
/// stays structurally comparable (`bench-diff --structural`) to a
/// committed full-size one — the `quick` flag records which sizes ran.
pub fn summarize_e23(rows: &[SimPoint]) -> Vec<Metric> {
    let mut s = Vec::new();
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.nodes).collect();
    sizes.dedup();
    for r in rows {
        let tier = match sizes.iter().position(|&n| n == r.nodes) {
            Some(0) => "small".to_owned(),
            Some(1) => "large".to_owned(),
            Some(i) => format!("size{i}"),
            None => unreachable!("every row's size is in the dedup list"),
        };
        s.push(Metric::new(
            format!("events_per_s/{tier}/{}", r.arm),
            r.events_per_s,
            "events/s",
        ));
        s.push(Metric::new(
            format!("speedup_vs_heap/{tier}/{}", r.arm),
            r.speedup_vs_heap,
            "x",
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::studies::STUDIES;
    use rcr_core::harness::Measurement;
    use rcr_core::perfgap::{gap_closure, KernelGap, TierTimes};

    #[test]
    fn checksum_tracks_metrics() {
        let e21 = STUDIES[20];
        let a = BenchSummary::new(&e21, true, vec![Metric::new("m", 1.5, "x")]);
        let b = BenchSummary::new(&e21, true, vec![Metric::new("m", 1.5, "x")]);
        assert_eq!(a.checksum, b.checksum);
        let c = BenchSummary::new(&e21, true, vec![Metric::new("m", 2.5, "x")]);
        assert_ne!(a.checksum, c.checksum);
        assert_eq!(a.checksum.len(), 16);
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
        let s = summarize_e21(&rows);
        assert!(s.iter().any(|m| m.name == "rows_per_s/1000/columnar"));
        let best = s
            .iter()
            .find(|m| m.name == "best_speedup_vs_row/1000")
            .expect("speedup metric");
        assert!((best.value - 10.0).abs() < 1e-12);
    }

    #[test]
    fn e16_summary_names_are_size_free() {
        let gaps: Vec<KernelGap> = [("dot", "n=20000"), ("mc-pi", "samples=5000")]
            .into_iter()
            .map(|(kernel, size)| {
                let t = |median_s| Some(Measurement { median_s, runs: 1 });
                KernelGap {
                    kernel: kernel.into(),
                    size: size.into(),
                    tiers: TierTimes {
                        vm: t(0.4),
                        vm_fused: t(0.2),
                        native_optimized: t(0.01),
                        ..Default::default()
                    },
                    ..Default::default()
                }
            })
            .collect();
        let s = summarize_e16(&gap_closure(&gaps));
        let names: Vec<&str> = s.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "speedup/dot",
                "closure/dot",
                "speedup/mc-pi",
                "closure/mc-pi"
            ]
        );
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
        let s = summarize_e22(&[row("dot"), row("matmul")]);
        let names: Vec<&str> = s.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"jit_speedup_vs_fused/dot"), "{names:?}");
        assert!(names.contains(&"remaining_gap_closed/matmul"), "{names:?}");
        // Size-free: quick and full runs must align structurally.
        assert!(names.iter().all(|n| !n.contains("n=")), "{names:?}");
        assert_eq!(s.len(), 6);
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
        let s = summarize_e23(&rows);
        let names: Vec<&str> = s.iter().map(|m| m.name.as_str()).collect();
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
        assert_eq!(s.len(), 8);
    }
}
